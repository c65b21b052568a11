"""Spans around clustermod's public functions, recorded from outside the program.

The tracer swaps each traced function or method for a wrapper, at every place
the function object is bound: its defining module or class, and every
`from .x import f` site in the other clustermod modules (for example
`engine.div_exact` or `verify.psi`).  A site left unbound would silently read
zero.  `uninstall` puts every original back.

Each wrapper records one span (id, parent id, name, op id, start, end) in
memory and keeps a per-name call count and self time, which is the span's
duration minus the time covered by its child spans.
"""
from __future__ import annotations

import array
import itertools
import json
import sys
import time

_MARK = "__perfbench_traced__"

# (span name, module, class or None, attribute).  Several attributes may share
# one span name; they are counted as one group.
TARGETS = (
    ("symbolic.LaurentPoly.__mul__", "symbolic", "LaurentPoly", "__mul__"),
    ("symbolic.Monomial.__mul__", "symbolic", "Monomial", "__mul__"),
    ("symbolic.div_exact", "symbolic", None, "div_exact"),
    ("symbolic.substitute", "symbolic", None, "substitute"),
    ("symbolic.eval_tropical", "symbolic", None, "eval_tropical"),
    ("quivers.IceQuiver.mutate", "quivers", "IceQuiver", "mutate"),
    ("quivers.build", "quivers", None, "build_gamma_full"),
    ("quivers.build", "quivers", None, "build_gamma_l"),
    ("quivers.build", "quivers", None, "build_qxi"),
    ("quivers.build", "quivers", None, "build_qcheck"),
    ("quivers.build", "quivers", None, "build_qxil"),
    ("engine.Seed.mutate_with_edge", "engine", "Seed", "mutate_with_edge"),
    ("engine.make_record", "engine", None, "make_record"),
    ("engine.separation", "engine", None, "separation"),
    ("engine.enumerate_exchange_graph", "engine", None, "enumerate_exchange_graph"),
    ("reps.RepContext.rep", "reps", "RepContext", "rep"),
    ("reps.RepContext.hom", "reps", "RepContext", "hom"),
    ("reps.RepContext.socle", "reps", "RepContext", "socle"),
    ("reps.RepContext.ext1_cluster", "reps", "RepContext", "ext1_cluster"),
    ("reps.RepContext.exchange_pairs", "reps", "RepContext", "exchange_pairs"),
    ("reps.RepContext.im_h", "reps", "RepContext", "im_h"),
    ("reps.RepContext.kappa", "reps", "RepContext", "kappa"),
    ("hlmap.psi", "hlmap", None, "psi"),
    ("hlmap.hw_extract", "hlmap", None, "hw_extract"),
    ("verify.examples", "verify", None, "verify_worked_examples_a3"),
    ("verify.goldens", "verify", None, "verify_quiver_goldens"),
    ("verify.psi-kr", "verify", None, "verify_psi_kr_images"),
    ("verify.trop-socle", "verify", None, "verify_tropical_socle"),
    ("verify.yhat", "verify", None, "verify_yhat_identity"),
    ("verify.exchange", "verify", None, "verify_exchange_exponents"),
    ("verify.hw-exchange", "verify", None, "verify_hw_exchange"),
    ("verify.tsystem", "verify", None, "verify_tsystem"),
    ("verify.sequence", "verify", None, "verify_grid_sequence"),
    ("verify.properties", "verify", None, "verify_properties"),
    ("verify.bundle", "verify", None, "_bundle"),
    ("verify.run_check", "verify", None, "run_check"),
    ("cli.main", "cli", None, "main"),
)

VERIFY_CHECKS = tuple(name.split(".", 1)[1] for name, mod, _, attr in TARGETS
                      if mod == "verify" and attr.startswith("verify_"))


def span_names() -> tuple[str, ...]:
    return tuple(dict.fromkeys(name for name, *_ in TARGETS))


def per_layer_names() -> tuple[str, ...]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for name in span_names():
        if name == "cli.main" or name == "verify.bundle":
            out.append(f"{name}.self_s")
            continue
        out += [f"{name}.calls", f"{name}.self_s"]
        if name == "symbolic.div_exact":
            out += [f"{name}.terms_in", f"{name}.terms_max"]
        elif name == "reps.RepContext.rep":
            out.append(f"{name}.cache_hit_ratio")
        elif name == "reps.RepContext.im_h":
            out.append(f"{name}.unsupported_ratio")
        elif name.split(".", 1)[1] in VERIFY_CHECKS:
            out.append(f"{name}.items")
    out.insert(out.index("engine.enumerate_exchange_graph.self_s") + 1, "engine.new_seed_ratio")
    return tuple(out) + ("trace.wall_s", "trace.overhead_s")


def clustermod_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "clustermod" or name.startswith("clustermod."))]


def installed_wrappers() -> list[str]:
    """Every place in the loaded clustermod modules where a wrapper is bound."""
    found = []
    for mod in clustermod_modules():
        for attr, val in vars(mod).items():
            if getattr(val, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{a}" for a, v in vars(val).items()
                          if getattr(v, _MARK, False)]
    return found


class Tracer:
    """Installs span wrappers, and keeps spans and per-name statistics."""

    def __init__(self):
        self.names = span_names()
        self._name_id = {n: k for k, n in enumerate(self.names)}
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.errors = dict.fromkeys(self.names, 0)
        self.counters = {"div_terms_in": 0, "div_terms_max": 0, "rep_hits": 0,
                         "bfs_seeds": 0, "bfs_mutations": 0}
        self.items = dict.fromkeys(VERIFY_CHECKS, 0)
        self.op = 0
        self._stack: list[list] = []
        self._ids = itertools.count()
        self.span_id = array.array("q")
        self.span_parent = array.array("q")
        self.span_name = array.array("i")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._sites: list[tuple[object, str, object]] = []

    # ---- hooks for the counts measured where the work happens ---------------

    def _before(self, name):
        if name == "symbolic.div_exact":
            def hook(args, kwargs):
                size = len(args[0])
                self.counters["div_terms_in"] += size
                self.counters["div_terms_max"] = max(self.counters["div_terms_max"], size)
            return hook
        if name == "reps.RepContext.rep":
            def hook(args, kwargs):
                self.counters["rep_hits"] += tuple(args[1]) in args[0]._rep_cache
            return hook
        if name == "engine.enumerate_exchange_graph":
            def hook(args, kwargs):
                self.counters["bfs_mutations"] -= self.calls["engine.Seed.mutate_with_edge"]
            return hook
        return None

    def _after(self, name):
        if name == "engine.enumerate_exchange_graph":
            def hook(result):
                self.counters["bfs_mutations"] += self.calls["engine.Seed.mutate_with_edge"]
                self.counters["bfs_seeds"] += result.seed_count
            return hook
        check = name.split(".", 1)[1]
        if check in VERIFY_CHECKS:
            def hook(result):
                self.items[check] += result.items
            return hook
        return None

    # ---- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name):
        perf = time.perf_counter
        stack, ids = self._stack, self._ids
        calls, self_s, errors = self.calls, self.self_s, self.errors
        nid = self._name_id[name]
        out_id, out_parent, out_name = self.span_id, self.span_parent, self.span_name
        out_op, out_start, out_end = self.span_op, self.span_start, self.span_end
        before, after = self._before(name), self._after(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = next(ids)
            frame = [0.0, sid]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1
                self_s[name] += dur - frame[0]
                out_id.append(sid)
                out_parent.append(parent)
                out_name.append(nid)
                out_op.append(tracer.op)
                out_start.append(t0)
                out_end.append(t1)
            if after is not None:
                after(result)
            return result

        for attr in ("__name__", "__qualname__", "__doc__", "__wrapped__"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        for attr in ("cache_info", "cache_clear"):  # keep an lru_cache usable
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        if self._sites:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__: m for m in clustermod_modules()}
        for name, modname, clsname, attr in TARGETS:
            home = mods[f"clustermod.{modname}"]
            if clsname is not None:
                owner = getattr(home, clsname)
                original = vars(owner)[attr]
                wrapper = self._wrap(original, name)
                for a, v in list(vars(owner).items()):
                    if v is original:  # aliases such as LaurentPoly.__rmul__
                        self._bind(owner, a, wrapper)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name)
            for mod in mods.values():
                for a, v in list(vars(mod).items()):
                    if v is original:
                        self._bind(mod, a, wrapper)

    def _bind(self, owner, attr, wrapper):
        self._sites.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def bound_sites(self) -> set[str]:
        return {f"{o.__name__}.{a}" if isinstance(o, type(sys)) else f"{o.__module__}.{o.__qualname__}.{a}"
                for o, a, _ in self._sites}

    def uninstall(self):
        while self._sites:
            owner, attr, original = self._sites.pop()
            setattr(owner, attr, original)

    # ---- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values, keyed like per_layer_names() minus the trace.* pair."""
        out: dict[str, float] = {}
        for name in self.names:
            if name not in ("cli.main", "verify.bundle"):
                out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counters
        out["symbolic.div_exact.terms_in"] = c["div_terms_in"]
        out["symbolic.div_exact.terms_max"] = c["div_terms_max"]
        rep_calls = self.calls["reps.RepContext.rep"]
        out["reps.RepContext.rep.cache_hit_ratio"] = c["rep_hits"] / rep_calls if rep_calls else 0.0
        im_calls = self.calls["reps.RepContext.im_h"]
        out["reps.RepContext.im_h.unsupported_ratio"] = (
            self.errors["reps.RepContext.im_h"] / im_calls if im_calls else 0.0)
        out["engine.new_seed_ratio"] = (
            c["bfs_seeds"] / c["bfs_mutations"] if c["bfs_mutations"] else 0.0)
        for check, n in self.items.items():
            out[f"verify.{check}.items"] = n
        return out

    def write_spans(self, path: str):
        """One JSON header line, then each column's raw array (native byte order) in header order."""
        cols = [("id", self.span_id), ("parent", self.span_parent), ("name", self.span_name),
                ("op", self.span_op), ("start", self.span_start), ("end", self.span_end)]
        header = {"names": list(self.names), "count": len(self.span_id),
                  "columns": [[c, a.typecode, a.itemsize] for c, a in cols],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in cols:
                a.tofile(fh)
