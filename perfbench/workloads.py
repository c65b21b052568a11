"""Workload definitions: seeded scopes, one clustermod call per op, output checks.

Every op is a cold scope, as a `clustermod` command pays on each invocation:
the worker clears the package's caches before it, and an op builds its own
Cartan data, quivers, seeds and RepContext from the generated height function.
Ops reach clustermod only through module attributes (`cm.engine.X`), so a
traced run sees the wrappers the tracer binds there.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

import oracles
from tracer import VERIFY_CHECKS


@dataclass(frozen=True)
class Scope:
    cartan: str
    xi: tuple[tuple[int, int], ...]
    level: int

    @property
    def heights(self) -> dict[int, int]:
        return dict(self.xi)

    @property
    def xi_text(self) -> str:
        return ",".join(f"{i}:{v}" for i, v in self.xi)

    def to_json(self) -> dict:
        return {"cartan": self.cartan, "xi": self.xi_text, "level": self.level}


def draw_heights(cm, cartan, count: int, rng: random.Random) -> list[dict[int, int]]:
    """`count` height functions with distinct orientations.

    Each draw is a BFS from a random root of the Dynkin tree, taking a random
    +1/-1 step along every edge.  Orientations already drawn are redrawn, so a
    count of 2^(rank-1) covers every orientation of the tree once.
    """
    if count > 2 ** (cartan.rank - 1):
        raise ValueError(f"{cartan.name} has only {2 ** (cartan.rank - 1)} orientations")
    seen, out = set(), []
    for _ in range(10_000):
        if len(out) == count:
            return out
        root = rng.choice(cartan.vertices)
        xi, queue = {root: 0}, [root]
        while queue:
            v = queue.pop(0)
            for w in cartan.neighbors(v):
                if w not in xi:
                    xi[w] = xi[v] + rng.choice((1, -1))
                    queue.append(w)
        orientation = tuple(xi[a] > xi[b] for a, b in cartan.edges)
        if orientation not in seen:
            seen.add(orientation)
            out.append(cm.cartan.check_height_function(cartan, xi))
    raise RuntimeError(f"could not draw {count} orientations of {cartan.name}")


# ---- ops and their checks ---------------------------------------------------
# An op returns the program's output; its check returns (ok, fingerprint), where
# the fingerprint must repeat exactly whenever the op is run again in a process.


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def enum_op(cm, scope: Scope):
    cartan = cm.cartan.cartan_type(scope.cartan)
    quiver = cm.quivers.build_qcheck(cartan, scope.heights)
    return cm.engine.enumerate_exchange_graph(cm.engine.Seed.initial(quiver))


def enum_check(cm, scope: Scope, graph):
    letter, n = scope.cartan[0], int(scope.cartan[1:])
    want = oracles.cluster_counts(letter, n)
    got = (graph.seed_count, len(graph.edges), graph.variable_count)
    return graph.exhaustive and got == want, _digest(graph.report_json())


def verify_op(cm, scope: Scope):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cm.cli.main(["verify", "all", "--cartan", scope.cartan, "--xi", scope.xi_text,
                            "--level", str(scope.level)])
    return code, out.getvalue()


_SECONDS = re.compile(r" \(\d+\.\d+s\)$")


def verify_check(cm, scope: Scope, result):
    code, text = result
    lines = [_SECONDS.sub("", line) for line in text.splitlines()]
    checks = len(cm.verify.CHECK_NAMES)
    ok = code == 0 and len(lines) == checks and all(line.startswith("PASS ") for line in lines)
    return ok, _digest(lines)


def reps_op(cm, scope: Scope):
    cartan = cm.cartan.cartan_type(scope.cartan)
    ctx = cm.reps.RepContext(cartan, scope.heights)
    fresh = not ctx._rep_cache
    objs = ctx.indecomposables()
    socles = {str(o): ctx.socle(o) for o in objs}
    pairs = ctx.exchange_pairs()
    images = {}
    for x, y in pairs:
        for l_obj, n_obj in ((x, y), (y, x)):
            try:
                images[f"{l_obj}>{n_obj}"] = ctx.im_h(l_obj, n_obj).dims
            except cm.errors.ShiftCaseUnsupported:
                pass
    monomials = [str(cm.hlmap.psi(o, ctx, level)) for level in (2, 3, 4) for o in objs]
    return fresh, socles, {frozenset((str(x), str(y))) for x, y in pairs}, images, monomials


def reps_check(cm, scope: Scope, result):
    fresh, socles, pairs, images, monomials = result
    letter, n = scope.cartan[0], int(scope.cartan[1:])
    edges = cm.cartan.cartan_type(scope.cartan).edges
    arrows = oracles.arrows_of(edges, scope.heights)
    roots = oracles.positive_roots(letter, n, edges)
    want_socles = {f"shp:{i}": (0,) * n for i in range(1, n + 1)}
    want_socles.update({"mod:" + ",".join(map(str, r)): oracles.socle(arrows, n, r) for r in roots})
    # the image of tau^-1 L -> N is a nonzero submodule of N
    images_ok = all(
        any(dims) and all(0 <= a <= b for a, b in zip(dims, map(int, key.split(">mod:")[1].split(","))))
        for key, dims in images.items())
    ok = (fresh and socles == want_socles and pairs == oracles.exchange_pairs(arrows, n, roots)
          and images_ok and bool(images))
    return ok, _digest([sorted(socles.items()), sorted(map(sorted, pairs)), sorted(images.items()),
                        monomials])


def grid_op(cm, scope: Scope):
    cartan = cm.cartan.cartan_type(scope.cartan)
    xi = scope.heights
    return (cm.verify.run_check("sequence", cartan, xi, l=scope.level)
            + cm.verify.run_check("tsystem", cartan, xi, l=scope.level))


def grid_check(cm, scope: Scope, reports):
    out = []
    for report in reports:
        data = json.loads(report.to_json())
        del data["seconds"]
        out.append(data)
    return len(reports) == 2 and all(r.passed for r in reports), _digest(out)


# ---- workloads --------------------------------------------------------------

_SYMBOLIC = ("symbolic.LaurentPoly.__mul__", "symbolic.Monomial.__mul__", "symbolic.div_exact",
             "symbolic.substitute", "symbolic.eval_tropical")
_QUIVERS = ("quivers.IceQuiver.mutate", "quivers.build")


def _timed(*names):
    return tuple(f"{n}.{kind}" for n in names for kind in ("calls", "self_s"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scopes: tuple[tuple[str, int, int], ...]  # (Cartan type, orientations drawn, level)
    smoke: tuple[tuple[str, int, int], ...]  # a small batch for the self-test
    quiver: str  # initial quiver the set-up builds for each scope
    op: Callable
    check: Callable
    loads: tuple[str, ...]  # per-layer metrics this workload must drive above zero
    min_batches: int = 2  # enough ops per run for a median and a tail percentile

    def draw(self, cm, seed: int, smoke: bool = False) -> list[Scope]:
        """The batch: every drawn scope once, in a seeded order."""
        rng = random.Random(f"{self.name}:{seed}")
        scopes = []
        for name, count, level in self.smoke if smoke else self.scopes:
            cartan = cm.cartan.cartan_type(name)
            for xi in draw_heights(cm, cartan, count, rng):
                scopes.append(Scope(name, tuple(sorted(xi.items())), level))
        rng.shuffle(scopes)
        return scopes

    def build_inputs(self, cm, scope: Scope):
        cartan = cm.cartan.cartan_type(scope.cartan)
        xi = cm.cartan.check_height_function(cartan, scope.heights)
        if self.quiver == "qxi":
            return cm.quivers.build_qxi(cartan, xi)
        if self.quiver == "gamma":
            return cm.engine.Seed.initial(cm.quivers.build_gamma_l(cartan, xi, scope.level))
        return cm.engine.Seed.initial(cm.quivers.build_qcheck(cartan, xi))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enum",
            "exchange-graph BFS where every mutation is new work: symbolic kernel and engine "
            "mutation, no reps",
            scopes=(("A5", 16, 2), ("D4", 8, 2)),
            smoke=(("A3", 2, 2),),
            quiver="qcheck",
            op=enum_op,
            check=enum_check,
            loads=_timed(*_SYMBOLIC, *_QUIVERS, "engine.Seed.mutate_with_edge",
                         "engine.make_record", "engine.enumerate_exchange_graph")
            + ("symbolic.div_exact.terms_in", "symbolic.div_exact.terms_max",
               "engine.new_seed_ratio"),
        ),
        Workload(
            "verify",
            "`clustermod verify all` as users run it: a walk that revisits seeds, all ten "
            "checks and CLI formatting",
            # each op takes over a second: three batches give a median and a tail
            scopes=(("D4", 8, 2),),
            smoke=(("A3", 1, 2),),
            quiver="qcheck",
            op=verify_op,
            check=verify_check,
            min_batches=3,
            loads=_timed(*_SYMBOLIC, *_QUIVERS, "engine.Seed.mutate_with_edge",
                         "engine.make_record", "engine.separation",
                         "engine.enumerate_exchange_graph", "reps.RepContext.rep",
                         "reps.RepContext.hom", "reps.RepContext.socle", "reps.RepContext.im_h",
                         "reps.RepContext.kappa", "hlmap.psi", "hlmap.hw_extract",
                         "verify.run_check")
            + tuple(f"verify.{c}.{k}" for c in VERIFY_CHECKS for k in ("self_s", "items"))
            + ("verify.bundle.self_s", "cli.main.self_s", "engine.new_seed_ratio",
               "reps.RepContext.rep.cache_hit_ratio"),
        ),
        Workload(
            "reps",
            "Fraction linear algebra of the representation layer with no engine work: socles, "
            "exchange pairs, im_h, psi",
            scopes=(("D6", 32, 2),),
            smoke=(("A3", 2, 2),),
            quiver="qxi",
            op=reps_op,
            check=reps_check,
            loads=_timed("reps.RepContext.rep", "reps.RepContext.hom", "reps.RepContext.socle",
                         "reps.RepContext.ext1_cluster", "reps.RepContext.exchange_pairs",
                         "reps.RepContext.im_h", "hlmap.psi", "quivers.build")
            + ("reps.RepContext.im_h.unsupported_ratio", "reps.RepContext.rep.cache_hit_ratio"),
        ),
        Workload(
            "grid",
            "grid-quiver mutation sequence and T-system: engine records and hw extraction "
            "dominate, mutation is small",
            scopes=(("A5", 16, 5), ("D4", 8, 6)),
            smoke=(("A3", 1, 3),),
            quiver="gamma",
            op=grid_op,
            check=grid_check,
            loads=_timed(*_SYMBOLIC, *_QUIVERS, "engine.Seed.mutate_with_edge",
                         "engine.make_record", "hlmap.hw_extract", "verify.sequence",
                         "verify.tsystem", "verify.run_check")
            + ("verify.sequence.items", "verify.tsystem.items"),
        ),
    )
}
