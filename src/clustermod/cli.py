"""Command-line surface: quiver construction, engine runs, psi evaluation,
verification reports, and aligned tables."""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .cartan import cartan_type, check_level, linear_height, parse_height
from .engine import Seed, enumerate_exchange_graph
from .errors import ClusterModError, ConfigurationError, DomainError, InternalInvariantError
from .hlmap import psi
from .quivers import (
    IceQuiver,
    Vertex,
    build_gamma_full,
    build_gamma_l,
    build_qcheck,
    build_qxi,
    build_qxil,
)
from .reps import CQObject, RepContext, rep_json
from .verify import CHECK_NAMES, DEFAULT_LEVEL, check_reads, run_check

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4


def _add_scope_args(p: argparse.ArgumentParser, level=True):
    p.add_argument("--cartan", help="Cartan type, e.g. A3 or D4")
    height = p.add_mutually_exclusive_group()
    height.add_argument("--xi", help="height function as 'i:val' comma list, e.g. '1:0,2:-1,3:0'")
    height.add_argument("--linear", action="store_true",
                        help="type A sugar for the height function 1-i")
    if level:
        # no default here: a command that does not read the level rejects a given one
        p.add_argument("--level", type=int, help=f"level l >= 1 (default {DEFAULT_LEVEL})")


def _scope(args):
    if not args.cartan:
        raise ConfigurationError("--cartan is required")
    cartan = cartan_type(args.cartan)
    if args.linear:
        xi = linear_height(cartan)
    elif args.xi:
        xi = parse_height(cartan, args.xi)
    else:
        raise ConfigurationError("a height function is required: --xi or --linear")
    return cartan, xi


def _level(args) -> int:
    return DEFAULT_LEVEL if args.level is None else args.level


# each option that a command may not read: its flag, its argparse name, and the
# verify_* parameter it sets
_OPTIONS = (("--level", "level", "l"), ("--walks", "walks", "walks"),
            ("--seed", "seed", "rng_seed"), ("--cartan", "cartan", "cartan"),
            ("--xi", "xi", "xi"), ("--linear", "linear", "xi"))


def _reject_unread(args, reads, where: str) -> None:
    """An option given where the chosen family, table or check does not read its
    parameter (none of `reads`) is a usage error.  An absent option is None, or
    False for --linear: a given 0 counts as given."""
    for option, name, param in _OPTIONS:
        value = getattr(args, name, None)
        if value is not None and value is not False and param not in reads:
            raise ConfigurationError(f"{option} does not apply {where}")


def _scope_reads(reads_level: bool) -> tuple[str, ...]:
    """The parameters a quiver family or table reads: the scope, and the level if it does."""
    return ("cartan", "xi", "l") if reads_level else ("cartan", "xi")


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigurationError(f"cannot write {out}: {exc.strerror}") from None
    else:
        print(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustermod",
        description="exact cluster-algebra engine with quiver-representation verifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quiver", help="build, mutate or export ice quivers")
    qsub = q.add_subparsers(dest="action", required=True)

    qb = qsub.add_parser("build")
    _add_scope_args(qb)
    qb.add_argument("--family", required=True,
                    choices=["gamma", "gammafull", "qxi", "qcheck", "qxil"])
    qb.add_argument("--rmin", type=int, help="window floor for --family gammafull")
    qb.add_argument("--format", default="json", choices=["json", "dot", "text"])
    qb.add_argument("--out")

    qm = qsub.add_parser("mutate")
    qm.add_argument("--in", dest="infile", required=True)
    qm.add_argument("--at", action="append", default=[], help="vertex label, repeatable")
    qm.add_argument("--seq", help="comma list of vertex labels, e.g. '(1,0),(2,-1)'")
    qm.add_argument("--format", default="json", choices=["json", "dot", "text"])
    qm.add_argument("--out")

    qe = qsub.add_parser("export")
    qe.add_argument("--in", dest="infile", required=True)
    qe.add_argument("--format", default="dot", choices=["json", "dot", "text"])
    qe.add_argument("--out")

    e = sub.add_parser("engine", help="exchange-graph enumeration")
    esub = e.add_subparsers(dest="action", required=True)
    ee = esub.add_parser("enumerate")
    _add_scope_args(ee)
    ee.add_argument("--family", default="qcheck", choices=["qcheck", "gamma"])
    # a string default goes through type=int only when this command is parsed
    ee.add_argument("--max-seeds", type=int,
                    default=os.environ.get("CLUSTERMOD_MAX_SEEDS", str(10**6)))
    ee.add_argument("--out")

    r = sub.add_parser("rep", help="indecomposable objects of the cluster category")
    rsub = r.add_subparsers(dest="action", required=True)
    rl = rsub.add_parser("list")
    _add_scope_args(rl, level=False)
    rl.add_argument("--format", default="text", choices=["text", "json"])
    rs = rsub.add_parser("show")
    _add_scope_args(rs, level=False)
    rs.add_argument("--object", required=True, help="module spec, e.g. mod:0,1,1")

    p = sub.add_parser("psi", help="highest l-weight monomial of a rigid object")
    _add_scope_args(p)
    p.add_argument("--object", required=True,
                   help="object spec: 'mod:0,1,1', 'shp:2', or a '+'-joined sum")

    v = sub.add_parser("verify", help="run verification checks")
    v.add_argument("check", choices=list(CHECK_NAMES) + ["all"])
    _add_scope_args(v)
    # no defaults here: a check that does not read these rejects a given one
    v.add_argument("--walks", type=_nonnegative_int)
    v.add_argument("--seed", type=int, help="seed for the randomized mutation walks")
    v.add_argument("--format", default="text", choices=["text", "json"])

    t = sub.add_parser("table", help="aligned tables of objects and monomials")
    t.add_argument("which", choices=["ar-gvectors", "psi-monomials", "roots"])
    _add_scope_args(t)
    return parser


def _format_quiver(quiver: IceQuiver, fmt: str) -> str:
    if fmt == "json":
        return quiver.to_json()
    if fmt == "dot":
        return quiver.to_dot()
    lines = [f"vertices: {' '.join(str(v) for v in quiver.vertices)}",
             f"frozen:   {' '.join(str(v) for v in quiver.frozen_vertices)}"]
    for s, t, m in quiver.arrows():
        lines.append(f"{s} -> {t}" + (f" x{m}" if m > 1 else ""))
    return "\n".join(lines)


def _cmd_quiver(args) -> int:
    if args.action == "build":
        fam = args.family
        if args.rmin is not None and fam != "gammafull":
            raise ConfigurationError("--rmin applies only to --family gammafull")
        # gammafull reads the level only to place its window floor, so not with --rmin
        _reject_unread(args, _scope_reads(fam in ("gamma", "gammafull", "qxil")),
                       f"to --family {fam}")
        if args.rmin is not None and args.level is not None:
            raise ConfigurationError("--level does not apply with --rmin")
        cartan, xi = _scope(args)
        level = _level(args)
        if fam == "gamma":
            quiver = build_gamma_l(cartan, xi, level)
        elif fam == "gammafull":
            rmin = args.rmin
            if rmin is None:
                rmin = min(xi.values()) - 2 * check_level(level)
            quiver = build_gamma_full(cartan, xi, rmin)
        elif fam == "qxi":
            quiver = build_qxi(cartan, xi)
        elif fam == "qcheck":
            quiver = build_qcheck(cartan, xi)
        else:
            quiver = build_qxil(cartan, xi, level)
        _emit(_format_quiver(quiver, args.format), args.out)
        return EXIT_OK
    try:
        with open(args.infile, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {args.infile}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigurationError(f"cannot read {args.infile}: not UTF-8 text") from None
    quiver = IceQuiver.from_json(text)
    if args.action == "mutate":
        labels = [Vertex.parse(text) for text in args.at]
        if args.seq is not None:
            # split at the commas outside parentheses; every piece must be a label
            labels.extend(Vertex.parse(m) for m in re.split(r",(?![^(]*\))", args.seq))
        for v in labels:
            quiver = quiver.mutate(v)
    _emit(_format_quiver(quiver, args.format), args.out)
    return EXIT_OK


def _cmd_engine(args) -> int:
    _reject_unread(args, _scope_reads(args.family == "gamma"), f"to --family {args.family}")
    cartan, xi = _scope(args)
    if args.family == "qcheck":
        quiver = build_qcheck(cartan, xi)
    else:
        quiver = build_gamma_l(cartan, xi, _level(args))
    graph = enumerate_exchange_graph(Seed.initial(quiver), max_seeds=args.max_seeds)
    _emit(graph.report_json(), args.out)
    return EXIT_OK


def _cmd_rep(args) -> int:
    cartan, xi = _scope(args)
    ctx = RepContext(cartan, xi)
    if args.action == "show":
        obj = CQObject.parse(args.object)
        if not obj.is_module:
            raise DomainError("only modules have underlying representations")
        print(rep_json(ctx.rep(obj.dims)))
        return EXIT_OK
    rows = []
    for obj in ctx.ar_objects():
        g, s = ctx.extended_g(obj)
        rows.append({"object": str(obj), "g": list(g), "socle": list(s)})
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        w = max(len(r["object"]) for r in rows)
        for r in rows:
            print(f"{r['object']:<{w}}  g={tuple(r['g'])}  soc={tuple(r['socle'])}")
    return EXIT_OK


def _cmd_psi(args) -> int:
    cartan, xi = _scope(args)
    ctx = RepContext(cartan, xi)
    print(psi([CQObject.parse(piece) for piece in args.object.split("+")], ctx, _level(args)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    _reject_unread(args, check_reads(args.check), f"to verify {args.check}")
    cartan = xi = None
    if args.cartan:
        cartan, xi = _scope(args)
    # an absent level, walk count or seed (None) takes the check's default
    reports = run_check(args.check, cartan, xi, l=args.level, walks=args.walks,
                        rng_seed=args.seed)
    if args.format == "json":
        print("[" + ",\n".join(r.to_json() for r in reports) + "]")
    else:
        for r in reports:
            print(r.summary())
            for f in r.failures:
                print("   ", f)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def _cmd_table(args) -> int:
    _reject_unread(args, _scope_reads(args.which == "psi-monomials"), f"to table {args.which}")
    cartan, xi = _scope(args)
    ctx = RepContext(cartan, xi)
    if args.which == "roots":
        for r in ctx.roots:
            print(",".join(str(d) for d in r))
        return EXIT_OK
    objs = ctx.ar_objects()
    w = max(len(str(o)) for o in objs)
    if args.which == "ar-gvectors":
        for obj in objs:
            g, s = ctx.extended_g(obj)
            print(f"{str(obj):<{w}}  ({' '.join(f'{x:2d}' for x in g)} | "
                  f"{' '.join(f'{x:2d}' for x in s)})")
    else:
        for obj in objs:
            print(f"{str(obj):<{w}}  {psi(obj, ctx, _level(args))}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse before Python 3.12 drops a '--' given as an option's value
    # ('--xi=--') and hands the command an empty list instead of a string
    for token in argv:
        if token.startswith("--") and token.endswith("=--"):
            parser.error(f"'--' is not a value: {token}")
    args = parser.parse_args(argv)
    command = {"quiver": _cmd_quiver, "engine": _cmd_engine, "rep": _cmd_rep, "psi": _cmd_psi,
               "verify": _cmd_verify, "table": _cmd_table}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # a closed stdout shows here rather than at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): drop the rest of the output quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ClusterModError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
