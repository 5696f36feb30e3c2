"""Command-line entry point.

Subcommands: gen, check, equiv, pair, reduce, homology, domains.
Exit codes: 0 success, 1 verification or semantic failure, 2 usage
error.  Output is deterministic byte-for-byte for fixed inputs.
"""

import argparse
import os
import random
import sys

from . import diagram, serialize, solid_torus, structures, torus_link
from .pairing import box_left, box_right, homology_rank
from .structures import AModule, ChainComplexF2, DStructure, DDStructure


class UsageError(Exception):
    pass


def _integer(option: str, signed: bool = False):
    """The argparse type of option: ASCII digits, after one '-' if signed,
    read by the rule of ``solid_torus.parse_slope``.  Its UsageError is
    not one of the errors argparse reports itself, so it reaches main."""

    def parse(text):
        if not solid_torus._decimal(text[1:] if signed and text[:1] == "-" else text):
            sign = " after an optional '-'" if signed else ""
            raise UsageError(f"{option} takes ASCII digits{sign}, got {text!r}")
        return int(text)

    return parse


def _write(path, text):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(str(e))
    else:
        sys.stdout.write(text)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(str(e))


def _load_structure(args, kinds=object, what=None):
    """The structure in the document --in names; a UsageError if it does
    not parse or is not one of kinds, those args.command takes."""
    try:
        S = serialize.from_json(_read(args.infile))
    except ValueError as e:
        raise UsageError(f"{args.infile}: {e}")
    if not isinstance(S, kinds):
        raise UsageError(f"{args.command} expects a serialized {what}, got {type(S).__name__}")
    return S


def _verdict(report):
    """Print ok or the report's violations; the exit code, 0 or 1."""
    print("ok" if report.ok else report.text())
    return 0 if report.ok else 1


def cmd_gen(args):
    if args.n < 1 or (args.form == "simplified" and args.n < 2):
        raise UsageError(f"no {args.form} structure for n={args.n}")
    if args.form == "full":
        S, _, log = torus_link._build_full(args.n)
    else:
        S = torus_link.build_cfdd_simplified(args.n)
        log = (f"simplified type-DD structure, n={args.n}",)
    _write(args.out, serialize.to_json(S))
    log_text = "\n".join(log) + "\n"
    if args.out:
        try:
            _write(args.out + ".log", log_text)
        except UsageError:
            # a failed command leaves no document behind
            os.remove(args.out)
            raise
    else:
        sys.stderr.write(log_text)
    return 0


# the checker of each kind ``serialize.from_json`` returns
_CHECKS = {
    DDStructure: structures.check_dd,
    DStructure: structures.check_d,
    AModule: structures.check_a,
    ChainComplexF2: structures.check_complex,
}


def cmd_check(args):
    S = _load_structure(args)
    return _verdict(_CHECKS[type(S)](S))


def cmd_equiv(args):
    if args.n < 3:
        raise UsageError(f"equivalence data needs n >= 3, got {args.n}")
    return _verdict(structures.verify_homotopy(*torus_link.build_equivalence(args.n)))


def cmd_pair(args):
    if args.n < 1:
        raise UsageError(f"no structure for n={args.n}")
    if args.right is None:
        raise UsageError("pair needs at least --right SLOPE")
    try:
        right = solid_torus.parse_slope(args.right)
        left = None if args.left is None else solid_torus.parse_slope(args.left)
    except ValueError as e:
        raise UsageError(str(e))
    S = torus_link.build_cfdd_full(args.n)
    D = box_right(solid_torus.build_cfa(right), S)
    if left is None:
        if args.reduce:
            D = structures.reduce(D)
        _write(args.out, serialize.to_json(D))
        return 0
    C = box_left(solid_torus.build_cfa(left), D)
    if args.reduce:
        C = structures.reduce(C)
    rank = homology_rank(C)
    _write(args.out, serialize.to_json(C))
    print(rank)
    return 0


def cmd_reduce(args):
    S = _load_structure(
        args, (DDStructure, DStructure, ChainComplexF2), "DD structure, D structure or complex"
    )
    # cancellation is a homotopy equivalence only where the equation holds
    report = _CHECKS[type(S)](S)
    if not report.ok:
        raise ValueError(
            f"cannot reduce a structure that fails its structure equation: {report.lines[0]}"
        )
    reduced = structures.reduce(S)
    if args.check_orders:
        rng = random.Random(args.seed)
        for _ in range(args.check_orders):
            other = structures.reduce(S, rng=rng)
            if structures.isomorphic(reduced, other) is None:
                print("cancellation orders disagree", file=sys.stderr)
                return 1
    _write(args.out, serialize.to_json(reduced))
    return 0


def cmd_homology(args):
    print(homology_rank(_load_structure(args, ChainComplexF2, "complex")))
    return 0


def cmd_domains(args):
    if args.n < 1:
        raise UsageError(f"no diagram for n={args.n}")
    d1, d2 = diagram.periodic_domains(args.n)
    print(f"D1: {d1}")
    print(f"D2: {d2}")
    print(f"independent: {str(diagram.independent(d1, d2)).lower()}")
    print(f"provincially_admissible: {str(diagram.provincially_admissible(args.n)).lower()}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bpc",
        description="Exact bordered bimodule calculus for (2,2n) torus-link complements.",
    )
    parser.add_argument(
        "--seed", type=_integer("--seed", signed=True), default=0, help="seed for randomized checks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="build a type-DD structure")
    p.add_argument("--n", type=_integer("--n"), required=True)
    p.add_argument("--form", choices=("full", "simplified"), default="full")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "check",
        help=(
            "run the structure-equation checker on a file (for a module it tests"
            " only sequences refining one operation, so ok is not a proof)"
        ),
    )
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("equiv", help="verify the homotopy equivalence data")
    p.add_argument("--n", type=_integer("--n"), required=True)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("pair", help="box tensor with solid tori")
    p.add_argument("--n", type=_integer("--n"), required=True)
    p.add_argument("--left", default=None, help="slope glued on the left: inf or m >= 1")
    p.add_argument("--right", default=None, help="slope glued on the right: inf or m >= 1")
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("reduce", help="cancel unit arrows in a serialized structure")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument(
        "--check-orders",
        type=_integer("--check-orders"),
        default=0,
        metavar="K",
        help=(
            "also reduce K times in seeded random order and require results"
            " isomorphic by a generator bijection (stricter than homotopy"
            " equivalence, so gen output can fail for n >= 2)"
        ),
    )
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("homology", help="homology rank of a serialized complex")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("domains", help="periodic domains of the diagram")
    p.add_argument("--n", type=_integer("--n"), required=True)
    p.set_defaults(func=cmd_domains)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
