"""Command-line surface.

    fockcalc [--format text|structured] COMMAND ...

    fockcalc algebra validate <preset-or-path>
    fockcalc verify --suite S --algebra A --max-weight N [--max-index K]
    fockcalc class B|G --i I --gamma SPEC --n N --algebra A
    fockcalc oracle product --n N --lambda 2,1 --mu 2,1
    fockcalc oracle generate --n N [--drop-two-cycle]

`verify` makes one operators.verify_relations call per selected suite; the
suites themselves are the entries of operators.SUITES.

Exit codes: 0 pass, 1 verification discrepancy, 2 input/validation error,
3 resource cap.  Stdout is byte-stable for a fixed invocation; timing goes
to stderr.
"""

import argparse
import json
import os
import sys

from . import class_algebra as ca
from . import fock, generators, operators
from .errors import (
    CapExceeded,
    FockcalcError,
    TruncationExceeded,
)
from .surface import PRESETS, load_algebra, load_preset, parse_element

SCHEMA = 1

VERIFY_SUITES = tuple(operators.SUITES)


def resolve_algebra(spec):
    """Accept a preset name, presets/<name>, or a file path."""
    if spec in PRESETS:
        return load_preset(spec)
    base = os.path.basename(spec)
    stem = base[:-5] if base.endswith(".json") else base
    if os.path.dirname(spec) in ("presets", "") and stem in PRESETS \
            and not os.path.exists(spec):
        return load_preset(stem)
    return load_algebra(spec)


def emit(args, record, text):
    if args.format == "structured":
        record = {"schema": SCHEMA, **record}
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def cmd_algebra_validate(args):
    algebra = resolve_algebra(args.path)
    text = f"{algebra.dim} basis classes, pairing nondegenerate"
    emit(args, {"kind": "algebra_validate", "algebra": algebra.name,
                "dim": algebra.dim, "valid": True}, text)
    return 0


def cmd_verify(args):
    algebra = resolve_algebra(args.algebra)
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not suites:
        raise ValueError(f"no suite selected by {args.suite!r}")
    for suite in suites:
        if suite not in VERIFY_SUITES:
            raise ValueError(f"unknown suite {suite!r}; choose from "
                             f"{', '.join(VERIFY_SUITES)}")
    # one shared --max-index bounds the suites that take an index
    if args.max_index is not None and set(suites) <= set(operators.INDEX_FREE):
        raise ValueError(f"--max-index does not apply to {args.suite}")
    reports = []
    for suite in suites:
        report = operators.verify_relations(
            suite, algebra, max_weight=args.max_weight,
            max_index=None if suite in operators.INDEX_FREE else args.max_index)
        reports.append(report)
        print(f"{suite} wall_time: {report.wall_time:.2f}s", file=sys.stderr)
    passed = all(r.passed for r in reports)
    if len(reports) == 1:
        emit(args, {"kind": "verify", **reports[0].to_record()},
             reports[0].render_text())
    else:
        emit(args, {"kind": "verify", "passed": passed,
                    "suites": [r.to_record() for r in reports]},
             "\n\n".join(r.render_text() for r in reports))
    return 0 if passed else 1


def cmd_class(args):
    algebra = resolve_algebra(args.algebra)
    gamma = parse_element(algebra, args.gamma)
    if args.kind == "B":
        cls = generators.b_class(args.i, gamma, args.n)
    else:
        if not 0 <= args.i < args.n:
            raise IndexError(f"need 0 <= i < n, got i={args.i}, n={args.n}")
        cls = generators.g_class(args.i, gamma, args.n)
    text = fock.render_vector(cls.value)
    emit(args, {"kind": "class", "family": args.kind, "i": args.i,
                "gamma": args.gamma, "n": args.n, "algebra": algebra.name,
                "value": text}, text)
    return 0


def _parse_partition(text):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}") from exc
    return ca.check_partition(tuple(sorted(parts, reverse=True)))


def cmd_oracle(args):
    if args.oracle_cmd == "product":
        lam = _parse_partition(args.lam)
        mu = _parse_partition(args.mu)
        product = ca.class_product(lam, mu, args.n, cap=args.cap)
        text = ca.render_central(product)
        emit(args, {"kind": "oracle_product", "n": args.n,
                    "lambda": list(lam), "mu": list(mu),
                    "terms": [{"partition": list(p), "coeff": str(c)}
                              for p, c in sorted(product.coeffs.items())]},
             text)
        return 0
    # generate
    gens = [ca.b_analog(i, args.n) for i in range(args.n)
            if not (args.drop_two_cycle and i == 1)]
    report = ca.generation_closure(gens, args.n, cap=args.cap)
    text = report.render_text()
    emit(args, {"kind": "oracle_generate", "n": args.n,
                "dimension": report.dimension, "target": report.target,
                "generated": report.generated, "rounds": report.rounds,
                "dim_trajectory": report.dim_trajectory,
                "fh_profile": report.fh_profile,
                "dropped_two_cycle": bool(args.drop_two_cycle)}, text)
    if args.drop_two_cycle:
        return 0  # diagnostic only, not asserted
    return 0 if report.generated else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fockcalc",
        description="Exact Heisenberg/Virasoro calculus on Fock space "
                    "over a graded Frobenius algebra.")
    parser.add_argument("--format", choices=("text", "structured"),
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="algebra file utilities")
    alg_sub = p_alg.add_subparsers(dest="algebra_cmd", required=True)
    p_val = alg_sub.add_parser("validate", help="load and validate an algebra")
    p_val.add_argument("path")
    p_val.set_defaults(fn=cmd_algebra_validate)

    p_ver = sub.add_parser("verify", help="run relation-verification suites")
    p_ver.add_argument("--suite", required=True,
                       help="one of %s, or a comma-separated selection"
                            % ", ".join(VERIFY_SUITES))
    p_ver.add_argument("--algebra", default="p2")
    p_ver.add_argument("--max-weight", type=int, default=4)
    p_ver.add_argument("--max-index", type=int, default=None,
                       help="bound on |n|, |m| (suite-specific default)")
    p_ver.set_defaults(fn=cmd_verify)

    p_cls = sub.add_parser("class", help="expand a generator class")
    p_cls.add_argument("kind", choices=("B", "G"))
    p_cls.add_argument("--i", type=int, required=True)
    p_cls.add_argument("--gamma", required=True,
                       help="basis id or combination like '1/2*h + 3*h2'")
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--algebra", default="p2")
    p_cls.set_defaults(fn=cmd_class)

    p_or = sub.add_parser("oracle", help="symmetric-group class algebra")
    or_sub = p_or.add_subparsers(dest="oracle_cmd", required=True)
    p_prod = or_sub.add_parser("product", help="structure constants")
    p_prod.add_argument("--n", type=int, required=True)
    p_prod.add_argument("--lambda", dest="lam", required=True)
    p_prod.add_argument("--mu", required=True)
    p_prod.add_argument("--cap", type=int, default=ca.DEFAULT_CAP)
    p_prod.set_defaults(fn=cmd_oracle)
    p_gen = or_sub.add_parser("generate", help="generation closure")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--cap", type=int, default=ca.DEFAULT_CAP)
    p_gen.add_argument("--drop-two-cycle", action="store_true",
                       help="diagnostic: drop the C_(2,1^(n-2)) generator")
    p_gen.set_defaults(fn=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CapExceeded, TruncationExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FockcalcError, IndexError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
