"""Command-line surface: compute, twist, verify, batch, selftest.

Exit codes: 0 success, 1 runtime or verification failure, 2 usage error.
All output is plain text; ``--machine`` switches to ``key=value`` lines.
Polynomials are printed in the package grammar, so CLI output feeds back
into ``--gauss``/``--spec`` pipelines unchanged.
"""

from __future__ import annotations

import argparse
import re
import sys

from .alexander import invariant_report
from .diagram import format_gauss, parse_gauss
from .errors import ValexError
from .laurent import format_poly
from .twist import (
    clasp_identity,
    format_spec,
    generate_twist,
    mirror_invariant,
    parse_spec,
    spec_report,
)
from .verify import batch_check, run_grid, run_law_suite, worker_count


def _print_report(lines, machine: bool):
    if machine:
        for key, value in lines:
            print(f"{key}={value}")
    else:
        width = max(len(k) for k, _ in lines) + 2
        for key, value in lines:
            print(f"{key + ':':<{width}}{value}")


def cmd_compute(args) -> int:
    if args.spec:
        spec = parse_spec(args.spec)
        rep = spec_report(spec)
        exact_diagram_level = spec.clasp in ("a", "ab", "^a")
    else:
        rep = invariant_report(parse_gauss(args.gauss))
        exact_diagram_level = True

    if args.quiet:
        print(format_poly(rep.dbar_normalized))
        return 0

    lines = [
        ("input", rep.subject),
        ("delta0(D)", format_poly(rep.delta0)),
        ("dbar(D)", format_poly(rep.dbar)),
    ]
    if args.raw:
        if not exact_diagram_level:
            lines.append(("note", "diagram-level values for this clasp are defined up to units"))
        _print_report(lines, args.machine)
        return 0

    norm, val, ow = rep.unit, rep.dbar_at_minus_one, rep.odd_writhe
    lines += [
        ("dbar_norm", format_poly(rep.dbar_normalized)),
        ("delta0_norm", format_poly(rep.delta0_normalized)),
        ("unit", f"{'+' if norm.sign > 0 else '-'}(uv)^{norm.shift}"),
        ("dbar_at_minus1", str(val)),
    ]
    if ow is not None:
        holds = rep.conjecture_holds
        lines += [("ow", str(ow)),
                  ("holds", str(holds).lower() if args.machine else
                   f"{'holds' if holds else 'FAILS'} (2*|{val}| vs |{ow}|)")]
    _print_report(lines, args.machine)
    return 0


def cmd_twist(args) -> int:
    spec = parse_spec(args.spec)
    d = generate_twist(spec)
    base, transform = clasp_identity(spec)
    print(f"# {format_spec(spec)}: {d.n_crossings} classical crossings"
          f" (crossing 1 = clasp), {d.n_components} component")
    if base != spec:
        print(f"# generated via clasp identity as {format_spec(base)}"
              + (" mirrored" if transform is mirror_invariant else ""))
    labels = d.arc_labels or tuple(range(1, 2 * d.n_crossings + 1))
    print(f"# arc labels along traversal (columns of the matrix): "
          f"{' '.join(str(x) for x in labels)}")
    print(format_gauss(d))
    return 0


def cmd_verify(args) -> int:
    if args.file:
        summary = batch_check(args.file)
        for no, rep in summary.verdicts:
            if args.machine:
                print(f"line={no}, knot={rep.subject}, ow={rep.odd_writhe}, "
                      f"dbar={rep.dbar_at_minus_one}, "
                      f"holds={str(rep.conjecture_holds).lower()}")
            else:
                mark = "holds" if rep.conjecture_holds else "FAILS"
                print(f"line {no}: {rep.subject}  ow={rep.odd_writhe} "
                      f"dbar(-1,-1)={rep.dbar_at_minus_one}  {mark}")
        for no, msg in summary.errors:
            print(f"line {no}: ERROR {msg}", file=sys.stderr)
        print(f"checked={summary.checked} held={summary.held} "
              f"errors={len(summary.errors)} ignored={summary.ignored}")
        return 0 if summary.ok else 1

    lo, hi = args.range
    results = run_grid(n_max=args.n, lo=lo, hi=hi)
    failures = [r for r in results if not r.passed]
    if args.machine:
        for r in results:
            print(f"subject={r.subject}, check={r.check}, pass={str(r.passed).lower()}")
    else:
        for r in failures:
            print(r)
        n_specs = len(results) // 4
        print(f"{'all ' if not failures else ''}{n_specs} specs checked "
              f"({len(results)} checks, {len(failures)} failures, "
              f"workers={worker_count(n_specs)})")
    return 1 if failures else 0


def cmd_selftest(args) -> int:
    results = run_law_suite()
    failures = [r for r in results if not r.passed]
    if args.verbose:
        for r in results:
            print(r)
    else:
        for r in failures:
            print(r)
    grid = run_grid(n_max=2, lo=0, hi=3)
    grid_failures = [r for r in grid if not r.passed]
    for r in grid_failures:
        print(r)
    total = len(results) + len(grid)
    bad = len(failures) + len(grid_failures)
    print(f"selftest: {total - bad}/{total} checks passed")
    return 1 if bad else 0


def _parse_range(text: str):
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: LO exceeds HI")
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valex",
        description="Alexander polynomial Delta_0(u,v) for virtual knots and links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariants of one knot/link")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--gauss", help="signed Gauss code, e.g. 'O1+U2+U1+O2+'")
    src.add_argument("--spec", help="twist spec, e.g. 'VT[a](7,4,3,5,9)'")
    p.add_argument("--raw", action="store_true", help="diagram-level values only")
    p.add_argument("--quiet", action="store_true", help="print only normalized dbar")
    p.add_argument("--machine", action="store_true", help="key=value output")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("twist", help="emit the Gauss code of a twist spec")
    p.add_argument("spec", help="e.g. 'VT[a](1)' or 'VT[b](2,-1)'")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("verify", help="grid verification or batch file check")
    p.add_argument("--n", type=_positive_int, default=2,
                   help="max number of blocks (default 2)")
    p.add_argument("--range", type=_parse_range, default=(-2, 2),
                   metavar="LO..HI", help="block value range (default -2..2)")
    p.add_argument("--file", help="file of Gauss codes, one per line")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("batch", help="conjecture check for a Gauss-code file")
    p.add_argument("file")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="built-in fixture and law suites")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_selftest)
    return parser


_RANGE_SHAPE = re.compile(r"^-?\d+\.\.-?\d+$")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # let '--range -3..3' survive argparse's option-prefix rule
    for i, tok in enumerate(argv[:-1]):
        if tok == "--range" and _RANGE_SHAPE.match(argv[i + 1]):
            argv[i: i + 2] = [f"--range={argv[i + 1]}"]
            break
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValexError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
