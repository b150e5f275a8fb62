"""Command-line surface: compute, twist, verify, batch.

Exit codes: 0 success, 1 runtime or verification failure, 2 usage error,
3 internal error (any other exception, printed as one line without a
traceback).
All output is plain text; ``--machine`` switches to ``key=value`` lines.
Polynomials are printed canonically (terms ordered by total degree, then
u-degree) and read as a Python expression in u and v with ``^`` as ``**``;
``valex twist`` prints a Gauss code that ``--gauss`` accepts.
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
    generate_twist,
    parse_spec,
    spec_report,
)
from .verify import (
    batch_check,
    grid_specs,
    run_grid,
    worker_count,
)


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
        rep = spec_report(parse_spec(args.spec))
    else:
        rep = invariant_report(parse_gauss(args.gauss))

    if args.quiet:
        print(format_poly(rep.dbar_normalized))
        return 0

    norm, val, ow = rep.unit, rep.dbar_at_minus_one, rep.odd_writhe
    lines = [
        ("input", rep.subject),
        ("delta0(D)", format_poly(rep.delta0)),
        ("dbar(D)", format_poly(rep.dbar)),
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
    base, mirrored = clasp_identity(spec)
    print(f"# {spec}: {d.n_crossings} classical crossings"
          f" (crossing 1 = clasp), {d.n_components} component")
    if base != spec:
        print(f"# generated via clasp identity as {base}"
              + (" mirrored" if mirrored else ""))
    print(f"# arc labels along traversal (columns of the matrix): "
          f"{' '.join(map(str, d.arc_labels))}")
    print(format_gauss(d))
    return 0


def cmd_batch(args) -> int:
    checked = held = errors = ignored = no = 0
    # each line is decoded on its own, so a bad byte stops the run after the
    # verdicts of every line before it and names its line; utf-8-sig drops
    # the byte-order mark that some editors put before line 1
    with open(args.file, "rb") as fh:
        lines = (raw.decode("utf-8-sig") for raw in fh)
        try:
            for no, rep in batch_check(lines):
                if rep is None:
                    ignored += 1
                elif isinstance(rep, str):
                    errors += 1
                    print(f"line {no}: ERROR {rep}", file=sys.stderr, flush=True)
                else:
                    checked += 1
                    held += rep.conjecture_holds
                    if args.machine:
                        print(f"line={no}, knot={rep.subject}, ow={rep.odd_writhe}, "
                              f"dbar={rep.dbar_at_minus_one}, "
                              f"holds={str(rep.conjecture_holds).lower()}", flush=True)
                    else:
                        mark = "holds" if rep.conjecture_holds else "FAILS"
                        print(f"line {no}: {rep.subject}  ow={rep.odd_writhe} "
                              f"dbar(-1,-1)={rep.dbar_at_minus_one}  {mark}", flush=True)
        except UnicodeDecodeError as e:  # raised while reading line no + 1
            print(f"io error: line {no + 1}: {e}", file=sys.stderr)
            return 1
    print(f"checked={checked} held={held} errors={errors} ignored={ignored}")
    # a file with no code to check fails
    return 0 if checked and not errors and held == checked else 1


def cmd_verify(args) -> int:
    specs = grid_specs(args.n, *args.range)
    results = run_grid(specs)
    failures = [r for r in results if not r.passed]
    if args.machine:
        for r in results:
            print(f"subject={r.subject}, check={r.check}, pass={str(r.passed).lower()}")
    else:
        for r in failures:
            print(r)
        print(f"{'all ' if not failures else ''}{len(specs)} specs checked "
              f"({len(results)} checks, {len(failures)} failures, "
              f"workers={worker_count(len(specs))})")
    return 1 if failures else 0


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
    p.add_argument("--quiet", action="store_true", help="print only normalized dbar")
    p.add_argument("--machine", action="store_true", help="key=value output")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("twist", help="emit the Gauss code of a twist spec")
    p.add_argument("spec", help="e.g. 'VT[a](1)' or 'VT[b](2,-1)'")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("verify", help="grid verification")
    p.add_argument("--n", type=_positive_int, default=2,
                   help="max number of blocks (default 2)")
    p.add_argument("--range", type=_parse_range, default=(-2, 2),
                   metavar="LO..HI", help="block value range (default -2..2)")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("batch", help="conjecture check for a Gauss-code file")
    p.add_argument("file")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=cmd_batch)
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
    except Exception as e:  # a fault in valex itself, reported without a traceback
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
