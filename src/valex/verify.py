"""Verification harness: oracle comparisons and conjecture checks.

Two layers:

* ``run_grid`` sweeps twist specs and checks, per spec: the recursion's dbar
  against the determinant's, term by term, the signed odd-writhe identity,
  the 2|dbar(-1,-1)| = |OW| conjecture, and the divisibility law.  The
  first and the last are one product: the recursion's dbar times the knot
  factor equals Delta_0 exactly when Delta_0 is divisible with that
  quotient.  Only a spec whose product differs runs ``delta_bar``, for the
  texts of its failures.
* ``batch_check`` yields a conjecture verdict for each line of a
  user-supplied file of Gauss codes (one per line, ``#`` comments and blank
  lines ignored) as soon as that line is checked.

Failures are recorded in the returned results, never raised; reruns are
deterministic.  The one exception is a grid spec of clasp ``ab`` or ``ba``,
which has no diagram to check: ``run_grid`` raises UnsupportedClasp for it
before any spec runs.  Grid evaluation parallelizes per spec, with results
in input order.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterable, Iterator, NamedTuple, Optional

from .alexander import KNOT_FACTOR, delta0_diagram, delta_bar, invariant_report
from .diagram import parse_gauss
from .errors import InvalidArgument, UnsupportedClasp, ValexError
from .laurent import format_poly
from .twist import MAX_SPEC_BLOCKS, TwistSpec, _parity, clasp_identity, evaluate_recursive, \
    generate_twist, ow_closed_form

__all__ = [
    "CheckResult",
    "grid_specs",
    "acceptance_grid",
    "run_grid",
    "batch_check",
    "worker_count",
    "MAX_GRID_SPECS",
    "MAX_GRID_CROSSINGS",
]

# Grids of at most this many specs run in-process; a pool costs more to start.
_SERIAL_MAX_SPECS = 32

# grid_specs' caps: the most specs a grid holds, and the square root of the
# most that its specs' twist crossings, squared, sum to.  A spec of m twist
# crossings takes about m^2 time, so at the first `valex verify` takes about
# 9 s and 210 MB on two CPUs, and at the second as long as one spec of 3,000
# crossings, about a second (README, "Command line").
MAX_GRID_SPECS = 100_000
MAX_GRID_CROSSINGS = 3_000


class CheckResult(NamedTuple):
    subject: str
    check: str
    passed: bool
    lhs: str
    rhs: str
    detail: str = ""

    def __str__(self):
        mark = "ok " if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail else ""
        return f"{mark} {self.subject:<24} {self.check:<28} {self.lhs} == {self.rhs}{tail}"


# -- grid ---------------------------------------------------------------------

def grid_specs(n_max: int, lo: int, hi: int) -> list:
    """All clasp-a specs with 1 <= n <= n_max and blocks in [lo, hi], in order.

    A grid of more than ``MAX_GRID_SPECS`` specs, of specs of more than
    ``MAX_SPEC_BLOCKS`` blocks, or whose specs' twist crossings, squared, sum
    to more than ``MAX_GRID_CROSSINGS`` squared, raises InvalidArgument
    before any spec is built.  So no spec has more than
    ``MAX_GRID_CROSSINGS`` twist crossings.
    """
    if lo > hi:  # no spec; the count below needs a nonempty range
        return []
    size = hi - lo + 1
    n_specs = 0
    for n in range(1, n_max + 1):  # n_specs >= n, so this stops by the cap
        n_specs += size ** n
        if n_specs > MAX_GRID_SPECS:
            raise InvalidArgument(f"a grid of n <= {n_max} blocks in {lo}..{hi} has more "
                                  f"than the cap of {MAX_GRID_SPECS} specs")
    if n_max > MAX_SPEC_BLOCKS:  # a one-value range passes the count cap up to 100,000
        raise InvalidArgument(f"a grid of n <= {n_max} blocks exceeds the cap of "
                              f"{MAX_SPEC_BLOCKS} blocks per spec")
    # (|a_1| + ... + |a_n|)^2 summed over the size^n specs of n blocks; the
    # block cap keeps this sum at most 400 terms long
    s1 = sum(abs(a) for a in range(lo, hi + 1))
    s2 = sum(a * a for a in range(lo, hi + 1))
    work = sum(n * s2 * size ** (n - 1) + n * (n - 1) * s1 * s1 * size ** max(n - 2, 0)
               for n in range(1, n_max + 1))
    if work > MAX_GRID_CROSSINGS ** 2:
        raise InvalidArgument(f"a grid of n <= {n_max} blocks in {lo}..{hi} sums {work} "
                              f"over its specs' twist crossings squared, above the cap of "
                              f"{MAX_GRID_CROSSINGS ** 2}")
    return [TwistSpec(blocks) for n in range(1, n_max + 1)
            for blocks in itertools.product(range(lo, hi + 1), repeat=n)]


def acceptance_grid() -> list:
    """{n <= 3, a_i in [-4,4]} union {n = 4, a_i in [0,2]}."""
    out = grid_specs(3, -4, 4)
    out.extend(TwistSpec(b) for b in itertools.product(range(0, 3), repeat=4))
    return out


def _check_one_spec(spec: TwistSpec) -> list:
    name = str(spec)
    base, _ = clasp_identity(spec)  # the identity takes the clasp-a spec's parities
    s, delta, half_sum = _parity(base.blocks)
    rec = evaluate_recursive(spec)
    ow = ow_closed_form(spec)
    det = delta0_diagram(generate_twist(spec))
    results = []

    # Z[u^+-1, v^+-1] is an integral domain, so a product equal to Delta_0
    # means Delta_0 is divisible and its quotient is rec: only a product that
    # differs needs the division, which then gives the failure's texts
    if KNOT_FACTOR * rec == det:
        det_bar, div_ok, div_detail = rec, True, ""
    else:
        try:
            det_bar = delta_bar(det)
            div_ok, div_detail = True, ""
        except ValexError as e:
            det_bar, div_ok, div_detail = None, False, str(e)
    results.append(
        CheckResult(name, "divisibility", div_ok,
                    "delta0 mod (u-1)(v-1)(uv-1)", "0", div_detail)
    )

    same = rec == det_bar
    rec_text = format_poly(rec)  # equal polynomials print the same
    det_text = (rec_text if same else
                "<determinant>" if det_bar is None else format_poly(det_bar))
    results.append(
        CheckResult(name, "recursion_vs_determinant", same, rec_text, det_text)
    )

    lhs = 2 * rec.evaluate(-1, -1)
    sgn = -1 if (delta + s[-1] + half_sum) % 2 else 1
    results.append(
        CheckResult(name, "signed_odd_writhe_identity", lhs == sgn * ow,
                    str(lhs), f"{sgn * ow}")
    )

    # normalizing divides dbar by +-(uv)^k, which is +-1 at (-1, -1), so the
    # conjecture reads the raw value
    results.append(
        CheckResult(name, "conjecture_2dbar_eq_ow", abs(lhs) == abs(ow),
                    str(abs(lhs)), str(abs(ow)))
    )
    return results


def worker_count(n_specs: int, workers: Optional[int] = None) -> int:
    """Processes ``run_grid`` uses for a grid of ``n_specs`` specs.

    Small grids run in-process.  Larger ones use ``workers`` when given, else
    the CPU count.
    """
    if n_specs <= _SERIAL_MAX_SPECS:
        return 1
    return workers if workers is not None else os.cpu_count() or 1


def run_grid(specs: Iterable[TwistSpec], workers: Optional[int] = None) -> list:
    """Run the four per-spec checks over a grid; results in input order.

    Specs of clasps ``a``, ``^a``, ``b`` and ``^b`` are checked.  A spec of
    clasp ``ab`` or ``ba`` has no diagram and raises UnsupportedClasp before
    any spec runs.  A pool sends the specs in chunks of a quarter of each
    worker's share, so that few round trips carry the grid and the last
    chunks still balance the workers.
    """
    specs = list(specs)
    for spec in specs:
        if spec.clasp in ("ab", "ba"):
            raise UnsupportedClasp(f"run_grid has no diagram for clasp {spec.clasp!r}")
    nproc = worker_count(len(specs), workers)
    if nproc > 1:
        import multiprocessing as mp

        with mp.Pool(nproc) as pool:
            grouped = pool.map(_check_one_spec, specs,
                               chunksize=max(1, len(specs) // (4 * nproc)))
    else:
        grouped = [_check_one_spec(s) for s in specs]
    return [r for group in grouped for r in group]


# -- batch files --------------------------------------------------------------------

def batch_check(lines: Iterable[str]) -> Iterator[tuple]:
    """Check the conjecture for each Gauss code among the lines of a file.

    Yields ``(line_no, outcome)`` for each line, in order, as soon as that
    line is checked, and reads no line ahead.  The outcome is the line's
    InvariantReport, the text ``"<ErrorClass>: <message>"`` for a malformed
    line or a link, or None for a comment (``#``) or a blank line.
    """
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            yield no, None
            continue
        try:
            d = parse_gauss(line)
            if not d.is_knot:
                raise InvalidArgument("the odd-writhe conjecture concerns knots")
            outcome = invariant_report(d)
        except ValexError as e:
            outcome = f"{type(e).__name__}: {e}"
        yield no, outcome
