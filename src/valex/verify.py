"""Verification harness: oracle comparisons, law suites, conjecture checks.

Three layers:

* ``run_grid`` sweeps twist specs and checks, per spec: the recursion against
  the determinant pipeline, the signed odd-writhe identity, the
  2|dbar(-1,-1)| = |OW| conjecture, and the divisibility law.
* ``run_law_suite`` exercises the diagram-level laws (Reidemeister-I
  factors, the exact skein identity, R2 insertion, mirror/reverse symmetry,
  divisibility) on a corpus of small diagrams.
* ``batch_check`` streams conjecture verdicts for a user-supplied file of
  Gauss codes (one per line, ``#`` comments and blank lines ignored).

Failures are recorded in the returned results, never raised; reruns are
deterministic.  Grid evaluation parallelizes per spec (``VA_THREADS`` caps
the worker count) with results in input order.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Optional

from . import diagram
from .alexander import delta0_diagram, delta_bar, invariant_report
from .diagram import add_kink, add_r2, mirror_all, parse_gauss, reverse_orientation, \
    smooth_crossing, switch_crossing
from .errors import EmptyComponent, NotAKnot, ValexError
from .laurent import ONE, U, V, format_poly, normalize
from .twist import TwistSpec, generate_twist, parity_context, spec_report

__all__ = [
    "CheckResult",
    "grid_specs",
    "acceptance_grid",
    "run_grid",
    "builtin_corpus",
    "run_law_suite",
    "BatchSummary",
    "batch_check",
    "worker_count",
]

# Grids of at most this many specs run in-process; a pool costs more to start.
_SERIAL_MAX_SPECS = 32


@dataclass(frozen=True)
class CheckResult:
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
    """All clasp-a specs with 1 <= n <= n_max and blocks in [lo, hi], in order."""
    out = []
    for n in range(1, n_max + 1):
        for blocks in itertools.product(range(lo, hi + 1), repeat=n):
            out.append(TwistSpec(blocks))
    return out


def acceptance_grid() -> list:
    """{n <= 3, a_i in [-4,4]} union {n = 4, a_i in [0,2]}."""
    out = grid_specs(3, -4, 4)
    out.extend(TwistSpec(b) for b in itertools.product(range(0, 3), repeat=4))
    return out


def _check_one_spec(spec: TwistSpec) -> list:
    name = str(spec)
    ctx = parity_context(spec)
    rep = spec_report(spec)
    rec = rep.dbar
    det = delta0_diagram(generate_twist(spec))
    results = []

    try:
        det_bar = delta_bar(det)
        div_ok, div_detail = True, ""
    except ValexError as e:
        det_bar, div_ok, div_detail = None, False, str(e)
    results.append(
        CheckResult(name, "divisibility", div_ok,
                    "delta0 mod (u-1)(v-1)(uv-1)", "0", div_detail)
    )

    rec_n = rep.dbar_normalized
    det_n = normalize(det_bar).poly if det_bar is not None else None
    ok = det_n == rec_n
    results.append(
        CheckResult(name, "recursion_vs_determinant", ok,
                    format_poly(rec_n), "<determinant>" if det_n is None else format_poly(det_n),
                    "" if rec == det_bar else "equal only after normalization")
    )

    ow = rep.odd_writhe
    lhs = 2 * rec.evaluate(-1, -1)
    sgn = -1 if (ctx.delta + ctx.s[spec.n] + ctx.half_sum) % 2 else 1
    results.append(
        CheckResult(name, "signed_odd_writhe_identity", lhs == sgn * ow,
                    str(lhs), f"{sgn * ow}")
    )

    results.append(
        CheckResult(name, "conjecture_2dbar_eq_ow", rep.conjecture_holds,
                    str(2 * abs(rep.dbar_at_minus_one)), str(abs(ow)))
    )
    return results


def worker_count(n_specs: int, workers: Optional[int] = None) -> int:
    """Processes ``run_grid`` uses for a grid of ``n_specs`` specs.

    Small grids run in-process.  Larger ones use ``workers`` when given, else
    the CPU count, capped by ``VA_THREADS`` when that is a positive integer.
    """
    if n_specs <= _SERIAL_MAX_SPECS:
        return 1
    if workers is not None:
        return workers
    cap = os.environ.get("VA_THREADS", "").strip()
    try:
        cap_n = int(cap) if cap else 0
    except ValueError:
        cap_n = 0
    cpus = os.cpu_count() or 1
    if cap_n > 0:
        return max(1, min(cap_n, cpus))
    return cpus


def run_grid(specs: Optional[Iterable[TwistSpec]] = None, n_max: int = 2,
             lo: int = -3, hi: int = 3, workers: Optional[int] = None) -> list:
    """Run the four per-spec checks over a grid; results in input order."""
    if specs is None:
        specs = grid_specs(n_max, lo, hi)
    specs = list(specs)
    nproc = worker_count(len(specs), workers)
    if nproc > 1:
        import multiprocessing as mp

        with mp.Pool(nproc) as pool:
            grouped = pool.map(_check_one_spec, specs, chunksize=8)
    else:
        grouped = [_check_one_spec(s) for s in specs]
    return [r for group in grouped for r in group]


# -- law suite -----------------------------------------------------------------

def builtin_corpus() -> list:
    """Named small diagrams: Hopf links, trefoil, and twist families (m <= 4)."""
    corpus = [
        ("VHL+", parse_gauss("O1+;U1+")),
        ("VHL-", parse_gauss("O1-;U1-")),
        ("virtual_trefoil", parse_gauss("O1+U2+U1+O2+")),
        ("trefoil", parse_gauss("O1+U2+O3+U1+O2+U3+")),
    ]
    for m in range(1, 5):
        corpus.append((f"VT({','.join('1' * m)})", generate_twist(TwistSpec((1,) * m))))
    for m in range(1, 4):
        corpus.append((f"VT(0,{','.join('1' * m)})",
                       generate_twist(TwistSpec((0,) + (1,) * m))))
        corpus.append((f"VT({','.join('1' * m)},0)",
                       generate_twist(TwistSpec((1,) * m + (0,)))))
    return corpus


_KINK_FACTOR = {"Ia": U * V, "Ib": U * V, "Ic": -ONE, "Id": -ONE}


def run_law_suite(corpus: Optional[list] = None) -> list:
    """Diagram-law checks: R1 factors, exact skein, R2, symmetry, divisibility."""
    if corpus is None:
        corpus = builtin_corpus()
    uv1 = U * V - 1
    results = []
    for name, d in corpus:
        base = delta0_diagram(d)
        knot = d.is_knot
        try:
            dbar = delta_bar(base, is_knot=knot)
            results.append(CheckResult(name, "divisibility", True,
                                       "delta0 mod factor", "0"))
        except ValexError as e:
            dbar = None
            results.append(CheckResult(name, "divisibility", False,
                                       "delta0 mod factor", "0", str(e)))
        base_norm = normalize(dbar).poly if dbar is not None else None

        n2 = 2 * d.n_crossings
        for arc in range(1, n2 + 1):
            for kind in diagram.KINK_KINDS:
                kinked = add_kink(d, arc, kind)
                got = delta0_diagram(kinked)
                want = _KINK_FACTOR[kind] * base
                ok = got == want
                detail = ""
                if ok and base_norm is not None:
                    after = normalize(delta_bar(got, is_knot=knot)).poly
                    ok = after == base_norm
                    detail = "" if ok else "normalized dbar changed"
                results.append(CheckResult(
                    name, f"kink_{kind}_factor(arc {arc})", ok,
                    format_poly(got), format_poly(want), detail))

        for cid in d.crossings:
            plus = d if d.signs[cid] > 0 else switch_crossing(d, cid)
            minus = switch_crossing(plus, cid)
            try:
                zero = smooth_crossing(plus, cid)
            except EmptyComponent:
                continue
            lhs = delta0_diagram(plus) - delta0_diagram(minus)
            rhs = uv1 * delta0_diagram(zero)
            results.append(CheckResult(
                name, f"skein(crossing {cid})", lhs == rhs,
                format_poly(lhs), format_poly(rhs)))

        if n2 >= 4:
            got = delta0_diagram(add_r2(d, 1, 2))
            want = -(U * V) * base
            results.append(CheckResult(name, "r2_insertion_factor", got == want,
                                       format_poly(got), format_poly(want)))

        if knot and dbar is not None:
            lhs = normalize(delta_bar(delta0_diagram(mirror_all(d)))).poly
            rhs = normalize(-dbar.substituted_swap()).poly
            results.append(CheckResult(name, "mirror_symmetry", lhs == rhs,
                                       format_poly(lhs), format_poly(rhs)))
            lhs = normalize(delta_bar(delta0_diagram(reverse_orientation(d)))).poly
            rhs = normalize(-dbar.substituted_inverse()).poly
            results.append(CheckResult(name, "reverse_symmetry", lhs == rhs,
                                       format_poly(lhs), format_poly(rhs)))
    return results


# -- batch files --------------------------------------------------------------------

@dataclass
class BatchSummary:
    verdicts: list        # (line_no, InvariantReport)
    errors: list          # (line_no, message)
    ignored: int          # comments and blank lines

    @property
    def checked(self) -> int:
        return len(self.verdicts)

    @property
    def held(self) -> int:
        return sum(1 for _, rep in self.verdicts if rep.conjecture_holds)

    @property
    def ok(self) -> bool:
        return not self.errors and self.held == self.checked


def batch_check(source) -> BatchSummary:
    """Check the conjecture for each Gauss code in a file (or iterable of lines).

    Malformed lines and links are reported with their numbers and skipped;
    comments (``#``) and blank lines are ignored but counted.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)
    verdicts = []
    errors = []
    ignored = 0
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            ignored += 1
            continue
        try:
            d = parse_gauss(line)
            if not d.is_knot:
                raise NotAKnot("the odd-writhe conjecture concerns knots")
            verdicts.append((no, invariant_report(d)))
        except ValexError as e:
            errors.append((no, f"{type(e).__name__}: {e}"))
    return BatchSummary(verdicts, errors, ignored)
