"""Acceptance suite: the release gate, exact tolerances, timed budgets.

Each test prints a single PASS line (visible with ``pytest -s``).  Every
equality is exact: term equality on polynomials, integer equality on counts.
"""

import time

from tests.conftest import (
    KINK_KINDS,
    CrossingFreeLoop,
    add_kink,
    add_r2,
    base_closed_form,
    read_poly,
    reverse_orientation,
    smooth_crossing,
    switch_crossing,
)
from valex.alexander import delta0_diagram, delta_bar, invariant_report
from valex.cli import main
from valex.diagram import mirror_all, parse_gauss
from valex.laurent import (
    LaurentPoly,
    ONE,
    U,
    V,
    normalize,
)
from valex.twist import (
    TwistSpec,
    _parity,
    evaluate_recursive,
    generate_twist,
    ow_closed_form,
)
from valex.verify import acceptance_grid, batch_check

UV = U * V
TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIG8 = "O1+U2-O4-U1+O3+U4-O2-U3+"
VTREFOIL = "O1+U2+U1+O2+"


def report(name, elapsed, budget):
    print(f"PASS {name}: exact, {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_worked_example_regression(capsys):
    """The two five-block twist knots reproduce their printed invariants."""
    t0 = time.time()
    code = main(["compute", "--spec", "VT[a](7,4,3,5,9)", "--quiet"])
    out1 = capsys.readouterr().out.strip()
    t1 = time.time() - t0
    assert code == 0
    assert read_poly(out1) == read_poly(
        "2 + 5*u*v - u^2*v^3 + 2*u^2*v^2 + 4*u^3*v^3"
    )

    t0 = time.time()
    code = main(["compute", "--spec", "VT[a](-7,3,-5,-2,3)", "--quiet"])
    out2 = capsys.readouterr().out.strip()
    t2 = time.time() - t0
    assert code == 0
    assert read_poly(out2) == read_poly(
        "1 + u*v - u^2*v^2 + u^3*v^2 + 4*u^3*v^3"
    )
    assert t1 < 1.0 and t2 < 1.0
    with capsys.disabled():
        report("worked-example regression", max(t1, t2), 1.0)


def test_base_family_fixtures():
    """Generated-diagram determinants equal the closed forms, sign included."""
    t0 = time.time()
    shapes = [
        lambda m: (1,) * m,
        lambda m: (0,) + (1,) * m,
        lambda m: (1,) * m + (0,),
        lambda m: (0,) + (1,) * m + (0,),
    ]
    for mk in shapes:
        for m in range(1, 9):
            spec = TwistSpec(mk(m))
            det = delta0_diagram(generate_twist(spec))
            assert det == base_closed_form(spec), spec  # sign-exact
    report("base families m=1..8, sign-exact", time.time() - t0, 10.0)


def test_oracle_equivalence():
    """Recursion and determinant agree term by term across the whole grid."""
    t0 = time.time()
    specs = acceptance_grid()
    assert len(specs) >= 800
    for spec in specs:
        rec = evaluate_recursive(spec)
        det = delta_bar(delta0_diagram(generate_twist(spec)))
        assert rec == det, spec
    report(f"oracle equivalence, {len(specs)} specs", time.time() - t0, 60.0)


def test_closed_form_tables():
    """Single-block, two-block, and ab-clasp families match their tables."""
    t0 = time.time()
    # one block: dbar(VT(k)) = k/2 (k even), floor(k/2)+1 (k odd)
    for k in range(11):
        got = normalize(evaluate_recursive(TwistSpec((k,)))).poly
        want = LaurentPoly({(0, 0): k // 2 if k % 2 == 0 else k // 2 + 1})
        assert got == normalize(want).poly, k

    # two blocks: the four-parity table for a, b = 0..5 (table entries are
    # formal; normalize both sides so degenerate leading coefficients
    # compare fairly)
    for a in range(6):
        for b in range(6):
            got = normalize(evaluate_recursive(TwistSpec((a, b)))).poly
            if a % 2 and b % 2:
                want = LaurentPoly({(0, 0): b // 2 + 1}) + U + (a // 2 + 1) * UV
            elif b % 2:
                want = LaurentPoly({(0, 0): a // 2}) + (b // 2) * UV
            elif a % 2:
                want = LaurentPoly({(0, 0): b // 2}) + (a // 2) * UV
            else:
                want = LaurentPoly({(0, 0): a // 2}) + (b // 2) * UV
            assert got == normalize(want).poly, (a, b)

    # ab clasp: VT[ab](x, y) normalizes to 1 for x, y = 0..4
    for x in range(5):
        for y in range(5):
            got = normalize(evaluate_recursive(TwistSpec((x, y), "ab"))).poly
            assert got == ONE, (x, y)
    report("closed-form tables", time.time() - t0, 10.0)


def _law_corpus():
    corpus = [parse_gauss(c) for c in ("O1+;U1+", "O1-;U1-", VTREFOIL, TREFOIL)]
    shapes = [
        lambda m: (1,) * m,
        lambda m: (0,) + (1,) * m,
        lambda m: (1,) * m + (0,),
        lambda m: (0,) + (1,) * m + (0,),
    ]
    for mk in shapes:
        for m in range(1, 5):
            corpus.append(generate_twist(TwistSpec(mk(m))))
    return corpus


def test_diagram_law_suites():
    """Kink and R2 factors, exact skein identity, divisibility, symmetry laws."""
    t0 = time.time()
    kink_factors = {"Ia": UV, "Ib": UV, "Ic": -ONE, "Id": -ONE}
    uv1 = UV - 1
    for d in _law_corpus():
        base = delta0_diagram(d)
        knot = d.is_knot

        # kink factor multiset {uv, uv, -1, -1} at every arc, exact
        for arc in range(1, 2 * d.n_crossings + 1):
            got = {k: delta0_diagram(add_kink(d, arc, k)) for k in KINK_KINDS}
            for kind, val in got.items():
                assert val == kink_factors[kind] * base

        # skein identity at every crossing, exact; the smoothed link is
        # divisible by (u-1)(v-1) too
        for cid in sorted(d.signs):
            plus = d if d.signs[cid] > 0 else switch_crossing(d, cid)
            minus = switch_crossing(plus, cid)
            try:
                zero = smooth_crossing(plus, cid)
            except CrossingFreeLoop:
                continue
            smoothed = delta0_diagram(zero)
            assert delta0_diagram(plus) - delta0_diagram(minus) == uv1 * smoothed
            delta_bar(smoothed, is_knot=zero.is_knot)  # must not raise

        # R2 insertion factor -uv, exact
        if d.n_crossings >= 2:
            assert delta0_diagram(add_r2(d, 1, 2)) == -UV * base

        # divisibility by (u-1)(v-1) and, for knots, (uv-1)
        q = delta_bar(base, is_knot=knot)

        # crossing-switch and reversal symmetries, up to the unit convention
        if knot:
            lhs = normalize(delta_bar(delta0_diagram(mirror_all(d)))).poly
            mirror = LaurentPoly({(j, i): -c for (i, j), c in q.items()})
            assert lhs == normalize(mirror).poly
            lhs = normalize(delta_bar(delta0_diagram(reverse_orientation(d)))).poly
            reverse = LaurentPoly({(-i, -j): -c for (i, j), c in q.items()})
            assert lhs == normalize(reverse).poly
    report("diagram law suites on corpus", time.time() - t0, 30.0)


def test_odd_writhe_identity_and_conjecture(tmp_path):
    """Signed identity and 2|dbar(-1,-1)| = |OW| across the grid + batch file."""
    t0 = time.time()
    for spec in acceptance_grid():
        s, delta, half_sum = _parity(spec.blocks)
        dbar = evaluate_recursive(spec)
        ow = ow_closed_form(spec)
        sign = -1 if (delta + s[spec.n] + half_sum) % 2 else 1
        assert 2 * dbar.evaluate(-1, -1) == sign * ow, spec  # signed identity
        val = normalize(dbar).poly.evaluate(-1, -1)
        assert 2 * abs(val) == abs(ow), spec  # conjecture

    assert invariant_report(parse_gauss(TREFOIL)).conjecture_holds  # 0 == 0

    # no knot tabulation ships with the package; the batch-file surface is
    # validated on a hand-made file instead
    path = tmp_path / "handmade.txt"
    path.write_text(
        "# hand-made sample\n"
        f"{TREFOIL}\n{FIG8}\n{VTREFOIL}\nU2+U1+O2+O1+\n"
        "O1+U1+\nO1-U1-\nO1+U2+O2+U1+\n"
        "O1-U2-U1-O2-\nO1+U2-U1+O2-\n"
    )
    outcomes = [out for _, out in batch_check(path.read_text().splitlines(keepends=True))
                if out is not None]
    assert len(outcomes) == 9 and not any(isinstance(out, str) for out in outcomes)
    assert all(rep.conjecture_holds for rep in outcomes)
    report("odd-writhe identity + conjecture", time.time() - t0, 70.0)


def test_classical_triviality():
    """The invariant vanishes on classical knots."""
    t0 = time.time()
    assert not delta0_diagram(parse_gauss(TREFOIL))
    assert not delta0_diagram(parse_gauss(FIG8))
    report("classical triviality", time.time() - t0, 5.0)
