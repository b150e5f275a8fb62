import pytest

from tests.conftest import CrossingFreeLoop, smooth_crossing
from valex.diagram import parse_gauss
from valex.alexander import KNOT_FACTOR, InvariantReport, delta0_diagram, delta_bar, \
    invariant_report
from valex import verify
from valex.errors import InvalidArgument, NotDivisible, UnsupportedClasp
from valex.laurent import U, V, format_poly
from valex.twist import MAX_SPEC_BLOCKS, TwistSpec, _parity, clasp_identity, evaluate_recursive, \
    generate_twist, spec_report
from valex.verify import (
    CheckResult,
    acceptance_grid,
    batch_check,
    grid_specs,
    run_grid,
    worker_count,
)

TREFOIL = "O1+U2+O3+U1+O2+U3+"
VTREFOIL = "O1+U2+U1+O2+"


def reference_checks(spec) -> list:
    """The four CheckResults of a grid spec, from ``spec_report`` and the determinant."""
    name = str(spec)
    base, _ = clasp_identity(spec)
    s, delta, half_sum = _parity(base.blocks)
    rep = spec_report(spec)
    det_bar = delta_bar(delta0_diagram(generate_twist(spec)))
    lhs = 2 * rep.dbar.evaluate(-1, -1)
    sgn = -1 if (delta + s[-1] + half_sum) % 2 else 1
    ow = rep.odd_writhe
    return [
        CheckResult(name, "divisibility", True, "delta0 mod (u-1)(v-1)(uv-1)", "0"),
        CheckResult(name, "recursion_vs_determinant", rep.dbar == det_bar,
                    format_poly(rep.dbar), format_poly(det_bar)),
        CheckResult(name, "signed_odd_writhe_identity", lhs == sgn * ow, str(lhs),
                    str(sgn * ow)),
        CheckResult(name, "conjecture_2dbar_eq_ow", rep.conjecture_holds,
                    str(2 * abs(rep.dbar_at_minus_one)), str(abs(ow))),
    ]


def tally(lines) -> tuple:
    """(verdicts, errors, ignored) of ``batch_check`` over the lines."""
    verdicts, errors, ignored = [], [], 0
    for no, outcome in batch_check(lines):
        if outcome is None:
            ignored += 1
        elif isinstance(outcome, str):
            errors.append((no, outcome))
        else:
            verdicts.append((no, outcome))
    return verdicts, errors, ignored


class TestConjecture:
    def test_worked_example_spec(self):
        rep = spec_report(TwistSpec((7, 4, 3, 5, 9)))
        assert (rep.dbar_at_minus_one, rep.odd_writhe, rep.conjecture_holds) == (14, 28, True)

    def test_trefoil(self):
        rep = invariant_report(parse_gauss(TREFOIL))
        assert (rep.dbar_at_minus_one, rep.odd_writhe, rep.conjecture_holds) == (0, 0, True)

    def test_vt_minus_one(self):
        rep = spec_report(TwistSpec((-1,)))
        assert (rep.dbar_at_minus_one, rep.odd_writhe, rep.conjecture_holds) == (0, 0, True)

    def test_not_a_knot(self):
        rep = invariant_report(parse_gauss("O1+;U1+"))
        assert (rep.odd_writhe, rep.conjecture_holds) == (None, None)
        assert list(batch_check(["O1+;U1+\n"])) == [
            (1, "InvalidArgument: the odd-writhe conjecture concerns knots")]
        # clasp b is the mirror of VT_a(-S): same verdict, odd writhe negated
        rep = spec_report(TwistSpec((1,), "b"))
        assert rep.odd_writhe == -spec_report(TwistSpec((-1,))).odd_writhe
        assert rep.conjecture_holds
        rep = spec_report(TwistSpec((1, 1), "ab"))
        assert (rep.odd_writhe, rep.conjecture_holds) == (None, None)


class TestGrid:
    def test_small_grid_all_pass(self):
        results = run_grid(grid_specs(2, 0, 3), workers=1)
        assert results and all(r.passed for r in results)

    def test_deterministic_and_ordered(self):
        a = run_grid(grid_specs(1, -2, 2), workers=1)
        b = run_grid(grid_specs(1, -2, 2), workers=1)
        assert a == b
        subjects = [r.subject for r in a[:: 4]]
        expected = [str(s) for s in grid_specs(1, -2, 2)]
        assert subjects == expected

    def test_signed_identity_implies_conjecture(self):
        results = run_grid(grid_specs(2, -2, 2), workers=1)
        by_spec = {}
        for r in results:
            by_spec.setdefault(r.subject, {})[r.check] = r.passed
        for checks in by_spec.values():
            if checks["signed_odd_writhe_identity"]:
                assert checks["conjecture_2dbar_eq_ow"]

    def test_parallel_matches_serial(self):
        # 42 specs: more than run in-process, so two workers start a pool
        specs = grid_specs(2, -3, 2)
        assert worker_count(len(specs), 2) == 2
        serial = run_grid(specs, workers=1)
        parallel = run_grid(specs, workers=2)
        assert serial == parallel

    def test_failed_recursion_check_claims_no_normalized_match(self, monkeypatch):
        # a determinant that is not divisible leaves no Delta-bar to compare
        monkeypatch.setattr(verify, "delta0_diagram", lambda d: U)
        results = {r.check: r for r in run_grid([TwistSpec((1,))], workers=1)}
        assert not results["divisibility"].passed
        with pytest.raises(NotDivisible) as exc:
            delta_bar(U)
        assert results["divisibility"].detail == str(exc.value)
        rvd = results["recursion_vs_determinant"]
        assert (rvd.passed, rvd.rhs, rvd.detail) == (False, "<determinant>", "")

    def test_a_matching_product_needs_no_division(self, monkeypatch):
        # factor * dbar == Delta_0 shows divisibility and the quotient at once
        calls = []
        monkeypatch.setattr(verify, "delta_bar", lambda p: calls.append(p) or delta_bar(p))
        results = run_grid(acceptance_grid(), workers=1)
        assert calls == [] and all(r.passed for r in results)

    def test_unit_slip_in_the_recursion_fails(self, monkeypatch):
        # -uv is a unit, which normalization hides; the check compares the
        # raw values, so it fails on every spec whose dbar is not 0
        def slipped(spec):
            return -(U * V) * evaluate_recursive(spec)

        monkeypatch.setattr(verify, "evaluate_recursive", slipped)
        calls = []
        monkeypatch.setattr(verify, "delta_bar", lambda p: calls.append(p) or delta_bar(p))
        specs = grid_specs(2, 0, 3)
        results = run_grid(specs, workers=1)
        passed = {r.subject for r in results
                  if r.check == "recursion_vs_determinant" and r.passed}
        assert passed == {"VT[a](0)", "VT[a](0,0)", "VT[a](0,1)", "VT[a](1,0)"}
        assert all(not evaluate_recursive(s) for s in specs if str(s) in passed)
        # one division for each spec whose product differs from Delta_0
        dets = [delta0_diagram(generate_twist(s)) for s in specs]
        assert calls == [det for s, det in zip(specs, dets) if KNOT_FACTOR * slipped(s) != det]

    @pytest.mark.parametrize("clasp", ["^a", "b", "^b"])
    def test_other_clasps_all_pass(self, clasp):
        # the signed identity takes its parities from the clasp-a spec; the
        # 819 specs of n <= 3 blocks, as in the acceptance grid
        specs = [TwistSpec(s.blocks, clasp) for s in grid_specs(3, -4, 4)]
        results = run_grid(specs, workers=1)
        assert len(results) == 4 * len(specs)
        bad = [r for r in results if not r.passed]
        assert not bad, "\n".join(str(r) for r in bad)

    @pytest.mark.parametrize("clasp", ["a", "^a", "b", "^b"])
    def test_checks_match_the_reports(self, clasp):
        # each result, field by field, as built from the spec's full report
        # and the determinant's dbar
        if clasp == "a":
            specs = acceptance_grid()
        else:
            specs = [TwistSpec(s.blocks, clasp) for s in grid_specs(3, -4, 4)]
        results = run_grid(specs, workers=1)
        assert results == [r for spec in specs for r in reference_checks(spec)]

    @pytest.mark.parametrize("clasp", ["ab", "ba"])
    def test_clasps_without_diagram_raise_before_any_spec_runs(self, clasp, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "_check_one_spec", ran.append)
        with pytest.raises(UnsupportedClasp):
            run_grid([TwistSpec((1,)), TwistSpec((1, 1), clasp)], workers=1)
        assert ran == []

    def test_block_cap(self):
        specs = grid_specs(MAX_SPEC_BLOCKS, 0, 0)
        assert [s.n for s in specs] == list(range(1, MAX_SPEC_BLOCKS + 1))
        with pytest.raises(InvalidArgument, match=f"cap of {MAX_SPEC_BLOCKS} blocks per spec"):
            grid_specs(MAX_SPEC_BLOCKS + 1, 0, 0)

    def test_worker_count(self):
        # small grids run in-process whatever the request
        assert worker_count(32) == worker_count(4, workers=2) == 1
        assert worker_count(33, workers=2) == 2


class TestLawSuite:
    def test_divisibility_of_smoothed_links(self):
        # the (u-1)(v-1) divisibility also covers links made by smoothing
        corpus = [parse_gauss(c) for c in ("O1+;U1+", "O1-;U1-", VTREFOIL, TREFOIL)]
        for m in range(1, 5):
            corpus.append(generate_twist(TwistSpec((1,) * m)))
        for m in range(1, 4):
            corpus.append(generate_twist(TwistSpec((0,) + (1,) * m)))
            corpus.append(generate_twist(TwistSpec((1,) * m + (0,))))
        for d in corpus:
            for cid in sorted(d.signs):
                try:
                    s = smooth_crossing(d, cid)
                except CrossingFreeLoop:
                    continue
                delta_bar(delta0_diagram(s), is_knot=s.is_knot)  # must not raise


class TestBatch:
    def test_hand_file(self, tmp_path):
        path = tmp_path / "knots.txt"
        path.write_text(
            "# two classical knots and two virtual ones\n"
            "\n"
            f"{TREFOIL}\n"
            f"{VTREFOIL}\n"
            "O1+U2-O4-U1+O3+U4-O2-U3+\n"
            "U2+U1+O2+O1+\n"
        )
        verdicts, errors, ignored = tally(path.read_text().splitlines(keepends=True))
        assert [no for no, _ in verdicts] == [3, 4, 5, 6]
        assert all(rep.conjecture_holds for _, rep in verdicts)
        assert ignored == 2
        assert not errors

    def test_malformed_lines_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{VTREFOIL}\nO1+O1+\nO1+;U1+\n")
        verdicts, errors, _ = tally(path.read_text().splitlines(keepends=True))
        assert len(verdicts) == 1
        assert len(errors) == 2
        assert errors[0][0] == 2
        assert errors[1] == (3, "InvalidArgument: the odd-writhe conjecture concerns knots")

    def test_empty_file(self):
        assert list(batch_check([])) == []

    def test_accepts_iterable(self):
        outcomes = list(batch_check([f"{VTREFOIL}\n", "# note\n"]))
        assert [no for no, _ in outcomes] == [1, 2]
        assert isinstance(outcomes[0][1], InvariantReport) and outcomes[1][1] is None

    def test_reads_no_line_ahead(self):
        # each outcome arrives before the next line is read, so a slow line
        # holds back no verdict before it
        taken = []

        def lines():
            for text in (f"{VTREFOIL}\n", "O1+O1+\n", "# note\n", f"{TREFOIL}\n"):
                taken.append(text)
                yield text

        outcomes = batch_check(lines())
        no, rep = next(outcomes)
        assert (no, len(taken)) == (1, 1)
        assert rep.subject == VTREFOIL and rep.conjecture_holds
        assert next(outcomes) == (
            2, "InvalidArgument: crossing 1 must be visited exactly once over and once under")
        assert len(taken) == 2
        assert next(outcomes) == (3, None) and len(taken) == 3
        assert next(outcomes)[0] == 4 and len(taken) == 4
        assert next(outcomes, None) is None
