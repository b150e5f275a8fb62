import pytest

from valex.diagram import parse_gauss, smooth_crossing
from valex.alexander import delta0_diagram, delta_bar, invariant_report
from valex.errors import EmptyComponent
from valex.twist import TwistSpec, spec_report
from valex.verify import (
    batch_check,
    builtin_corpus,
    grid_specs,
    run_grid,
    run_law_suite,
    worker_count,
)

TREFOIL = "O1+U2+O3+U1+O2+U3+"
VTREFOIL = "O1+U2+U1+O2+"


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
        summary = batch_check(["O1+;U1+\n"])
        assert summary.errors == [
            (1, "NotAKnot: the odd-writhe conjecture concerns knots")]
        # clasp b is the mirror of VT_a(-S): same verdict, odd writhe negated
        rep = spec_report(TwistSpec((1,), "b"))
        assert rep.odd_writhe == -spec_report(TwistSpec((-1,))).odd_writhe
        assert rep.conjecture_holds
        rep = spec_report(TwistSpec((1, 1), "ab"))
        assert (rep.odd_writhe, rep.conjecture_holds) == (None, None)


class TestGrid:
    def test_small_grid_all_pass(self):
        results = run_grid(n_max=2, lo=0, hi=3, workers=1)
        assert results and all(r.passed for r in results)

    def test_deterministic_and_ordered(self):
        a = run_grid(n_max=1, lo=-2, hi=2, workers=1)
        b = run_grid(n_max=1, lo=-2, hi=2, workers=1)
        assert a == b
        subjects = [r.subject for r in a[:: 4]]
        expected = [str(s) for s in grid_specs(1, -2, 2)]
        assert subjects == expected

    def test_signed_identity_implies_conjecture(self):
        results = run_grid(n_max=2, lo=-2, hi=2, workers=1)
        by_spec = {}
        for r in results:
            by_spec.setdefault(r.subject, {})[r.check] = r.passed
        for checks in by_spec.values():
            if checks["signed_odd_writhe_identity"]:
                assert checks["conjecture_2dbar_eq_ow"]

    def test_parallel_matches_serial(self):
        specs = grid_specs(2, -1, 2)
        serial = run_grid(specs=specs, workers=1)
        parallel = run_grid(specs=specs, workers=2)
        assert serial == parallel

    def test_va_threads_caps_workers(self, monkeypatch):
        monkeypatch.setenv("VA_THREADS", "1")
        assert worker_count(100) == 1
        monkeypatch.setenv("VA_THREADS", "9999")
        assert worker_count(100) >= 1
        monkeypatch.setenv("VA_THREADS", "junk")
        assert worker_count(100) >= 1
        # small grids run in-process whatever the cap or request
        monkeypatch.delenv("VA_THREADS")
        assert worker_count(32) == worker_count(4, workers=2) == 1
        assert worker_count(33, workers=2) == 2


class TestLawSuite:
    def test_builtin_corpus_passes(self):
        results = run_law_suite()
        bad = [r for r in results if not r.passed]
        assert not bad, "\n".join(str(r) for r in bad)

    def test_corpus_contents(self):
        names = [name for name, _ in builtin_corpus()]
        assert "VHL+" in names and "VHL-" in names
        assert "virtual_trefoil" in names and "trefoil" in names
        assert "VT(1,1,1,1)" in names

    def test_divisibility_of_smoothed_links(self):
        # the (u-1)(v-1) divisibility also covers links made by smoothing
        for name, d in builtin_corpus():
            for cid in d.crossings:
                try:
                    s = smooth_crossing(d, cid)
                except EmptyComponent:
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
        summary = batch_check(path)
        assert summary.checked == 4
        assert summary.held == 4
        assert summary.ignored == 2
        assert not summary.errors
        assert summary.ok

    def test_malformed_lines_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{VTREFOIL}\nO1+O1+\nO1+;U1+\n")
        summary = batch_check(path)
        assert summary.checked == 1
        assert len(summary.errors) == 2
        assert summary.errors[0][0] == 2
        assert not summary.ok

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        summary = batch_check(path)
        assert summary.checked == 0 and summary.ok

    def test_accepts_iterable(self):
        summary = batch_check([f"{VTREFOIL}\n", "# note\n"])
        assert summary.checked == 1 and summary.ignored == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            batch_check(tmp_path / "nope.txt")
