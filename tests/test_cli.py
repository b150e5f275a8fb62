import itertools
import time

import pytest

from tests.conftest import read_poly
from valex import verify
from valex.alexander import invariant_report
from valex.cli import main
from valex.diagram import MAX_GAUSS_CROSSINGS, odd_writhe
from valex.laurent import LaurentPoly, U, V
from valex.twist import (
    MAX_SPEC_BLOCKS,
    MAX_SPEC_CROSSINGS,
    TwistSpec,
    evaluate_recursive,
    generate_twist,
)
from valex.verify import MAX_GRID_CROSSINGS

TREFOIL = "O1+U2+O3+U1+O2+U3+"
VTREFOIL = "O1+U2+U1+O2+"
# a chain of classical kinks one crossing over parse_gauss's cap
OVER_CAP_CODE = "".join(f"O{c}+U{c}+" for c in range(1, MAX_GAUSS_CROSSINGS + 2))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_quiet_worked_example(self, capsys):
        code, out, _ = run(capsys, "compute", "--spec", "VT[a](7,4,3,5,9)", "--quiet")
        assert code == 0
        assert read_poly(out.strip()) == read_poly(
            "2 + 5*u*v - u^2*v^3 + 2*u^2*v^2 + 4*u^3*v^3"
        )

    def test_trefoil_trivial(self, capsys):
        code, out, _ = run(capsys, "compute", "--gauss", TREFOIL)
        assert code == 0
        assert "delta0(D):      0" in out or "delta0(D): 0" in out.replace("  ", " ")

    def test_virtual_trefoil_report(self, capsys):
        code, out, _ = run(capsys, "compute", "--gauss", VTREFOIL, "--machine")
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert read_poly(fields["dbar_norm"]) == read_poly("1")
        assert fields["ow"] == "2"
        assert fields["holds"] == "true"

    def test_raw(self, capsys):
        # the diagram-level values lead the report, before the normalized ones
        code, out, _ = run(capsys, "compute", "--gauss", VTREFOIL, "--machine")
        assert code == 0
        keys = [line.split("=", 1)[0] for line in out.splitlines()]
        assert keys[:3] == ["input", "delta0(D)", "dbar(D)"]
        assert "dbar_norm" in keys[3:]

    def test_raw_b_clasp_prints_no_note(self, capsys):
        # the b-side recursion is as exact at diagram level as the a side:
        # its dbar(D) line is the generated diagram's, with no note beside it
        code, out, _ = run(capsys, "compute", "--spec", "VT[b](2,-1)", "--machine")
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.splitlines())
        assert list(fields) == ["input", "delta0(D)", "dbar(D)", "dbar_norm",
                                "delta0_norm", "unit", "dbar_at_minus1", "ow", "holds"]
        diagram = invariant_report(generate_twist(TwistSpec((2, -1), "b")))
        assert read_poly(fields["dbar(D)"]) == diagram.dbar

    def test_raw_is_gone(self, capsys):
        # the plain report's first three lines are the diagram-level values
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--gauss", VTREFOIL, "--raw"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_machine_output_reparseable(self, capsys):
        code, out, _ = run(capsys, "compute", "--spec", "VT[a](-7,3,-5,-2,3)",
                           "--machine")
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert read_poly(fields["dbar_norm"]) == read_poly(
            "1 + u*v - u^2*v^2 + u^3*v^2 + 4*u^3*v^3"
        )
        assert fields["ow"] == "-8"

    @pytest.mark.parametrize("code", ["O1+;U1+", "O1-;U1-", "O1+U2+;U1+O2+",
                                      "O1-U2+;U1-O2+", VTREFOIL])
    def test_delta0_is_unit_times_delta0_norm(self, capsys, code):
        # links divide by (u-1)(v-1), knots by (u-1)(v-1)(uv-1); either way
        # delta0(D) = sign * (uv)^shift * delta0_norm
        _, out, _ = run(capsys, "compute", "--gauss", code, "--machine")
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        sign, shift = fields["unit"][0], int(fields["unit"].split("^", 1)[1])
        unit = LaurentPoly({(shift, shift): 1 if sign == "+" else -1})
        assert read_poly(fields["delta0(D)"]) == unit * read_poly(fields["delta0_norm"])

    def test_bad_gauss_exits_1(self, capsys):
        code, _, err = run(capsys, "compute", "--gauss", "O1+O1+")
        assert code == 1 and "error" in err

    def test_overlong_crossing_id_exits_1(self, capsys):
        code, _, err = run(capsys, "compute", "--gauss", f"O{'9' * 5000}+U{'9' * 5000}+")
        assert code == 1 and err.startswith("error: crossing id of 5000 digits")

    def test_gauss_over_cap_exits_1(self, capsys):
        code, out, err = run(capsys, "compute", "--gauss", OVER_CAP_CODE)
        assert code == 1 and out == ""
        n = MAX_GAUSS_CROSSINGS + 1
        assert err == (f"error: crossing {n} exceeds the cap of {MAX_GAUSS_CROSSINGS} "
                       f"crossings (at position {OVER_CAP_CODE.index(f'O{n}+')})\n")

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def fail(d):
            raise RuntimeError("lost\ninvariant")

        monkeypatch.setattr("valex.cli.invariant_report", fail)
        code, out, err = run(capsys, "compute", "--gauss", VTREFOIL)
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError('lost\\ninvariant')\n"

    def test_usage_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute"])
        assert exc.value.code == 2


class TestTwist:
    def test_vt1(self, capsys):
        # the README's example
        code, out, _ = run(capsys, "twist", "VT[a](1)")
        assert code == 0
        assert out.splitlines() == [
            "# VT[a](1): 2 classical crossings (crossing 1 = clasp), 1 component",
            "# arc labels along traversal (columns of the matrix): 3 4 2 1",
            "U2+U1+O2+O1+",
        ]

    def test_mirrored_clasp_names_its_base(self, capsys):
        code, out, _ = run(capsys, "twist", "VT[b](2,-1)")
        assert code == 0
        assert out.splitlines() == [
            "# VT[b](2,-1): 4 classical crossings (crossing 1 = clasp), 1 component",
            "# generated via clasp identity as VT[a](-2,1) mirrored",
            "# arc labels along traversal (columns of the matrix): 3 5 7 8 6 4 2 1",
            "U2+O3+U4-O1+O4-U3+O2+U1+",
        ]

    def test_vt0(self, capsys):
        code, out, _ = run(capsys, "twist", "VT[a](0)")
        assert code == 0
        assert out.strip().splitlines()[-1].count("O") == 1

    def test_code_feeds_back_into_compute(self, capsys):
        _, out, _ = run(capsys, "twist", "VT[b](2,1)")
        code_line = out.strip().splitlines()[-1]
        code, out2, _ = run(capsys, "compute", "--gauss", code_line, "--machine")
        assert code == 0 and "holds=true" in out2

    def test_spec_and_gauss_paths_agree(self, capsys):
        # the recursion route and the determinant route report the same
        # normalized invariant and odd writhe
        for spec in ("VT[a](3,2)", "VT[a](-2,0,3)", "VT[^a](2)", "VT[b](1,2)"):
            _, out, _ = run(capsys, "compute", "--spec", spec, "--machine")
            via_spec = dict(line.split("=", 1) for line in out.strip().splitlines())
            _, out, _ = run(capsys, "twist", spec)
            code_line = out.strip().splitlines()[-1]
            _, out, _ = run(capsys, "compute", "--gauss", code_line, "--machine")
            via_gauss = dict(line.split("=", 1) for line in out.strip().splitlines())
            assert read_poly(via_spec["dbar_norm"]) == read_poly(
                via_gauss["dbar_norm"]
            ), spec
            assert via_spec["ow"] == via_gauss["ow"], spec

    def test_unsupported(self, capsys):
        code, _, err = run(capsys, "twist", "VT[ab](1,1)")
        assert code == 1 and "clasp" in err

    @pytest.mark.parametrize("spec", [
        "VT[a](" + ",".join(["1"] * (MAX_SPEC_BLOCKS + 1)) + ")",
        f"VT[^b]({MAX_SPEC_CROSSINGS + 1})",
    ], ids=["blocks", "crossings"])
    def test_spec_over_a_cap_exits_1(self, capsys, spec):
        for argv in (("twist", spec), ("compute", "--spec", spec)):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and err.startswith("error: ") and "cap" in err

    def test_spec_report_odd_writhe_matches_generated_diagram(self, capsys):
        small = [b for k in (1, 2, 3) for b in itertools.product(range(-2, 3), repeat=k)]
        for clasp in ("a", "^a", "b", "^b", "ab", "ba"):
            for blocks in small:
                spec = TwistSpec(blocks, clasp)
                code, out, _ = run(capsys, "compute", "--spec", str(spec),
                                   "--machine")
                assert code == 0, spec
                fields = dict(line.split("=", 1) for line in out.strip().splitlines())
                if clasp in ("ab", "ba"):
                    assert "ow" not in fields, spec
                else:
                    assert int(fields["ow"]) == odd_writhe(generate_twist(spec)), spec


class TestVerify:
    def test_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1", "--range", "0..10")
        assert code == 0
        assert "0 failures" in out

    def test_failures_print_one_line_each(self, capsys, monkeypatch):
        # the unit slip -uv fails both raw-value checks on VT[a](1), whose
        # dbar is 1, and none on VT[a](0), whose dbar is 0
        monkeypatch.setattr(verify, "evaluate_recursive",
                            lambda spec: -(U * V) * evaluate_recursive(spec))
        code, out, _ = run(capsys, "verify", "--n", "1", "--range", "0..1")
        assert code == 1
        assert out.splitlines() == [
            "FAIL VT[a](1)                 recursion_vs_determinant     -u*v == 1",
            "FAIL VT[a](1)                 signed_odd_writhe_identity   -2 == 2",
            "2 specs checked (8 checks, 2 failures, workers=1)",
        ]

    def test_grid_machine(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1", "--range", "0..2",
                           "--machine")
        assert code == 0
        assert all("pass=true" in line for line in out.strip().splitlines())

    def test_file(self, capsys, tmp_path):
        path = tmp_path / "knots.txt"
        path.write_text(f"# demo\n{TREFOIL}\n{VTREFOIL}\n")
        code, out, _ = run(capsys, "batch", str(path))
        assert code == 0
        assert "checked=2 held=2" in out

    def test_batch_alias(self, capsys, tmp_path):
        path = tmp_path / "knots.txt"
        path.write_text(f"{VTREFOIL}\n")
        code, out, _ = run(capsys, "batch", str(path), "--machine")
        assert code == 0
        assert "ow=2" in out and "holds=true" in out

    def test_file_with_error_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("O1+O1+\n")
        code, _, err = run(capsys, "batch", str(path))
        assert code == 1 and "ERROR" in err

    def test_overlong_crossing_id_reports_line_and_goes_on(self, capsys, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text(f"O{'9' * 5000}+U{'9' * 5000}+\n{VTREFOIL}\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 1
        assert err.startswith("line 1: ERROR ParseError")
        assert "checked=1 held=1 errors=1" in out

    def test_gauss_over_cap_reports_line_and_goes_on(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(f"{VTREFOIL}\n{OVER_CAP_CODE}\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 1
        assert err.startswith("line 2: ERROR ParseError")
        assert "checked=1 held=1 errors=1" in out

    @pytest.mark.parametrize("argv", [("batch",), ("batch", "--machine")])
    def test_file_without_codes_exits_1(self, capsys, tmp_path, argv):
        path = tmp_path / "comments.txt"
        path.write_text("# nothing to check\n\n")
        code, out, _ = run(capsys, *argv, str(path))
        assert code == 1
        assert "checked=0" in out

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "batch", str(tmp_path / "nope"))
        assert code == 1

    def test_non_utf8_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe" + VTREFOIL.encode("utf-16-le"))
        code, out, err = run(capsys, "batch", str(path))
        assert code == 1
        assert err.startswith("io error: line 1:") and "checked=" not in out

    def test_byte_order_mark_is_not_part_of_line_1(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(f"{VTREFOIL}\n".encode("utf-8-sig"))
        code, out, err = run(capsys, "batch", str(path))
        assert code == 0 and err == ""
        assert out.startswith("line 1: O1+U2+U1+O2+  ow=2")
        assert "checked=1 held=1 errors=0" in out

    def test_decode_error_names_its_line_after_the_verdicts_before_it(self, capsys, tmp_path):
        # each line is decoded on its own, so the bad byte on line 2 leaves
        # line 1's verdict printed
        path = tmp_path / "byte.txt"
        path.write_bytes(b"O1+U2+U1+O2+\n\xff\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 1
        assert out == "line 1: O1+U2+U1+O2+  ow=2 dbar(-1,-1)=1  holds\n"
        assert err.startswith("io error: line 2:")

    def test_verdicts_before_a_decode_error_stay_printed(self, capsys, tmp_path):
        # line 1 is checked and printed before the bad byte past 10,000
        # comment bytes is read
        path = tmp_path / "late.txt"
        path.write_bytes(f"{VTREFOIL}\n".encode() + b"#" * 10_000 + b"\n\xff\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 1
        assert out.startswith("line 1: O1+U2+U1+O2+  ow=2") and "checked=" not in out
        assert err.startswith("io error: line 3:")

    def test_small_grid_reports_one_worker(self, capsys):
        # 4 specs run in-process, so no pool is started
        code, out, _ = run(capsys, "verify", "--n", "1", "--range", "0..3")
        assert code == 0
        assert "4 specs checked" in out and "workers=1)" in out

    def test_grid_over_cap_exits_1_at_once(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a spec was built past the cap")

        monkeypatch.setattr("valex.verify.TwistSpec", refuse)
        # about 1.6e10 specs; then 10**9 one-spec levels, which the count
        # passes after 100,001 of them; then 100,000 specs of zero work,
        # which pass the count but not the block cap; then 2 specs of up to
        # 50,000 twist crossings each; then 6,001 and 40,602 specs whose
        # twist crossings, squared, sum to 1.8e10 and 4.8e8
        work_cap = f"squared, above the cap of {MAX_GRID_CROSSINGS ** 2}"
        for argv, cap in ((("--n", "12", "--range", "-3..3"), "cap of 100000 specs"),
                          (("--n", str(10 ** 9), "--range", "0..0"), "cap of 100000 specs"),
                          (("--n", "100000", "--range", "0..0"),
                           f"cap of {MAX_SPEC_BLOCKS} blocks per spec"),
                          (("--n", "1", "--range", "49999..50000"), work_cap),
                          (("--n", "1", "--range", "-3000..3000"), work_cap),
                          (("--n", "2", "--range", "-100..100"), work_cap)):
            t0 = time.perf_counter()
            code, out, err = run(capsys, "verify", *argv)
            assert time.perf_counter() - t0 < 1.0
            assert code == 1 and out == ""
            assert err.startswith("error: ") and cap in err

    def test_grid_at_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setattr("valex.verify.MAX_GRID_SPECS", 4)
        code, out, _ = run(capsys, "verify", "--n", "1", "--range", "0..3")
        assert code == 0 and "all 4 specs checked" in out
        code, out, err = run(capsys, "verify", "--n", "1", "--range", "0..4")
        assert code == 1 and out == "" and "cap of 4 specs" in err

    def test_grid_at_crossing_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setattr("valex.verify.MAX_GRID_CROSSINGS", 4)
        # the squared twist crossings sum to 16 over VT(-4), and to 7 over
        # the six specs of n <= 2 blocks in 0..1
        code, out, _ = run(capsys, "verify", "--n", "1", "--range", "-4..-4")
        assert code == 0 and "all 1 specs checked" in out
        code, out, _ = run(capsys, "verify", "--n", "2", "--range", "0..1")
        assert code == 0 and "all 6 specs checked" in out
        # 9 + 16 over VT(-4) and VT(-3); 1 + 4 + 9 + 16 over VT(1)..VT(4)
        for grid, work in (("-4..-3", 25), ("1..4", 30)):
            code, out, err = run(capsys, "verify", "--n", "1", "--range", grid)
            assert code == 1 and out == ""
            assert f"sums {work} over its specs' twist crossings squared, above the cap of 16" in err

    # batch files go through `valex batch` only, so `verify --file` is refused too
    @pytest.mark.parametrize("argv", [("--n", "0"), ("--n", "x"), ("--range", "3"),
                                      ("--range", "3..-3"), ("--file", "knots.txt")])
    def test_empty_grid_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert "specs checked" not in capsys.readouterr().out


class TestSmallGrid:
    # the grid of n <= 2 blocks in 0..3: 20 specs, four checks each
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--range", "0..3")
        assert code == 0
        assert out == "all 20 specs checked (80 checks, 0 failures, workers=1)\n"

    def test_machine_prints_every_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--range", "0..3", "--machine")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 80 and all(x.endswith(", pass=true") for x in lines)

    @pytest.mark.parametrize("argv", [("selftest",), ("selftest", "--verbose")])
    def test_selftest_is_gone(self, capsys, argv):
        # `valex verify --n 2 --range 0..3` is the one way to run these checks
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
