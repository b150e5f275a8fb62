import itertools

import pytest

from valex.cli import main
from valex.diagram import odd_writhe
from valex.laurent import LaurentPoly, parse_poly
from valex.twist import TwistSpec, format_spec, generate_twist

TREFOIL = "O1+U2+O3+U1+O2+U3+"
VTREFOIL = "O1+U2+U1+O2+"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_quiet_worked_example(self, capsys):
        code, out, _ = run(capsys, "compute", "--spec", "VT[a](7,4,3,5,9)", "--quiet")
        assert code == 0
        assert parse_poly(out.strip()) == parse_poly(
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
        assert parse_poly(fields["dbar_norm"]) == parse_poly("1")
        assert fields["ow"] == "2"
        assert fields["holds"] == "true"

    def test_raw(self, capsys):
        code, out, _ = run(capsys, "compute", "--gauss", VTREFOIL, "--raw")
        assert code == 0
        assert "dbar_norm" not in out

    def test_machine_output_reparseable(self, capsys):
        code, out, _ = run(capsys, "compute", "--spec", "VT[a](-7,3,-5,-2,3)",
                           "--machine")
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert parse_poly(fields["dbar_norm"]) == parse_poly(
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
        unit = LaurentPoly.monomial(1 if sign == "+" else -1, shift, shift)
        assert parse_poly(fields["delta0(D)"]) == unit * parse_poly(fields["delta0_norm"])

    def test_bad_gauss_exits_1(self, capsys):
        code, _, err = run(capsys, "compute", "--gauss", "O1+O1+")
        assert code == 1 and "error" in err

    def test_usage_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute"])
        assert exc.value.code == 2


class TestTwist:
    def test_vt1(self, capsys):
        code, out, _ = run(capsys, "twist", "VT[a](1)")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "U2+U1+O2+O1+"
        assert all(line.startswith("#") for line in lines[:-1])

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
            assert parse_poly(via_spec["dbar_norm"]) == parse_poly(
                via_gauss["dbar_norm"]
            ), spec
            assert via_spec["ow"] == via_gauss["ow"], spec

    def test_unsupported(self, capsys):
        code, _, err = run(capsys, "twist", "VT[ab](1,1)")
        assert code == 1 and "clasp" in err

    def test_spec_report_odd_writhe_matches_generated_diagram(self, capsys):
        small = [b for k in (1, 2, 3) for b in itertools.product(range(-2, 3), repeat=k)]
        for clasp in ("a", "^a", "b", "^b", "ab", "ba"):
            for blocks in small:
                spec = TwistSpec(blocks, clasp)
                code, out, _ = run(capsys, "compute", "--spec", format_spec(spec),
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

    def test_grid_machine(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1", "--range", "0..2",
                           "--machine")
        assert code == 0
        assert all("pass=true" in line for line in out.strip().splitlines())

    def test_file(self, capsys, tmp_path):
        path = tmp_path / "knots.txt"
        path.write_text(f"# demo\n{TREFOIL}\n{VTREFOIL}\n")
        code, out, _ = run(capsys, "verify", "--file", str(path))
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
        code, _, err = run(capsys, "verify", "--file", str(path))
        assert code == 1 and "ERROR" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--file", str(tmp_path / "nope"))
        assert code == 1

    def test_non_utf8_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe" + VTREFOIL.encode("utf-16-le"))
        code, out, err = run(capsys, "verify", "--file", str(path))
        assert code == 1
        assert err.startswith("io error:") and "checked=" not in out

    def test_small_grid_reports_one_worker(self, capsys):
        # 4 specs run in-process, so no pool is started
        code, out, _ = run(capsys, "verify", "--n", "1", "--range", "0..3")
        assert code == 0
        assert "4 specs checked" in out and "workers=1)" in out

    @pytest.mark.parametrize("argv", [("--n", "0"), ("--range", "3..-3")])
    def test_empty_grid_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert "specs checked" not in capsys.readouterr().out


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "checks passed" in out
