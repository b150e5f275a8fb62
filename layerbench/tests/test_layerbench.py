"""Tests of the benchmark itself: exact counters, unchanged outputs, output shape.

    python3 -m pytest -q layerbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import LayerTracer, layer_targets  # noqa: E402

# Small slices of each workload's traced items, so the tests stay quick.
SLICES = {"grid": 40, "gauss": 3, "twist": 300}


def traced(valex, wl, items):
    tracer = LayerTracer(layer_targets())
    with tracer:
        _, outs = run.one_pass(wl, items, valex.errors.ValexError)
    return tracer, outs


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_traced_counts_repeat_and_outputs_unchanged(workload):
    valex, wl = run.make_workload(workload, seed=7)
    items = wl.traced_items()[:SLICES[workload]]
    _, plain = run.one_pass(wl, items, valex.errors.ValexError)
    first, outs_a = traced(valex, wl, items)
    second, outs_b = traced(valex, wl, items)

    assert first.counts == second.counts
    calls = lambda t: {name: agg["calls"] for name, agg in t.by_name().items()}  # noqa: E731
    assert calls(first) == calls(second)
    assert [wl.key(o) for o in outs_a] == [wl.key(o) for o in plain]
    assert [wl.key(o) for o in outs_b] == [wl.key(o) for o in plain]
    assert all(not wl.check(item, out) for item, out in zip(items, outs_a))


def test_divexact_split_adds_up():
    valex, wl = run.make_workload("grid", seed=3)
    tracer, _ = traced(valex, wl, wl.traced_items()[:SLICES["grid"]])
    c = tracer.counts
    split = c["divexact_empty_num"] + c["divexact_monomial_div"] + c["divexact_general_div"]
    assert split == tracer.by_name()["pykernel.divexact_terms"]["calls"] > 0
    assert c["determinant_peak_entry_terms"] > 0 and c["determinant_peak_coef_bits"] > 0


def test_gauss_oracle_catches_a_wrong_delta0():
    import random

    from oracle import check_gauss

    valex, wl = run.make_workload("gauss", seed=5)
    line = wl.streams[0][0]
    report = wl.op(line)
    assert check_gauss(valex, line, report, random.Random(1)) == []
    report.delta0 = report.delta0 + valex.U
    assert "delta0_mod_p" in check_gauss(valex, line, report, random.Random(1))


def result_line(*args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = result_line("--workload", "twist", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in spec[key]}
    for m in spec[key]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
