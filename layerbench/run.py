"""Layered benchmark for valex: one workload per run, metrics on stdout.

    python3 layerbench/run.py --workload {grid,gauss,twist} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; valex is imported from ``src/``.
The kernel is whatever ``valex._backend`` selects; compare kernels by
running this script under ``VALEX_BACKEND=python`` and ``VALEX_BACKEND=c``.

``--trace 0`` runs a closed loop (one client, each call waits for the last)
for ``--seconds`` and reports the end-to-end metrics, with times scaled to a
nominal machine speed that slices of ``reference.py`` measure during the run
(the record keeps the unscaled values).  ``--trace 1`` runs a
fixed, seed-determined amount of work once untraced and once under the layer
tracer, and reports per-layer spans, exact kernel counters and the tracing
overhead.  Every output is checked outside the timed region.  A JSON run
record goes to ``layerbench/runs/``; the last stdout line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import reference
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
REF_EVERY_S = 1.0

# Workload-specific names printed next to the generic metrics:
# (name, scale from the generic unit, unit).
LABELS = {
    "grid": {"ops_per_s": ("grid.specs_per_s", 1, "1/s"),
             "op_p50_ms": ("grid.spec_p50_ms", 1, "ms"),
             "op_tail_ms": ("grid.spec_p98_ms", 1, "ms")},
    "gauss": {"ops_per_s": ("gauss.codes_per_s", 1, "1/s"),
              "op_p50_ms": ("gauss.line_p50_s", 1e-3, "s"),
              "op_tail_ms": ("gauss.line_p90_s", 1e-3, "s")},
    "twist": {"ops_per_s": ("twist.specs_per_s", 1, "1/s"),
              "op_p50_ms": ("twist.spec_p50_us", 1e3, "us"),
              "op_tail_ms": ("twist.spec_p99_us", 1e3, "us")},
}


def import_valex():
    """Import valex from this checkout's ``src/`` or exit with code 2."""
    if not (SRC / "valex" / "__init__.py").is_file():
        print(f"layerbench: no valex sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import valex

    if Path(valex.__file__).resolve().parent != SRC / "valex":
        print(f"layerbench: imported valex from {valex.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return valex


def make_workload(name: str, seed: int):
    valex = import_valex()
    return valex, WORKLOADS[name](valex, seed)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import valex and build the inputs, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.split()[-1])


def percentile(sorted_vals: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, -(-len(sorted_vals) * pct // 100))
    return sorted_vals[int(k) - 1]


def timed_op(wl, item, valex_error):
    t0 = time.perf_counter()
    try:
        out = wl.op(item)
    except valex_error as e:
        return time.perf_counter() - t0, None, type(e).__name__
    return time.perf_counter() - t0, out, None


def closed_loop(wl, seconds: float, valex_error, probe) -> dict:
    """One client for ``seconds``; each stream gets its share of busy time.

    ``probe`` runs SETUP_PROBES times and a reference slice runs every
    REF_EVERY_S, both spread over the run so that they see the same machine
    as the operations; their time does not count toward ``seconds``.
    """
    k = len(wl.streams)
    lat = [array("d") for _ in range(k)]  # 8 bytes a sample keeps peak RSS steady
    busy = [0.0] * k
    pos = [0] * k
    failures = Counter()
    failed_ops = 0
    probes = []
    ref = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        now = time.perf_counter()
        if len(probes) < SETUP_PROBES and now >= start + seconds * len(probes) / SETUP_PROBES:
            probes.append(probe())
        if now >= start + REF_EVERY_S * len(ref):
            ref.append(reference.slice_block_s())
        deadline += time.perf_counter() - now
        s = min(range(k), key=lambda i: busy[i] / wl.shares[i])
        items = wl.streams[s]
        item = items[pos[s] % len(items)]
        pos[s] += 1
        dt, out, err = timed_op(wl, item, valex_error)
        busy[s] += dt
        lat[s].append(dt)
        bad = [err] if err else wl.check(item, out)
        failures.update(bad)
        failed_ops += bool(bad)
        if time.perf_counter() >= deadline and len(probes) == SETUP_PROBES:
            break
    return {"latencies": lat, "busy_s": busy, "failed": failed_ops,
            "failures": dict(failures), "setup_s": probes, "ref_block_s": ref}


def one_pass(wl, items, valex_error) -> tuple:
    """Each item once; returns (busy seconds, outputs or error names)."""
    busy = 0.0
    outs = []
    for item in items:
        dt, out, err = timed_op(wl, item, valex_error)
        busy += dt
        outs.append(err if err else out)
    return busy, outs


class WorkerCounter(logging.Handler):
    """Counts the pool workers multiprocessing reports starting."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.started = 0

    def emit(self, record):
        if record.getMessage() == "added worker":
            self.started += 1


def pool_pass(wl, specs) -> dict:
    """The whole grid in one ``run_grid`` call with up to 2 workers."""
    import multiprocessing

    from valex import verify

    workers = min(2, os.cpu_count() or 1)
    logger = multiprocessing.get_logger()
    counter = WorkerCounter()
    level = logger.level
    logger.addHandler(counter)
    logger.setLevel(logging.DEBUG)
    try:
        t0 = time.perf_counter()
        results = verify.run_grid(specs, workers=workers)
        wall = time.perf_counter() - t0
    finally:
        logger.removeHandler(counter)
        logger.setLevel(level)
    if len(results) != 4 * len(specs):
        failed = len(specs)
    else:
        failed = sum(bool(wl.check(spec, results[4 * i:4 * i + 4]))
                     for i, spec in enumerate(specs))
    return {"requested": workers, "started": counter.started, "wall_s": wall,
            "failed": failed}


def run_untraced(valex, wl, seconds: float, probe) -> tuple:
    loop = closed_loop(wl, seconds, valex.errors.ValexError, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(len(stream) for stream in loop["latencies"])
    failed = loop["failed"]
    # Percentiles come from the first stream: gauss's n=16 lines are the only
    # size with enough lines per run for a steady tail.
    lat = sorted(loop["latencies"][0])
    raw = {
        # a batch that gives each stream its share of time, whatever the
        # last (possibly long) operation of each stream overran
        "ops_per_s": sum(share * len(lat_s) / busy_s for share, lat_s, busy_s
                         in zip(wl.shares, loop["latencies"], loop["busy_s"])),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": percentile(lat, wl.tail_pct) * 1e3,
        "setup_s": statistics.median(loop["setup_s"]),
    }
    # times scaled to the nominal machine speed (see reference.py)
    scale = reference.speed_scale(loop["ref_block_s"])
    metrics = {
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
        "op_tail_ms": (raw["op_tail_ms"] * scale, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (raw["setup_s"] * scale, "s"),
    }
    detail = {
        "raw": raw,
        "speed_scale": scale,
        "ref_block_s": loop["ref_block_s"],
        "tail_percentile": wl.tail_pct,
        "busy_s": loop["busy_s"],
        "failures": loop["failures"],
        "setup_samples_s": loop["setup_s"],
        "streams": [{"samples": len(s), "p50_ms": statistics.median(s) * 1e3}
                    for s in loop["latencies"]],
    }
    return attempted, failed, metrics, detail


def run_traced(valex, wl) -> tuple:
    from tracer import LayerTracer, layer_targets

    err_t = valex.errors.ValexError
    items = wl.traced_items()
    busy_plain, plain = one_pass(wl, items, err_t)
    tracer = LayerTracer(layer_targets())
    with tracer:
        busy_traced, traced = one_pass(wl, items, err_t)
    failures = Counter()
    failed = 0
    for item, a, b in zip(items, plain, traced):
        bad = [b] if isinstance(b, str) else wl.check(item, b)
        if not bad and wl.key(a) != wl.key(b):
            bad = ["traced_output_differs"]
        failures.update(bad)
        failed += bool(bad)
    attempted = len(items)

    spans = tracer.by_name()
    counts = tracer.counts

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    m = {}
    for name in ("pykernel.divexact_terms", "pykernel.fma_terms", "pykernel.mul_terms",
                 "alexander.determinant", "twist.evaluate_recursive", "laurent.poly_ops"):
        m[f"{name}.calls"] = (span(name, "calls"), "count")
        m[f"{name}.self_s"] = (span(name, "self_s"), "s")
    for name in ("alexander.build_matrix", "alexander.delta_bar", "diagram.parse_gauss",
                 "diagram.derive_incidence", "diagram.odd_writhe", "twist.generate_twist",
                 "laurent.normalize"):
        m[f"{name}.self_s"] = (span(name, "self_s"), "s")
    m["pykernel.divexact_terms.empty_num_calls"] = (counts["divexact_empty_num"], "count")
    m["pykernel.divexact_terms.monomial_div_calls"] = (counts["divexact_monomial_div"], "count")
    m["pykernel.divexact_terms.general_div_calls"] = (counts["divexact_general_div"], "count")
    m["pykernel.term_products"] = (counts["term_products"], "count")
    m["alexander.determinant.order_max"] = (counts["determinant_order_max"], "count")
    m["alexander.determinant.peak_entry_terms"] = (counts["determinant_peak_entry_terms"], "count")
    m["alexander.determinant.peak_coef_bits"] = (counts["determinant_peak_coef_bits"], "bits")
    m["trace.overhead_ratio"] = (busy_traced / busy_plain, "ratio")

    detail = {"traced_items": attempted, "busy_untraced_s": busy_plain,
              "busy_traced_s": busy_traced, "failures": dict(failures),
              "counts": dict(counts), "spans": tracer.edges()}
    workers = spec_rate_2w = efficiency = 0
    if wl.name == "grid":
        pool = pool_pass(wl, items)
        attempted += len(items)
        failed += pool["failed"]
        workers = pool["started"] or 1
        spec_rate_2w = len(items) / pool["wall_s"]
        efficiency = spec_rate_2w / (len(items) / busy_plain) / workers
        detail["pool"] = pool
    m["verify.run_grid.workers"] = (workers, "count")
    m["verify.run_grid.specs_per_s_2w"] = (spec_rate_2w, "1/s")
    m["verify.run_grid.efficiency_2w"] = (efficiency, "ratio")
    detail["workers_used"] = workers or None
    return attempted, failed, m, detail


def commit_id():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over valex's source files, so a record names its code outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "valex").glob("*.py*")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def write_record(record: dict) -> Path:
    out_dir = BENCH / "runs"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = out_dir / (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
                      f"-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        t0 = time.perf_counter()
        make_workload(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0

    valex, wl = make_workload(args.workload, args.seed)
    if args.trace:
        attempted, failed, metrics, detail = run_traced(valex, wl)
    else:
        attempted, failed, metrics, detail = run_untraced(
            valex, wl, args.seconds, lambda: setup_probe(args.workload, args.seed))

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit_id(), "source_sha256": source_digest(),
        "python": platform.python_version(), "kernel": valex.BACKEND,
        "valex_backend_env": os.environ.get("VALEX_BACKEND"),
        "cpu_count": os.cpu_count(), "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    path = write_record(record)

    labels = LABELS[args.workload]
    print(f"# layerbench {args.workload} seed={args.seed} trace={args.trace} "
          f"kernel={valex.BACKEND} cpus={os.cpu_count()} record={path.relative_to(ROOT)}")
    raw = detail.get("raw", {})
    for name, (value, unit) in metrics.items():
        print(f"{name}={value if isinstance(value, int) else f'{value:.6g}'} {unit}"
              + (f"  (unscaled {raw[name]:.6g})" if name in raw else ""))
        if name in labels:
            label, scale, label_unit = labels[name]
            print(f"  {label}={value * scale:.6g} {label_unit}")
    print(f"failed_ratio={failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
