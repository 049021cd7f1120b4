"""The surfhom benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client, closed loop, no threads.  A run spawns worker processes one
after another, each a fresh interpreter that sets up (imports surfhom,
generates the seeded input set) and then drives the whole input set
once; that is one pass.  Passes repeat until ``--seconds`` is used up
(at least one).  With ``--trace 1`` untraced and traced passes
alternate, and the traced ones supply the per-layer metrics.

The last line of stdout is the result object; the line before it holds
details: error rate, output digest, tail percentile, traffic shape.
See perfbench/README.md for every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as W  # noqa: E402

WORKER_TIMEOUT_S = 170
# Time of worker.calibration_snippet on the machine this benchmark was
# defined on (2-vCPU VM, Python 3.11).  Each pass's times are scaled by
# REFERENCE_CALIBRATION_S / (that pass's median snippet time), so the
# reported seconds are seconds at that reference speed; raw values are
# in the details line.
REFERENCE_CALIBRATION_S = 1.5e-3


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, traced, size, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", size]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, cwd=W.ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} exceeded {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n"
                         + proc.stderr.decode(errors="replace")[-2000:])
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out.pop("setup_end") - t0
    out["scale"] = REFERENCE_CALIBRATION_S / out["calibration"]
    return out


def item_stats(passes, scaled):
    """Median over passes of each item's time, then the median item and the
    highest percentile with at least 10 items beyond it (nearest rank)."""
    per_item = sorted(statistics.median(t) for t in zip(
        *([x * (p["scale"] if scaled else 1) for x in p["times"]] for p in passes)))
    n = len(per_item)
    k = n - 11 if n >= 11 else n - 1
    return statistics.median(per_item), per_item[k], 100.0 * (k + 1) / n, n


def times(passes, scaled):
    def med(key):
        return statistics.median(p[key] * (p["scale"] if scaled else 1) for p in passes)
    p50, tail, pct, n = item_stats(passes, scaled)
    return {"wall_s": med("wall"), "item_p50_ms": 1e3 * p50, "item_tail_ms": 1e3 * tail,
            "setup_s": med("setup_s")}, pct, n


def end_to_end(passes):
    scaled, pct, n = times(passes, True)
    raw, _, _ = times(passes, False)
    units = {"wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms", "setup_s": "s"}
    metrics = {k: (v, units[k]) for k, v in scaled.items()}
    metrics["peak_rss_mb"] = (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB")
    return metrics, {"item_tail_percentile": round(pct, 2), "item_samples": n, "raw": raw,
                     "calibration_ms": 1e3 * statistics.median(p["calibration"] for p in passes)}


def unit_of(name):
    if name.endswith("self_s") or ".self_s." in name:
        return "s"
    if "ratio" in name or name == "trace_overhead":
        return "ratio"
    return "count"


def per_layer(untraced, traced, size):
    tags = W.size_tags(size)
    tables = [tracer.per_layer(p["trace"], tags) for p in traced]
    metrics = {k: (statistics.median(t[k] for t in tables), unit_of(k)) for k in tables[0]}
    overhead = (statistics.median(p["wall"] * p["scale"] for p in traced)
                / statistics.median(p["wall"] * p["scale"] for p in untraced))
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics


def golden_digest(workload, seed, size):
    if seed != W.DEFAULT_SEED or size != "full":
        return None
    return json.loads((HERE / "golden.json").read_text())[workload]


def measure(workload, seed, seconds, trace, size):
    start = time.monotonic()
    passes = {False: [], True: []}
    while True:
        for traced in ((False, True) if trace else (False,)):
            left = max(10.0, WORKER_TIMEOUT_S - (time.monotonic() - start))
            passes[traced].append(spawn(workload, seed, traced, size, left))
        used = time.monotonic() - start
        if used + used / len(passes[False]) > seconds:
            break
    everything = passes[False] + passes[True]
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    digests = sorted({p["digest"] for p in everything})
    golden = golden_digest(workload, seed, size)
    leftovers = sorted({w for p in everything for w in p["leftovers"]})
    correct = (failed == 0 and len(digests) == 1 and not leftovers
               and golden in (None, digests[0]))
    if trace:
        metrics = per_layer(passes[False], passes[True], size)
        details = {}
    else:
        metrics, details = end_to_end(passes[False])
    details = {
        "workload": workload, "seed": seed, "size": size,
        "passes": len(passes[False]), "traced_passes": len(passes[True]),
        "error_rate": failed / attempted,
        "output_digest": digests[0] if len(digests) == 1 else digests,
        "golden_digest": golden,
        "leftover_wrappers": leftovers,
        "problems": [q for p in everything for q in p["problems"]][:10],
        **details,
        "traffic_shape": everything[0]["shape"],
    }
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=W.run_seconds(),
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (W.SRC / "surfhom" / "__init__.py").is_file():
        print(f"perfbench: no surfhom sources under {W.SRC}", file=sys.stderr)
        return 2
    try:
        details, result = measure(args.workload, args.seed, args.seconds, args.trace, "full")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
