"""Run the benchmark on every workload and print every metric.

    python3 perfbench/report.py                      # default seed
    python3 perfbench/report.py --seeds 1-10 --out perfbench/results/x.json
    python3 perfbench/report.py --trace 1

Every run measures for ``run_seconds`` from BENCHMARK.json, the length
the bounds were measured at.  For each workload it prints the
end-to-end metrics (or, with --trace 1, the per-layer ones) with units,
plus error_rate, the output digest and whether it matches the golden
digest.  With several seeds each metric
is shown as its median and its spread: the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median.  Runs are sequential, one at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(W.run_seconds()), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=W.ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    details = dict(json.loads(lines[-2]), run_elapsed_s=time.monotonic() - t0)
    return details, json.loads(lines[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=[W.DEFAULT_SEED],
                    help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write every run's output here as JSON")
    args = ap.parse_args(argv)

    runs = []
    for workload in W.WORKLOADS:
        rows = []
        for seed in args.seeds:
            details, result = run_one(workload, seed, args.trace)
            rows.append((details, result))
            runs.append({"workload": workload, "seed": seed, "details": details, "result": result})
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        print(f"== {workload}  ({len(rows)} run(s), {W.run_seconds()}s each)")
        names = list(rows[0][1]["metrics"])
        for name in names:
            unit = rows[0][1]["metrics"][name]["unit"]
            med, sp = spread([r["metrics"][name]["value"] for _, r in rows])
            tail = f"  spread {100 * sp:5.1f}%" if sp is not None else ""
            print(f"  {name:42s} {med:14.6g} {unit:6s}{tail}")
        attempted = sum(r["attempted"] for _, r in rows)
        failed = sum(r["failed"] for _, r in rows)
        print(f"  {'error_rate':42s} {failed / attempted:14.6g} ratio   ({failed}/{attempted})")
        if not args.trace:
            d = rows[0][0]
            print(f"  {'item_tail_ms percentile':42s} {d['item_tail_percentile']:14.6g} "
                  f"       of {d['item_samples']} items")
        for details, _ in rows:
            golden = details["golden_digest"]
            verdict = ("no golden digest for this seed" if golden is None else
                       "matches golden" if golden == details["output_digest"] else
                       "DIFFERS FROM GOLDEN")
            print(f"  output_digest seed {details['seed']}: {details['output_digest']}  ({verdict})")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
