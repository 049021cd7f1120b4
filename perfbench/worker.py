"""One measured pass: a fresh process that runs a workload's whole input set.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> <size>

Set-up (interpreter start, importing surfhom, generating the inputs)
ends at ``setup_end``, a ``time.monotonic`` reading the parent compares
with its own clock at spawn.  The pass result is printed as one JSON
line.  Every pass is a new process, so surfhom's ``lru_cache`` tables
(``homology``, ``ribbon._tables``, ``load_example``) start cold, as they
do for a user.
"""

import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter

import tracer
import workloads as W

CHECK_TAG = "check"
CALIBRATIONS_PER_PASS = 30


def calibration_snippet():
    """A fixed pure-Python loop, timed between items.  The host's speed
    drifts by a quarter within minutes; the run scales its times by how
    long this loop took, see ``run.REFERENCE_CALIBRATION_S``."""
    t0 = perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return perf_counter() - t0


def run_pass(workload, items, M, traced=False):
    """Drive every item, timing only the calls into surfhom, then check it."""
    drive, check = W.DRIVERS[workload], W.CHECKERS[workload]
    tr = tracer.Tracer() if traced else None
    ctx = {"tracer": tr, "child_traces": []}
    times, shapes, problems, calibration = [], [], [], []
    digest = W.Digest(workload)
    every = max(1, len(items) // CALIBRATIONS_PER_PASS)
    failed = 0
    if tr is not None and workload != "cli":
        tr.install()
    try:
        for i, item in enumerate(items):
            if i % every == 0:
                calibration.append(calibration_snippet())
            if tr is not None:
                tr.tag = item.get("tag")
            t0 = perf_counter()
            try:
                res = drive(M, item, ctx)
            except Exception:  # an item that raises counts as failed
                times.append(perf_counter() - t0)
                digest.add(None)
                shapes.append(None)
                failed += 1
                problems.append(f"item {i}: {traceback.format_exc(limit=-3)}")
                continue
            times.append(perf_counter() - t0)
            if tr is not None:
                tr.tag = CHECK_TAG
            bad, record = check(item, res)
            digest.add(record)
            shapes.append(W.shape_of(workload, record))
            failed += bool(bad)
            problems += [f"item {i}: {p}" for p in bad]
            # neither is held while the next item runs, so peak RSS stays surfhom's
            del res, record
    finally:
        if tr is not None:
            tr.uninstall()
    calibration.append(calibration_snippet())
    out = {
        "times": times,
        "wall": sum(times),
        "calibration": statistics.median(calibration),
        "attempted": len(items),
        "failed": failed,
        "problems": problems[:10],
        "digest": digest.hexdigest(),
        "shape": W.traffic_shape(workload, items, shapes),
        "trace": None,
        "leftovers": tracer.leftover_wrappers(),
    }
    if tr is not None:
        dump = tracer.merge([tr.dump()] + ctx["child_traces"])
        dump["spans"] = [s for s in dump["spans"] if s[1] != CHECK_TAG]
        out["trace"] = dump
    return out


def main(argv):
    workload, seed, traced, size = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    M = W.modules()
    if workload == "cli":
        importlib.import_module("surfhom.cli")
    items = W.generate(workload, seed, size)
    setup_end = time.monotonic()
    out = run_pass(workload, items, M, traced)
    out["setup_end"] = setup_end
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["rss_kb"] = usage
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
