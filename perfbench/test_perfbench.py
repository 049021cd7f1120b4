"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench
"""

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

M = W.modules()


def tiny_pass(workload, traced=False, seed=W.DEFAULT_SEED):
    return worker.run_pass(workload, W.generate(workload, seed, "tiny"), M, traced)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_workload_passes_its_checks(workload):
    out = tiny_pass(workload)
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["problems"]
    assert len(out["times"]) == out["attempted"]


def test_generation_is_seeded():
    for workload in W.WORKLOADS:
        assert W.generate(workload, 7, "tiny") == W.generate(workload, 7, "tiny")
    assert W.generate("small-batch", 7, "tiny") != W.generate("small-batch", 8, "tiny")


def _first_result(workload):
    item = W.generate(workload, W.DEFAULT_SEED, "tiny")[0]
    return item, W.DRIVERS[workload](M, item, {"tracer": None})


def test_checker_catches_an_unsorted_trace():
    item, res = _first_result("small-batch")
    assert W.check_small_batch(item, res)[0] == []
    trace = res["traces"][0]
    bad = dataclasses.replace(trace, events=tuple(reversed(trace.events)))
    problems, _ = W.check_small_batch(item, dict(res, traces=[bad]))
    assert any("length-sorted" in p for p in problems)


def test_checker_catches_a_wrong_rank_and_a_failed_minimality():
    item, res = _first_result("small-batch")
    assert W.check_small_batch(item, dict(res, rank=res["rank"] + 2))[0]
    assert W.check_small_batch(item, dict(res, minimal=[(False, ())]))[0]


def test_checker_catches_a_non_symplectic_basis():
    item, res = _first_result("large-surface")
    S = res["S"]
    swapped = (S.matrix[1], S.matrix[0]) + tuple(S.matrix[2:])
    problems, _ = W.check_large_surface(item, dict(res, S=dataclasses.replace(S, matrix=swapped)))
    assert any("standard form" in p for p in problems)


def test_checker_catches_corrupted_cli_output():
    item = {"argv": ["export", "example3", "--format", "json"]}
    res = W.run_cli(M, item, {"tracer": None})
    ok_problems, record = W.check_cli(item, res)
    assert ok_problems == []
    problems, bad_record = W.check_cli(item, dict(res, stdout=res["stdout"][:-20]))
    assert problems and bad_record != record


def _digest(workload, records):
    d = W.Digest(workload)
    for record in records:
        d.add(record)
    return d.hexdigest()


def test_digest_ignores_cli_order_but_not_content():
    a = [["x", "1"], ["y", "2"]]
    assert _digest("cli", a) == _digest("cli", a[::-1])
    assert _digest("small-batch", a) != _digest("small-batch", a[::-1])


def test_streamed_digest_hashes_the_whole_record_list():
    a = [["x", "1/2"], None, [3, [4]]]
    whole = hashlib.sha256(json.dumps(a, separators=(",", ":")).encode()).hexdigest()
    assert _digest("small-batch", a) == whole


@pytest.mark.parametrize("workload", ["small-batch", "large-surface", "greedy-search"])
def test_traced_pass_removes_its_wrappers_and_self_time_fits_in_wall(workload):
    zl = sys.modules["surfhom.zlattice"]
    original = zl.smith_normal_form
    out = tiny_pass(workload, traced=True)
    assert out["failed"] == 0, out["problems"]
    assert out["leftovers"] == [] and tracer.leftover_wrappers() == []
    assert zl.smith_normal_form is original
    assert sys.modules["surfhom.homology"].smith_normal_form is original
    spans = out["trace"]["spans"]
    assert spans, "tracing recorded nothing"
    assert sum(s[4] for s in spans) <= out["wall"]
    assert all(s[4] >= 0 or abs(s[4]) < 1e-6 for s in spans)


def test_rebinding_reaches_names_imported_by_other_modules():
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = sys.modules["surfhom.minima"].det_int
        assert wrapped is sys.modules["surfhom.zlattice"].det_int
        assert wrapped([[2, 1], [1, 1]]) == 1
    finally:
        tr.uninstall()
    assert tracer.leftover_wrappers() == []
    assert tr.stats[("zlattice.det_int", None)][0] == 1


def test_per_layer_names_match_benchmark_json():
    declared = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    dump = {"spans": [], "counters": dict.fromkeys(tracer.COUNTERS, 0)}
    emitted = list(tracer.per_layer(dump, W.size_tags())) + ["trace_overhead"]
    assert sorted(declared) == sorted(emitted)


def test_traced_counts_repeat_across_runs():
    first, second = (run.measure("greedy-search", 3, 1, 1, "tiny")[1] for _ in range(2))
    for name in ("ribbon.canonical_walk.calls", "zlattice.det_int.calls",
                 "zlattice.smith_normal_form.cells", "minima.search.subsets", "homology.builds"):
        assert first["metrics"][name] == second["metrics"][name]
    assert first["metrics"]["zlattice.det_int.calls"]["value"] > 0
    assert first["metrics"]["trace_overhead"]["value"] > 0


def test_result_follows_the_contract():
    details, result = run.measure("cli", 2, 1, 0, "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and details["error_rate"] == 0
    assert details["calibration_ms"] > 0 and set(details["raw"]) < set(result["metrics"])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_surfhom_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
