import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

import surfhom
from surfhom import catalog, cli
from surfhom.catalog import build_curve_graph, candidate_pool, load_example
from surfhom.cli import (
    bundle_to_dict,
    bundle_to_dot,
    main,
    run_checks,
)
from surfhom.homology import algebraic_intersection
from surfhom.ribbon import ribbon_from_dict


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_with_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_verify_single_pass():
    code, out = run(["verify", "example1"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_all_pass():
    code, out = run(["verify", "all"])
    assert code == 0
    assert out.count("== ") == 7


def test_verify_all_enumerates_once_per_check_suite(monkeypatch):
    # each check suite enumerates its cycles once, at its widest bound,
    # and reads the narrower pools off that one; each soul's curve graph
    # is built once per bundle (example3 reuses the example2G soul)
    pools, graphs = [], []

    def counted_pool(bundle, bound):
        pools.append((bundle.name, bound))
        return candidate_pool(bundle, bound)

    def counted_graph(itineraries, rotations):
        graphs.append(sorted(itineraries))
        return build_curve_graph(itineraries, rotations)

    monkeypatch.setattr(cli, "candidate_pool", counted_pool)
    monkeypatch.setattr(catalog, "build_curve_graph", counted_graph)
    code, _ = run(["verify", "all"])
    assert code == 0
    assert sorted(name for name, _ in pools) == [
        "example2G", "example2H", "example4", "remark45G", "remark45H"]
    assert len(graphs) == 6  # five soul bundles and example4


@pytest.mark.parametrize("name", ["example2G", "example2H"])
def test_soul_checks_compute_each_pairwise_intersection_once(monkeypatch, name):
    # the four soul curves have six pairs; the four triples read them
    pairs = []

    def counted(R, w1, w2):
        pairs.append((w1, w2))
        return algebraic_intersection(R, w1, w2)

    bundle = load_example(name)
    monkeypatch.setattr(cli, "algebraic_intersection", counted)
    checks = cli._soul_checks(bundle)
    assert len(pairs) == len(set(pairs)) == 6
    triple = next(c for c in checks if c.label.startswith("a triple of curves"))
    assert triple.passed


def test_verify_unknown_exits_2():
    code, _ = run(["verify", "nonsense"])
    assert code == 2
    code, _ = run(["export", "nonsense"])
    assert code == 2


def test_verify_json_deterministic():
    code1, out1 = run(["verify", "example4", "--json"])
    code2, out2 = run(["verify", "example4", "--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["status"] == "pass"
    assert all(c["status"] == "pass" for c in data["checks"])


def test_verify_modulus_filter():
    rep_all = run_checks("example2G")
    rep_z = run_checks("example2G", 0)
    rep_2 = run_checks("example2G", 2)
    assert len(rep_z.checks) < len(rep_all.checks)
    assert len(rep_2.checks) < len(rep_all.checks)
    labels_2 = [c.label for c in rep_2.checks]
    assert any("mod-2" in l for l in labels_2)
    assert not any("index-2 subgroup" in l for l in labels_2)


def test_export_json_round_trip():
    code, out = run(["export", "example1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    R = ribbon_from_dict(data["surface"])
    assert R == load_example("example1").ribbon
    assert set(data["curves"]) == set(load_example("example1").curves)


def test_export_weighted_bundle_lengths_are_rationals():
    code, out = run(["export", "example4", "--format", "json"])
    data = json.loads(out)
    assert all("/" in v or v.isdigit() for v in data["edge_lengths"].values())


def test_export_example3_report():
    code, out = run(["export", "example3", "--format", "json"])
    data = json.loads(out)
    rows = data["hyperbolic"]["identities"]
    assert all(float(r["residual"]) <= 1e-9 for r in rows)
    assert data["hyperbolic"]["closed_genus"] == 12


def test_export_dot():
    code, out = run(["export", "example2G", "--format", "dot"])
    assert code == 0
    assert out.startswith("graph example2G {")
    for name in ("alpha", "beta", "gamma", "delta", "eta"):
        assert f'curve="{name}"' in out


def test_minima_command():
    code, out = run(["minima", "example4", "--procedure", "II", "--bound", "13/12"])
    assert code == 0
    data = json.loads(out)
    assert data["selected"] == [
        "u01", "u02", "u03", "u04", "u05", "u06", "u07", "u10"
    ]
    rejects = [e for e in data["events"] if e["decision"] == "rejected"]
    assert [e["cycle"] for e in rejects] == ["u08", "u09"]
    assert all("/" in e["length"] for e in data["events"])


def test_minima_bad_bound():
    code, _ = run(["minima", "example4", "--bound", "zebra"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["minima", "example4", "--modulus", "4"],
    ["minima", "example4", "--modulus", "4", "--bound", "1/100"],
    ["minima", "example4", "--modulus", "-3", "--bound", "1/100"],
    ["minima", "example1"],
    ["minima", "example4", "--bound", "0"],
    ["minima", "example4", "--bound", "-1"],
    ["verify", "example4", "--modulus", "4"],
    ["verify", "example4", "--modulus", "5"],
    ["verify", "all", "--modulus", "5"],
    ["verify", "example1", "--modulus", "0"],
])
def test_usage_errors_exit_2_with_one_line(argv):
    code, out, err = run_with_stderr(argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_modulus_runs_ring_claims():
    code, out, err = run_with_stderr(["verify", "all", "--modulus", "2"])
    assert code == 0 and err == ""
    assert "mod-2 selection completes to a basis" in out
    assert "index-2 subgroup" not in out


def test_large_prime_modulus_is_checked_promptly():
    # 2^61 - 1 is prime but has no claim in example4; 2^82 is past the
    # range where the primality test is exact
    for argv in (["verify", "example4", "--modulus", str(2 ** 61 - 1)],
                 ["minima", "example4", "--modulus", str(2 ** 82)]):
        start = time.perf_counter()
        code, out, err = run_with_stderr(argv)
        assert time.perf_counter() - start < 10
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err


def test_minima_empty_pool_is_exhausted():
    for procedure in ("I", "II"):
        code, out = run(["minima", "example4", "--procedure", procedure, "--bound", "1/100"])
        assert code == 0
        data = json.loads(out)
        assert (data["events"], data["selected"], data["halting"]) == ([], [], "exhausted")


# sha256 of stdout for the commands the benchmark's cli workload runs,
# and for verify's F_p claims
PINNED_STDOUT = {
    "verify all --json":
        "0b30eb92f3181eb42081e3e0ea1d0e273d772e78c831c77ed072987a3893ab4a",
    "minima example4 --procedure II --bound 13/12":
        "f2677e7def6c206de30a1270b20194c9930162284fbb7df18c69409233dbe4ea",
    "minima example4 --procedure I --modulus 2 --bound 2":
        "51619140e8b6df6e7ba4799f24f8f3882af62676f4b754f6efef40407b46aedb",
    # a bound below twice example 4's total length, so the enumeration
    # cuts walks by their distance back to their start; the same output
    # as at bound 2
    "minima example4 --procedure I --modulus 2 --bound 3":
        "51619140e8b6df6e7ba4799f24f8f3882af62676f4b754f6efef40407b46aedb",
    # the CLI's only odd-prime path, through zlattice._EchelonModP
    "minima example2G --procedure II --modulus 3 --bound 4":
        "48e651ebc3114c1841c15044200becf028dcbf62f28e22439bcf3898803a6a7c",
    "minima remark45G --procedure I --bound 4":
        "f3eb13cd0c4753f84692ac29cdec8c1eb7aea6f1aba51c3a4c4a8570ab12b25b",
    # exactly twice example 2H's total length, and far past remark
    # 4.5 G's: the search that lists every cycle
    "minima example2H --procedure II --bound 16":
        "c02246381c082f88d83f0a8b9b1c883dcabab98a51064da4497f6aa014c17b78",
    "minima remark45G --procedure I --bound 100":
        "f3eb13cd0c4753f84692ac29cdec8c1eb7aea6f1aba51c3a4c4a8570ab12b25b",
    "export example3 --format json":
        "fc34ea1d53dc1fa037c938c83a7f25283112cecc4546517bb369dbe878fae0c5",
    "verify all --modulus 2 --json":
        "a4257993d8ee46a8ce655320322731d404349750232c28e0fb889061db8d250b",
    "export example1":
        "fea57f55d9dfcd25c2a31347a732719185ae9e0435d14db4b19e5ffc9399cede",
    "export example1 --format dot":
        "a44c8c33e06db4c8b5fe287859b4f3a637b464bff8c7b21dc0a5a4ce4b2d74e4",
    "export example2G":
        "269ca71424576b2ac9cda631ac5f1926aa4281e3b204684010db974ce60c266d",
    "export example2G --format dot":
        "ff593c881ec5d9c4c9d8f2320e5fdfb269b30af80acb6979f044acd3970917fb",
    "export example2H":
        "9405dc5ac2211573dd02a03403c31705d9c9127f1f3fd4c070271685cdc64b57",
    "export example2H --format dot":
        "e73bdfe74687f3d15ce00ab2ff60133adc59c0aa36e5e9621ae0c6a5eaa8e0c3",
    "export example3 --format dot":
        "6cebd3f2b0a25b9e096f64a4063f1e9e8afefe91b15f640947527fc6f7132fff",
    "export example4":
        "1277ed57a5fa8670bd562420cebf3cf8137b7c981ff3868ae206ddf53419a8c8",
    "export example4 --format dot":
        "2baf3c4a051d6d130bf12b0ebdd6620519a7871ffef7e58c1f4c71b7d0f0e83d",
    "export remark45G":
        "fafd20c9c18b156a49d960dc01bdd54f6501d7b655464412ee3e28bae239a108",
    "export remark45G --format dot":
        "78a0f417d3467ce7dd1b957418a1419b84abfedda0bb08f76cdacccfafa8715b",
    "export remark45H":
        "8204644dbf7fc859decfe3375c0ff48aa20e1f0bc0d9488963bfe8c69244221d",
    "export remark45H --format dot":
        "9be7513c201ab43eec865ad3e637172fff61a471738177393efd6e41e0a44237",
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_stdout_is_pinned(command):
    code, out = run(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


def test_bundle_to_dict_and_dot_are_pure():
    b = load_example("example2H")
    assert bundle_to_dict(b) == bundle_to_dict(b)
    assert bundle_to_dot(b) == bundle_to_dot(b)


@pytest.mark.parametrize("command", [
    "verify all --json",
    "export example3 --format json",
    "minima remark45G --procedure I --bound 4",
])
def test_a_reader_that_closes_stdout_early_gets_no_traceback(command):
    # the read end of the pipe is closed before the command writes: the
    # command ends with exit 1 and writes nothing to stderr
    src = os.path.dirname(os.path.dirname(surfhom.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "surfhom.cli", *command.split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
    finally:
        proc.stderr.close()
        code = proc.wait(timeout=120)
    assert err == b""
    assert code == 1
