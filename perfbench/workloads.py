"""Seeded inputs, per-item drivers and output checks for the four workloads.

A generator turns a seed into plain data only: rotation lists, twin
lists, gluing words, integer weight numerators and argv lists.  A
driver (``run_*``) hands that data to surfhom and is the only code
inside an item's timed region.  A checker (``check_*``) then tests the
driver's result against invariants the benchmark computes on its own
and returns the item's digest record, which holds only results that do
not depend on surfhom's internal homology coordinates.
"""

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("small-batch", "large-surface", "greedy-search", "cli")
DEFAULT_SEED = 1

# Input-set sizes.  "full" is what the benchmark measures; "tiny" keeps
# the benchmark's own tests fast.
SIZES = {
    "full": {
        # (V, E) -> items of that shape; every third item of a shape
        # repeats the previous graph with new weights.  The counts put
        # the median item inside the (1, 3) block and the tail item among
        # the (1, 6) bouquets: one-vertex shapes have a cycle count that
        # no seed changes, so those two metrics do not hinge on a seed.
        "small-batch": {(1, 2): 30, (2, 3): 30, (3, 4): 30, (4, 5): 30, (1, 3): 60,
                        (2, 4): 15, (2, 5): 15, (3, 5): 15, (3, 6): 15, (4, 6): 15,
                        (1, 4): 15, (2, 6): 12, (1, 5): 12, (1, 6): 12},
        # size class -> copies; five g30 words hold the median and tail items
        "large-surface": {"g10": 3, "E60": 2, "g20": 3, "E100": 2, "g30": 5, "g40": 3,
                          "E150": 3, "E200": 3},
        # ten genus-4 items of (a) hold the median and tail items
        "greedy-search": {"small": [(2, 5), (3, 3), (4, 10)], "pool": 12,
                          "big": [(10, 2), (12, 2), (14, 2), (16, 2)]},
        "cli": {"rounds": 6},
    },
    "tiny": {
        "small-batch": {(1, 3): 3, (2, 4): 3, (3, 5): 3},
        "large-surface": {"g3": 1, "E12": 1},
        "greedy-search": {"small": [(2, 1)], "pool": 6, "big": [(4, 1)]},
        "cli": {"rounds": 1},
    },
}

CLI_COMMANDS = (
    ("verify", "all", "--json"),
    ("minima", "example4", "--procedure", "II", "--bound", "13/12"),
    ("minima", "example4", "--procedure", "I", "--modulus", "2", "--bound", "2"),
    ("minima", "remark45G", "--procedure", "I", "--bound", "4"),
    ("export", "example3", "--format", "json"),
)


def run_seconds():
    """How long one run measures, as ``BENCHMARK.json`` fixes it."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def size_tags(size="full"):
    """The large-surface size classes, which split some per-layer metrics."""
    return tuple(SIZES[size]["large-surface"])


def modules():
    """surfhom's layer modules, looked up at call time so tracing wrappers apply."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("ribbon", "zlattice", "homology", "minima")
    return {n: importlib.import_module(f"surfhom.{n}") for n in names}


# ---------------------------------------------------------------------------
# plain-data generators and independent invariants

def random_rotation(rng, V, E):
    """A connected graph (random spanning tree plus random extra edges)
    with a shuffled rotation at every vertex; needs E >= V - 1."""
    order = list(range(1, V))
    rng.shuffle(order)
    ends = [(rng.choice([0] + order[:i]), v) for i, v in enumerate(order)]
    ends += [(rng.randrange(V), rng.randrange(V)) for _ in range(E - V + 1)]
    rotation = [[] for _ in range(V)]
    twin = [0] * (2 * E)
    for k, (u, v) in enumerate(ends):
        twin[2 * k], twin[2 * k + 1] = 2 * k + 1, 2 * k
        rotation[u].append(2 * k)
        rotation[v].append(2 * k + 1)
    for darts in rotation:
        rng.shuffle(darts)
    return rotation, twin


def count_faces(rotation, twin):
    """Faces of a rotation system: the face left of dart d continues at
    the rotation predecessor of twin[d]."""
    prev = [0] * len(twin)
    for darts in rotation:
        for i, d in enumerate(darts):
            prev[d] = darts[i - 1]
    seen = [False] * len(twin)
    faces = 0
    for d0 in range(len(twin)):
        if not seen[d0]:
            faces += 1
            d = d0
            while not seen[d]:
                seen[d] = True
                d = prev[twin[d]]
    return faces


def euler_data(rotation, twin):
    """(V, E, F, genus) of a closed rotation system."""
    V, E, F = len(rotation), len(twin) // 2, count_faces(rotation, twin)
    return V, E, F, (2 - V + E - F) // 2


def graph_of_genus(rng, V, E, genus):
    while True:
        rotation, twin = random_rotation(rng, V, E)
        if euler_data(rotation, twin)[3] == genus:
            return rotation, twin


def canonical_word(rng, g):
    """The word a1 b1 a1' b1' ... a_g b_g a_g' b_g'.  The seed only
    renames the labels, so copies do not share surfhom's homology cache
    entry but cost the same."""
    tag = rng.randrange(10 ** 6)
    word = []
    for h in range(1, g + 1):
        a, b = f"a{h}.{tag}", f"b{h}.{tag}"
        word += [[a, False], [b, False], [a, True], [b, True]]
    return word


def gen_small_batch(rng, spec):
    items = []
    for (V, E), count in spec.items():
        for i in range(count):
            if i % 3 == 2:
                rotation, twin = items[-1]["rotation"], items[-1]["twin"]
            else:
                rotation, twin = random_rotation(rng, V, E)
                while euler_data(rotation, twin)[3] == 0:
                    rotation, twin = random_rotation(rng, V, E)
            items.append({"rotation": rotation, "twin": twin,
                          "weights": [rng.randrange(2, 25) for _ in range(E)]})
    rng.shuffle(items)
    return items


def gen_large_surface(rng, spec):
    """gN: the canonical word of genus N; EN: a random rotation system
    with N edges on N/2 vertices."""
    items = []
    for tag, copies in spec.items():
        n = int(tag[1:])
        for _ in range(copies):
            if tag[0] == "g":
                items.append({"tag": tag, "word": canonical_word(rng, n),
                              "euler": [1, 2 * n, 1, n]})
            else:
                rotation, twin = random_rotation(rng, n // 2, n)
                items.append({"tag": tag, "rotation": rotation, "twin": twin,
                              "euler": list(euler_data(rotation, twin))})
    rng.shuffle(items)
    return items


def spanning_tree_weights(rng, V, E):
    """Numerators that make the fundamental cycles of the generator's
    spanning tree (edges 0..V-2) the shortest cycles: tree edges weigh
    1-3 and the others L..L+X with X + 3(V-1) < L, so any cycle through
    two non-tree edges is longer than every fundamental cycle."""
    L, X = 6 * (V - 1) + 12, 3 * (V - 1) + 6
    return ([rng.randrange(1, 4) for _ in range(V - 1)]
            + [rng.randrange(L, L + X + 1) for _ in range(E - V + 1)])


def gen_greedy_search(rng, spec):
    """(a) one-face surfaces of genus 2-4 with E 9-12, whose fundamental
    cycles are their 2g shortest cycles, so the pool of the shortest
    ``pool`` cycles holds a basis and every minimality search runs;
    (b) genus 10-16 with V 8-10, uniform weights, and a pool of the
    shortest ``4g`` cycles for the procedures only."""
    items = []
    for genus, copies in spec["small"]:
        for _ in range(copies):
            E = rng.randrange(max(9, 2 * genus), 13)
            V = E - 2 * genus + 1
            rotation, twin = graph_of_genus(rng, V, E, genus)
            items.append({"kind": "a", "pool": spec["pool"], "rotation": rotation,
                          "twin": twin, "weights": spanning_tree_weights(rng, V, E)})
    for genus, copies in spec["big"]:
        for _ in range(copies):
            V = rng.randrange(8, 11)
            E = 2 * genus + V - 1 + rng.choice((0, 2))
            rotation, twin = graph_of_genus(rng, V, E, genus)
            items.append({"kind": "b", "pool": 4 * genus, "rotation": rotation,
                          "twin": twin, "weights": [rng.randrange(6, 31) for _ in range(E)]})
    rng.shuffle(items)
    return items


def gen_cli(rng, spec):
    items = []
    for _ in range(spec["rounds"]):
        cmds = list(CLI_COMMANDS)
        rng.shuffle(cmds)
        items += [{"argv": list(c)} for c in cmds]
    return items


GENERATORS = {
    "small-batch": gen_small_batch,
    "large-surface": gen_large_surface,
    "greedy-search": gen_greedy_search,
    "cli": gen_cli,
}


def generate(workload, seed, size="full"):
    """The workload's input set for a seed: a list of plain-data items."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"), SIZES[size][workload])


# ---------------------------------------------------------------------------
# drivers: the timed calls into surfhom

def _ribbon(M, item):
    if "word" in item:
        return M["ribbon"].schema_to_ribbon([tuple(t) for t in item["word"]])
    return M["ribbon"].RibbonGraph(item["rotation"], item["twin"])


def run_small_batch(M, item, ctx):
    minima = M["minima"]
    R = _ribbon(M, item)
    inv = M["ribbon"].surface_invariants(R)
    G = minima.WeightedGraph(R, [Fraction(k, 8) for k in item["weights"]])
    cycles = minima.enumerate_cycles(G, 2 * sum(G.edge_length))
    H = M["homology"].homology(R)
    pool = [c.with_class(H.class_of_walk(c.darts)) for c in cycles]
    trace = minima.successive_minima_I(pool, 0, 2 * inv.genus)
    lemma = minimal = None
    chosen = [c.cls for c in trace.selected]
    if (len(pool) <= 12 and len(chosen) == 2 * inv.genus
            and abs(M["zlattice"].det_int(chosen)) == 1):
        lemma = minima.verify_lemma_procI_minimal(trace, pool)
        minimal = minima.is_globally_minimal(trace.selected, pool)
    return {"inv": inv, "rank": H.rank, "cycles": cycles, "traces": [trace],
            "lemma": [lemma], "minimal": [minimal]}


def run_large_surface(M, item, ctx):
    homology = M["homology"]
    R = _ribbon(M, item)
    inv = M["ribbon"].surface_invariants(R)
    H = homology.homology(R)
    S = homology.symplectic_basis(R)
    classes = [H.class_of_walk(w) for w, _ in homology.cotree_basis(R)]
    return {"R": R, "inv": inv, "H": H, "S": S, "classes": classes}


def run_greedy_search(M, item, ctx):
    minima = M["minima"]
    R = _ribbon(M, item)
    inv = M["ribbon"].surface_invariants(R)
    G = minima.WeightedGraph(R, [Fraction(k, 12) for k in item["weights"]])
    n = 2 * inv.genus
    # grow the bound until the pool is full or every cycle is in it
    bound, total = max(G.edge_length), sum(G.edge_length)
    cycles = minima.enumerate_cycles(G, bound)
    while len(cycles) < item["pool"] and bound < total:
        bound = min(bound * 5 / 4, total)
        cycles = minima.enumerate_cycles(G, bound)
    cycles = cycles[: item["pool"]]
    H = M["homology"].homology(R)
    pool = [c.with_class(H.class_of_walk(c.darts)) for c in cycles]
    traces, lemma, minimal = [], [], []
    for modulus in (0, 2):
        t1 = minima.successive_minima_I(pool, modulus, n)
        t2 = minima.successive_minima_II(pool, modulus)
        traces += [t1, t2]
        if item["kind"] != "a":
            continue
        chosen = [c.cls for c in t1.selected]
        if len(chosen) == n and (modulus or abs(M["zlattice"].det_int(chosen)) == 1):
            lemma.append(minima.verify_lemma_procI_minimal(t1, pool, modulus))
        if len(t2.selected) == n:
            minimal.append(minima.is_globally_minimal(t2.selected, pool, modulus))
    return {"inv": inv, "rank": H.rank, "cycles": cycles, "traces": traces,
            "lemma": lemma, "minimal": minimal}


def run_cli(M, item, ctx):
    """One CLI command in a fresh interpreter.  A traced pass runs it
    through ``traced_cli.py``, which reports its spans on stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if ctx.get("tracer") is None:
        argv = [sys.executable, "-m", "surfhom.cli", *item["argv"]]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), *item["argv"]]
    proc = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT, timeout=120)
    stderr = proc.stderr
    if ctx.get("tracer") is not None:
        head, _, last = stderr.rstrip(b"\n").rpartition(b"\n")
        if not last.startswith(b"PERFBENCH_TRACE "):
            head, last = stderr, b""
        else:
            ctx["child_traces"].append(json.loads(last[len(b"PERFBENCH_TRACE "):]))
        stderr = head
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": stderr}


DRIVERS = {
    "small-batch": run_small_batch,
    "large-surface": run_large_surface,
    "greedy-search": run_greedy_search,
    "cli": run_cli,
}


# ---------------------------------------------------------------------------
# checkers: independent invariants, then the coordinate-free digest record

def _q(x):
    return f"{x.numerator}/{x.denominator}"


def trace_problems(trace):
    """A procedure trace must visit its candidates in length order and
    its selection must be exactly the events marked selected."""
    out = []
    lengths = [ev.cycle.length for ev in trace.events]
    if lengths != sorted(lengths):
        out.append("trace events are not length-sorted")
    picked = [ev.cycle for ev in trace.events if ev.decision == "selected"]
    if list(trace.selected) != picked:
        out.append("trace selection differs from its selected events")
    return out


def _trace_record(trace):
    return ["".join("s" if ev.decision == "selected" else "r" for ev in trace.events),
            trace.halting]


def _verdict_record(verdict):
    if verdict is None:
        return None
    if isinstance(verdict, bool):
        return verdict
    ok, witness = verdict
    return [ok, None if witness is None else sorted(list(c.key) for c in witness)]


def check_pool_item(item, res, require_minimal):
    V, E, F, genus = euler_data(item["rotation"], item["twin"])
    problems = []
    inv = res["inv"]
    if (inv.vertices, inv.edges, inv.faces, inv.genus) != (V, E, F, genus):
        problems.append("surface_invariants disagree with the Euler count")
    if res["rank"] != 2 * genus:
        problems.append("rank of H1 is not twice the Euler genus")
    for trace in res["traces"]:
        problems += trace_problems(trace)
    if any(v is False for v in res["lemma"]):
        problems.append("procedure-I basis fails the lemma inequality")
    if require_minimal and any(v is not None and not v[0] for v in res["minimal"]):
        problems.append("procedure-I basis is not globally minimal")
    record = [V, E, F, genus,
              [[list(c.key), _q(c.length)] for c in res["cycles"]],
              [_trace_record(t) for t in res["traces"]],
              [_verdict_record(v) for v in res["lemma"]],
              [_verdict_record(v) for v in res["minimal"]]]
    return problems, record


def check_small_batch(item, res):
    return check_pool_item(item, res, require_minimal=True)


def check_greedy_search(item, res):
    return check_pool_item(item, res, require_minimal=False)


def _standard_form(n):
    return tuple(tuple(1 if (i % 2 == 0 and j == i + 1) else -1 if (i % 2 and j == i - 1) else 0
                       for j in range(n)) for i in range(n))


def _gram(P, J):
    PJ = [[sum(a * b for a, b in zip(row, col)) for col in zip(*J)] for row in P]
    return tuple(tuple(sum(a * b for a, b in zip(row, prow)) for prow in P) for row in PJ)


def check_large_surface(item, res):
    V, E, F, genus = item["euler"]
    inv, H, S = res["inv"], res["H"], res["S"]
    problems = []
    if (inv.vertices, inv.edges, inv.faces, inv.genus) != (V, E, F, genus):
        problems.append("surface_invariants disagree with the Euler count")
    if H.rank != 2 * genus:
        problems.append("rank of H1 is not twice the Euler genus")
    gram_ok = _gram(S.matrix, H.pairing_matrix) == _standard_form(2 * genus)
    if not gram_ok:
        problems.append("symplectic basis does not pair as the standard form")
    if len(res["classes"]) != E - V + 1 or any(len(c) != H.rank for c in res["classes"]):
        problems.append("cotree classes have the wrong count or width")
    loops = []
    if V == 1:
        # every edge of a one-vertex surface is a loop; the intersection
        # numbers of consecutive loops do not depend on coordinates
        R = res["R"]
        cls = [H.class_of_walk((e,)) for e in range(len(R.twin)) if e < R.twin[e]]
        loops = [H.pair(a, b) for a, b in zip(cls, cls[1:] + cls[:1])]
    return problems, [V, E, F, genus, H.rank, gram_ok, loops]


def _json_docs(text):
    dec = json.JSONDecoder()
    docs, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        doc, i = dec.raw_decode(text, i)
        docs.append(doc)
    return docs


def check_cli(item, res):
    argv = item["argv"]
    problems = []
    if res["code"] != 0:
        problems.append(f"exit code {res['code']}")
    if res["stderr"].strip():
        problems.append("unexpected stderr: " + res["stderr"].decode(errors="replace")[-200:])
    try:
        docs = _json_docs(res["stdout"].decode())
    except ValueError as exc:
        docs = []
        problems.append(f"stdout is not JSON: {exc}")
    if argv[0] == "verify":
        if len(docs) != 7 or any(d.get("status") != "pass" for d in docs):
            problems.append("verify all did not pass every example")
    elif argv[0] == "minima":
        lengths = [Fraction(ev["length"]) for d in docs for ev in d["events"]]
        if len(docs) != 1 or lengths != sorted(lengths) or not docs[0]["selected"]:
            problems.append("minima trace is empty or not length-sorted")
    elif len(docs) != 1 or docs[0].get("name") != argv[1]:
        problems.append("export did not emit the example")
    return problems, [" ".join(argv), hashlib.sha256(res["stdout"]).hexdigest()]


CHECKERS = {
    "small-batch": check_small_batch,
    "large-surface": check_large_surface,
    "greedy-search": check_greedy_search,
    "cli": check_cli,
}


def _json(record):
    return json.dumps(record, separators=(",", ":")).encode()


class Digest:
    """sha256 of the JSON list of an input set's digest records, fed one
    record at a time so that no record outlives its item.  CLI records
    are held and sorted first, because the seed only shuffles the order
    of the same commands."""

    def __init__(self, workload):
        self.held = [] if workload == "cli" else None
        self.sha = hashlib.sha256(b"[")
        self.empty = True

    def add(self, record):
        if self.held is not None:
            self.held.append(record)
            return
        self.sha.update(_json(record) if self.empty else b"," + _json(record))
        self.empty = False

    def hexdigest(self):
        if self.held is not None:
            return hashlib.sha256(_json(sorted(self.held))).hexdigest()
        sha = self.sha.copy()
        sha.update(b"]")
        return sha.hexdigest()


# ---------------------------------------------------------------------------
# traffic shape

def _hist(values):
    out = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return dict(sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0])))


def _bucket(n):
    """Power-of-two bucket label: 0, 1, 2-3, 4-7, ..."""
    if n < 2:
        return str(n)
    lo = 1 << (n.bit_length() - 1)
    return f"{lo}-{2 * lo - 1}"


def shape_of(workload, record):
    """What ``traffic_shape`` keeps of an item's digest record:
    (E, genus, pool size), or None for a failed item or a CLI command."""
    if record is None or workload == "cli":
        return None
    return record[1], record[3], None if workload == "large-surface" else len(record[4])


def traffic_shape(workload, items, shapes):
    """Histograms of what a seed produced, for the results file; ``shapes``
    holds ``shape_of`` for each item."""
    shape = {"items": len(items)}
    if workload == "cli":
        shape["commands"] = _hist(" ".join(it["argv"]) for it in items)
        return shape
    shape["genus"] = _hist(s[1] if s else "error" for s in shapes)
    shape["E"] = _hist(s[0] if s else "error" for s in shapes)
    if workload == "large-surface":
        shape["size_class"] = _hist(it["tag"] for it in items)
    else:
        shape["pool"] = _hist(_bucket(s[2]) if s else "error" for s in shapes)
    if workload == "greedy-search":
        shape["kind"] = _hist(it["kind"] for it in items)
    return shape
