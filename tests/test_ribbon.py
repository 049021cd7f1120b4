import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfhom.homology import homology
from surfhom.minima import WeightedGraph, enumerate_cycles, is_straight_cycle
from surfhom.ribbon import (
    RibbonGraph,
    _trace_faces_raw,
    ValidationError,
    add_loop,
    canonical_walk,
    capped,
    complement_components,
    edge_label,
    edges,
    parse_gluing_word,
    ribbon_from_dict,
    ribbon_to_dict,
    schema_to_ribbon,
    subdivide_edge,
    surface_invariants,
    trace_faces,
    validate_gluing_word,
    validate_ribbon,
    validate_walk,
    walk_from_edge_set,
)

from . import reference_ribbon as ref
from .util import random_ribbon_graph, tiny_weighted_graphs

# the 20-gon side word whose quotient is the genus-3 catalog surface
WORD20 = "1 2 1' 3 4 5 2' 5' 6 3' 7 8 7' 9 6' 10 8' 10' 4' 9'"


def torus():
    return schema_to_ribbon("a b a' b'")


def test_torus_schema():
    R = torus()
    inv = surface_invariants(R)
    assert (inv.vertices, inv.edges, inv.faces) == (1, 2, 1)
    assert inv.genus == 1 and inv.euler_char == 0
    faces = trace_faces(R)
    assert len(faces) == 1 and len(faces[0]) == 4


def test_sphere_schema():
    R = schema_to_ribbon("a a'")
    inv = surface_invariants(R)
    assert inv.genus == 0 and inv.euler_char == 2


def test_word_validation():
    validate_gluing_word(parse_gluing_word("a b a' b'"))
    with pytest.raises(ValidationError):
        validate_gluing_word(parse_gluing_word("a b a'"))
    with pytest.raises(ValidationError):
        validate_gluing_word(parse_gluing_word("a a b b'"))  # non-orientable
    with pytest.raises(ValidationError):
        validate_gluing_word(parse_gluing_word("a a' a b'"))
    with pytest.raises(ValidationError):
        validate_gluing_word(())


def test_genus3_word():
    R = schema_to_ribbon(WORD20)
    inv = surface_invariants(R)
    assert inv.vertices == 5
    assert inv.edges == 10
    assert inv.faces == 1
    assert inv.genus == 3
    assert len(trace_faces(R)[0]) == 20


def test_face_tracing_partitions_darts():
    for R in (torus(), schema_to_ribbon(WORD20)):
        darts = sorted(d for f in trace_faces(R) for d in f)
        assert darts == list(range(R.n_darts))
        assert R.n_darts == 2 * R.n_edges


def test_invalid_ribbon():
    with pytest.raises(ValidationError):
        RibbonGraph(((0, 1),), (0, 1))  # twin has fixed points
    with pytest.raises(ValidationError):
        RibbonGraph(((0,), (1,), (2, 3)), (1, 0, 3, 2))  # disconnected
    # False and True equal the darts 0 and 1 but are not ints
    with pytest.raises(ValidationError, match="darts must be integers"):
        RibbonGraph(((False, True),), (True, False))
    data = {"half_edges": [{"id": 0, "twin": True}, {"id": 1, "twin": 0}], "rotation": [[0, 1]]}
    with pytest.raises(ValidationError, match="darts must be integers"):
        ribbon_from_dict(data)
    # "id": true would stand for half-edge 1
    data = {"half_edges": [{"id": 0, "twin": 1}, {"id": True, "twin": 0}], "rotation": [[0, 1]]}
    with pytest.raises(ValidationError, match="half-edge id True is not an int"):
        ribbon_from_dict(data)
    data["half_edges"][1]["id"] = 1
    assert ribbon_from_dict(data).twin == (1, 0)


@pytest.mark.parametrize("mark", [True, False, 0.0, 1.0, Fraction(1)])
def test_boundary_faces_must_be_ints(mark):
    # a loop on the sphere has two faces, with smallest darts 0 and 1;
    # each mark equals one of them but is not an int
    loop = RibbonGraph(((0, 1),), (1, 0))
    assert {f[0] for f in trace_faces(loop)} == {0, 1}
    with pytest.raises(ValidationError, match="boundary faces must be integers"):
        RibbonGraph(loop.rotation, loop.twin, {mark})
    data = ribbon_to_dict(loop)
    data["boundary_faces"] = [mark]
    with pytest.raises(ValidationError, match="boundary faces must be integers"):
        ribbon_from_dict(data)
    data["boundary_faces"] = [int(mark)]
    assert ribbon_to_dict(ribbon_from_dict(data))["boundary_faces"] == [int(mark)]


@pytest.mark.parametrize("build", [
    lambda R: RibbonGraph(R.rotation, R.twin, [[0]]),
    lambda R: RibbonGraph(R.rotation, R.twin, 0),
    lambda R: RibbonGraph(5, R.twin),
    lambda R: RibbonGraph(R.rotation, 7),
    lambda R: RibbonGraph([1, 2], R.twin),
    lambda R: RibbonGraph(R.rotation, R.twin, frozenset(), 3),
    lambda R: WeightedGraph(R, 5),
], ids=["boundary-of-lists", "boundary-int", "rotation-int", "twin-int", "cycles-int",
        "labels-int", "lengths-int"])
def test_constructor_arguments_that_are_not_containers_are_refused(build):
    with pytest.raises(ValidationError, match="malformed"):
        build(torus())


def test_walks_on_genus3_word():
    R = schema_to_ribbon(WORD20)
    by_label = {edge_label(R, d): d for d in edges(R)}
    # each named curve is a closed cycle through its sides
    for labels in [("2",), ("8",), ("4", "6"), ("3", "9"), ("1", "5", "7", "10")]:
        w = walk_from_edge_set(R, [by_label[l] for l in labels])
        assert len(w) == len(labels)
        validate_walk(R, w)
    with pytest.raises(ValidationError):
        # edges 1 and 3 do not form a closed cycle on their own
        walk_from_edge_set(R, [by_label["1"], by_label["3"]])


def test_complement_components_basic():
    R = schema_to_ribbon(WORD20)
    by_label = {edge_label(R, d): d for d in edges(R)}
    curves = [
        walk_from_edge_set(R, [by_label[l] for l in labels])
        for labels in [("2",), ("8",), ("4", "6"), ("3", "9"), ("1", "5", "7", "10")]
    ]
    # empty system on a connected surface
    assert complement_components(R, []) == 1
    # the five curves use every edge; the complement is the single face
    assert complement_components(R, curves) == 1


def test_walk_validation_errors():
    R = torus()
    validate_walk(R, (0, 1))  # a then b is a fine composite loop
    with pytest.raises(ValidationError):
        validate_walk(R, (0, 2))  # dart followed by its twin
    with pytest.raises(ValidationError):
        validate_walk(R, ())


# a dipole: darts 0, 2, 4 at vertex 0 and their twins 1, 3, 5 at vertex 1
DIPOLE = RibbonGraph(((0, 2, 4), (1, 3, 5)), (1, 0, 3, 2, 5, 4))


@pytest.mark.parametrize("walk, message", [
    ((), "empty walk"),
    ((7, 0), "dart 7 not in graph"),
    ((-1,), "dart -1 not in graph"),
    ((0, 2), "consecutive darts are not incident head-to-tail"),
    ((0, 1), "immediate reversal in walk"),
    ((0, 3, 0, 3), "walk repeats an undirected edge"),
    # two faults: the first failing dart decides the message
    ((0, 1, 0, 2), "immediate reversal in walk"),
    ((0, 2, 0), "consecutive darts are not incident head-to-tail"),
    ((0, 3, 0, 3, 0, 1), "walk repeats an undirected edge"),
    ((0, 3, 0, 3, 9), "walk repeats an undirected edge"),
    # a bad successor is caught before its vertex is read, and a
    # negative one does not wrap around to another dart
    ((0, 99), "dart 99 not in graph"),
    ((0, -1), "dart -1 not in graph"),
    # a dart that is not an int is not in the graph either
    ((0.5,), "dart 0.5 not in graph"),
    (("0",), "dart '0' not in graph"),
    ((None,), "dart None not in graph"),
    ((0, 3.0), "dart 3.0 not in graph"),
])
def test_walk_validation_messages(walk, message):
    with pytest.raises(ValidationError) as err:
        validate_walk(DIPOLE, walk)
    assert str(err.value) == message


@pytest.mark.parametrize("dart", [0.5, "0", None, 1.0, True, False])
def test_walks_of_non_integer_darts_are_refused_everywhere(dart):
    message = f"dart {dart!r} not in graph"
    refusals = [
        lambda: homology(DIPOLE).class_of_walk((dart,)),
        lambda: is_straight_cycle(WeightedGraph(DIPOLE, (1, 1, 1)), (dart,)),
        lambda: complement_components(DIPOLE, [(dart,)]),
    ]
    for refuse in refusals:
        with pytest.raises(ValidationError) as err:
            refuse()
        assert str(err.value) == message


def test_class_of_walk_rejects_a_bad_successor():
    with pytest.raises(ValidationError, match="dart 99 not in graph"):
        homology(DIPOLE).class_of_walk((0, 99))


def test_subdivide_and_loop():
    R = schema_to_ribbon(WORD20)
    inv0 = surface_invariants(R)
    d = edges(R)[1]
    R2, first, second = subdivide_edge(R, d)
    inv = surface_invariants(R2)
    assert inv.vertices == inv0.vertices + 1
    assert inv.edges == inv0.edges + 1
    assert inv.genus == inv0.genus
    # the two halves concatenate where the old edge was
    assert R2.twin[first] != second
    w = validate_walk(R2, (first, second))
    assert len(w) == 2


@pytest.mark.parametrize("dart", [99, 4, -1, True, False, 1.0, 0.5, "0", None], ids=repr)
@pytest.mark.parametrize("surgery", [
    lambda R, d: subdivide_edge(R, d),
    lambda R, d: add_loop(R, 2, d),
    lambda R, d: add_loop(R, d, 2),
], ids=["subdivide_edge", "add_loop_second", "add_loop_first"])
def test_surgery_refuses_a_dart_that_is_not_an_int_in_range(surgery, dart):
    # the torus has darts 0..3: 99 and 4 are past its end, -1 would index
    # from the end, and True and 1.0 equal the dart 1 but are not ints
    with pytest.raises(ValidationError) as err:
        surgery(torus(), dart)
    assert str(err.value) == f"dart {dart!r} not in graph"


def test_canonical_walk_rotation_reflection():
    R = torus()
    # any rotation or reversal of a walk canonicalizes identically
    f = trace_faces(R)[0]
    twin = R.twin
    c = canonical_walk(f, twin)
    assert canonical_walk(f[1:] + f[:1], twin) == c
    rev = tuple(twin[d] for d in reversed(f))
    assert canonical_walk(rev, twin) == c


def test_json_round_trip():
    R = schema_to_ribbon(WORD20)
    data = ribbon_to_dict(R)
    R2 = ribbon_from_dict(data)
    assert R2 == R


def test_empty_rotation_cycle_is_rejected():
    R = schema_to_ribbon("a b a' b' c d c' d'")
    assert surface_invariants(R).genus == 2
    with pytest.raises(ValidationError):
        RibbonGraph(R.rotation + ((), ()), R.twin)


def _set(path, value):
    def corrupt(data):
        *keys, last = path
        for k in keys:
            data = data[k]
        data[last] = value
    return corrupt


def _drop(key):
    return lambda data: data.pop(key)


@pytest.mark.parametrize("corrupt", [
    _set(("half_edges", 0, "id"), 4),  # out of range
    _set(("half_edges", 0, "id"), -1),  # would index from the end
    _set(("half_edges", 0, "id"), "0"),
    _set(("half_edges", 1, "twin"), 0.0),
    _set(("rotation", 0, 0), "0"),
    _set(("rotation", 0), 7),
    _set(("half_edges", 0), None),
    _set(("rotation",), [[0, 1, 2, 3], []]),  # empty vertex
    _drop("half_edges"),
    _drop("rotation"),
], ids=["id-range", "id-negative", "id-str", "twin-float", "dart-str", "cycle-int",
        "half-edge-none", "empty-vertex", "no-half-edges", "no-rotation"])
def test_malformed_dict_raises_validation_error(corrupt):
    data = ribbon_to_dict(torus())
    corrupt(data)
    with pytest.raises(ValidationError):
        ribbon_from_dict(data)


def test_malformed_dict_top_level():
    for data in ([], None, {"half_edges": 3, "rotation": []}):
        with pytest.raises(ValidationError):
            ribbon_from_dict(data)


def test_capped_strips_marks():
    R = torus()
    marked = RibbonGraph(R.rotation, R.twin, {0}, R.edge_labels)
    inv = surface_invariants(marked)
    assert inv.boundary_count == 1 and inv.faces == 0
    assert capped(marked).boundary_faces == frozenset()


# ---------------------------------------------------------------------------
# linear-time validation against the old quadratic one

def outcome(validate, rotation, twin, boundary_faces=frozenset(), edge_labels=None):
    """("ok", vertex_of) or the message of the ValidationError that
    validate raised, on an unvalidated record with the fields of a
    RibbonGraph."""
    R = SimpleNamespace(rotation=rotation, twin=twin, boundary_faces=frozenset(boundary_faces),
                        edge_labels=edge_labels)
    try:
        validate(R)
    except ValidationError as exc:
        return "refused", str(exc)
    return "ok", R.vertex_of


@st.composite
def rotation_systems(draw):
    """A rotation system, valid or not: one to three connected pieces of
    random edges, then at most one corruption of its darts, twins,
    rotation, labels or boundary marks."""
    rotation, twin = [], []
    for _ in range(draw(st.sampled_from((1, 1, 1, 2, 3)))):
        V = draw(st.integers(1, 3))
        E = draw(st.integers(max(1, V - 1), 4))
        ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, V)]
        ends += [(draw(st.integers(0, V - 1)), draw(st.integers(0, V - 1))) for _ in range(E - V + 1)]
        at = [[] for _ in range(V)]
        for u, v in ends:
            d = len(twin)
            twin += [d + 1, d]
            at[u].append(d)
            at[v].append(d + 1)
        rotation += [list(draw(st.permutations(darts))) for darts in at]
    n = len(twin)
    faces = sorted(min(f) for f in _trace_faces_raw(rotation, twin))
    marked = draw(st.lists(st.sampled_from(faces), max_size=3))
    labels = None
    edit = draw(st.sampled_from(["none", "twin", "fixed", "drop", "dup", "range", "empty",
                                 "float", "odd", "labels", "boundary", "nothing"]))
    v = draw(st.integers(0, len(rotation) - 1))
    if edit == "twin":
        twin[draw(st.integers(0, n - 1))] = draw(st.integers(-1, n))
    elif edit == "fixed":
        d = draw(st.integers(0, n - 1))
        twin[d] = d
    elif edit == "drop":
        rotation[v].pop()
    elif edit == "dup":
        rotation[v].append(draw(st.integers(0, n - 1)))
    elif edit == "range":
        rotation[v][0] = draw(st.sampled_from([-1, n, n + 5]))
    elif edit == "empty":
        rotation.insert(v, [])
    elif edit == "float":
        rotation[v][0] = float(rotation[v][0])
    elif edit == "odd":
        twin.append(n)
        rotation[v].append(n)
    elif edit == "labels":
        labels = tuple(f"e{i}" for i in range(n // 2 + draw(st.sampled_from([-1, 0, 1]))))
    elif edit == "boundary":
        marked.append(draw(st.integers(-1, n + 1)))
    elif edit == "nothing":
        rotation, twin = [], []
    return tuple(map(tuple, rotation)), tuple(twin), marked, labels


@settings(max_examples=400, deadline=None)
@given(rotation_systems())
def test_validation_matches_the_quadratic_one(case):
    assert outcome(validate_ribbon, *case) == outcome(ref.validate_ribbon, *case)


@settings(max_examples=200, deadline=None)
@given(tiny_weighted_graphs(), st.data())
def test_validation_of_tiny_graphs_matches_the_quadratic_one(case, data):
    R = case[0].ribbon
    faces = [f[0] for f in trace_faces(R)]
    marked = data.draw(st.lists(st.sampled_from(faces + [R.n_darts]), max_size=3))
    args = (R.rotation, R.twin, marked, R.edge_labels)
    assert outcome(validate_ribbon, *args) == outcome(ref.validate_ribbon, *args)
    if R.n_darts not in marked:
        assert outcome(validate_ribbon, *args) == ("ok", R.vertex_of)


# ---------------------------------------------------------------------------
# complement components against the union-find they replaced

def walk_systems(rng):
    """Random surfaces, closed or with marked boundary faces, each with a
    random system of its enumerated cycles: edge-disjoint, or, about one
    time in five, two cycles drawn without that care."""
    R = random_ribbon_graph(rng, max_edges=7)
    if rng.random() < 0.25:
        faces = [f[0] for f in trace_faces(R)]
        R = RibbonGraph(R.rotation, R.twin, rng.sample(faces, rng.randrange(1, len(faces) + 1)))
    cycles = [c.darts for c in enumerate_cycles(WeightedGraph(R, [1] * R.n_edges), 4)]
    if rng.random() < 0.2:
        return R, rng.sample(cycles, min(2, len(cycles)))
    rng.shuffle(cycles)
    system, used = [], set()
    for walk in cycles[:rng.randrange(len(cycles) + 1)]:
        edge_set = {min(d, R.twin[d]) for d in walk}
        if not edge_set & used:
            system.append(walk)
            used |= edge_set
    return R, system


def component_count(count, R, system):
    try:
        return count(R, system)
    except ValidationError as exc:
        return str(exc)


def test_complement_components_match_the_union_find():
    rng = random.Random("complement")
    seen = set()
    for _ in range(400):
        R, system = walk_systems(rng)
        got = component_count(complement_components, R, system)
        assert got == component_count(ref.complement_components, R, system), (R, system)
        seen.add(got)
    # connected and split complements, and refused overlapping systems
    assert {1, 2, 3, "system walks are not pairwise edge-disjoint"} <= seen
