import pytest

from surfhom.ribbon import (
    RibbonGraph,
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
    validate_walk,
    walk_from_edge_set,
)

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
])
def test_walk_validation_messages(walk, message):
    with pytest.raises(ValidationError) as err:
        validate_walk(DIPOLE, walk)
    assert str(err.value) == message


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
