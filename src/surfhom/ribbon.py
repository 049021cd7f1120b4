"""Ribbon graphs: rotation systems, gluing words, faces, genus, cutting.

Conventions
-----------
Darts (directed half-edges) are integers ``0..n-1``.  ``twin`` is a
fixed-point-free involution exchanging the two darts of each edge; an
edge is named by the smaller of its two darts.  ``rotation`` lists, for
every vertex, the counterclockwise cyclic order of the darts leaving it.
The face lying to the left of a dart ``d`` continues at the rotation
predecessor of ``twin(d)``; with this rule every face is traversed
counterclockwise and face tracing partitions the darts.

A rotation system always describes an orientable surface.  Surfaces
with boundary are modelled by marking a subset of the faces as boundary
walks (``boundary_faces``, faces being identified by their smallest
dart); the remaining faces are the 2-cells.

One loop traces the cycles of a permutation (``_orbits``): the faces,
the vertices of a glued polygon and, in ``surfhom.homology``, the walk
around a spanning tree.  One BFS (``_spanning_tree``) is every graph
search: the connectivity of the vertices, whose tree the surface keeps
as the spanning tree of its homology, the components of the faces
joined across the edges a curve system leaves uncut
(``complement_components``), and the cotree of ``surfhom.homology``.
Each surface runs the vertex BFS once, when it is validated.

Validation also numbers the edges, once per surface: ``edge_number[d]``
is the position of d's edge in ``edges(R)``, so the label of a dart's
edge, its length (``surfhom.minima``) and its row of the chain complex
(``surfhom.homology``) are each one lookup.
"""

from dataclasses import dataclass
from typing import NamedTuple


class ValidationError(ValueError):
    """Raised when a surface, word or walk violates its invariants."""


# ---------------------------------------------------------------------------
# gluing words

def parse_gluing_word(text):
    """Parse ``"1 2 1' 3 ..."`` into a tuple of (label, primed) tokens.
    Text that is not a str raises ValidationError."""
    if not isinstance(text, str):
        raise ValidationError(f"gluing word {text!r} is not a str")
    sides = []
    for tok in text.split():
        if tok.endswith("'"):
            sides.append((tok[:-1], True))
        else:
            sides.append((tok, False))
    return tuple(sides)


def format_gluing_word(word):
    return " ".join(lab + ("'" if primed else "") for lab, primed in word)


def validate_gluing_word(word):
    """Check the polygon schema invariants; reject non-orientable words.
    Each letter is a (label, primed) tuple: a hashable label and a bool
    flag, ``True`` for the primed side.  Returns the word as a tuple; a
    word that is not iterable raises ValidationError."""
    try:
        word = tuple(word)
    except TypeError:
        raise ValidationError(f"gluing word {word!r} is not a str or an iterable of letters") from None
    if not word:
        raise ValidationError("empty gluing word")
    if len(word) % 2:
        raise ValidationError("gluing word has odd length")
    seen = {}
    for letter in word:
        if not (type(letter) is tuple and len(letter) == 2 and type(letter[1]) is bool):
            raise ValidationError(f"letter {letter!r} is not a (label, bool) pair")
        try:
            seen.setdefault(letter[0], []).append(letter[1])
        except TypeError:
            raise ValidationError(f"label {letter[0]!r} is not hashable") from None
    for lab, occ in seen.items():
        if len(occ) != 2:
            raise ValidationError(f"label {lab!r} occurs {len(occ)} times, expected 2")
        if occ[0] == occ[1]:
            raise ValidationError(
                f"label {lab!r} occurs twice with the same sign; "
                "the glued surface would be non-orientable"
            )
    return word


# ---------------------------------------------------------------------------
# ribbon graphs

# a frozen dataclass, not a NamedTuple: __post_init__ normalises and
# validates the fields, and vertex_of, edge_number, the BFS tree of the
# vertices (``_tree_parent``), the traced faces (``trace_faces``) and
# the surface's homology are kept in its __dict__
@dataclass(frozen=True)
class RibbonGraph:
    """An oriented combinatorial surface given by a rotation system.

    rotation        per-vertex counterclockwise dart cycles
    twin            dart involution (twin[d] is the reversal of d)
    boundary_faces  faces (by smallest dart) marked as boundary walks
    edge_labels     optional name per edge, aligned with ``edges()``
    vertex_of       vertex_of[d] is the vertex dart d leaves (derived)
    edge_number     edge_number[d] is the position of d's edge in
                    ``edges()`` (derived)
    """

    rotation: tuple
    twin: tuple
    boundary_faces: frozenset = frozenset()
    edge_labels: tuple = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "rotation", tuple(tuple(c) for c in self.rotation))
            object.__setattr__(self, "twin", tuple(self.twin))
            object.__setattr__(self, "boundary_faces", frozenset(self.boundary_faces))
            if self.edge_labels is not None:
                object.__setattr__(self, "edge_labels", tuple(self.edge_labels))
        except TypeError as exc:
            raise ValidationError(f"malformed ribbon graph: {exc}") from None
        validate_ribbon(self)

    @property
    def n_darts(self):
        return len(self.twin)

    @property
    def n_edges(self):
        return len(self.twin) // 2


def validate_ribbon(R):
    """Check the rotation system's invariants and set R's ``vertex_of``
    and ``edge_number``.

    Connectivity is one BFS over the vertices from vertex 0
    (``_spanning_tree``); R keeps its tree as ``_tree_parent``, the
    spanning tree of R's homology.  Faces are traced only when there are
    boundary faces to look up among them; R keeps them (``trace_faces``)."""
    n = len(R.twin)
    if n == 0:
        raise ValidationError("ribbon graph has no darts")
    if n % 2:
        raise ValidationError("odd number of darts")
    if not all(type(d) is int for cyc in (R.twin, *R.rotation) for d in cyc):
        raise ValidationError("darts must be integers")
    number = [None] * n
    count = 0
    for d, t in enumerate(R.twin):
        if not 0 <= t < n or R.twin[t] != d or t == d:
            raise ValidationError("twin is not a fixed-point-free involution")
        if d < t:
            number[d] = number[t] = count
            count += 1
    if not all(R.rotation):
        raise ValidationError("vertex with an empty rotation cycle")
    seen = sorted(d for cyc in R.rotation for d in cyc)
    if seen != list(range(n)):
        raise ValidationError("rotation cycles do not partition the darts")
    if R.edge_labels is not None and len(R.edge_labels) != n // 2:
        raise ValidationError("edge_labels length != number of edges")
    vert = [None] * n
    for v, cyc in enumerate(R.rotation):
        for d in cyc:
            vert[d] = v
    vertex_darts = [[(d, vert[R.twin[d]]) for d in cyc] for cyc in R.rotation]
    reached, parent = _spanning_tree(vertex_darts, 0)
    if len(reached) != len(R.rotation):
        raise ValidationError("underlying graph is not connected")
    if R.boundary_faces:
        # True and 0.0 equal a face's smallest dart but are not ints
        if not all(type(f) is int for f in R.boundary_faces):
            raise ValidationError("boundary faces must be integers")
        if not R.boundary_faces <= {f[0] for f in trace_faces(R)}:
            raise ValidationError("boundary_faces refers to unknown faces")
    object.__setattr__(R, "vertex_of", tuple(vert))
    object.__setattr__(R, "edge_number", tuple(number))
    object.__setattr__(R, "_tree_parent", parent)


def edges(R):
    """Edges as their smaller darts, in increasing order."""
    return tuple(d for d in range(len(R.twin)) if d < R.twin[d])


def edge_of_dart(R, d):
    return min(d, R.twin[d])


def _check_dart(R, d):
    # True and 1.0 equal the dart 1 but are not darts, and -1 would read
    # the last entry of a table indexed by dart
    if not (type(d) is int and 0 <= d < len(R.twin)):
        raise ValidationError(f"dart {d!r} not in graph")


def edge_label(R, d):
    """Label of the edge containing dart d: its entry of ``edge_labels``,
    or ``e<i>`` for the edge numbered i when R has none."""
    _check_dart(R, d)
    i = R.edge_number[d]
    return f"e{i}" if R.edge_labels is None else R.edge_labels[i]


def dart_of_label(R, label):
    """Smaller dart of the edge carrying ``label``."""
    for d, lab in zip(edges(R), R.edge_labels or ()):
        if lab == label:
            return d
    raise KeyError(label)


def _orbits(succ):
    """The cycles of the permutation ``succ`` of ``range(len(succ))``,
    each a tuple from its least element, in increasing order of it."""
    seen = [False] * len(succ)
    out = []
    for d0 in range(len(succ)):
        if seen[d0]:
            continue
        cyc = []
        d = d0
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = succ[d]
        out.append(tuple(cyc))
    return out


def _spanning_tree(darts_of, root):
    """BFS tree of a graph given by darts_of[node] and the node across
    each dart's edge; returns (nodes in BFS order, parent), where
    parent[x] is the dart at x's parent whose edge leads to x."""
    parent = {root: None}
    order = [root]
    for x in order:
        for d, y in darts_of[x]:
            if y not in parent:
                parent[y] = d
                order.append(y)
    return order, parent


def _trace_faces_raw(rotation, twin):
    """The face walks (``_orbits``): the face left of d continues at the
    rotation predecessor of twin[d]."""
    prv = [None] * len(twin)
    for cyc in rotation:
        for i, d in enumerate(cyc):
            prv[d] = cyc[i - 1]
    return _orbits([prv[t] for t in twin])


def trace_faces(R):
    """All face walks, every dart in exactly one, canonical order.

    Each walk starts at its smallest dart; walks are sorted by that dart.
    The faces are traced once per surface and kept on R itself, as its
    homology is, so every later call returns the same tuple.
    """
    faces = R.__dict__.get("_faces")
    if faces is None:
        faces = tuple(_trace_faces_raw(R.rotation, R.twin))
        object.__setattr__(R, "_faces", faces)
    return faces


# ---------------------------------------------------------------------------
# invariants

class SurfaceInvariants(NamedTuple):
    vertices: int
    edges: int
    faces: int            # 2-cells only; boundary walks are not faces
    euler_char: int
    genus: int
    orientable: bool
    boundary_count: int


def surface_invariants(R):
    """Euler characteristic and genus of the (possibly bordered) surface."""
    V = len(R.rotation)
    E = len(R.twin) // 2
    all_faces = trace_faces(R)
    b = len(R.boundary_faces)
    F = len(all_faces) - b
    chi = V - E + F
    genus2 = 2 - chi - b
    if genus2 < 0 or genus2 % 2:
        raise ValidationError(f"inconsistent Euler data: chi={chi}, boundary={b}")
    return SurfaceInvariants(V, E, F, chi, genus2 // 2, True, b)


def capped(R):
    """The closed surface obtained by filling every boundary walk with a disk."""
    if not R.boundary_faces:
        return R
    return RibbonGraph(R.rotation, R.twin, frozenset(), R.edge_labels)


# ---------------------------------------------------------------------------
# gluing a polygon schema

def schema_to_ribbon(word):
    """Glue the sides of a polygon according to a signed word.

    Side i of the polygon, traversed counterclockwise, becomes dart i.
    Pasting side k to side k' reverses orientation, so the quotient is
    orientable; the polygon interior is the single face.  Edge labels
    are the word's side labels.  A word that is neither a str nor an
    iterable of letters raises ValidationError.
    """
    if isinstance(word, str):
        word = parse_gluing_word(word)
    word = validate_gluing_word(word)
    n = len(word)
    where = {}
    for i, (lab, primed) in enumerate(word):
        where.setdefault(lab, {})[primed] = i
    pair = [None] * n
    for lab, occ in where.items():
        i, j = occ[False], occ[True]
        pair[i], pair[j] = j, i
    # counterclockwise successor around the glued vertex
    rotation = _orbits([pair[(i - 1) % n] for i in range(n)])
    labels = []
    for d in range(n):
        if d < pair[d]:
            labels.append(word[d][0])
    return RibbonGraph(tuple(rotation), tuple(pair), frozenset(), tuple(labels))


# ---------------------------------------------------------------------------
# closed walks

def validate_walk(R, walk):
    """Check the closed-walk invariants: incidence, no immediate
    reversal, no undirected edge used twice.

    Only R's ``twin`` and ``vertex_of`` tables are read, so a surface's
    ``SurfaceHomology``, which keeps them, validates its walks too.  A
    walk is a tuple or a list of darts: anything else, a set or an
    iterator among them, is refused."""
    if not isinstance(walk, (tuple, list)):
        raise ValidationError(f"walk {walk!r} is not a tuple or a list of darts")
    if not walk:
        raise ValidationError("empty walk")
    vof, twin = R.vertex_of, R.twin
    n = len(twin)
    last = len(walk) - 1
    used = set()
    # each dart is checked to be an int in range as the successor of the
    # one before it, and so before its vertex is read; a bool or a float
    # equal to a dart is not one
    if not (type(walk[0]) is int and 0 <= walk[0] < n):
        raise ValidationError(f"dart {walk[0]!r} not in graph")
    for i, d in enumerate(walk):
        nxt = walk[i + 1] if i < last else walk[0]
        if not (type(nxt) is int and 0 <= nxt < n):
            raise ValidationError(f"dart {nxt!r} not in graph")
        t = twin[d]
        if vof[nxt] != vof[t]:
            raise ValidationError("consecutive darts are not incident head-to-tail")
        if nxt == t:
            raise ValidationError("immediate reversal in walk")
        e = d if d < t else t
        if e in used:
            raise ValidationError("walk repeats an undirected edge")
        used.add(e)
    return tuple(walk)


def walk_vertices(R, walk):
    """Vertices visited, aligned with the walk: vertex where walk[i] starts."""
    vof = R.vertex_of
    return tuple(vof[d] for d in walk)


def walk_edge_labels(R, walk):
    return tuple(edge_label(R, d) for d in walk)


def canonical_walk(walk, twin):
    """Least dart sequence over all rotations of the nonempty walk and of
    its reversal.

    The least sequence starts with the least dart of the two, so only
    the rotations that start there are compared: one of each, for a
    walk that uses no edge twice."""
    rev = tuple(twin[d] for d in reversed(walk))
    low = min(min(walk), min(rev))
    return min(seq[i:] + seq[:i] for seq in (walk, rev) for i, d in enumerate(seq) if d == low)


def walk_from_edge_set(R, darts):
    """The closed walk tracing a set of edges that forms a single cycle.

    Every vertex of the chosen subgraph must have degree exactly 2.
    The walk starts at the smallest dart of the set, in its direction.
    A collection that is not iterable, a dart that is not R's, and an
    empty set raise ValidationError.
    """
    try:
        darts = iter(darts)
    except TypeError:
        raise ValidationError(f"edge set {darts!r} is not an iterable of darts") from None
    eset = set()
    for d in darts:
        _check_dart(R, d)
        eset.add(edge_of_dart(R, d))
    if not eset:
        raise ValidationError("edge set is empty")
    vof = R.vertex_of
    incident = {}
    for e in eset:
        for d in (e, R.twin[e]):
            incident.setdefault(vof[d], []).append(d)
    for v, ds in incident.items():
        if len(ds) != 2:
            raise ValidationError(f"edge set is not a single cycle: vertex {v} has degree {len(ds)}")
    start = min(eset)
    walk = [start]
    while True:
        arrive = R.twin[walk[-1]]
        outs = [d for d in incident[vof[arrive]] if d != arrive]
        if len(outs) != 1:
            raise ValidationError("edge set is not a single cycle")
        if outs[0] == start:
            break
        walk.append(outs[0])
    if len({edge_of_dart(R, d) for d in walk}) != len(eset):
        raise ValidationError("edge set is not a single cycle (disconnected)")
    return validate_walk(R, tuple(walk))


# ---------------------------------------------------------------------------
# cutting along a curve system

def complement_components(R, system):
    """Number of components of the surface minus a system of walks.

    The regions of the cut surface are the faces of R, merged across
    every edge the system does not use; vertices away from the system
    connect their incident faces automatically through unused edges.
    They are the components of a BFS (``_spanning_tree``) over the
    faces, joined across the unused edges.  A system that is not
    iterable raises ValidationError.
    """
    try:
        system = iter(system)
    except TypeError:
        raise ValidationError(f"system {system!r} is not an iterable of walks") from None
    used = set()
    for walk in system:
        validate_walk(R, walk)
        for d in walk:
            e = edge_of_dart(R, d)
            if e in used:
                raise ValidationError("system walks are not pairwise edge-disjoint")
            used.add(e)
    faces = trace_faces(R)
    face = [None] * len(R.twin)
    for i, f in enumerate(faces):
        for d in f:
            face[d] = i
    darts_of = [[(d, face[R.twin[d]]) for d in f if edge_of_dart(R, d) not in used]
                for f in faces]
    reached = set()
    count = 0
    for i in range(len(faces)):
        if i not in reached:
            reached.update(_spanning_tree(darts_of, i)[0])
            count += 1
    return count


# ---------------------------------------------------------------------------
# surgery (used to encode curves that cross: subdivide, then add the
# crossing curve through the new 4-valent vertex)

def subdivide_edge(R, d):
    """Split the edge of dart d with a midpoint vertex.

    Returns (graph, first_half_dart, second_half_dart): the walk that
    used to traverse dart d now traverses first_half then second_half.
    New darts n, n+1 sit at the midpoint; labels get 'a'/'b' suffixes.
    """
    _check_dart(R, d)
    t = R.twin[d]
    n = len(R.twin)
    # edge1 = {d, n} from vertex_of(d) to the midpoint
    # edge2 = {n+1, t} from the midpoint to vertex_of(t)
    twin = list(R.twin) + [None, None]
    twin[d], twin[n] = n, d
    twin[n + 1], twin[t] = t, n + 1
    rotation = [tuple(cyc) for cyc in R.rotation] + [(n, n + 1)]
    labels = None
    if R.edge_labels is not None:
        lab = dict(zip(edges(R), R.edge_labels))
        base = lab.pop(edge_of_dart(R, d))
        lab[min(d, n)] = base + "a"
        lab[min(n + 1, t)] = base + "b"
        new_edges = sorted(set(lab))
        labels = tuple(lab[e] for e in new_edges)
    return RibbonGraph(tuple(rotation), tuple(twin), frozenset(), labels), d, n + 1


def add_loop(R, after_a, after_b, label=None):
    """Insert a loop edge at the vertex of darts after_a, after_b.

    The loop's darts n, n+1 are placed immediately after after_a and
    after_b in the vertex's counterclockwise order; choosing two darts
    that separate a curve's strands makes the new loop cross it.
    """
    _check_dart(R, after_a)
    _check_dart(R, after_b)
    vof = R.vertex_of
    v = vof[after_a]
    if vof[after_b] != v or after_a == after_b:
        raise ValidationError("loop insertion darts must be distinct darts at one vertex")
    n = len(R.twin)
    twin = list(R.twin) + [n + 1, n]
    rotation = []
    for u, cyc in enumerate(R.rotation):
        if u != v:
            rotation.append(tuple(cyc))
            continue
        new = []
        for dd in cyc:
            new.append(dd)
            if dd == after_a:
                new.append(n)
            if dd == after_b:
                new.append(n + 1)
        rotation.append(tuple(new))
    labels = None
    if R.edge_labels is not None:
        lab = dict(zip(edges(R), R.edge_labels))
        lab[n] = label if label is not None else f"e{n // 2}"
        new_edges = sorted(set(lab))
        labels = tuple(lab[e] for e in new_edges)
    return RibbonGraph(tuple(rotation), tuple(twin), frozenset(), labels), n


# ---------------------------------------------------------------------------
# serialization (JSON surface format)

def ribbon_to_dict(R):
    vof = R.vertex_of
    return {
        "vertices": list(range(len(R.rotation))),
        "half_edges": [
            {"id": d, "vertex": vof[d], "twin": R.twin[d]} for d in range(len(R.twin))
        ],
        "rotation": [list(cyc) for cyc in R.rotation],
        "boundary_faces": sorted(R.boundary_faces),
        "edge_labels": list(R.edge_labels) if R.edge_labels is not None else None,
    }


def ribbon_from_dict(data):
    """Inverse of ``ribbon_to_dict``; malformed data raises ValidationError."""
    try:
        twin = [None] * len(data["half_edges"])
        for he in data["half_edges"]:
            # True equals the id 1 but is not an int
            if type(he["id"]) is not int or he["id"] not in range(len(twin)):
                raise ValidationError(f"half-edge id {he['id']!r} is not an int in range")
            twin[he["id"]] = he["twin"]
        labels = data.get("edge_labels")
        return RibbonGraph(
            tuple(tuple(c) for c in data["rotation"]),
            tuple(twin),
            frozenset(data.get("boundary_faces", ())),
            tuple(labels) if labels is not None else None,
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed surface data: {exc!r}") from exc
