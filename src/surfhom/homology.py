"""First homology of a ribbon-graph surface, with its intersection form.

H1 comes from a tree-cotree decomposition (Eppstein, "Dynamic generators
of topologically embedded graphs", SODA 2003).  T is the BFS spanning
tree of the graph that the surface kept from its validation, and C a
spanning tree of the faces across the edges not in T, with every
boundary walk merged into C's root.  The leftover edges L, 2g of them
on a closed surface, are the basis: each loop of L closed through T
has a unit class.  Peeling C from its leaves writes
every other non-tree edge as a row over L, because a face boundary is
null-homologous.  Two loops of L cross exactly when their darts
interleave in the rotation around the contracted tree T, which one walk
around T reads off: prefix sums over that ring give each row of the
intersection form in a few big-integer steps (``SurfaceHomology``).
The intersection number of two walks is the form on their classes
(``algebraic_intersection``).

The build computes H1 only: the class of every dart.  The intersection
form G is built on the first read of ``pairing_matrix`` and kept, so
the enumeration, the procedures and the certificates, which read
classes and nothing else, never build it.
``symplectic_basis`` runs the integer symplectic reduction of G on each
call: rows P of a basis with P @ G @ P^T equal to the standard form S.
It pivots on units only: G is the interlace form of a one-vertex,
one-face chord diagram, and the chords slid off a handle form another,
so every pivot is +-1: no surface of the test suite, the benchmark or
31,560 random ones needed a Euclid pass (``_symplectic_reduction``).
It moves no column: it chooses each pair through a permutation of the
rows and computes the form row P[x] @ G of each row once it is final,
so F = P @ G holds at the end and P^-1 = F^T @ S is read off F with no
further product.

Rows that are only ever combined, never read entry by entry, are packed
into one integer each (``_Packing``): a vector's entries become signed
digits of a fixed byte width, so adding multiples of rows is big-integer
arithmetic.  The reduction packs its basis rows P at 8-byte digits and
keeps a bound per row; past the width it resets the bounds to the rows'
true maxima first and doubles the width only if that is not enough.
A row r times G (``_RowTimes``) is the sum of G's packed rows over r's
nonzeros, at the least width that holds every entry of the product,
from the exact bound sum_j |r_j| * max |G|.  The build packs each
dart's class once, at digits that hold any edge-simple walk's class, so
the class of an enumerated cycle is a sum of its darts' packed rows,
and one ``_Unpacked`` table per surface unpacks each distinct sum once.
"""

import struct
from dataclasses import dataclass
from itertools import accumulate, chain, compress
from operator import mul, neg, or_
from typing import NamedTuple

from .ribbon import (
    ValidationError,
    _orbits,
    _spanning_tree,
    edge_of_dart,
    edges,
    trace_faces,
    validate_walk,
)
from .zlattice import (
    LatticeError,
    _check_modulus,
    _basis_state,
    _unimodular_solve,
    as_int_matrix,
    matmul,
    transpose,
    vec_mat,
)


class ChainComplex(NamedTuple):
    """Cellular boundary maps: d1 sends edges to vertices (V x E) and d2
    sends 2-cells to edges (E x F); boundary walks are not 2-cells."""

    d1: tuple
    d2: tuple


def chain_complex(R):
    """The boundary maps, with edge i the i-th of ``edges(R)``, oriented
    along its smaller dart (``R.edge_number``)."""
    twin, vof, number = R.twin, R.vertex_of, R.edge_number
    V = len(R.rotation)
    E = R.n_edges
    d1 = [[0] * E for _ in range(V)]
    for i, e in enumerate(edges(R)):
        d1[vof[twin[e]]][i] += 1
        d1[vof[e]][i] -= 1
    internal = [f for f in trace_faces(R) if f[0] not in R.boundary_faces]
    d2 = [[0] * len(internal) for _ in range(E)]
    for j, face in enumerate(internal):
        for d in face:
            d2[number[d]][j] += 1 if d < twin[d] else -1
    return ChainComplex(tuple(map(tuple, d1)), tuple(map(tuple, d2)))


# byte width -> struct code of the little-endian signed int of that width
_SIGNED_CODE = {1: "b", 2: "h", 4: "i", 8: "q"}


def _digit_bytes(bound):
    """Bytes per digit that hold every integer of absolute value up to
    ``bound``: the least power of two that does, so the least width with
    a struct code (``_SIGNED_CODE``) when one does."""
    w = 1
    while bound >> (8 * w - 1):
        w *= 2
    return w


class _Packing:
    """Integer vectors of ``count`` entries, each packed into one int.

    A packed vector is the sum of its entries, entry i shifted by i
    digits of ``size`` bytes.  Packing is linear: integer sums and
    multiples of packed vectors are the packed sums and multiples, as
    long as every entry of the result fits in a signed digit.  Adding
    the bias, 2^(8 size - 1) in every digit, makes every digit
    nonnegative, so no digit borrows from the next; xor with the bias
    then leaves each digit in two's complement, which ``struct`` reads
    off as little-endian signed ints (``int.from_bytes`` digit by digit
    for a width without a struct code).  Packing runs the same steps
    backwards."""

    __slots__ = ("size", "count", "bias", "code", "row_format")

    def __init__(self, size, count):
        self.size, self.count = size, count
        self.bias = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
        self.code = _SIGNED_CODE.get(size)
        self.row_format = self.code and f"<{count}{self.code}"

    def pack(self, rows):
        """The packed int of each row, a sequence of ``count`` ints."""
        if self.code:
            data = struct.pack(f"<{len(rows) * self.count}{self.code}", *chain.from_iterable(rows))
        else:
            data = b"".join([x.to_bytes(self.size, "little", signed=True)
                             for x in chain.from_iterable(rows)])
        bias, nbytes = self.bias, self.size * self.count
        return [(int.from_bytes(data[i * nbytes:i * nbytes + nbytes], "little") ^ bias) - bias
                for i in range(len(rows))]

    def unpack(self, packed):
        """The entries of the packed ints, one after another, in one flat
        tuple: of m rows, row r is the slice [r * count:(r + 1) * count]
        and column j the strided slice [j::count]."""
        bias, nbytes = self.bias, self.size * self.count
        data = b"".join([((s + bias) ^ bias).to_bytes(nbytes, "little") for s in packed])
        if self.code:
            return struct.unpack(f"<{len(data) // self.size}{self.code}", data)
        w = self.size
        return tuple([int.from_bytes(data[i:i + w], "little", signed=True)
                      for i in range(0, len(data), w)])

    def unpack_one(self, s):
        """The entries of one packed int."""
        if not self.row_format:
            return self.unpack((s,))
        data = ((s + self.bias) ^ self.bias).to_bytes(self.size * self.count, "little")
        return struct.unpack(self.row_format, data)


class _Unpacked(dict):
    """Packed sum -> class: a missing sum is unpacked and kept, so every
    read of one sum returns the same class object
    (``SurfaceHomology._class``)."""

    __slots__ = ("unpack",)

    def __init__(self, packing):
        self.unpack = packing.unpack_one

    def __missing__(self, s):
        cls = self[s] = self.unpack(s)
        return cls


class _RowTimes:
    """The product r @ G of an integer row r with a fixed integer matrix
    G: the sum of G's packed rows (``_Packing``) over the nonzero entries
    of r, unpacked.  Its entries are at most sum_j |r_j| times the
    largest |G| entry in absolute value; G is packed at the first call,
    at the least width that holds that bound, and packed again, wider,
    when a later row needs more."""

    __slots__ = ("G", "largest", "packing", "rows", "top")

    def __init__(self, G):
        self.G = G
        self.largest = self.packing = self.rows = None
        self.top = 0

    def __call__(self, r):
        nz = list(compress(r, r))
        if self.largest is None:
            self.largest = max(map(abs, set(chain.from_iterable(self.G))), default=0)
        reach = sum(map(abs, nz)) * self.largest
        if reach >= self.top:
            self.packing = _Packing(_digit_bytes(reach), len(self.G))
            self.rows = self.packing.pack(self.G)
            self.top = 1 << (8 * self.packing.size - 1)
        return self.packing.unpack_one(sum(map(mul, nz, compress(self.rows, r))))


def _inverse_from_form_rows(F):
    """The inverse of a basis P with P @ G @ P^T == S, from the rows
    F = P @ G.  As S^-1 = -S and G^T = -G, the inverse is
    G @ P^T @ (-S) = F^T @ S: multiplying by S maps each column pair
    (u, v) of F^T to (-v, u), so row k of F, negated when k is odd and
    swapped with its partner, is column k of the inverse."""
    columns = []
    for k in range(0, len(F), 2):
        columns += (map(neg, F[k + 1]), F[k])
    return tuple(zip(*columns))


_NOT_UNIMODULAR = "intersection form of a closed surface must be unimodular"

# digit width in bytes at which the reduction packs its basis rows
_START_BYTES = 8


def _symplectic_reduction(G):
    """Rows P of a basis in which the antisymmetric integer form G (zero
    diagonal) is the standard form S, P @ G @ P^T == S exactly, and the
    rows P @ G: the pair (P, P @ G).

    Step k takes basis rows a = k and b = k + 1 to a canonical pair.
    Entry (x, t) of the reduced form, the pairing of rows x and t, is
    F[x] . P[t], where F[x] = P[x] @ G is computed (``_RowTimes``) once
    row x has joined its pair and stops changing.  The first later row
    whose entry with a is a unit moves to b, and row b is negated if
    that entry is -1.  One rank-2 step per later row i, with q = (a, i)
    and c = (i, b) = -(b, i),
        P[i] <- P[i] - q * P[b] - c * P[a]
    makes row i pair to zero with both a and b.  A later row t began as
    the unit vector e_c, c = ``order[t]``, and has only taken multiples
    of earlier pairs' rows, which pair to zero with a and b, so it pairs
    with them as F[a][c] and F[b][c].  No column is ever moved, so
    F = P @ G at the end, and P^-1 is read off F
    (``_inverse_from_form_rows``).

    A surface's form always has a unit pivot.  The tree-cotree form is
    the interlace form of a one-vertex, one-face chord diagram, entries
    in {-1, 0, 1}.  The other chords slide off a handle (a, b) that
    crosses once and still form such a diagram (the canonical polygonal
    schema: Lazarus, Pocchiola, Vegter and Verroust, SoCG 2001), and as
    the projection onto <a, b>^perp is unique, their classes are the
    rows the step leaves.  So the reduced form keeps entries in
    {-1, 0, 1}.  The test suite, the benchmark, the catalog and 31,560
    random surfaces never reached a pair without a unit pivot.  Every step is
    unimodular, so success proves det(G) = 1; a form with a pair that
    has no unit pivot (every form that is not unimodular, and forms that
    only a Euclid pass would reduce) raises AssertionError.

    Each row of P is one int (``_Packing``, from ``_START_BYTES``-byte
    digits), so a rank-2 step is two big-int multiply-adds.  Each row
    keeps a bound on its entries.  When a step would push a bound past
    the digit width, every bound is reset to its row's true maximum,
    and only if the step still overflows does the width double.  No
    bound on P is proved: forms Q S Q^T with Q lower unitriangular
    reduce by unit pivots alone and drive P far past machine words.

    A flag per row (``unit``) records that no step has changed it: every
    flag starts set, a step clears the flag of the row it updates, and a
    flag moves with its row when rows swap; negating a row keeps it.  A
    row whose flag is set is still +-e_c, so it settles as a slice of a
    template with the form row +-G[c]: no unpacking and no product.  A
    canonical word's reduction changes no row at all.  A changed row
    that is +-e_c again takes the general path, which gives equal values.
    """
    n = len(G)
    packing = _Packing(_START_BYTES, n)
    bits = 8 * packing.size
    P = [1 << i for i in range(0, bits * n, bits)]
    bound = [1] * n
    top = 1 << (bits - 1)
    order = list(range(n))  # the unit vector each row began as
    unit = bytearray(b"\x01") * n  # unit[t]: no step has changed row t
    plus, minus = _unit_templates(n)
    rows, F = [None] * n, [None] * n  # final rows of P, unpacked, and P @ G
    times = _RowTimes(G)

    def fit(i, q, j, c, k):
        """The bound of P[i] - q * P[j] - c * P[k], a step past the digit
        width, after making room for it: every bound is reset to its
        row's true maximum, and only if the new bound still overflows
        does the width double, as often as it needs (``_digit_bytes``)."""
        nonlocal packing, top
        flat = packing.unpack(P)
        bound[:] = [max(map(abs, flat[r * n:r * n + n])) for r in range(n)]
        nb = bound[i] + abs(q) * bound[j] + abs(c) * bound[k]
        if nb >= top:
            packing = _Packing(_digit_bytes(nb), n)
            P[:] = packing.pack([flat[r * n:r * n + n] for r in range(n)])
            top = 1 << (8 * packing.size - 1)
        return nb

    def settle(x):
        """Row x joins its pair, and no step changes it after that.  A row
        that is still a unit vector +-e_c (``unit[x]``) is a slice of a
        template and has the form row +-G[c]."""
        c = order[x]
        if unit[x]:
            if P[x] > 0:
                rows[x], F[x] = plus[n - c:2 * n - c], G[c]
            else:
                rows[x], F[x] = minus[n - c:2 * n - c], tuple(map(neg, G[c]))
        else:
            rows[x] = packing.unpack_one(P[x])
            F[x] = times(rows[x])

    for a in range(0, n, 2):
        b = a + 1
        settle(a)
        Fa = F[a]
        g = [Fa[c] for c in order[b:]]
        units = [g.index(u) for u in (1, -1) if u in g]
        if not units:
            raise AssertionError(_NOT_UNIMODULAR)
        j = b + min(units)
        if j != b:
            P[b], P[j] = P[j], P[b]
            bound[b], bound[j] = bound[j], bound[b]
            order[b], order[j] = order[j], order[b]
            unit[b], unit[j] = unit[j], unit[b]
            g[0], g[j - b] = g[j - b], g[0]
        if g[0] < 0:
            P[b] = -P[b]
        settle(b)
        Fb = F[b]
        h = [Fb[c] for c in order[b + 1:]]
        for i in compress(range(b + 1, n), map(or_, g[1:], h)):
            q, c = g[i - b], -h[i - b - 1]
            nb = bound[i] + abs(q) * bound[b] + abs(c) * bound[a]
            bound[i] = nb if nb < top else fit(i, q, b, c, a)
            P[i] = P[i] - q * P[b] - c * P[a]
            unit[i] = 0
    return tuple(rows), tuple(F)


class _WalkClass(NamedTuple):
    """A fundamental cycle's entry in the walk table: its walk and class
    under the field names of ``WeightedCycle``, whose enumerated cycles
    are the table's other entries."""

    darts: tuple
    cls: tuple


class SurfaceHomology:
    """H1 of a surface over the leftover edges of a tree-cotree
    decomposition, with its intersection form.

    fundamental_edges  the edges not in the spanning tree T, each the
                       start of a fundamental cycle
    basis_edges        the leftover edges L: fundamental_class of the
                       i-th one is the i-th unit vector
    pairing_matrix     intersection numbers of the L loops, built on
                       its first read and kept (``_build_form``): read
                       off prefix sums over the ring of darts around
                       the contracted tree, where the sum up to a ring
                       position packs, one signed byte per loop f,
                       whether f's tail and head come before it, so the
                       difference of two sums is the row of the arc
                       between them
    twin, vertex_of    the surface's dart tables, all that walks need;
                       the surface itself is not kept, only its
                       rotation for the form, so R and its homology
                       are freed together as soon as R is dropped

    The walks built on the surface, valid by construction, are kept in
    a table from walk to an entry holding the kept walk object and its
    class (``darts``, ``cls``): every cycle ``enumerate_cycles`` returns,
    which is its own entry, and every fundamental cycle of
    ``cotree_basis``; the latest walk built replaces an equal one.
    ``class_of_walk`` of the kept walk object is one lookup.  Each
    dart's class is kept packed into one integer (``_packed``, 0 for a
    tree dart), at digits wide enough for the classes of edge-simple
    walks: every coordinate of a dart's class is -1, 0 or 1 (a cotree
    dart's is the sum of the L darts leaving its subtree of faces), so a
    walk's is at most the number of edges.  ``enumerate_cycles`` sums
    these rows, and ``_class`` unpacks each sum the first time it is
    read; one sum is always one class object.
    """

    def __init__(self, R):
        self.twin = twin = R.twin
        self.vertex_of = R.vertex_of
        self._walk_class = {}
        self._cotree = None  # cotree_basis, built by its first call
        self._root_paths = None  # vertex -> tree darts from the root, by _tree_path
        self._rotation = R.rotation  # read by _build_form only
        self._form = None  # pairing_matrix, built by its first read
        # T is the BFS tree that validating R grew from vertex 0
        self.parent = R._tree_parent
        tree = {d for p in self.parent.values() if p is not None for d in (p, twin[p])}
        self.fundamental_edges = tuple(e for e in edges(R) if e not in tree)

        # the cotree C: faces joined across non-tree edges, boundary walks
        # all in the root node -1
        node = [None] * len(twin)
        for i, f in enumerate(trace_faces(R)):
            for d in f:
                node[d] = -1 if f[0] in R.boundary_faces else i
        face_darts = {f: [] for f in node}
        for d in range(len(twin)):
            if d not in tree:
                face_darts[node[d]].append((d, node[twin[d]]))
        root = -1 if R.boundary_faces else node[0]
        order, crossing = _spanning_tree(face_darts, root)
        cotree = {edge_of_dart(R, p) for p in crossing.values() if p is not None}
        self.basis_edges = tuple(e for e in self.fundamental_edges if e not in cotree)
        self.rank = len(self.basis_edges)

        # each dart's class, packed (``_Packing``) into one int at digits
        # that hold the coordinates of any edge-simple walk: a unit on
        # each L dart and minus it on its twin, then, leaves first, the
        # dart from a face into its parent is minus the rest of its face
        # (a face boundary is null-homologous); tree darts are 0
        packing = _Packing(_digit_bytes(R.n_edges), self.rank)
        self._packed = packed = dict.fromkeys(range(len(twin)), 0)
        self._class = _Unpacked(packing)
        for i, e in enumerate(self.basis_edges):
            packed[e] = 1 << (8 * packing.size * i)
            packed[twin[e]] = -packed[e]
        for f in reversed(order[1:]):
            down = crossing[f]
            packed[down] = sum(packed[d] for d, _ in face_darts[f] if d != twin[down])
            packed[twin[down]] = -packed[down]

    @property
    def pairing_matrix(self):
        """Built by ``_build_form`` on the first read; every later read
        returns the same tuple."""
        if self._form is None:
            self._form = self._build_form()
        return self._form

    def _build_form(self):
        """The rows of the intersection form, read off prefix sums over
        the ring of darts around the contracted tree T."""
        twin, parent = self.twin, self.parent
        tree = {d for p in parent.values() if p is not None for d in (p, twin[p])}
        # the rotation at the one vertex left after contracting T: the walk
        # around T, stepping across each tree dart and past every other
        # one, is one cycle through every dart (``_orbits``), and the ring
        # is its non-tree darts
        nxt = [None] * len(twin)
        for cyc in self._rotation:
            for i, d in enumerate(cyc):
                nxt[cyc[i - 1]] = d
        (around,) = _orbits([nxt[twin[d]] if d in tree else nxt[d] for d in range(len(twin))])
        ring = [d for d in around if d not in tree]
        # loop f crosses loop e when exactly one end of f lies strictly
        # inside the ring arc from twin[e] to e: +1 when that end is twin[f].
        # ends[p] packs, one signed byte per loop f, [tail_f < p] - [head_f < p];
        # ends[L] is 0, so on either side of the ring's cut the arc's row is
        # ends[head_e] - ends[tail_e + 1], every entry -1, 0 or 1
        form = _Packing(1, self.rank)
        step = {}
        for i, e in enumerate(self.basis_edges):
            step[e] = -1 << (8 * i)
            step[twin[e]] = 1 << (8 * i)
        ends = list(accumulate([step.get(d, 0) for d in ring], initial=0))
        pos = {d: i for i, d in enumerate(ring)}
        return tuple([form.unpack_one(ends[pos[e]] - ends[pos[twin[e]] + 1])
                      for e in self.basis_edges])

    # -- coordinates ------------------------------------------------------

    def class_of_chain(self, darts):
        """H1 class of the 1-chain that runs once along each given dart.

        Any chain is accepted, so a face boundary (which may use an edge
        twice) maps to zero; tree darts contribute nothing.  The darts'
        classes are summed as tuples, so a chain of any length is exact.
        A dart is an int: ``1.0`` and ``True`` equal the dict key 1 but
        are refused."""
        table = self._packed
        packed = []
        for d in darts:
            p = table.get(d) if type(d) is int else None
            if p is None:
                raise ValidationError(f"dart {d!r} not in graph")
            packed.append(p)
        rows = [self._class[p] for p in packed if p]
        return tuple(map(sum, zip(*rows))) if rows else (0,) * self.rank

    def class_of_walk(self, walk):
        """H1 class of a closed walk, in the surface's own coordinates.

        A walk of the table of walks built on this surface is valid by
        construction, and its class is read from the table: at once for
        the table's own tuple, after a test that each dart is an int for
        an equal tuple (``(True,)`` equals ``(1,)``).  Every other walk
        is validated first."""
        kept = self._walk_class.get(walk) if type(walk) is tuple else None
        if kept is not None and (kept.darts is walk or set(map(type, walk)) == {int}):
            return kept.cls
        return self.class_of_chain(validate_walk(self, walk))

    def _on_tree(self, d):
        """Whether dart d lies on an edge of the spanning tree T: d is the
        parent dart of the vertex it leads to, or its twin is."""
        parent, twin, vof = self.parent, self.twin, self.vertex_of
        return parent[vof[twin[d]]] == d or parent[vof[d]] == twin[d]

    def fundamental_class(self, e):
        """Class of the fundamental cycle attached to non-tree edge e;
        None for a tree dart."""
        if not (type(e) is int and e in self._packed):
            raise ValidationError(f"dart {e!r} not in graph")
        return None if self._on_tree(e) else self._class[self._packed[e]]

    def fundamental_walk(self, e):
        """The fundamental cycle of non-tree dart e: e, then the tree
        path back to its start, a valid closed walk by construction."""
        if not (type(e) is int and e in self._packed) or self._on_tree(e):
            raise ValidationError(f"dart {e!r} is not on a non-tree edge")
        return self._tree_walk(e)

    def _tree_walk(self, e):
        """Non-tree dart e, then the tree path from its head back to its
        tail (``_tree_path``)."""
        vof = self.vertex_of
        return (e,) + self._tree_path(vof[self.twin[e]], vof[e])

    def _tree_path(self, u, v):
        """Dart walk from vertex u to vertex v inside the spanning tree:
        up u's root path to the last vertex it shares with v's, then down
        v's.  Each vertex's root path, the tree darts from the root down
        to it, is built for every vertex at the first call, in BFS order.
        A loop, every edge of a one-vertex surface, has the empty path."""
        if u == v:
            return ()
        if self._root_paths is None:
            self._root_paths = paths = {}
            vof = self.vertex_of
            for x, d in self.parent.items():
                paths[x] = () if d is None else paths[vof[d]] + (d,)
        up, down = self._root_paths[u], self._root_paths[v]
        k = 0
        for a, b in zip(up, down):
            if a != b:
                break
            k += 1
        twin = self.twin
        return tuple([twin[d] for d in reversed(up[k:])]) + down[k:]

    def pair(self, c1, c2):
        """Intersection number of two classes, each a tuple of ``rank``
        ints; anything else raises ValidationError."""
        for c in (c1, c2):
            if not (type(c) is tuple and len(c) == self.rank
                    and all(type(x) is int for x in c)):
                raise ValidationError(f"class {c!r} is not a tuple of {self.rank} ints")
        G = self.pairing_matrix
        return sum(
            a * G[i][j] * b
            for i, a in enumerate(c1)
            if a
            for j, b in enumerate(c2)
            if b
        )


def homology(R):
    """The SurfaceHomology of R, built once and kept on R itself."""
    H = R.__dict__.get("_homology")
    if H is None:
        H = SurfaceHomology(R)
        object.__setattr__(R, "_homology", H)
    return H


def cotree_basis(R):
    """One fundamental cycle per non-tree edge, with its H1 class.

    The walks generate the surface's first homology (and, for a closed
    surface, map onto all of Z^2g).  R's homology builds the pairs once
    and keeps each walk's class for ``class_of_walk``.
    """
    H = homology(R)
    if H._cotree is None:
        H._cotree = tuple((H._tree_walk(e), H._class[H._packed[e]])
                          for e in H.fundamental_edges)
        H._walk_class.update((walk, _WalkClass(walk, cls)) for walk, cls in H._cotree)
    return H._cotree


def class_vector(R, walk):
    return homology(R).class_of_walk(walk)


# ---------------------------------------------------------------------------
# intersection numbers of edge-disjoint walks

def algebraic_intersection(R, w1, w2):
    """Signed crossing count of two walks meeting only at vertices: the
    intersection form on their classes (``SurfaceHomology.pair``).

    At a shared vertex, a strand (in-dart, out-dart) of w2 crosses one
    of w1 positively when the four darts interleave counterclockwise as
    (in1, in2, out1, out2).  The sum of these signs depends only on the
    two classes, so it is the form on them.  Walks that share an edge
    do not cross transversally and are refused.
    """
    H = homology(R)
    c1, c2 = H.class_of_walk(w1), H.class_of_walk(w2)
    if {edge_of_dart(R, d) for d in w1} & {edge_of_dart(R, d) for d in w2}:
        raise ValidationError("walks share an edge; subdivide to make them transverse")
    return H.pair(c1, c2)


# ---------------------------------------------------------------------------
# reference bases

class HomologyClass(NamedTuple):
    coords: tuple
    basis: str
    modulus: int = 0


# a frozen dataclass, not a NamedTuple: the benchmark's tests build
# altered copies of a basis with dataclasses.replace
@dataclass(frozen=True)
class ReferenceBasis:
    """2g homology classes declared as the coordinate system.

    ``matrix`` holds the basis classes in the surface's own coordinates;
    ``walks`` maps a basis name to a representative closed walk where
    one exists (classes like a canonical pair not traced by any catalog
    curve carry None).
    """

    name: str
    names: tuple
    matrix: tuple
    inverse: tuple
    pairing: tuple
    walks: tuple

    def express(self, class_vec, modulus=0):
        _check_modulus(modulus)
        coords = vec_mat(tuple(class_vec), self.inverse)
        if modulus:
            coords = tuple(x % modulus for x in coords)
        return coords


def _unit_templates(n):
    """Two tuples of length 2n + 1 from which every signed unit vector of
    length n is a slice: +e_c and -e_c are [n - c:2 * n - c] of the
    first and of the second (the ``zlattice.identity`` idiom)."""
    return (0,) * n + (1,) + (0,) * n, (0,) * n + (-1,) + (0,) * n


def standard_symplectic(g):
    """The standard form S of genus g, 2g x 2g with the blocks
    ((0, 1), (-1, 0)) on its diagonal: row 2i is e_(2i+1) and row 2i + 1
    is -e_(2i), each a slice of a template.  A genus that is not an int
    >= 0 (a bool included) raises ValidationError."""
    if type(g) is not int or g < 0:
        raise ValidationError(f"genus {g!r} is not an int >= 0")
    n = 2 * g
    plus, minus = _unit_templates(n)
    rows = []
    for i in range(0, n, 2):
        rows += (plus[n - i - 1:2 * n - i - 1], minus[n - i:2 * n - i])
    return tuple(rows)


def class_of_walk(R, walk, basis, modulus=0):
    """Coordinates of a walk's class in a declared reference basis."""
    vec = class_vector(R, walk)
    return HomologyClass(basis.express(vec, modulus), basis.name, modulus)


def reference_basis_from_table(R, name, basis_names, declared_rows, walks, basis_walks=None):
    """Build the reference basis pinned by a declared coordinate table.

    ``declared_rows[i]`` is the declared coordinate vector of
    ``walks[i]`` with respect to the (unknown) basis; the basis is
    solved as X @ computed, X being a left inverse of the declared rows
    over Z, and then every row and the symplectic pairing are verified,
    so a wrong surface encoding cannot slip through.  The pairing check
    also proves B unimodular: B @ G @ B^T == S forces
    det(B)^2 * det(G) == 1 over Z.  One product
    F = B @ G with the intersection form G gives both the pairing
    F @ B^T and the inverse of B (``_inverse_from_form_rows``).
    """
    H = homology(R)
    declared = as_int_matrix(declared_rows)
    if not declared or not declared[0]:
        raise LatticeError("declared table is empty")
    m = len(declared[0])
    if m != H.rank:
        raise LatticeError(f"table width {m} != homology rank {H.rank}")
    computed = tuple(H.class_of_walk(w) for w in walks)
    B = _unimodular_solve(declared, computed)
    if B is None:
        raise LatticeError("declared rows do not span the coordinate lattice")
    if matmul(declared, B) != computed:
        raise LatticeError("surface encoding does not reproduce the declared table")
    F = matmul(B, H.pairing_matrix)
    pairing = matmul(F, transpose(B))
    if pairing != standard_symplectic(m // 2):
        raise LatticeError("declared basis does not pair as a canonical basis")
    walk_map = tuple((basis_walks or {}).get(nm) for nm in basis_names)
    inverse = _inverse_from_form_rows(F)
    return ReferenceBasis(name, tuple(basis_names), B, inverse, pairing, walk_map)


def symplectic_basis(R):
    """A canonical homology basis: pairs (a_i, b_i) with <a_i, b_i> = 1
    and every other pairing 0, so the intersection matrix is exactly the
    standard block form S.

    Each call runs the symplectic reduction of the intersection form G
    of R's homology (``_symplectic_reduction``), whose rows P have
    P @ G @ P^T == S, so P^-1 = (P @ G)^T @ S exactly.  The reduction
    moves no column, so it returns the rows P @ G as well, and P^-1 is
    read off them: inverting P takes neither an elimination nor a
    product.  A basis row's walk is the first cotree walk whose class
    is +-P[i], reversed for -P[i]: one dict from each row to its index,
    where each class is looked up as it is and, only when that misses,
    negated.
    """
    if R.boundary_faces:
        raise ValidationError("symplectic basis requires a closed surface")
    H = homology(R)
    P, F = _symplectic_reduction(H.pairing_matrix)
    g = H.rank // 2
    # attach representative walks where a basis row is the class of a
    # fundamental cycle, or of one reversed: the first such cycle
    index = {row: i for i, row in enumerate(P)}
    walks = [None] * len(P)
    for walk, cls in cotree_basis(R):
        i = index.get(cls)
        if i is None:
            i = index.get(tuple(map(neg, cls)))
            if i is not None and walks[i] is None:
                walks[i] = tuple(R.twin[d] for d in reversed(walk))
        elif walks[i] is None:
            walks[i] = walk
    names = tuple(nm for i in range(1, g + 1) for nm in (f"a{i}", f"b{i}"))
    inverse = _inverse_from_form_rows(F)
    return ReferenceBasis("symplectic", names, P, inverse, standard_symplectic(g), tuple(walks))


# ---------------------------------------------------------------------------
# the constructive completion behind curve systems with connected complement

def complete_system_cotree(R, system, modulus=0):
    """Extend a curve system's classes to a full homology basis.

    The system's classes must form a partial basis (which they do
    whenever the complement of the system is connected); they are then
    completed greedily by fundamental cycles of a spanning tree.
    Returns one (walk, class) pair per basis element, the system first.
    """
    _check_modulus(modulus)
    H = homology(R)
    out = [(w, H.class_of_walk(w)) for w in system]
    extend = _basis_state(H.rank, modulus).extend
    if not all(extend(c) for _, c in out):
        raise LatticeError("system classes do not form a partial basis")
    for walk, cls in cotree_basis(R):
        if len(out) == H.rank:
            break
        if extend(cls):
            out.append((walk, cls))
    if len(out) != H.rank:
        raise LatticeError("cotree completion failed to reach full rank")
    return tuple(out)
