"""First homology of a ribbon-graph surface, with its intersection form
and a canonical basis.

H1 comes from a tree-cotree decomposition (Eppstein, "Dynamic generators
of topologically embedded graphs", SODA 2003).  T is the BFS spanning
tree of the graph that the surface kept from its validation, and C a
spanning tree of the faces across the edges not in T, with every
boundary walk merged into C's root.  The leftover edges L, 2g of them
on a closed surface, are the basis: each loop of L closed through T
has a unit class.  Peeling C from its leaves writes
every other non-tree edge as a row over L, because a face boundary is
null-homologous.  Contracting T leaves one vertex; the ends of the
loops of L in its rotation are a one-face chord word
(``SurfaceHomology._chord_word``), and two loops cross exactly when
their chords interleave.  Prefix sums over the word give each row of
the intersection form G in a few big-integer steps, and the
intersection number of two walks is the form on their classes
(``algebraic_intersection``).

The build computes H1 only: the class of every dart.  G is built on the
first read of ``pairing_matrix`` and kept, so the enumeration, the
procedures and the certificates, which read classes and nothing else,
never build it.  ``symplectic_basis`` never builds it either: on each
call it reduces the chord word (``_reduce_word``) to rows P with
P @ G @ P^T equal to the standard form S.  Each step slides a handle
off the word (Lazarus, Pocchiola, Vegter and Verroust, SoCG 2001), which
is one rank-2 step of the symplectic reduction of G, and the form row
P[x] @ G of each settled row is its chord's crossings, so each pair
writes its two columns of P^-1 off the word, with no product.  The
reduction writes each label as a code below 2n, n the rank, and a word
of up to 256 codes as bytes, so its searches, slices and slides run in
C and two ``translate`` calls read off the chords that cross an arc.

Rows that are only ever combined, never read entry by entry, are packed
into one integer each (``_Packing``): a vector's entries become signed
digits of a fixed byte width, so adding multiples of rows is big-integer
arithmetic.  The build packs each dart's class once, at digits that
hold any edge-simple walk's class, so the class of an enumerated cycle
is a sum of its darts' packed rows, and one ``_Unpacked`` table per
surface unpacks each distinct sum once; the basis loops' classes, e_i
by construction, are put there by ``cotree_basis`` as the rows of the
identity.  The reduction packs its settled rows at the same digits,
which hold every one: each entry of P is a crossing sign of the word,
so -1, 0 or 1 (proved at ``_reduce_word``).  So a row and a dart's
class are equal exactly when their packed ints are, and
``symplectic_basis`` matches the two as ints.
"""

import struct
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import neg
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
    identity,
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

    __slots__ = ("size", "count", "bias", "code", "row_struct")

    def __init__(self, size, count):
        self.size, self.count = size, count
        self.bias = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
        self.code = _SIGNED_CODE.get(size)
        self.row_struct = self.code and struct.Struct(f"<{count}{self.code}")

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
        if not self.row_struct:
            return self.unpack((s,))
        data = ((s + self.bias) ^ self.bias).to_bytes(self.row_struct.size, "little")
        return self.row_struct.unpack(data)


class _Unpacked(dict):
    """Packed sum -> class: a missing sum is unpacked and kept, so every
    read of one sum returns the same class object
    (``SurfaceHomology._class``).  ``size`` is the digit width in bytes,
    at which ``symplectic_basis`` packs its rows to match them to these
    sums.  ``cotree_basis`` puts the basis loops' classes, the rows of
    the identity, in the table."""

    __slots__ = ("unpack", "size")

    def __init__(self, packing):
        self.unpack = packing.unpack_one
        self.size = packing.size

    def __missing__(self, s):
        cls = self[s] = self.unpack(s)
        return cls


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


def _reduce_word(word, size):
    """The canonical basis of the chord word of 2g basis loops
    (``SurfaceHomology._chord_word``): its rows P, with P @ G @ P^T == S
    for the word's interlace form G, the inverse P^-1, and the rows
    packed at ``size``-byte digits (``_Packing``), packed[i] the int of
    P[i].

    It is the symplectic reduction of G, taken on the word itself.  Step
    k settles rows a = 2k and b = 2k + 1.  Each row left began as the
    unit vector e_c of its chord c (``order``), and pairs with another
    row left as their chords cross in the current word: +1 when the
    other chord's tail, and not its head, lies strictly inside the arc
    from c's tail to c's head; -1 the other way round.  The first later
    row whose chord crosses a's moves to b, negated if that crossing is
    -1.  Every later row i then takes, with q = (a, i) and c = (i, b),
        P[i] <- P[i] - q * P[b] - c * P[a],
    which pairs it to zero with a and b, and the handle (a, b) slides
    off the word: a X b Y a' Z b' U becomes Z Y X U, whose interlace
    form is the reduced form (Lazarus, Pocchiola, Vegter and Verroust,
    SoCG 2001).  A chord of a one-face word crosses some other chord;
    a pivot chord that crosses none raises AssertionError.

    The word holds codes, not labels: label x is x mod 2n, the index
    the ``chord``, ``sign``, ``at`` and ``terms`` tables give it, and
    the other end of code k is 2n - 1 - k.  Up to 256 codes, rank 128,
    the word is bytes.  Then the codes of an arc whose other ends lie
    outside it are ``arc.translate(None, arc.translate(flip))``, with
    ``flip`` the table that sends each code to its other end, and those
    other ends are ``arc.translate(flip).translate(None, arc)``: no set
    is built.  A longer word is a list of codes, and the same two reads
    build sets.  The loop is the same for both.

    A row keeps its steps (``terms``: ``terms[c]`` the rows it
    subtracts, ``terms[2n - 1 - c]`` those it adds) and sums them once,
    when it settles, over the packed settled rows.  A row that took no
    step is a slice of a template.  Every entry of P is -1, 0 or 1, so
    digits of any width hold every row:

    Lemma (the slide).  In a X b Y a' Z b' U with <a, b> = +1, any two
    other chords x and y cross in Z Y X U with the sign
        <x, y> + <a, x> <y, b> - <x, b> <a, y>.
    The sign depends only on where the four ends of x and y fall among
    X, Y, Z and U, so a finite check decides the lemma (the tests check
    all 840 placements), and it needs no one-face word.

    Invariant.  Fix a column c, and add a virtual chord c* with one end
    just before c's tail and the other just after it.  Then <c*, c> = 1
    and c* crosses no other chord: column c of the starting rows, the
    identity.  Each end of c* rides in its segment through every slide;
    the reduction never reads c*, so its pivots do not change.  Entry c
    of a step,
        P[i][c] <- P[i][c] - <a, i> P[b][c] - <i, b> P[a][c],
    is the lemma for the pair (c*, i), so entry c of every row left
    stays <c*, its chord> in the current word.  The pivot row b takes
    the sign s, and b's orientation flips with it, so P[b] keeps it as
    well.  When row x settles, P[x][c] is a crossing sign: -1, 0 or 1.

    So each settled row is exact at ``size``-byte digits, and so is any
    integer sum of them, as packing is linear.  Whatever digits the
    partial sums pass through, the final digits are -1, 0 or 1, and
    ``unpack_one`` reads them exactly: no bound is needed.  packed[i] is
    then the packing of P[i] itself, so two rows, or a row and a class
    packed at the same width, are equal exactly when their ints are.

    The form row P[x] @ G of a settled row is its chord's crossings when
    it settles: the rows settled before pair to zero with it, and every
    row left pairs with it as the chords cross.  As S^-1 = -S and
    G^T = -G, P^-1 = (P @ G)^T @ S, whose columns a and b are -P[b] @ G
    and P[a] @ G: each step writes them from the crossings, and P^-1 is
    their transpose, with no product.
    """
    n = len(word) // 2
    last = 2 * n - 1  # code k's other end is last - k
    word = [x % (2 * n) for x in word]
    # ends_inside(arc): the codes in arc of the chords with one end in
    # it; ends_outside(arc): the other ends of those chords
    if last < 256:
        flip = bytes(range(last, -1, -1)) + bytes(range(last + 1, 256))
        word = bytes(word)
        ends_inside = lambda arc: arc.translate(None, arc.translate(flip))
        ends_outside = lambda arc: arc.translate(flip).translate(None, arc)
    else:
        ends_inside = lambda arc: set(arc).difference(map(last.__sub__, arc))
        ends_outside = lambda arc: set(map(last.__sub__, arc)).difference(arc)
    chord = [*range(n), *range(n - 1, -1, -1)]  # code -> its chord
    sign = [1] * n + [-1] * n  # code -> +1 at a tail, -1 at a head
    order = list(range(n))  # row -> the chord it began as
    at = chord[:]  # code -> the row of its chord
    terms = [[] for _ in range(2 * n)]
    plus, minus = _unit_templates(n)
    unpack = _Packing(size, n).unpack_one
    rows, packed, F = [], [], []

    def settle(c, s):
        """Append the row of chord c, times s, to the settled rows."""
        add, sub = terms[last - c], terms[c]
        if not (add or sub):
            rows.append(plus[n - c:2 * n - c] if s > 0 else minus[n - c:2 * n - c])
            packed.append(s << 8 * size * c)
            return
        p = (1 << 8 * size * c) + sum(map(packed.__getitem__, add)) - sum(map(packed.__getitem__, sub))
        p = p if s > 0 else -p
        rows.append(unpack(p))
        packed.append(p)

    for a in range(0, n, 2):
        b, ca = a + 1, order[a]
        i = word.index(ca)
        word = word[i:] + word[:i]
        m, j = len(word), word.index(last - ca)
        # the word from a's tail is a X b Y a' Z b' U.  cross: the codes
        # inside a's arc of the chords that cross a, read off the shorter
        # side of a
        if 2 * j <= m:
            cross = ends_inside(word[1:j])
        else:
            cross = ends_outside(word[j + 1:])
        if not cross:
            raise AssertionError(f"pivot chord {ca} crosses no other chord")
        t = min(map(at.__getitem__, cross))
        cb = order[t]
        if t != b:
            order[b], order[t] = cb, order[b]
            at[cb] = at[last - cb] = b
            at[order[t]] = at[last - order[t]] = t
        s = 1 if cb in cross else -1
        settle(ca, 1)
        settle(cb, s)
        # b's ends at u inside a's arc and at v past a'.  crossed: the
        # codes outside them, in U a X, of the chords that cross b
        inner = cb if s > 0 else last - cb
        u, v = word.index(inner, 1, j), word.index(last - inner, j + 1)
        if m < 2 * (v - u):
            crossed = ends_inside(word[v + 1:] + word[:u])
        else:
            crossed = ends_outside(word[u + 1:v])
        word = word[j + 1:v] + word[u + 1:j] + word[1:u] + word[v + 1:]
        # -P[b] @ G and P[a] @ G, columns a and b of P^-1, and the step
        # of each later row, whose code y names the list of ``terms``
        # that takes the row
        Fa, Fb = [0] * n, [0] * n
        for y in cross:
            terms[y].append(b)
            Fa[chord[y]] = sign[y]
        for y in crossed:
            terms[y].append(a)
            Fb[chord[y]] = sign[y]
        F += (Fb, Fa)
    return tuple(rows), tuple(zip(*F)), packed


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
                       off prefix sums over the chord word of the L
                       loops (``_chord_word``), where the sum up to a
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
    read, unless ``cotree_basis`` put it there; one sum is always one
    class object.
    """

    def __init__(self, R):
        self.twin = twin = R.twin
        self.vertex_of = R.vertex_of
        self._walk_class = {}
        self._cotree = None  # cotree_basis, built by its first call
        self._root_paths = None  # vertex -> tree darts from the root, by _tree_path
        self._rotation = R.rotation  # read by _chord_word only
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
        the chord word (``_chord_word``).  Loop f crosses loop e when
        exactly one end of f lies strictly inside the arc of the word
        from e's tail to its head: +1 when that end is f's tail.
        ends[p] packs, one signed byte per loop f, [tail_f < p] -
        [head_f < p], and ends[2n] is 0, so on either side of the word's
        cut the arc's row is ends[head_e] - ends[tail_e + 1], every entry
        -1, 0 or 1."""
        word = self._chord_word()
        n = self.rank
        form = _Packing(1, n)
        ends = list(accumulate([1 << 8 * x if x >= 0 else -1 << 8 * ~x for x in word], initial=0))
        pos = [0] * (2 * n)
        for p, x in enumerate(word):
            pos[x] = p
        return tuple([form.unpack_one(ends[pos[~i]] - ends[pos[i] + 1]) for i in range(n)])

    def _chord_word(self):
        """The ends of the basis loops in their order around the
        contracted tree T: the i-th loop e reads i at its tail twin[e]
        and ~i at its head e.  The walk around T, stepping across each
        tree dart and past every other one, is one cycle through every
        dart (``_orbits``): the rotation at the one vertex left."""
        twin, parent = self.twin, self.parent
        tree = {d for p in parent.values() if p is not None for d in (p, twin[p])}
        nxt = [None] * len(twin)
        for cyc in self._rotation:
            for i, d in enumerate(cyc):
                nxt[cyc[i - 1]] = d
        (around,) = _orbits([nxt[twin[d]] if d in tree else nxt[d] for d in range(len(twin))])
        label = {}
        for i, e in enumerate(self.basis_edges):
            label[twin[e]], label[e] = i, ~i
        return [label[d] for d in around if d in label]

    # -- coordinates ------------------------------------------------------

    def class_of_chain(self, darts):
        """H1 class of the 1-chain that runs once along each given dart.

        Any chain is accepted, so a face boundary (which may use an edge
        twice) maps to zero; tree darts contribute nothing.  The darts'
        classes are summed as tuples, so a chain of any length is exact.
        A dart is an int: ``1.0`` and ``True`` equal the dict key 1 but
        are refused, and so is a chain that is not iterable."""
        try:
            darts = iter(darts)
        except TypeError:
            raise ValidationError(f"chain {darts!r} is not an iterable of darts") from None
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

        A walk object that this surface built and kept in its table of
        walks is valid by construction, and its class is read from the
        table in one lookup.  Every other walk, an equal tuple built
        afresh included, is validated first (``(True,)`` equals ``(1,)``
        but is refused), and its class is the sum of its darts'."""
        try:
            kept = self._walk_class.get(walk)
        except TypeError:  # a list, or a dart that is unhashable, so no int
            kept = None
        if kept is not None and kept.darts is walk:
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
    and keeps each walk's class for ``class_of_walk``; the i-th basis
    loop's, e_i by construction, is row i of the identity unless read
    before.
    """
    H = homology(R)
    if H._cotree is None:
        for e, row in zip(H.basis_edges, identity(H.rank)):
            H._class.setdefault(H._packed[e], row)
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
        """A class in the surface's own coordinates, an iterable of
        ints, in this basis, mod ``modulus`` when it is a prime.  A class
        that is not iterable, or an entry that is not exactly an int (a
        bool included), raises ValidationError; a wrong length raises
        LatticeError."""
        _check_modulus(modulus)
        try:
            entries = iter(class_vec)
        except TypeError:
            raise ValidationError(f"class {class_vec!r} is not an iterable of ints") from None
        vec = tuple(entries)
        for x in vec:
            if type(x) is not int:
                raise ValidationError(f"class entry {x!r} is not an int")
        coords = vec_mat(vec, self.inverse)
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
    F @ B^T and the inverse of B (``_inverse_from_form_rows``).  A
    count of basis names other than the rank, or of walks other than
    the declared rows, raises LatticeError.
    """
    H = homology(R)
    declared = as_int_matrix(declared_rows)
    if not declared or not declared[0]:
        raise LatticeError("declared table is empty")
    m = len(declared[0])
    if m != H.rank:
        raise LatticeError(f"table width {m} != homology rank {H.rank}")
    names, walks = tuple(basis_names), tuple(walks)
    if len(names) != m:
        raise LatticeError(f"{len(names)} basis names for homology rank {m}")
    if len(walks) != len(declared):
        raise LatticeError(f"{len(walks)} walks for {len(declared)} declared rows")
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
    walk_map = tuple((basis_walks or {}).get(nm) for nm in names)
    inverse = _inverse_from_form_rows(F)
    return ReferenceBasis(name, names, B, inverse, pairing, walk_map)


def symplectic_basis(R):
    """A canonical homology basis: pairs (a_i, b_i) with <a_i, b_i> = 1
    and every other pairing 0, so the intersection matrix is exactly the
    standard block form S.

    Each call reduces the chord word of R's basis loops
    (``_reduce_word``), which gives the rows P, with P @ G @ P^T == S for
    the intersection form G, and P^-1 read off the word; G itself is
    never built.  A basis row's walk is the first cotree walk whose class
    is +-P[i], reversed for -P[i].  The reduction packs P at the digits
    of the surface's packed dart classes, where a row and a class are
    equal exactly when their ints are, so one dict from each packed row
    to its index finds the row of a class p, and the row of -p.
    """
    if R.boundary_faces:
        raise ValidationError("symplectic basis requires a closed surface")
    H = homology(R)
    P, inverse, packed = _reduce_word(H._chord_word(), H._class.size)
    g = H.rank // 2
    # attach representative walks where a basis row is the class of a
    # fundamental cycle, or of one reversed: the first such cycle.  P is
    # invertible, so no row is 0 or minus another, and a walk matches at
    # most one row either way
    row_of = {p: i for i, p in enumerate(packed)}
    walks = [None] * len(P)
    for e, (walk, _) in zip(H.fundamental_edges, cotree_basis(R)):
        p = H._packed[e]
        i, j = row_of.get(p), row_of.get(-p)
        if i is not None:
            if walks[i] is None:
                walks[i] = walk
        elif j is not None and walks[j] is None:
            walks[j] = tuple(R.twin[d] for d in reversed(walk))
    names = tuple(nm for i in range(1, g + 1) for nm in (f"a{i}", f"b{i}"))
    return ReferenceBasis("symplectic", names, P, inverse, standard_symplectic(g), tuple(walks))


# ---------------------------------------------------------------------------
# the constructive completion behind curve systems with connected complement

def complete_system_cotree(R, system, modulus=0):
    """Extend a curve system's classes to a full homology basis.

    The system's classes must form a partial basis (which they do
    whenever the complement of the system is connected); they are then
    completed greedily by fundamental cycles of a spanning tree.
    Returns one (walk, class) pair per basis element, the system first.
    A system that is not iterable raises ValidationError.
    """
    _check_modulus(modulus)
    try:
        system = iter(system)
    except TypeError:
        raise ValidationError(f"system {system!r} is not an iterable of walks") from None
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
