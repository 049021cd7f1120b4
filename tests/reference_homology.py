"""The Smith-form first homology that ``surfhom.homology`` replaced, and
the standalone symplectic reduction, by full row and column operations
with a Euclid pass, that ``symplectic_basis`` once ran, kept as the
oracles for ``tests/test_homology_differential.py``, together with
the intersection form built entry by entry (``interlace_form``) that
the library's prefix sums replaced, and the strand rule that counted
the crossings of two walks at their shared vertices before
``algebraic_intersection`` read the form (``algebraic_intersection``).

Cycles are coordinatized by the fundamental cycles of a BFS spanning
tree (one per non-tree edge); the face relations are quotiented out
through a Smith normal form, and the interleaving form of the
fundamental loops in the contracted rotation is pushed to the quotient.
Only the vertex table is computed here, since ``surfhom.ribbon`` no
longer offers the cached one this code read.
"""

from surfhom.homology import ReferenceBasis, cotree_basis, homology, standard_symplectic
from surfhom.ribbon import (
    ValidationError,
    edge_of_dart,
    edges,
    trace_faces,
    validate_walk,
)
from surfhom.zlattice import (
    as_int_matrix,
    det_int,
    identity,
    matmul,
    transpose,
    vec_mat,
)

from .reference_zlattice import smith_normal_form


def _vertex_table(R):
    vof = [None] * len(R.twin)
    for v, cyc in enumerate(R.rotation):
        for d in cyc:
            vof[d] = v
    return tuple(vof)


def _interleave_sign(pos, L, a1, b1, a2, b2):
    """+1 for counterclockwise order (a1, a2, b1, b2), -1 for the mirror,
    0 when the strand (a2,b2) does not separate (a1,b1)."""
    base = pos[a1]
    qa2 = (pos[a2] - base) % L
    qb1 = (pos[b1] - base) % L
    qb2 = (pos[b2] - base) % L
    if qa2 < qb1 < qb2:
        return 1
    if qb2 < qb1 < qa2:
        return -1
    return 0


def algebraic_intersection(R, w1, w2):
    """Signed crossing count of two walks meeting only at vertices.

    At every shared vertex each walk contributes strands (in-dart,
    out-dart); a strand of w2 crosses one of w1 positively when the four
    darts interleave counterclockwise as (in1, in2, out1, out2).
    """
    validate_walk(R, w1)
    validate_walk(R, w2)
    e1 = {edge_of_dart(R, d) for d in w1}
    e2 = {edge_of_dart(R, d) for d in w2}
    if e1 & e2:
        raise ValidationError("walks share an edge; subdivide to make them transverse")
    vof = _vertex_table(R)

    def strands(w):
        out = {}
        m = len(w)
        for i in range(m):
            d_in, d_out = w[i], w[(i + 1) % m]
            out.setdefault(vof[d_out], []).append((R.twin[d_in], d_out))
        return out

    s1, s2 = strands(w1), strands(w2)
    total = 0
    for v, lst1 in s1.items():
        if v not in s2:
            continue
        cyc = R.rotation[v]
        pos = {d: i for i, d in enumerate(cyc)}
        L = len(cyc)
        for a1, b1 in lst1:
            for a2, b2 in s2[v]:
                total += _interleave_sign(pos, L, a1, b1, a2, b2)
    return total


def _spanning_tree(R):
    """BFS tree from vertex 0; returns (tree edge min-darts, parent darts).

    parent[v] is the dart at v's parent whose edge leads to v.
    """
    vof = _vertex_table(R)
    parent = {0: None}
    tree = []
    queue = [0]
    while queue:
        v = queue.pop(0)
        for d in R.rotation[v]:
            w = vof[R.twin[d]]
            if w not in parent:
                parent[w] = d
                tree.append(edge_of_dart(R, d))
                queue.append(w)
    if len(parent) != len(R.rotation):
        raise ValidationError("graph is not connected")
    return tree, parent


def _tree_path(R, parent, u, v):
    """Dart walk from u to v inside the spanning tree."""
    vof = _vertex_table(R)

    def to_root(x):
        out = []
        while parent[x] is not None:
            d = parent[x]
            out.append(d)  # dart from parent toward x
            x = vof[d]
        return out  # path root->...: reversed below

    up_u = to_root(u)  # darts pointing from ancestors toward u
    up_v = to_root(v)
    while up_u and up_v and up_u[-1] == up_v[-1]:
        up_u.pop()
        up_v.pop()
    # from u up to the common ancestor, then down to v
    walk = [R.twin[d] for d in up_u] + list(reversed(up_v))
    return tuple(walk)


def _contracted_rotation(R, tree_edges):
    """Cyclic dart order at the single vertex after contracting the tree."""
    rot = {v: list(cyc) for v, cyc in enumerate(R.rotation)}
    vof = list(_vertex_table(R))
    for e in tree_edges:
        d, t = e, R.twin[e]
        u, v = vof[d], vof[t]
        if u == v:
            raise AssertionError("tree edge became a loop")
        i = rot[u].index(d)
        j = rot[v].index(t)
        seq = rot[v][j + 1:] + rot[v][:j]
        rot[u] = rot[u][:i] + seq + rot[u][i + 1:]
        for dd in seq:
            vof[dd] = u
        del rot[v]
    (order,) = rot.values()
    return tuple(order)


class SurfaceHomology:
    """Cycle coordinates, H1 quotient and intersection form of a surface."""

    def __init__(self, R):
        self.R = R
        tree, parent = _spanning_tree(R)
        self.tree_edges = tuple(tree)
        self.parent = parent
        tset = set(tree)
        self.fundamental_edges = tuple(e for e in edges(R) if e not in tset)
        self._fund_pos = {e: i for i, e in enumerate(self.fundamental_edges)}
        r = len(self.fundamental_edges)
        self.cycle_rank = r

        # face relations in fundamental coordinates
        internal = [f for f in trace_faces(R) if f[0] not in R.boundary_faces]
        rels = [self._fund_coords_of_darts(f) for f in internal]
        rels = [row for row in rels if any(row)]
        if rels:
            snf = smith_normal_form(as_int_matrix(rels))
            if any(d != 1 for d in snf.invariant_factors[: snf.rank]):
                raise AssertionError("torsion in a surface quotient")
            self._s = snf.rank
            self._V = snf.V
            self._Vi = snf.V_inv
        else:
            self._s = 0
            self._V = identity(r) if r else ()
            self._Vi = identity(r) if r else ()
        self.rank = r - self._s

        # interleaving form on fundamental loops, pushed to the quotient
        order = _contracted_rotation(R, self.tree_edges) if len(R.rotation) > 1 \
            else R.rotation[0]
        pos = {d: i for i, d in enumerate(order)}
        L = len(order)
        J0 = [
            [
                _interleave_sign(pos, L, R.twin[e], e, R.twin[f], f)
                for f in self.fundamental_edges
            ]
            for e in self.fundamental_edges
        ]
        self._J0 = as_int_matrix(J0)
        if r:
            full = matmul(matmul(self._Vi, self._J0), [list(c) for c in zip(*self._Vi)])
            for i in range(self._s):
                if any(full[i]):
                    raise AssertionError("intersection form does not vanish on boundaries")
            self.pairing_matrix = tuple(row[self._s:] for row in full[self._s:])
        else:
            self.pairing_matrix = ()
        if not R.boundary_faces and self.rank:
            if abs(det_int(self.pairing_matrix)) != 1:
                raise AssertionError("intersection form of a closed surface must be unimodular")

    # -- coordinates ------------------------------------------------------

    def _fund_coords_of_darts(self, darts):
        row = [0] * len(self.fundamental_edges)
        for d in darts:
            e = edge_of_dart(self.R, d)
            i = self._fund_pos.get(e)
            if i is not None:
                row[i] += 1 if d == e else -1
        return tuple(row)

    def class_of_walk(self, walk):
        """H1 class of a closed walk, in the surface's own coordinates."""
        validate_walk(self.R, walk)
        c = self._fund_coords_of_darts(walk)
        return vec_mat(c, self._V)[self._s:] if self.cycle_rank else ()

    def fundamental_class(self, e):
        """Class of the fundamental cycle attached to non-tree edge e."""
        c = tuple(int(f == e) for f in self.fundamental_edges)
        return vec_mat(c, self._V)[self._s:]

    def fundamental_walk(self, e):
        vof = _vertex_table(self.R)
        t = self.R.twin[e]
        path = _tree_path(self.R, self.parent, vof[t], vof[e])
        return validate_walk(self.R, (e,) + path)

    def pair(self, c1, c2):
        """Intersection number of two classes."""
        return sum(
            a * self.pairing_matrix[i][j] * b
            for i, a in enumerate(c1)
            if a
            for j, b in enumerate(c2)
            if b
        )


# ---------------------------------------------------------------------------
# the library's intersection form as it was built before its prefix sums

def interlace_form(R, H):
    """The pairing matrix of the library's homology H of R, built as the
    library built it before its prefix sums: for each basis loop e an
    indicator list over the whole contracted ring, 1 strictly inside the
    arc from twin[e] to e, and one comprehension over every basis loop f
    reading the indicator at both of f's ends."""
    twin = R.twin
    tree = {d for p in H.parent.values() if p is not None for d in (p, twin[p])}
    nxt = {}
    for cyc in R.rotation:
        nxt.update(zip(cyc, cyc[1:] + cyc[:1]))
    ring = []
    if H.fundamental_edges:
        d = start = H.fundamental_edges[0]
        while True:
            ring.append(d)
            d = nxt[d]
            while d in tree:
                d = nxt[twin[d]]
            if d == start:
                break
    pos = {d: i for i, d in enumerate(ring)}
    L = len(ring)
    heads = [pos[e] for e in H.basis_edges]
    tails = [pos[twin[e]] for e in H.basis_edges]
    rows = []
    for s, t in zip(tails, heads):
        if s < t:
            inside = [0] * (s + 1) + [1] * (t - s - 1) + [0] * (L - t)
        else:
            inside = [1] * t + [0] * (s - t + 1) + [1] * (L - s - 1)
        rows.append(tuple([inside[a] - inside[b] for a, b in zip(tails, heads)]))
    return tuple(rows)


# ---------------------------------------------------------------------------
# the symplectic basis, reduced from the library's intersection form by
# full row and column operations and checked against S at the end

def _symplectic_inverse(P, G):
    """Exact inverse of a basis P whose pairing P @ G @ P^T is the
    standard form S: as S^-1 = -S, the inverse is G @ P^T @ (-S), and
    multiplying by -S maps each column pair (u, v) to (v, -u)."""
    return tuple(
        tuple(x for u, v in zip(row[::2], row[1::2]) for x in (v, -u))
        for row in matmul(G, transpose(P))
    )


def symplectic_basis(R, name="symplectic"):
    """A canonical homology basis via integer symplectic reduction.

    The output's intersection matrix is exactly the standard block form
    S (pairs (a_i, b_i) with <a_i, b_i> = 1).  The reduction checks
    P @ G @ P^T == S for the basis rows P and the surface's pairing G,
    so P^-1 = G @ P^T @ (-S) exactly and no Smith form is needed to
    invert P.
    """
    if R.boundary_faces:
        raise ValidationError("symplectic basis requires a closed surface")
    H = homology(R)
    n = H.rank
    if n % 2:
        raise AssertionError("odd first Betti number on a closed surface")
    Pm, pairing = symplectic_reduction(H.pairing_matrix)
    # attach representative walks where a basis row is a fundamental cycle
    by_class = {}
    for walk, cls in cotree_basis(R):
        by_class.setdefault(cls, walk)
        by_class.setdefault(tuple(-x for x in cls), tuple(R.twin[d] for d in reversed(walk)))
    names = []
    walks = []
    for i in range(n // 2):
        names += [f"a{i + 1}", f"b{i + 1}"]
    for row in Pm:
        walks.append(by_class.get(row))
    inverse = _symplectic_inverse(Pm, H.pairing_matrix)
    return ReferenceBasis(name, tuple(names), Pm, inverse, pairing, tuple(walks))


def symplectic_reduction(form):
    """(P, P @ form @ P^T) for the basis rows P of the reduction; raises
    AssertionError unless the result is the standard form S."""
    n = len(form)
    G = [list(r) for r in form]
    P = [list(r) for r in identity(n)]

    def row_op(i, j, q):  # basis[i] += q * basis[j]
        P[i] = [a + q * b for a, b in zip(P[i], P[j])]
        G[i] = [a + q * b for a, b in zip(G[i], G[j])]
        for r in G:
            r[i] = r[i] + q * r[j]

    def swap(i, j):
        P[i], P[j] = P[j], P[i]
        G[i], G[j] = G[j], G[i]
        for r in G:
            r[i], r[j] = r[j], r[i]

    def negate(i):
        P[i] = [-a for a in P[i]]
        G[i] = [-a for a in G[i]]
        for r in G:
            r[i] = -r[i]

    for k in range(0, n, 2):
        while True:
            j = min(
                (jj for jj in range(k + 1, n) if G[k][jj]),
                key=lambda jj: (abs(G[k][jj]), jj),
                default=None,
            )
            if j is None:
                raise AssertionError("degenerate intersection form")
            if j != k + 1:
                swap(j, k + 1)
            done = True
            for jj in range(k + 2, n):
                if G[k][jj]:
                    q = G[k][jj] // G[k][k + 1]
                    row_op(jj, k + 1, -q)
                    if G[k][jj]:
                        done = False
            if done:
                break
        if G[k][k + 1] < 0:
            negate(k + 1)
        if G[k][k + 1] != 1:
            raise AssertionError("form is not unimodular")
        for i in range(k + 2, n):
            if G[i][k + 1]:
                row_op(i, k, -G[i][k + 1])
            if G[i][k]:
                row_op(i, k + 1, G[i][k])

    Pm = tuple(map(tuple, P))
    pairing = tuple(map(tuple, G))
    if pairing != standard_symplectic(n // 2):
        raise AssertionError("symplectic reduction failed")
    return Pm, pairing
