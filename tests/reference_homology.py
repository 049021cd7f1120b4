"""The Smith-form first homology that ``surfhom.homology`` replaced, kept
as the oracle for ``tests/test_homology_differential.py``.

Cycles are coordinatized by the fundamental cycles of a BFS spanning
tree (one per non-tree edge); the face relations are quotiented out
through a Smith normal form, and the interleaving form of the
fundamental loops in the contracted rotation is pushed to the quotient.
Only the vertex table is computed here, since ``surfhom.ribbon`` no
longer offers the cached one this code read.
"""

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
    smith_normal_form,
    vec_mat,
)


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
