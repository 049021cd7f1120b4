"""Differential test: the tree-cotree ``SurfaceHomology`` against the
Smith-form one kept in ``reference_homology``, on seeded random closed,
bordered and one-vertex surfaces.

The two choose different bases of H1, so they must agree up to one
unimodular change of basis A, read off as the old classes of the new
basis loops: every old class is the new class times A, and A carries
the old pairing to the new one.
"""

import random

import pytest

from surfhom.homology import SurfaceHomology
from surfhom.ribbon import RibbonGraph, schema_to_ribbon, trace_faces
from surfhom.zlattice import det_int, matmul, transpose, vec_mat

from . import reference_homology as ref
from .util import random_ribbon_graph

PER_KIND = 300


def one_vertex(rng):
    """A random rotation of 2..7 loops at a single vertex."""
    E = rng.randrange(2, 8)
    darts = list(range(2 * E))
    rng.shuffle(darts)
    return RibbonGraph((tuple(darts),), tuple(d ^ 1 for d in range(2 * E)))


def gluing_word(rng):
    """The polygon glued by a random orientable word of 2..6 labels."""
    n = rng.randrange(2, 7)
    sides = [(str(i), False) for i in range(n)] + [(str(i), True) for i in range(n)]
    rng.shuffle(sides)
    return schema_to_ribbon(tuple(sides))


def bordered(rng):
    """A random graph with a random nonempty set of faces marked as
    boundary walks (possibly all of them)."""
    R = random_ribbon_graph(rng, max_edges=9)
    faces = [f[0] for f in trace_faces(R)]
    marked = rng.sample(faces, rng.randrange(1, len(faces) + 1))
    return RibbonGraph(R.rotation, R.twin, marked)


KINDS = {
    "closed": lambda rng: random_ribbon_graph(rng, max_edges=10),
    "bordered": bordered,
    "one-vertex": one_vertex,
    "gluing-word": gluing_word,
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_tree_cotree_matches_smith_form_homology(kind):
    rng = random.Random(f"homology-{kind}")
    for _ in range(PER_KIND):
        R = KINDS[kind](rng)
        new, old = SurfaceHomology(R), ref.SurfaceHomology(R)
        assert new.rank == old.rank, R
        assert new.fundamental_edges == old.fundamental_edges, R
        if not new.rank:
            continue
        A = tuple(old.class_of_walk(new.fundamental_walk(e)) for e in new.basis_edges)
        assert abs(det_int(A)) == 1, R
        for e in new.fundamental_edges:
            assert vec_mat(new.fundamental_class(e), A) == old.fundamental_class(e), R
        assert matmul(matmul(A, old.pairing_matrix), transpose(A)) == new.pairing_matrix, R
