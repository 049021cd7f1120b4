"""Shared generators for test suites: canonical gluing words and small
random ribbon graphs, seeded or drawn by Hypothesis."""

from fractions import Fraction

from hypothesis import strategies as st

from surfhom.minima import WeightedGraph
from surfhom.ribbon import RibbonGraph


def canonical_word(g):
    """The gluing word a1 b1 a1' b1' ... of the genus-g surface."""
    return " ".join(f"a{h} b{h} a{h}' b{h}'" for h in range(1, g + 1))


def random_ribbon_graph(rng, max_edges=8, min_edges=2, vertices=None):
    """A random connected closed ribbon graph.

    Built from a random spanning tree plus random extra edges, with a
    shuffled rotation at every vertex.
    """
    while True:
        V = vertices if vertices is not None else rng.randrange(1, 5)
        E = rng.randrange(max(min_edges, V - 1), max_edges + 1)
        if E < V - 1 or (V == 1 and E == 0):
            continue
        darts_at = [[] for _ in range(V)]
        twin = [None] * (2 * E)
        nd = 0

        def new_edge(u, v):
            nonlocal nd
            a, b = nd, nd + 1
            twin[a], twin[b] = b, a
            darts_at[u].append(a)
            darts_at[v].append(b)
            nd += 2

        order = list(range(1, V))
        rng.shuffle(order)
        for i, v in enumerate(order):
            new_edge(rng.choice([0] + order[:i]), v)
        for _ in range(E - (V - 1)):
            new_edge(rng.randrange(V), rng.randrange(V))
        for lst in darts_at:
            rng.shuffle(lst)
        try:
            return RibbonGraph(tuple(tuple(l) for l in darts_at), tuple(twin))
        except ValueError:
            continue


@st.composite
def tiny_weighted_graphs(draw):
    """A connected closed ribbon graph with at most 4 edges, positive
    lengths over small denominators and a positive bound."""
    V = draw(st.integers(1, 3))
    E = draw(st.integers(max(1, V - 1), 4))
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, V)]
    ends += [(draw(st.integers(0, V - 1)), draw(st.integers(0, V - 1))) for _ in range(E - V + 1)]
    rotation = [[] for _ in range(V)]
    twin = []
    for k, (u, v) in enumerate(ends):
        twin += [2 * k + 1, 2 * k]
        rotation[u].append(2 * k)
        rotation[v].append(2 * k + 1)
    rotation = tuple(tuple(draw(st.permutations(darts))) for darts in rotation)
    lengths = draw(st.lists(
        st.builds(Fraction, st.integers(1, 12), st.sampled_from((1, 2, 3, 4, 7, 8, 12))),
        min_size=E, max_size=E,
    ))
    G = WeightedGraph(RibbonGraph(rotation, tuple(twin)), lengths)
    bound = sum(G.edge_length) * Fraction(draw(st.integers(1, 20)), 16)
    return G, bound
