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


def interlace_form(word):
    """The interlace form of a chord word, a list in which chord c reads
    c at its tail and ~c at its head, as nested dicts: G[e][f] is +1
    when f's tail lies strictly inside the arc from e's tail to e's head
    and f's head does not, -1 the other way round, and 0 otherwise (the
    sign of ``SurfaceHomology.pairing_matrix``)."""
    pos = {x: i for i, x in enumerate(word)}
    chords = sorted(x for x in word if x >= 0)
    L = len(word)

    def inside(e, p):
        return 0 < (p - pos[e]) % L < (pos[~e] - pos[e]) % L

    return {e: {f: inside(e, pos[f]) - inside(e, pos[~f]) for f in chords} for e in chords}


def reduced_form(G, a, b):
    """The form that one rank-2 step of the symplectic reduction leaves
    on the chords of the nested-dict form G other than a and b, where
    G[a][b] is +-1: with b' = G[a][b] * b, each x becomes
    x - <x, b'> a + <x, a> b', and
    G'[x][y] = G[x][y] - G[x][a] <y, b'> + <x, b'> G[y][a]."""
    e = G[a][b]
    rest = [x for x in G if x not in (a, b)]
    return {x: {y: G[x][y] - G[x][a] * e * G[y][b] + e * G[x][b] * G[y][a] for y in rest}
            for x in rest}
