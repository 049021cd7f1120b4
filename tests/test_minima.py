import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfhom import minima
from surfhom.catalog import candidate_pool, load_example
from surfhom.homology import class_vector, homology
from surfhom.minima import (
    MinimaTrace,
    WeightedCycle,
    WeightedGraph,
    compare_bases,
    enumerate_cycles,
    is_globally_minimal,
    is_straight_cycle,
    make_cycle,
    successive_minima_I,
    successive_minima_II,
    verify_lemma_procI_minimal,
)
from surfhom.ribbon import RibbonGraph, ValidationError, schema_to_ribbon, surface_invariants
from surfhom.zlattice import LatticeError, as_int_matrix, det_int, subgroup_index

from . import reference_minima as ref
from .util import random_ribbon_graph


def unit_weights(R):
    return WeightedGraph(R, (Fraction(1),) * R.n_edges)


def torus_graph():
    return unit_weights(schema_to_ribbon("a b a' b'"))


def attach_all(G, cycles):
    H = homology(G.ribbon)
    return [c.with_class(H.class_of_walk(c.darts)) for c in cycles]


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_soul_curves_only():
    b = load_example("example2G")
    cycles = enumerate_cycles(b.weights, Fraction(2))
    assert len(cycles) == 4
    assert all(c.length == 2 for c in cycles)
    # nothing else below length 4 on this graph
    assert len(enumerate_cycles(b.weights, Fraction(7, 2))) == 4


def test_enumerate_genus4_spectrum():
    b = load_example("example4")
    pool = candidate_pool(b, Fraction(13, 12))
    assert tuple(c.name for c in pool) == tuple(f"u{k:02d}" for k in range(1, 11))
    assert [c.length for c in pool] == sorted(
        Fraction(200 + k, 200) for k in range(1, 11)
    )
    # the two three-edge loops exceed 13/12 but not 1.13
    wider = candidate_pool(b, Fraction(113, 100))
    extras = [c for c in wider if c.name is None]
    assert len(extras) == 2
    assert all(c.length == Fraction(2693, 2400) for c in extras)
    assert all(c.length > Fraction(13, 12) for c in extras)


def test_enumerate_single_loop_below_bound():
    R = RibbonGraph(((0, 1),), (1, 0))
    G = unit_weights(R)
    assert enumerate_cycles(G, Fraction(1, 2)) == ()
    assert len(enumerate_cycles(G, Fraction(1))) == 1


def test_enumerate_dedupes_rotations_and_reflections():
    G = torus_graph()
    cycles = enumerate_cycles(G, Fraction(2))
    keys = [c.key for c in cycles]
    assert len(keys) == len(set(keys))
    # a, b, and the two two-edge composites a*b and a*b^-1
    assert [c.length for c in cycles] == [1, 1, 2, 2]


# ---------------------------------------------------------------------------
# procedures

def test_procedure_I_on_soulG():
    b = load_example("example2G")
    pool = candidate_pool(b, Fraction(4))
    tr = successive_minima_I(pool, 0, 4)
    assert sorted(c.name for c in tr.selected) == ["alpha", "beta", "delta", "gamma"]
    assert subgroup_index([c.cls for c in tr.selected]) == 2
    # over the two-element field one systole is rejected as dependent
    # and a four-cycle completes the basis
    tr2 = successive_minima_I(pool, 2, 4)
    assert len(tr2.selected) == 4
    assert [c.length for c in tr2.selected] == [2, 2, 2, 4]
    rejected = [e.cycle.name for e in tr2.events if e.decision == "rejected"]
    assert set(rejected[:1]) < {"alpha", "beta", "gamma", "delta"}
    from surfhom.zlattice import _rank_mod_p

    assert _rank_mod_p([c.cls for c in tr2.selected], 2) == 4


def test_procedure_I_empty():
    tr = successive_minima_I((), 0, 4)
    assert tr.selected == () and tr.events == ()


def test_classes_of_width_zero_are_never_selected():
    # H1 = 0 has no basis vector: the empty basis is already complete
    pool = [WeightedCycle((k,), Fraction(1), (k,), ()) for k in range(2)]
    for modulus in (0, 2):
        assert successive_minima_I(pool, modulus, 1).selected == ()
        tr = successive_minima_II(pool, modulus, 1)
        assert tr.selected == () and tr.halting == "exhausted"
        assert successive_minima_II(pool, modulus).halting == "complete"


def test_empty_pool_checks_modulus():
    for proc in (successive_minima_I, successive_minima_II):
        with pytest.raises(LatticeError):
            proc((), 4)


def unread_candidates():
    """A candidate iterable that fails the test when it is read."""
    raise AssertionError("a candidate was read")
    yield


@pytest.mark.parametrize("proc", [successive_minima_I, successive_minima_II])
@pytest.mark.parametrize("value", [-1, 1.5, 2.0, "3", True, False, Fraction(2), Decimal(2)],
                         ids=["negative", "float", "integral float", "str", "True", "False",
                              "Fraction", "Decimal"])
def test_procedures_refuse_a_count_that_is_not_an_int_from_0(proc, value):
    # without this check True counted as 1 and selected a class, -1
    # halted at once as "reached-count", 1.5 selected 2 classes and "3"
    # raised a bare TypeError
    G = torus_graph()
    pool = attach_all(G, enumerate_cycles(G, Fraction(2)))
    name = "count" if proc is successive_minima_I else "target"
    for candidates in (pool, unread_candidates()):
        with pytest.raises(ValidationError, match=f"^{name} {re.escape(repr(value))} "):
            proc(candidates, 0, value)


def test_procedures_take_a_count_of_none_or_an_int_from_0():
    G = torus_graph()
    pool = attach_all(G, enumerate_cycles(G, Fraction(2)))
    for proc, halting in ((successive_minima_I, "reached-count"),
                          (successive_minima_II, "complete")):
        tr = proc(pool, 0, 0)
        assert tr.selected == () and tr.events == () and tr.halting == halting
        assert len(proc(pool, 0, 1).selected) == 1
        assert len(proc(pool, 0, None).selected) == 2
    assert successive_minima_II(pool, 0, None).halting == "complete"
    assert successive_minima_I(pool, 0, None).halting == "exhausted"


def test_procedure_II_example4():
    b = load_example("example4")
    pool = candidate_pool(b, Fraction(13, 12))
    tr = successive_minima_II(pool)
    assert tuple(c.name for c in tr.selected) == (
        "u01", "u02", "u03", "u04", "u05", "u06", "u07", "u10"
    )
    assert tuple(e.cycle.name for e in tr.events if e.decision == "rejected") == (
        "u08", "u09"
    )
    assert tr.halting == "complete"
    assert abs(det_int([c.cls for c in tr.selected])) == 1


def test_procedure_II_on_known_basis():
    G = torus_graph()
    cycles = attach_all(G, enumerate_cycles(G, Fraction(1)))
    tr = successive_minima_II(cycles)
    assert len(tr.selected) == 2
    assert [c.length for c in tr.selected] == [1, 1]


def test_procedures_coincide_over_fields():
    b = load_example("example4")
    pool = candidate_pool(b, Fraction(13, 12))
    for p in (2, 3):
        t1 = successive_minima_I(pool, p, 8)
        t2 = successive_minima_II(pool, p)
        assert [c.length for c in t1.selected] == [c.length for c in t2.selected]


def test_procedure_reruns_identical():
    b = load_example("example2G")
    pool = candidate_pool(b, Fraction(4))
    assert successive_minima_I(pool, 0, 4) == successive_minima_I(pool, 0, 4)


@pytest.mark.parametrize("value", [0.1, 2.5, 1.0, True, float("inf"), float("nan"), Decimal(1),
                                   "1", None])
def test_lengths_and_bounds_must_be_ints_or_fractions(value):
    # a float is not exact and a bool is not a length: both are refused,
    # as are inf, nan and anything else Fraction would read
    R = schema_to_ribbon("a b a' b'")
    with pytest.raises(ValidationError, match="is not an int or a Fraction"):
        WeightedGraph(R, (1, value))
    G = WeightedGraph(R, (1, Fraction(1, 2)))
    assert G.edge_length == (1, Fraction(1, 2))
    with pytest.raises(ValidationError, match="is not an int or a Fraction"):
        enumerate_cycles(G, value)
    assert enumerate_cycles(G, 1) == enumerate_cycles(G, Fraction(1))


def test_unsorted_candidates_rejected():
    G = torus_graph()
    cycles = attach_all(G, enumerate_cycles(G, Fraction(2)))
    with pytest.raises(ValidationError):
        successive_minima_I(list(reversed(cycles)), 0, 2)


def ordered_by_old_loop(candidates):
    """The per-candidate loop that checked the length order before: each
    length that is a new object is compared with the last new one."""
    last = None
    for c in candidates:
        if c.length is not last:
            if last is not None and c.length < last:
                return False
            last = c.length
    return True


def test_length_order_is_checked_per_distinct_length_object():
    G = torus_graph()
    base = attach_all(G, enumerate_cycles(G, Fraction(2)))[0]
    shared = {v: Fraction(v) for v in ("1/3", "1/2", "1")}
    rng = random.Random(20261018)
    refused = 0
    for _ in range(400):
        # equal lengths are the same object or distinct Fractions
        values = sorted(rng.choice(list(shared)) for _ in range(rng.randrange(1, 9)))
        if rng.random() < 0.5:
            i, j = rng.randrange(len(values)), rng.randrange(len(values))
            values[i], values[j] = values[j], values[i]
        lengths = [shared[v] if rng.random() < 0.5 else Fraction(v) for v in values]
        pool = [WeightedCycle(base.darts, l, base.key, base.cls) for l in lengths]
        if ordered_by_old_loop(pool):
            assert minima._check_candidates(pool)[0] == tuple(pool)
        else:
            refused += 1
            with pytest.raises(ValidationError, match="^candidates must be sorted by length$"):
                minima._check_candidates(pool)
    assert 50 < refused < 350


@pytest.mark.parametrize("lengths", [
    ("1/2", "1/2", "1/3"),          # equal, distinct objects, then smaller
    ("1", "1", "1", "1/2", "1"),    # a decrease inside a run of equal lengths
    ("1/3", "1", "1/2", "1/2"),
])
def test_unsorted_pools_of_distinct_equal_lengths_are_refused(lengths):
    G = torus_graph()
    base = attach_all(G, enumerate_cycles(G, Fraction(2)))[0]
    pool = [WeightedCycle(base.darts, Fraction(l), base.key, base.cls) for l in lengths]
    assert len({id(c.length) for c in pool}) == len(pool)
    with pytest.raises(ValidationError, match="^candidates must be sorted by length$"):
        successive_minima_I(pool, 0, 2)


def torus_basis_and_pool():
    """The unit torus's four cycles of length 2 and a basis among them."""
    G = torus_graph()
    pool = attach_all(G, enumerate_cycles(G, Fraction(2)))
    return successive_minima_II(pool).selected, pool


LENGTH_ENTRY_POINTS = {
    "successive_minima_I": lambda basis, pool: successive_minima_I(pool, 0, 2),
    "successive_minima_II": lambda basis, pool: successive_minima_II(pool),
    "is_globally_minimal": lambda basis, pool: is_globally_minimal(basis, pool),
    "verify_lemma_procI_minimal": lambda basis, pool: verify_lemma_procI_minimal(
        MinimaTrace((), basis, "reached-count", 0), pool),
    "sorted_lengths": lambda basis, pool: minima.sorted_lengths(pool),
    "compare_bases": lambda basis, pool: compare_bases(basis[:1], pool[:1]),
}


@pytest.mark.parametrize("entry", sorted(LENGTH_ENTRY_POINTS))
@pytest.mark.parametrize("value", [1.5, True, Decimal(2), float("nan"), "x", None],
                         ids=["float", "bool", "Decimal", "nan", "str", "None"])
def test_candidate_lengths_must_be_ints_or_fractions(entry, value):
    # the procedures, the certificates, sorted_lengths and compare_bases
    # refuse a length that is not exactly an int or a Fraction and name
    # it, as WeightedGraph does for edge lengths; the pool holds the bad
    # length first, and then a single cycle, which the certificates
    # decide without sorting
    basis, pool = torus_basis_and_pool()
    bad = pool[0]._replace(length=value)
    for cycles in ([bad] + pool[1:], [bad]):
        with pytest.raises(ValidationError, match=f"^cycle length {re.escape(repr(value))} "
                           "is not an int or a Fraction$"):
            LENGTH_ENTRY_POINTS[entry](basis, cycles)


def test_candidate_lengths_may_be_ints_and_fractions_together():
    basis, pool = torus_basis_and_pool()
    # the torus's lengths are whole numbers; every other one becomes an int
    mixed = [c._replace(length=int(c.length)) if i % 2 else c for i, c in enumerate(pool)]
    assert {type(c.length) for c in mixed} == {int, Fraction}
    for entry in sorted(LENGTH_ENTRY_POINTS):
        assert LENGTH_ENTRY_POINTS[entry](basis, mixed) == LENGTH_ENTRY_POINTS[entry](basis, pool)


CANDIDATE_ENTRY_POINTS = {
    **LENGTH_ENTRY_POINTS,
    "compare_bases": lambda basis, pool: compare_bases(pool, pool),
}


@pytest.mark.parametrize("entry", sorted(CANDIDATE_ENTRY_POINTS))
@pytest.mark.parametrize("value", [7, "ab", None, (1, 2)], ids=["int", "str", "None", "tuple"])
def test_a_candidate_that_is_not_a_cycle_is_refused(entry, value):
    # a candidate with no class or no length is named, wherever it
    # stands in the pool, as a malformed class or length is
    basis, pool = torus_basis_and_pool()
    for cycles in (pool + [value], [value] + pool, [value]):
        with pytest.raises(ValidationError, match=f"^candidate {re.escape(repr(value))} "
                           "is not a cycle$"):
            CANDIDATE_ENTRY_POINTS[entry](basis, cycles)


@pytest.mark.parametrize("entry", sorted(CANDIDATE_ENTRY_POINTS))
def test_a_pool_that_is_not_iterable_is_refused(entry):
    basis, _ = torus_basis_and_pool()
    with pytest.raises(ValidationError, match="^candidates None are not an iterable of cycles$"):
        CANDIDATE_ENTRY_POINTS[entry](basis, None)


@pytest.mark.parametrize("trace", [None, [], {}, (1, 2), "trace"],
                         ids=["None", "list", "dict", "tuple", "str"])
def test_a_trace_that_is_not_a_procedure_trace_is_refused(trace):
    # anything without selected and modulus is named, as a malformed pool
    # or basis is, not reported as a raw AttributeError
    _, pool = torus_basis_and_pool()
    match = f"^trace {re.escape(repr(trace))} is not a procedure trace$"
    with pytest.raises(ValidationError, match=match):
        verify_lemma_procI_minimal(trace, pool)


@pytest.mark.parametrize("value", [7, None], ids=["int", "None"])
def test_a_basis_cycle_that_is_not_a_cycle_is_refused(value):
    # the certificates name a non-cycle in the basis they test as well
    basis, pool = torus_basis_and_pool()
    bad = basis[:-1] + (value,)
    match = f"^candidate {re.escape(repr(value))} is not a cycle$"
    with pytest.raises(ValidationError, match=match):
        is_globally_minimal(bad, pool)
    with pytest.raises(ValidationError, match=match):
        verify_lemma_procI_minimal(MinimaTrace((), bad, "reached-count", 0), pool)


def test_compare_bases_takes_any_iterable():
    basis, pool = torus_basis_and_pool()
    assert compare_bases(iter(basis), iter(basis)) == compare_bases(basis, basis) == "equal"
    assert compare_bases(iter(pool[:2]), (c for c in pool[2:])) == \
        compare_bases(pool[:2], pool[2:])


fraction_values = st.one_of(
    st.integers(-6, 40),
    st.fractions(min_value=-6, max_value=40, max_denominator=24),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(fraction_values, st.booleans()), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_integer_length_keys_order_like_the_lengths(values, rng):
    # a length drawn again is the same object or an equal distinct one,
    # an int or a Fraction
    held = {}
    lengths = []
    for x, fresh in values:
        if x in held and not fresh:
            lengths.append(held[x])
        else:
            y = Fraction(x) if type(x) is int and rng.random() < 0.5 else x
            lengths.append(held.setdefault(x, y) if not fresh else y)
    rng.shuffle(lengths)
    ordered = sorted(lengths)
    # the procedures key a sorted pool once per run of one object, where
    # the certificates key every length
    pool = [WeightedCycle((0,), l, (0,), (1,)) for l in ordered]
    key = minima._check_candidates(pool)[1]
    for order, keys in ((lengths, minima._length_keys(lengths)),
                        (ordered, list(map(key, range(len(pool)))))):
        assert all(type(k) is int for k in keys)
        for a, ka in zip(order, keys):
            for b, kb in zip(order, keys):
                assert (ka < kb) == (a < b) and (ka == kb) == (a == b)


def enumerated_pool_with_ties():
    """A genus-2 pool of 14 enumerated cycles, with tied lengths and
    lengths that are not whole numbers."""
    rng = random.Random(11)
    while True:
        R = random_ribbon_graph(rng, max_edges=6, min_edges=6, vertices=2)
        if surface_invariants(R).genus == 2:
            break
    G = WeightedGraph(R, [Fraction(rng.choice((2, 3, 4)), rng.choice((2, 3))) for _ in range(6)])
    pool = attach_all(G, enumerate_cycles(G, sum(G.edge_length)))[:14]
    lengths = [c.length for c in pool]
    assert len(set(lengths)) < len(lengths) and {l.denominator for l in lengths} != {1}
    return pool


def test_procedures_and_certificates_compare_no_fractions():
    # every length comparison runs on integer keys: with each comparison
    # of Fraction raising, the procedures, the certificates (a passing
    # case) and the partial order decide an enumerated pool exactly as
    # the reference, which compares the Fractions themselves
    pool = enumerated_pool_with_ties()

    def no_comparison(self, other):
        raise AssertionError("a Fraction was compared")

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            mp.setattr(Fraction, name, no_comparison)
        for modulus in (0, 2, 3):
            t1 = successive_minima_I(pool, modulus, 4)
            t2 = successive_minima_II(pool, modulus)
            runs.append((
                t1, t2,
                verify_lemma_procI_minimal(t1, pool, modulus),
                is_globally_minimal(t2.selected, pool, modulus),
                compare_bases(t1.selected, t2.selected),
                minima.sorted_lengths(t2.selected),
            ))
    with pytest.raises(AssertionError, match="a Fraction was compared"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Fraction, "__lt__", no_comparison)
            sorted(c.length for c in reversed(pool))
    ties = 0
    for modulus, (t1, t2, lemma, minimal, order, lengths) in zip((0, 2, 3), runs):
        assert t1 == ref.successive_minima_I(pool, modulus, 4)
        assert t2 == ref.successive_minima_II(pool, modulus)
        assert lemma is True and minimal == (True, None)
        assert order == ref.compare_bases(t1.selected, t2.selected)
        assert lengths == ref.sorted_lengths(t2.selected)
        ties += sum(e.tie_break for e in t1.events + t2.events)
    assert ties > 0


# ---------------------------------------------------------------------------
# the partial order

def test_compare_bases():
    b = load_example("example4")
    pool = candidate_pool(b, Fraction(13, 12))
    by = {c.name: c for c in pool}
    A = [by[f"u{k:02d}"] for k in (2, 3, 4, 5, 6, 7, 8, 9)]
    B = [by[f"u{k:02d}"] for k in (1, 2, 3, 4, 5, 6, 7, 10)]
    assert compare_bases(A, B) == "incomparable"
    assert compare_bases(A, A) == "equal"
    halved = [
        type(c)(c.darts, c.length / 2, c.key, c.cls, c.name) for c in A
    ]
    assert compare_bases(halved, A) == "A<B"
    with pytest.raises(ValidationError):
        compare_bases(A, B[:4])


def test_globally_minimal_torus():
    G = torus_graph()
    cycles = attach_all(G, enumerate_cycles(G, Fraction(2)))
    tr = successive_minima_I(cycles, 0, 2)
    ok, witness = is_globally_minimal(tr.selected, cycles)
    assert ok and witness is None


def test_globally_minimal_rejects_empty_basis():
    b = load_example("example4")
    pool = candidate_pool(b, Fraction(13, 12))
    with pytest.raises(ValidationError):
        is_globally_minimal([], pool)


def test_a_basis_is_validated_once(monkeypatch):
    # _is_basis builds its matrix with as_int_matrix and takes the
    # determinant of that matrix as it is, with no second validation
    from surfhom import zlattice

    calls = []

    def counting(rows):
        calls.append(1)
        return as_int_matrix(rows)

    monkeypatch.setattr(minima, "as_int_matrix", counting)
    monkeypatch.setattr(zlattice, "as_int_matrix", counting)
    basis, pool = torus_basis_and_pool()
    for classes, modulus, verdict in (([c.cls for c in basis], 0, True),
                                      ([(2, 0), (0, 1)], 0, False),
                                      ([(2, 1), (0, 1)], 2, False),
                                      ([(1, 0)], 0, False)):
        calls.clear()
        assert minima._is_basis(classes, modulus) is verdict
        assert len(calls) == 1
    calls.clear()
    assert is_globally_minimal(basis, pool) == (True, None)
    assert len(calls) == 1


def test_globally_minimal_example4_witness():
    b = load_example("example4")
    pool = candidate_pool(b, Fraction(13, 12))
    tr = successive_minima_II(pool)
    ok, witness = is_globally_minimal(tr.selected, pool)
    assert not ok
    assert tuple(sorted(c.name for c in witness)) == tuple(
        f"u{k:02d}" for k in range(2, 10)
    )


def test_globally_minimal_remark45G():
    b = load_example("remark45G")
    pool = candidate_pool(b, Fraction(4))
    basis = [b.cycle(n) for n in ("alpha", "beta", "gamma", "eta")]
    ok, _ = is_globally_minimal(basis, pool)
    assert ok


def test_verify_lemma_on_torus_and_soulG_mod2():
    G = torus_graph()
    cycles = attach_all(G, enumerate_cycles(G, Fraction(2)))
    tr = successive_minima_I(cycles, 0, 2)
    assert verify_lemma_procI_minimal(tr, cycles)
    b = load_example("example2G")
    pool = candidate_pool(b, Fraction(4))
    tr2 = successive_minima_I(pool, 2, 4)
    assert verify_lemma_procI_minimal(tr2, pool, 2)
    ok, _ = is_globally_minimal(tr2.selected, pool, 2)
    assert ok


def test_verify_lemma_randomized():
    rng = random.Random(99)
    done = 0
    while done < 12:
        R = random_ribbon_graph(rng, max_edges=5)
        inv = surface_invariants(R)
        if inv.genus == 0:
            continue
        weights = tuple(Fraction(rng.randrange(1, 12), 4) for _ in range(R.n_edges))
        G = WeightedGraph(R, weights)
        total = sum(weights, Fraction(0)) * 2
        cycles = attach_all(G, enumerate_cycles(G, total))
        if len(cycles) > 12:
            continue
        tr = successive_minima_I(cycles, 0, 2 * inv.genus)
        M = [c.cls for c in tr.selected]
        if len(M) < 2 * inv.genus or abs(det_int(as_int_matrix(M))) != 1:
            continue
        assert verify_lemma_procI_minimal(tr, cycles)
        ok, _ = is_globally_minimal(tr.selected, cycles)
        assert ok
        done += 1


def test_genus4_pool_of_30_is_decided_without_a_subset_search(monkeypatch):
    # a one-face genus-4 graph on 3 vertices whose spanning tree is
    # edges 0 and 1: each of the 8 fundamental cycles is at most
    # 20/8 + 6/8 long and every other cycle at least 32/8, so they are
    # the 8 shortest cycles and a Z-basis.  Procedure II selects them,
    # and no 8 of the pool beat them, so both checks hold; the greedy
    # certificate decides them with no pass over the C(30, 8) subsets.
    rng = random.Random(4)
    while True:
        R = random_ribbon_graph(rng, max_edges=10, min_edges=10, vertices=3)
        if surface_invariants(R).genus == 4:
            break
    weights = [Fraction(rng.randint(1, 3), 8) for _ in range(2)]
    weights += [Fraction(rng.randint(16, 20), 8) for _ in range(8)]
    G = WeightedGraph(R, weights)
    pool = attach_all(G, enumerate_cycles(G, 6))[:30]
    assert len(pool) == 30

    def no_search(*args):
        raise AssertionError("the subset search ran")

    monkeypatch.setattr(minima, "_beating_subsets", no_search)
    for modulus in (0, 2):
        tr = successive_minima_II(pool, modulus)
        assert sorted(c.length for c in tr.selected) == [c.length for c in pool[:8]]
        assert verify_lemma_procI_minimal(tr, pool, modulus)
        assert is_globally_minimal(tr.selected, pool, modulus) == (True, None)


# ---------------------------------------------------------------------------
# straightness

def test_straight_soul_curves():
    b = load_example("example2G")
    for n in ("alpha", "beta", "gamma", "delta"):
        assert is_straight_cycle(b.weights, b.cycle(n))


def test_straight_detects_heavy_edge():
    # triangle u-v-w with a heavy side u-w, bypassed by a light chord
    R = RibbonGraph(((0, 4, 6), (1, 2), (3, 5, 7)), (1, 0, 3, 2, 5, 4, 7, 6))
    G = WeightedGraph(R, (Fraction(1), Fraction(1), Fraction(5), Fraction(1)))
    heavy_triangle = (0, 2, 5)
    assert not is_straight_cycle(G, heavy_triangle)
    light_triangle = (0, 2, 7)
    assert is_straight_cycle(G, light_triangle)


def test_straightness_runs_on_integers(monkeypatch):
    # remark45G's lengths are skewed by 1/400; the check scales them by
    # their common denominator once, when the graph is built, and adds
    # and compares integers only
    b = load_example("remark45G")
    G = b.weights
    cycles = [b.cycle(n) for n in ("alpha", "beta", "gamma", "delta")]
    assert {l.denominator for l in G.edge_length} != {1}

    def no_fraction(*args):
        raise AssertionError("straightness constructed a Fraction")

    monkeypatch.setattr(minima, "Fraction", no_fraction)
    assert [is_straight_cycle(G, c) for c in cycles] == [True] * 4
    dist = minima.shortest_distances(G, 0)
    assert {type(x) for x in dist.values()} == {int}


@pytest.mark.parametrize("source", [-1, 1, 99, None, 0.0, True, "0"])
def test_a_source_that_is_not_a_vertex_is_refused(source):
    # 99 was a raw IndexError, None a raw TypeError, and -1 read the last
    # vertex's rotation under another name
    G = torus_graph()
    with pytest.raises(ValidationError) as err:
        minima.shortest_distances(G, source)
    assert str(err.value) == f"vertex {source!r} not in graph"
    assert minima.shortest_distances(G, 0) == {0: 0}


def test_straight_single_loop():
    R = RibbonGraph(((0, 1),), (1, 0))
    G = unit_weights(R)
    assert is_straight_cycle(G, (0,))


def test_procedure_II_is_locally_minimal():
    # no single swap from the pool produces a strictly smaller basis
    b = load_example("example4")
    pool = candidate_pool(b, Fraction(13, 12))
    tr = successive_minima_II(pool)
    selected = list(tr.selected)
    unused = [c for c in pool if c.key not in {s.key for s in selected}]
    for i in range(len(selected)):
        for cand in unused:
            swapped = selected[:i] + [cand] + selected[i + 1:]
            M = as_int_matrix([c.cls for c in swapped])
            if abs(det_int(M)) != 1:
                continue
            assert compare_bases(swapped, selected) != "A<B"
