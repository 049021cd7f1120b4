"""Catalog of the bundled example surfaces and their expected values.

The combinatorial encodings below (curve itineraries plus the cyclic
order of strands at every vertex) were pinned by searching all
candidate encodings against the declared invariants: genus and face
counts, every pairwise intersection number, the declared coordinate
tables (reproduced literally through a derived canonical basis),
subgroup indices, component counts and the short-cycle spectrum.
``load_example`` re-runs the structural validation on every build, so
an encoding that stops matching fails loudly rather than silently.

The four genus-2 soul bundles are data rows of one builder
(``_SOULS``, ``_build_soul``): a soul's curve graph, its eta cycle
through one labelled edge per curve, its coordinate table, the curve
totals and the skew that sets its edge lengths.  The builder builds
each soul's curve graph once.  eta keeps the orientation that
``walk_from_edge_set`` gives it, which is the orientation the table
declares; a wrong encoding fails in ``reference_basis_from_table``.
Nothing is cached: each ``load_example`` call builds a new bundle, and
example3 builds the example2G soul again.

Bundles:

  example1    genus-3 surface glued from a 20-gon word; five curves
              with simply connected complement plus the completing arc
  example2G   genus-2 ribbon graph, four soul curves of length 2
  example2H   its sibling with a triple crossing and a dummy vertex
  example3    hyperbolic variant of example2G: octagon metric, crowns,
              and the coordinate model of the assembled genus-12 surface
  example4    genus-4 graph with ten weighted curves u1..u10
  remark45G   example2G with perturbed lengths; the four-cycle eta
              beats the fourth systole in the basis order
  remark45H   the same construction on example2H (eta has length 3)
"""

from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .homology import ReferenceBasis, reference_basis_from_table
from .minima import WeightedGraph, enumerate_cycles, make_cycle
from .ribbon import (
    RibbonGraph,
    add_loop,
    dart_of_label,
    schema_to_ribbon,
    subdivide_edge,
    surface_invariants,
    trace_faces,
    validate_walk,
    walk_from_edge_set,
)

IN, OUT = "in", "out"

EXAMPLE_NAMES = (
    "example1",
    "example2G",
    "example2H",
    "example3",
    "example4",
    "remark45G",
    "remark45H",
)


class ExampleBundle(NamedTuple):
    name: str
    ribbon: RibbonGraph      # as presented (bordered for the ribbon-graph souls)
    closed: RibbonGraph      # capped surface carrying the homology
    curves: MappingProxyType  # curve name -> oriented closed walk
    curve_order: tuple
    declared: tuple          # declared coordinates, aligned with curve_order
    reference: ReferenceBasis
    weights: WeightedGraph   # None when the bundle is not metrized
    expected: MappingProxyType

    def cycle(self, name):
        """The named curve as a weighted cycle with its declared class."""
        if self.weights is None:
            raise ValueError(f"{self.name} carries no edge lengths")
        cls = self.declared[self.curve_order.index(name)]
        return make_cycle(self.weights, self.curves[name], cls, name)


def build_curve_graph(itineraries, rotations):
    """Ribbon graph of a curve system.

    ``itineraries`` maps each curve to its cyclic vertex sequence;
    ``rotations`` gives, per vertex, the counterclockwise order of the
    incident strand darts as (curve, "in"/"out") tokens.  Returns the
    graph and the curves as walks in itinerary direction; edge k of
    curve c is labelled "c[k]".
    """
    darts = {}
    nd = 0
    twin = []
    for c in sorted(itineraries):
        verts = itineraries[c]
        for k in range(len(verts)):
            a, b = nd, nd + 1
            twin += [b, a]
            nd += 2
            darts[(c, k, OUT)] = (a, verts[k])
            darts[(c, k, IN)] = (b, verts[(k + 1) % len(verts)])
    rotation = []
    for vname in sorted(rotations):
        cyc = []
        for c, role in rotations[vname]:
            verts = itineraries[c]
            if role == OUT:
                k = verts.index(vname)
            else:
                k = (verts.index(vname) - 1) % len(verts)
            d, at = darts[(c, k, role)]
            if at != vname:
                raise ValueError(f"strand {(c, role)} is not incident to {vname}")
            cyc.append(d)
        rotation.append(tuple(cyc))
    labels = []
    for c in sorted(itineraries):
        labels += [f"{c}[{k}]" for k in range(len(itineraries[c]))]
    R = RibbonGraph(tuple(rotation), tuple(twin), frozenset(), tuple(labels))
    walks = {
        c: tuple(darts[(c, k, OUT)][0] for k in range(len(itineraries[c])))
        for c in itineraries
    }
    return R, walks


def _reverse(R, walk):
    return tuple(R.twin[d] for d in reversed(walk))


def _mark_all_faces(R):
    marks = frozenset(f[0] for f in trace_faces(R))
    return RibbonGraph(R.rotation, R.twin, marks, R.edge_labels)


# ---------------------------------------------------------------------------
# genus-3 polygon surface (five curves + completing arc)

POLYGON_WORD = "1 2 1' 3 4 5 2' 5' 6 3' 7 8 7' 9 6' 10 8' 10' 4' 9'"

# sides traced by each curve of the polygon figure
_E1_CURVE_SIDES = {
    "beta1": ("2",),
    "beta2": ("8",),
    "beta3": ("4", "6"),
    "gamma": ("3", "9"),
    "delta": ("1", "5", "7", "10"),
}
_E1_ORDER = ("alpha1", "beta1", "beta2", "beta3", "gamma", "delta")
_E1_TABLE = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 1, 0),
    (1, 0, -1, 0, 1, 0),
)
_E1_BASIS = ("alpha1", "beta1", "alpha2", "beta2", "alpha3", "beta3")


def _build_example1():
    base = schema_to_ribbon(POLYGON_WORD)
    # the completing arc crosses the beta1 loop once: subdivide that
    # loop and thread a new loop edge through the midpoint
    R1, first, second = subdivide_edge(base, dart_of_label(base, "2"))
    mid = (R1.twin[first], second)
    R, arc_dart = add_loop(R1, mid[0], mid[1], label="a1")
    walks = {"alpha1": (arc_dart,), "beta1": (first, second)}
    for name, sides in _E1_CURVE_SIDES.items():
        if name == "beta1":
            continue
        walks[name] = walk_from_edge_set(R, [dart_of_label(R, s) for s in sides])
    reference = reference_basis_from_table(
        R, "canonical", _E1_BASIS, _E1_TABLE, [walks[c] for c in _E1_ORDER],
        basis_walks={
            "alpha1": walks["alpha1"],
            "beta1": walks["beta1"],
            "beta2": walks["beta2"],
            "beta3": walks["beta3"],
        },
    )
    expected = {
        "genus": 3,
        "five_curves": ("beta1", "beta2", "beta3", "gamma", "delta"),
    }
    return ExampleBundle(
        "example1", R, R, MappingProxyType(walks), _E1_ORDER, _E1_TABLE,
        reference, None, MappingProxyType(expected),
    )


# ---------------------------------------------------------------------------
# the two genus-2 ribbon-graph souls

_SOUL_G_ITIN = {
    "alpha": ("v_ab", "v_ag"),
    "beta": ("v_ab", "v_bd"),
    "gamma": ("v_ag", "v_gd"),
    "delta": ("v_bd", "v_gd"),
}
_SOUL_G_ROT = {
    "v_ab": (("alpha", IN), ("beta", IN), ("alpha", OUT), ("beta", OUT)),
    "v_ag": (("alpha", IN), ("gamma", OUT), ("alpha", OUT), ("gamma", IN)),
    "v_bd": (("beta", IN), ("delta", IN), ("beta", OUT), ("delta", OUT)),
    "v_gd": (("delta", IN), ("gamma", OUT), ("delta", OUT), ("gamma", IN)),
}
# one edge of each curve, forming the four-cycle homotopic to the
# second canonical handle curve
_SOUL_G_ETA = ("alpha[0]", "gamma[0]", "delta[1]", "beta[1]")

_SOUL_H_ITIN = {
    "alpha": ("u0", "u1"),
    "beta": ("u0", "u3"),
    "gamma": ("u1", "u2"),
    "delta": ("u0", "u2"),
}
_SOUL_H_ROT = {
    "u0": (("alpha", IN), ("beta", IN), ("delta", IN),
           ("alpha", OUT), ("beta", OUT), ("delta", OUT)),
    "u1": (("alpha", IN), ("gamma", OUT), ("alpha", OUT), ("gamma", IN)),
    "u2": (("delta", IN), ("gamma", OUT), ("delta", OUT), ("gamma", IN)),
    "u3": (("beta", IN), ("beta", OUT)),
}
_SOUL_H_ETA = ("alpha[0]", "gamma[0]", "delta[1]")

_G2_ORDER = ("alpha", "beta", "gamma", "delta", "eta")
_G2_BASIS = ("alpha1", "beta1", "alpha2", "beta2")
_G_TABLE = ((1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, -1), (-1, 0, 2, 1), (0, 0, 1, 0))
_H_TABLE = ((1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, -1), (-1, 1, 2, 1), (0, 0, 1, 0))

_SOUL_G = (_SOUL_G_ITIN, _SOUL_G_ROT, _SOUL_G_ETA, _G_TABLE)
_SOUL_H = (_SOUL_H_ITIN, _SOUL_H_ROT, _SOUL_H_ETA, _H_TABLE)

# unit lengths: every curve has total length 2, so each edge has length 1
_UNIT_TOTALS = dict.fromkeys(("alpha", "beta", "gamma", "delta"), Fraction(2))
# perturbed lengths: curve totals 2, 2+e, 2+2e, 2+3e with e = 1/400, and
# a within-curve skew of 1/400 so the eta cycle is the unique cheapest
# of the one-edge-per-curve cycles
_EPS = Fraction(1, 400)
_PERTURBED_TOTALS = {
    "alpha": Fraction(2),
    "beta": 2 + _EPS,
    "gamma": 2 + 2 * _EPS,
    "delta": 2 + 3 * _EPS,
}
_SKEW = Fraction(1, 400)

_REMARK45_EXPECTED = {
    "genus": 2,
    "spectrum_order": ("alpha", "beta", "gamma", "delta", "eta"),
    "global_minimum": ("alpha", "beta", "gamma", "eta"),
    "procedure_I_fourth": "delta",
}

# name -> (soul, curve totals, skew, expected values)
_SOULS = {
    "example2G": (_SOUL_G, _UNIT_TOTALS, 0,
                  {"genus": 2, "triple_with_pairwise_one": False}),
    "example2H": (_SOUL_H, _UNIT_TOTALS, 0,
                  {"genus": 2, "triple_with_pairwise_one": True,
                   "dummy_vertex_curve": "beta"}),
    "remark45G": (_SOUL_G, _PERTURBED_TOTALS, _SKEW, _REMARK45_EXPECTED),
    "remark45H": (_SOUL_H, _PERTURBED_TOTALS, _SKEW, _REMARK45_EXPECTED),
}


def _soul_lengths(R, itineraries, eta_edges, totals, skew):
    """Per-edge lengths preserving each curve's total: on a curve that
    lends edges to eta, those edges are lightened by the skew and the
    curve's other edges share the difference, making eta the unique
    shortest cycle of its combinatorial type."""
    length = {}
    for curve, verts in itineraries.items():
        m = len(verts)
        labels = [f"{curve}[{k}]" for k in range(m)]
        lent = sum(lab in eta_edges for lab in labels)
        base = Fraction(totals[curve], m)
        rest = base + Fraction(lent * skew, m - lent)
        for lab in labels:
            length[lab] = base - skew if lab in eta_edges else rest
    return tuple(length[lab] for lab in R.edge_labels)


def _build_soul(name):
    """The soul bundle ``name`` of ``_SOULS``, its curve graph built once.

    eta keeps the orientation ``walk_from_edge_set`` gives it, which is
    the one the coordinate table declares: a wrong encoding fails in
    ``reference_basis_from_table``."""
    (itineraries, rotations, eta_edges, table), totals, skew, expected = _SOULS[name]
    closed, curves = build_curve_graph(itineraries, rotations)
    curves["eta"] = walk_from_edge_set(closed, [dart_of_label(closed, lab) for lab in eta_edges])
    reference = reference_basis_from_table(
        closed, "canonical", _G2_BASIS, table, [curves[c] for c in _G2_ORDER],
        basis_walks={"alpha1": curves["alpha"], "beta1": curves["beta"],
                     "alpha2": curves["eta"]},
    )
    weights = WeightedGraph(closed, _soul_lengths(closed, itineraries, eta_edges, totals, skew))
    return ExampleBundle(
        name, _mark_all_faces(closed), closed, MappingProxyType(curves), _G2_ORDER, table,
        reference, weights, MappingProxyType(expected),
    )


# ---------------------------------------------------------------------------
# the hyperbolic assembly: octagon metric on the first soul plus two
# crowns; homology of the closed genus-12 surface as a coordinate model

def _genus12_model():
    """Classes of the 24 curves found by successive minima on the
    assembled surface: the two crowns' canonical bases (identity
    blocks) plus the four soul curves in their declared coordinates."""
    rows = []
    for i in range(20):
        rows.append(tuple(1 if j == i else 0 for j in range(24)))
    for r in _G_TABLE[:4]:
        rows.append((0,) * 20 + r)
    return tuple(rows)


def _build_example3():
    from . import hyperbolic

    g_bundle = _build_soul("example2G")
    stats = hyperbolic.example3_assembly()
    expected = {
        "genus": 2,  # the stored soul; the genus-12 statistics live in "assembly"
        "arm_expected": 1.061,
        "width_expected": 2.234,
        "geodesic_expected": 2.656,
        "limit_expected": 2.633,
        "expected_tol": 1e-3,
        "arm_tol": 5e-4,
    }
    return ExampleBundle(
        "example3", g_bundle.ribbon, g_bundle.closed, g_bundle.curves,
        g_bundle.curve_order, g_bundle.declared, g_bundle.reference, None,
        MappingProxyType({**expected, "assembly": stats, "model": _genus12_model()}),
    )


# ---------------------------------------------------------------------------
# the genus-4 graph with ten weighted curves

_K_ITIN = {
    "u01": ("T", "x18"),
    "u02": ("T", "P"),
    "u03": ("P", "Q", "x38", "x35"),
    "u04": ("x45", "x49"),
    "u05": ("x35", "x45"),
    "u06": ("Q", "x67", "R"),
    "u07": ("x67", "x79"),
    "u08": ("x18", "x38"),
    "u09": ("T", "x49", "x79"),
    "u10": ("P", "R"),
}
_K_ROT = {
    "P": (("u02", IN), ("u03", IN), ("u10", IN),
          ("u02", OUT), ("u03", OUT), ("u10", OUT)),
    "Q": (("u03", IN), ("u06", OUT), ("u03", OUT), ("u06", IN)),
    "R": (("u06", IN), ("u10", IN), ("u06", OUT), ("u10", OUT)),
    "T": (("u01", IN), ("u09", IN), ("u02", OUT),
          ("u01", OUT), ("u09", OUT), ("u02", IN)),
    "x18": (("u01", IN), ("u08", IN), ("u01", OUT), ("u08", OUT)),
    "x35": (("u03", IN), ("u05", IN), ("u03", OUT), ("u05", OUT)),
    "x38": (("u03", IN), ("u08", OUT), ("u03", OUT), ("u08", IN)),
    "x45": (("u04", IN), ("u05", IN), ("u04", OUT), ("u05", OUT)),
    "x49": (("u04", IN), ("u09", IN), ("u04", OUT), ("u09", OUT)),
    "x67": (("u06", IN), ("u07", IN), ("u06", OUT), ("u07", OUT)),
    "x79": (("u07", IN), ("u09", IN), ("u07", OUT), ("u09", OUT)),
}
_K_FLIPPED = ("u09",)  # traversal direction opposite to its itinerary

_K_ORDER = tuple(f"u{k:02d}" for k in range(1, 11))
_K_TABLE = (
    (1, 0, 0, 0, 0, 0, 0, 0),
    (0, -1, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, 1, 1, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 0, 0, 0),
    (0, -1, -1, 0, 0, -1, 1, 0),
    (0, 0, 1, 1, 0, 0, 0, 1),
)
_K_BASIS = ("alpha1", "beta1", "alpha2", "beta2",
            "alpha3", "beta3", "alpha4", "beta4")
# canonical curves traced by the configuration (the second handle's
# pair is not)
_K_BASIS_CURVES = {"alpha1": "u01", "beta1": "u08", "alpha3": "u04",
                   "beta3": "u05", "alpha4": "u06", "beta4": "u07"}


def _build_example4():
    closed, walks = build_curve_graph(_K_ITIN, _K_ROT)
    for c in _K_FLIPPED:
        walks[c] = _reverse(closed, walks[c])
    reference = reference_basis_from_table(
        closed, "canonical", _K_BASIS, _K_TABLE, [walks[c] for c in _K_ORDER],
        basis_walks={nm: walks[c] for nm, c in _K_BASIS_CURVES.items()},
    )
    lengths = []
    for lab in closed.edge_labels:
        curve = lab.split("[")[0]
        k = int(curve[1:])
        iota = Fraction(200 + k, 200)
        lengths.append(iota / len(_K_ITIN[curve]))
    wg = WeightedGraph(closed, tuple(lengths))
    expected = {
        "genus": 4,
        "det_u8": 2,
        "det_u9": -3,
        "det_u10": -1,
        "det_drop_u1": 1,
        "enumeration_bound": Fraction(13, 12),
        "curve_lengths": tuple(Fraction(200 + k, 200) for k in range(1, 11)),
        "extra_loop_length": Fraction(21, 40) + Fraction(103, 300) + Fraction(203, 800),
        "extra_loop_curves": frozenset({"u03", "u06", "u10"}),
        "procedure_II_selects": ("u01", "u02", "u03", "u04", "u05", "u06", "u07", "u10"),
        "procedure_II_rejects": ("u08", "u09"),
        "witness": ("u02", "u03", "u04", "u05", "u06", "u07", "u08", "u09"),
    }
    return ExampleBundle(
        "example4", closed, closed, MappingProxyType(walks), _K_ORDER, _K_TABLE,
        reference, wg, MappingProxyType(expected),
    )


_BUILDERS = {
    "example1": _build_example1,
    "example3": _build_example3,
    "example4": _build_example4,
}


def load_example(name):
    """Build and validate a catalog bundle.

    Raises KeyError for unknown names; every bundle re-validates its
    walks, reference basis and surface invariants on construction.
    Each call builds a new bundle: nothing is cached.
    """
    if name not in EXAMPLE_NAMES:
        raise KeyError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    bundle = _build_soul(name) if name in _SOULS else _BUILDERS[name]()
    for walk in bundle.curves.values():
        validate_walk(bundle.closed, walk)
    inv = surface_invariants(bundle.closed)
    want = bundle.expected["genus"]
    if inv.genus != want:
        raise AssertionError(f"{name}: genus {inv.genus} != {want}")
    return bundle


def all_examples():
    return tuple(load_example(n) for n in EXAMPLE_NAMES)


def candidate_pool(bundle, bound):
    """Cycles of the bundle's weighted soul up to ``bound``, each with
    its class in the bundle's reference coordinates; cycles matching a
    catalog curve carry its name.  Named cycles are cross-checked
    against the declared table."""
    if bundle.weights is None:
        raise ValueError(f"{bundle.name} carries no edge lengths")
    # the enumerated classes are in the coordinates of the closed
    # surface's homology, which the reference basis is declared over
    assert bundle.weights.ribbon is bundle.closed
    names = {}
    for n in bundle.curve_order:
        names[bundle.cycle(n).key] = n
    # many cycles share a class (example 4 at bound 6: 59,224 cycles in
    # 9,545 classes), so each distinct class is expressed once
    expressed = {}
    pool = []
    for c in enumerate_cycles(bundle.weights, bound):
        cls = expressed.get(c.cls)
        if cls is None:
            cls = expressed[c.cls] = bundle.reference.express(c.cls)
        name = names.get(c.key)
        if name is not None:
            declared = bundle.declared[bundle.curve_order.index(name)]
            if cls != declared and cls != tuple(-x for x in declared):
                raise AssertionError(f"{bundle.name}: {name} does not match its table row")
        pool.append(c.with_class(cls, name))
    return tuple(pool)
