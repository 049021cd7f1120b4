"""Command-line front end: verify bundled examples, export, run minima.

Exit codes: 0 all checks pass, 1 a claim failed or the reader of
stdout closed it before the output was written (as ``surfhom ... | head``
does; no traceback is printed), 2 usage error.
Reports are deterministic byte-for-byte: rationals print as "p/q",
floats with 10 significant digits, and all listings are ordered.
"""

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .catalog import EXAMPLE_NAMES, POLYGON_WORD, candidate_pool, load_example
from .homology import algebraic_intersection, class_of_walk
from .minima import (
    compare_bases,
    is_globally_minimal,
    is_straight_cycle,
    successive_minima_I,
    successive_minima_II,
)
from .ribbon import (
    complement_components,
    edge_label,
    edges,
    ribbon_to_dict,
    schema_to_ribbon,
    surface_invariants,
    walk_edge_labels,
)
from .zlattice import (
    LatticeError,
    _check_modulus,
    _rank_mod_p,
    complete_to_unimodular,
    det_int,
    subgroup_index,
)


class Check(NamedTuple):
    label: str
    computed: object
    expected: object
    passed: bool
    modulus: int = None  # None: ring-independent claim


class VerificationReport(NamedTuple):
    example: str
    checks: tuple
    elapsed: float

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def fmt_value(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return f"{x:.10g}"
    if isinstance(x, (tuple, list)):
        return "(" + ", ".join(fmt_value(v) for v in x) + ")"
    return str(x)


def _eq(label, computed, expected, modulus=None):
    return Check(label, computed, expected, computed == expected, modulus)


def _close(label, computed, expected, tol):
    return Check(f"{label} (tol {tol:g})", computed, expected,
                 abs(computed - expected) <= tol)


# ---------------------------------------------------------------------------
# per-example check suites

def _coordinates_check(bundle):
    got = []
    for name in bundle.curve_order:
        cls = class_of_walk(bundle.closed, bundle.curves[name], bundle.reference)
        got.append(cls.coords)
    return _eq("declared coordinates are reproduced", tuple(got), tuple(bundle.declared))


def _checks_example1(b):
    base = schema_to_ribbon(POLYGON_WORD)
    inv0 = surface_invariants(base)
    inv = surface_invariants(b.closed)
    five = [b.curves[c] for c in b.expected["five_curves"]]
    six = five + [b.curves["alpha1"]]
    rows5 = tuple(b.declared[b.curve_order.index(c)] for c in b.expected["five_curves"])
    added = complete_to_unimodular(rows5)
    return [
        _eq("polygon word glues to genus 3", inv0.genus, 3),
        _eq("glued polygon is a single face", inv0.faces, 1),
        _eq("arc insertion preserves genus 3", inv.genus, 3),
        _eq("five-curve complement is connected",
            complement_components(b.closed, five), 1),
        _eq("six-curve complement has two parts",
            complement_components(b.closed, six), 2),
        _coordinates_check(b),
        _eq("six declared classes are unimodular", abs(det_int(b.declared)), 1),
        _eq("arc crosses beta1 positively",
            algebraic_intersection(b.closed, b.curves["alpha1"], b.curves["beta1"]), 1),
        _eq("five declared classes complete to a unimodular matrix",
            abs(det_int(rows5 + added)), 1),
    ]


def _soul_checks(b):
    inv = surface_invariants(b.ribbon)
    curves4 = ("alpha", "beta", "gamma", "delta")
    rows = tuple(b.declared[b.curve_order.index(c)] for c in curves4)
    # one enumeration: the pool is sorted by length, so the cycles of
    # length two are the ones a bound of 2 enumerates
    pool4 = candidate_pool(b, Fraction(4))
    pool2 = [c for c in pool4 if c.length <= 2]
    named = [c for c in pool4 if c.cls is not None]
    tr_z = successive_minima_I(named, 0, 4)
    tr_2 = successive_minima_I(named, 2, 4)
    mod2_rank = _rank_mod_p([c.cls for c in tr_2.selected], 2)
    triples = []
    for x, y, z in combinations(curves4, 3):
        pij = [
            abs(algebraic_intersection(b.closed, b.curves[p], b.curves[q]))
            for p, q in ((x, y), (x, z), (y, z))
        ]
        triples.append(all(v == 1 for v in pij))
    checks = [
        _eq("soul thickens to genus 2 with two boundary circles",
            (inv.genus, inv.boundary_count), (2, 2)),
        _coordinates_check(b),
        _eq("four curves span an index-2 subgroup", subgroup_index(rows), 2, 0),
        _eq("every cycle of length two is one of the four curves",
            tuple(sorted(c.name for c in pool2)), tuple(sorted(curves4))),
        _eq("integer selection returns the four systoles",
            tuple(sorted(c.name for c in tr_z.selected)), tuple(sorted(curves4)), 0),
        _eq("integer selection spans index 2, not a basis",
            subgroup_index([c.cls for c in tr_z.selected]), 2, 0),
        _eq("mod-2 selection completes to a basis", mod2_rank, 4, 2),
        _eq("a triple of curves pairwise crossing once exists",
            any(triples), b.expected["triple_with_pairwise_one"]),
        _eq("the four curves are straight in the graph metric",
            tuple(is_straight_cycle(b.weights, b.cycle(c)) for c in curves4),
            (True,) * 4),
    ]
    if "dummy_vertex_curve" in b.expected:
        vof = b.closed.vertex_of
        beta_verts = {vof[d] for d in b.curves["beta"]} | {
            vof[b.closed.twin[d]] for d in b.curves["beta"]
        }
        has_dummy = any(len(b.closed.rotation[v]) == 2 for v in beta_verts)
        checks.append(_eq("beta runs through the two-valent dummy vertex",
                          has_dummy, True))
        checks.append(_eq("eta has combinatorial length 3", len(b.curves["eta"]), 3))
    else:
        checks.append(_eq("eta has combinatorial length 4", len(b.curves["eta"]), 4))
    return checks


def _checks_example3(b):
    from . import hyperbolic

    e = b.expected
    stats = e["assembly"]
    crown = stats.crown
    s = stats.arm
    t = hyperbolic.pentagon_opposite(s)
    residuals = [r["residual"] for r in hyperbolic.identity_report()]
    hs = (5, 10, 20, 50)
    lengths = hyperbolic.crown_limit_convergence(hs, 8.0 * t)
    limit = hyperbolic.crown_limit_length()
    decreasing = all(a > bb for a, bb in zip(lengths, lengths[1:]))
    return [
        _close("arm parameter matches the expected 1.061", s, e["arm_expected"], e["arm_tol"]),
        _close("crown width matches the expected 2.234", crown.width,
               e["width_expected"], e["expected_tol"]),
        _close("crown geodesic matches the expected 2.656", crown.geodesic_len,
               e["geodesic_expected"], e["expected_tol"]),
        _close("limit length matches the expected 2.633", limit,
               e["limit_expected"], e["expected_tol"]),
        Check("defining identities hold to 1e-9", max(residuals), 0.0,
              max(residuals) <= hyperbolic.RESIDUAL_TOL),
        _eq("collar is wide enough and crown geodesics stay shortest",
            stats.collar_ok, True),
        _eq("pentagon is self-opposite (s = t)", abs(s - t) <= 1e-12, True),
        _eq("assembled surface has genus 12", stats.closed_genus, 12),
        _eq("the 24 found classes span an index-2 subgroup",
            subgroup_index(e["model"]), 2, 0),
        Check("crown geodesics decrease to the limit",
              fmt_value(lengths), f"monotone, within 0.02 at h={hs[-1]}",
              decreasing and abs(lengths[-1] - limit) <= 0.02),
    ]


def _checks_example4(b):
    e = b.expected
    inv = surface_invariants(b.closed)
    rows = {k: b.declared[k - 1] for k in range(1, 11)}

    def det_of(ks):
        return det_int(tuple(rows[k] for k in ks))

    # one enumeration, at the wider bound; the cycles within 13/12 are
    # those the narrower bound enumerates, in the same order
    wider = candidate_pool(b, Fraction(113, 100))
    pool = tuple(c for c in wider if c.length <= e["enumeration_bound"])
    named = tuple(c.name for c in pool)
    tr = successive_minima_II(pool)
    ok, witness = is_globally_minimal(tr.selected, pool)
    witness_names = tuple(sorted(c.name for c in witness)) if witness else ()
    la = sorted(c.length for c in tr.selected)
    lb = sorted(c.length for c in witness) if witness else []
    extras = [c for c in wider if c.name is None]
    extra_ok = (
        len(extras) == 2
        and all(c.length == e["extra_loop_length"] for c in extras)
        and all(
            {lab.split("[")[0] for lab in walk_edge_labels(b.closed, c.darts)}
            == set(e["extra_loop_curves"])
            for c in extras
        )
    )
    return [
        _eq("graph thickens to genus 4", inv.genus, 4),
        _eq("det[u1..u7, u8] = 2", det_of((1, 2, 3, 4, 5, 6, 7, 8)), e["det_u8"], 0),
        _eq("det[u1..u7, u9] = -3", det_of((1, 2, 3, 4, 5, 6, 7, 9)), e["det_u9"], 0),
        _eq("det[u1..u7, u10] = -1", det_of((1, 2, 3, 4, 5, 6, 7, 10)), e["det_u10"], 0),
        _eq("det[u2..u8, u9] = 1", det_of((2, 3, 4, 5, 6, 7, 8, 9)), e["det_drop_u1"], 0),
        _eq("cycles within 13/12 are exactly the ten curves",
            named, tuple(f"u{k:02d}" for k in range(1, 11))),
        _eq("their lengths are the declared spectrum",
            tuple(c.length for c in pool), e["curve_lengths"]),
        _eq("II selects u1..u7 then u10", tuple(c.name for c in tr.selected),
            e["procedure_II_selects"], 0),
        _eq("II rejects u8 and u9",
            tuple(ev.cycle.name for ev in tr.events if ev.decision == "rejected"),
            e["procedure_II_rejects"], 0),
        _eq("the II basis is not globally minimal", ok, False, 0),
        _eq("witness basis", witness_names, e["witness"], 0),
        _eq("witness beats it in the last position only",
            (compare_bases(tr.selected, witness), lb[-1] < la[-1]),
            ("incomparable", True), 0),
        _coordinates_check(b),
        Check("two extra three-edge loops on delta, alpha4, mu",
              len(extras), 2, extra_ok),
    ]


def _checks_remark45(b):
    e = b.expected
    pool = candidate_pool(b, Fraction(4))
    first = pool[:5]
    lengths = [c.length for c in first]
    spectrum_ok = (
        tuple(c.name for c in first) == e["spectrum_order"]
        and all(a < bb for a, bb in zip(lengths, lengths[1:]))
        and (len(pool) == 5 or pool[5].length > lengths[-1])
    )
    tr = successive_minima_I(pool, 0, 4)
    basis = [b.cycle(n) for n in e["global_minimum"]]
    ok, _ = is_globally_minimal(basis, pool)
    tr2 = successive_minima_II(pool)
    return [
        Check("the five named cycles have the unique first lengths",
              tuple(c.name for c in first), e["spectrum_order"], spectrum_ok),
        _eq("integer selection still picks delta fourth",
            tr.selected[3].name, e["procedure_I_fourth"], 0),
        _eq("alpha, beta, gamma, eta is globally minimal", ok, True, 0),
        _eq("the extendability procedure finds the global minimum",
            tuple(sorted(c.name for c in tr2.selected)),
            tuple(sorted(e["global_minimum"])), 0),
    ]


_CHECKS = {
    "example1": _checks_example1,
    "example2G": _soul_checks,
    "example2H": _soul_checks,
    "example3": _checks_example3,
    "example4": _checks_example4,
    "remark45G": _checks_remark45,
    "remark45H": _checks_remark45,
}


def run_checks(name, modulus=None):
    t0 = time.perf_counter()
    bundle = load_example(name)
    checks = _CHECKS[name](bundle)
    if modulus is not None:
        checks = [c for c in checks if c.modulus is None or c.modulus == modulus]
    return VerificationReport(name, tuple(checks), time.perf_counter() - t0)


def report_to_dict(rep):
    return {
        "example": rep.example,
        "status": "pass" if rep.passed else "fail",
        "checks": [
            {
                "claim": c.label,
                "computed": fmt_value(c.computed),
                "expected": fmt_value(c.expected),
                "status": "pass" if c.passed else "fail",
            }
            for c in rep.checks
        ],
    }


def print_report(rep, as_json=False):
    out = sys.stdout
    if as_json:
        json.dump(report_to_dict(rep), out, indent=2, sort_keys=True)
        out.write("\n")
        return
    out.write(f"== {rep.example}\n")
    for c in rep.checks:
        mark = "ok " if c.passed else "FAIL"
        out.write(f"  [{mark}] {c.label}: {fmt_value(c.computed)}")
        if not c.passed:
            out.write(f" (expected {fmt_value(c.expected)})")
        out.write("\n")
    out.write(f"  {'PASS' if rep.passed else 'FAIL'} "
              f"({len(rep.checks)} checks, {rep.elapsed:.2f}s)\n")


# ---------------------------------------------------------------------------
# export

def bundle_to_dict(bundle):
    data = {
        "name": bundle.name,
        "surface": ribbon_to_dict(bundle.ribbon),
        "curves": {n: list(w) for n, w in sorted(bundle.curves.items())},
        "coordinates": {
            n: list(bundle.declared[i]) for i, n in enumerate(bundle.curve_order)
        },
        "basis": list(bundle.reference.names),
    }
    if bundle.weights is not None:
        labels = [edge_label(bundle.closed, e) for e in edges(bundle.closed)]
        data["edge_lengths"] = {
            lab: fmt_value(l)
            for lab, l in zip(labels, bundle.weights.edge_length)
        }
    if bundle.name == "example3":
        from . import hyperbolic

        stats = bundle.expected["assembly"]
        data["hyperbolic"] = {
            "identities": [
                {k: fmt_value(v) for k, v in row.items()}
                for row in hyperbolic.identity_report()
            ],
            "closed_genus": stats.closed_genus,
            "curve_length": fmt_value(stats.curve_len),
            "boundary_length": fmt_value(stats.boundary_len),
            "collar_ok": stats.collar_ok,
        }
    return data


def bundle_to_dot(bundle):
    vof = bundle.closed.vertex_of
    lines = [f"graph {bundle.name} {{"]
    for v in range(len(bundle.closed.rotation)):
        lines.append(f"  v{v};")
    for name in sorted(bundle.curves):
        walk = bundle.curves[name]
        for d in walk:
            u, w = vof[d], vof[bundle.closed.twin[d]]
            lab = edge_label(bundle.closed, d)
            lines.append(f'  v{u} -- v{w} [label="{lab}", curve="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# minima command

def trace_to_dict(trace, bundle):
    def label(c):
        return c.name or "/".join(walk_edge_labels(bundle.closed, c.darts))

    events = []
    for ev in trace.events:
        events.append({
            "cycle": label(ev.cycle),
            "length": fmt_value(ev.cycle.length),
            "decision": ev.decision,
            "reason": ev.reason,
            "tie_break": ev.tie_break,
        })
    return {
        "modulus": trace.modulus,
        "events": events,
        "selected": [label(c) for c in trace.selected],
        "halting": trace.halting,
    }


# ---------------------------------------------------------------------------
# entry point

def _usage_error(message):
    print(message, file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="surfhom",
        description="verify the bundled surface constructions and run "
                    "the underlying algorithms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run an example's expectation checks")
    p_verify.add_argument("name", help=f"one of {', '.join(EXAMPLE_NAMES)} or 'all'")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--modulus", type=int, default=None,
                          help="restrict ring-specific claims to Z (0) or Z_p")

    p_export = sub.add_parser("export", help="emit an example as JSON or DOT")
    p_export.add_argument("name")
    p_export.add_argument("--format", choices=("json", "dot"), default="json")

    p_minima = sub.add_parser("minima", help="run a successive-minima procedure")
    p_minima.add_argument("name")
    p_minima.add_argument("--procedure", choices=("I", "II"), default="I")
    p_minima.add_argument("--modulus", type=int, default=0)
    p_minima.add_argument("--bound", default="4",
                          help="rational enumeration bound, e.g. 13/12")

    args = parser.parse_args(argv)
    if args.command != "export" and args.modulus is not None:
        try:
            _check_modulus(args.modulus)
        except LatticeError as e:
            return _usage_error(str(e))

    if args.command == "verify":
        names = EXAMPLE_NAMES if args.name == "all" else (args.name,)
        if any(n not in EXAMPLE_NAMES for n in names):
            return _usage_error(f"unknown example {args.name!r}")
        reports = [run_checks(n, args.modulus) for n in sorted(names)]
        if args.modulus is not None and not any(
            c.modulus == args.modulus for rep in reports for c in rep.checks
        ):
            return _usage_error(
                f"--modulus {args.modulus} leaves no ring-specific claim in {args.name}"
            )
        for rep in reports:
            print_report(rep, args.json)
        return 0 if all(rep.passed for rep in reports) else 1

    if args.name not in EXAMPLE_NAMES:
        return _usage_error(f"unknown example {args.name!r}")
    bundle = load_example(args.name)

    if args.command == "export":
        if args.format == "json":
            json.dump(bundle_to_dict(bundle), sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            sys.stdout.write(bundle_to_dot(bundle))
        return 0

    try:
        bound = Fraction(args.bound)
    except (ValueError, ZeroDivisionError):
        bound = None
    if bound is None or bound <= 0:
        return _usage_error(f"bad bound {args.bound!r}: need a positive rational")
    if bundle.weights is None:
        return _usage_error(f"{args.name} carries no edge lengths")
    pool = candidate_pool(bundle, bound)
    proc = successive_minima_I if args.procedure == "I" else successive_minima_II
    trace = proc(pool, args.modulus, len(bundle.reference.names))
    json.dump(trace_to_dict(trace, bundle), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def console():
    """``main`` in a process of its own, the ``surfhom`` console script
    and ``python -m surfhom.cli``.  Output is flushed inside the ``try``,
    so a reader that closed stdout early raises BrokenPipeError here;
    stdout then goes to os.devnull, so the flush at exit raises nothing
    more, and the exit code is 1 (the recipe of the ``signal`` module's
    documentation on SIGPIPE)."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(console())
