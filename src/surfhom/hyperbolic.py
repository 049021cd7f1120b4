"""Hyperbolic trigonometry: right-angled pentagons, trirectangles, crowns.

Everything here is double-precision; each constructor exposes the
residual of its defining identity so callers can confirm the value
satisfies the transcendental relation it came from (the working
tolerance is 1e-9, far above double round-off for these
well-conditioned formulas).
"""

import math
from typing import NamedTuple

RESIDUAL_TOL = 1e-9


class DomainError(ValueError):
    pass


def pentagon_opposite(s):
    """Side opposite the two adjacent sides of length s in a
    right-angled pentagon: cosh(t) = sinh^2(s)."""
    x = math.sinh(s) ** 2
    if x < 1.0:
        raise DomainError(f"no right-angled pentagon with adjacent sides {s}")
    return math.acosh(x)


def solve_arm_parameter():
    """The arm length making the pentagon self-opposite (s = t).

    Then sinh^2(s) = cosh(s), so cosh(s) is the positive root of
    y^2 - y - 1, the golden ratio.
    """
    return math.acosh((1.0 + math.sqrt(5.0)) / 2.0)


def trirectangle_width(tau, theta):
    """Width of a trirectangle with acute angle theta/2 and opposite
    sides tau, w: sinh(w) sinh(tau) = cos(theta/2)."""
    if tau <= 0:
        raise DomainError("tau must be positive")
    if not 0 < theta < math.pi:
        raise DomainError("theta must lie in (0, pi)")
    return math.asinh(math.cos(theta / 2.0) / math.sinh(tau))


class PentagonParams(NamedTuple):
    s: float
    t: float

    def residual(self):
        return abs(math.cosh(self.t) - math.sinh(self.s) ** 2)


class CrownParams(NamedTuple):
    """A crown of signature (h;1): one geodesic boundary, a regular
    4h-gon rim with angle sum 2*pi, built from 8h trirectangles."""

    handles: int
    sides: int
    theta: float
    tau: float
    width: float
    geodesic_len: float
    boundary_len: float

    def residuals(self):
        return {
            "angle closure": abs(self.sides * self.theta - 2.0 * math.pi),
            "trirectangle": abs(
                math.sinh(self.width) * math.sinh(self.tau) - math.cos(self.theta / 2.0)
            ),
            "geodesic": abs(
                math.cosh(self.geodesic_len / 2.0)
                - math.sinh(2.0 * self.tau) * math.sinh(self.width)
            ),
            "rim": abs(self.tau - self.boundary_len / (2.0 * self.sides)),
        }


def build_crown(handles, boundary_len):
    """Crown with 4h rim sides on a geodesic boundary of given length.

    The rim angle is 2*pi/(4h) so the rim vertices fuse into one smooth
    point; the side pairing makes the quotient a genus-h surface with
    one boundary geodesic.  Perpendiculars between paired sides close
    into geodesics of length 2*acosh(sinh(2 tau) sinh(w)).
    """
    if handles < 1:
        raise DomainError("a crown needs at least one handle")
    if boundary_len <= 0:
        raise DomainError("boundary length must be positive")
    n = 4 * handles
    theta = 2.0 * math.pi / n
    tau = boundary_len / (2.0 * n)
    w = trirectangle_width(tau, theta)
    geo = 2.0 * math.acosh(math.sinh(2.0 * tau) * math.sinh(w))
    crown = CrownParams(handles, n, theta, tau, w, geo, float(boundary_len))
    bad = {k: r for k, r in crown.residuals().items() if r > RESIDUAL_TOL}
    if bad:
        raise AssertionError(f"crown identities violated: {bad}")
    return crown


def crown_limit_length():
    """Limiting closed-geodesic length as the rim degenerates
    (width to infinity, tau to zero): 2 acosh(2)."""
    return 2.0 * math.acosh(2.0)


def crown_limit_convergence(handle_counts, boundary_len):
    """Geodesic lengths of crowns with a fixed boundary and growing
    handle count; they decrease monotonically to the limit."""
    return tuple(build_crown(h, boundary_len).geodesic_len for h in handle_counts)


class AssemblyStats(NamedTuple):
    """Numerics of the closed surface obtained by capping the two
    boundary geodesics of the genus-2 octagon surface with crowns."""

    tilde_genus: int
    tilde_boundaries: int
    crown_genus: int
    closed_genus: int
    curve_len: float
    boundary_len: float
    collar_ok: bool
    arm: float
    crown: CrownParams


def example3_assembly():
    """Assemble the genus-12 closed hyperbolic surface's statistics.

    Four octagons with arm parameter s (so the four core curves are
    geodesics of length 4s and the two boundaries have length 8s) are
    capped with two signature-(5;1) crowns.  The collar condition
    requires the crown width to exceed 2s and the crown geodesics to
    stay shorter than the core curves.
    """
    s = solve_arm_parameter()
    t = pentagon_opposite(s)
    crown = build_crown(5, 8.0 * t)
    tilde_genus, tilde_boundaries, crown_genus = 2, 2, 5
    closed_genus = tilde_genus + tilde_boundaries * crown_genus
    curve_len = 4.0 * s
    collar_ok = crown.width > 2.0 * t and crown.geodesic_len < curve_len
    return AssemblyStats(
        tilde_genus,
        tilde_boundaries,
        crown_genus,
        closed_genus,
        curve_len,
        8.0 * t,
        collar_ok,
        s,
        crown,
    )


def identity_report():
    """Named quantities with their defining identities and residuals."""
    s = solve_arm_parameter()
    t = pentagon_opposite(s)
    crown = build_crown(5, 8.0 * t)
    limit = crown_limit_length()
    rows = [
        {
            "name": "arm length s",
            "value": s,
            "identity": "sinh^2(s) = cosh(s)",
            "residual": abs(math.sinh(s) ** 2 - math.cosh(s)),
        },
        {
            "name": "pentagon opposite t",
            "value": t,
            "identity": "cosh(t) = sinh^2(s)",
            "residual": PentagonParams(s, t).residual(),
        },
        {
            "name": "crown width w",
            "value": crown.width,
            "identity": "sinh(w) sinh(tau) = cos(theta/2)",
            "residual": crown.residuals()["trirectangle"],
        },
        {
            "name": "crown geodesic",
            "value": crown.geodesic_len,
            "identity": "cosh(l/2) = sinh(2 tau) sinh(w)",
            "residual": crown.residuals()["geodesic"],
        },
        {
            "name": "crown limit",
            "value": limit,
            "identity": "cosh(limit/2) = 2",
            "residual": abs(math.cosh(limit / 2.0) - 2.0),
        },
    ]
    return rows
