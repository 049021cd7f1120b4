"""The rotation-system validation that ``surfhom.ribbon.validate_ribbon``
replaced, kept as the oracle for the differential tests in
``tests/test_ribbon.py``.

Its connectivity search walks the whole rotation of a dart's vertex for
every dart it reaches, O(sum of squared degrees) steps, and it traces
every face even when no boundary face is marked.
"""

from surfhom.ribbon import ValidationError, _trace_faces_raw


def validate_ribbon(R):
    n = len(R.twin)
    if n == 0:
        raise ValidationError("ribbon graph has no darts")
    if n % 2:
        raise ValidationError("odd number of darts")
    if not all(isinstance(d, int) for cyc in (R.twin, *R.rotation) for d in cyc):
        raise ValidationError("darts must be integers")
    for d, t in enumerate(R.twin):
        if not 0 <= t < n or R.twin[t] != d or t == d:
            raise ValidationError("twin is not a fixed-point-free involution")
    if not all(R.rotation):
        raise ValidationError("vertex with an empty rotation cycle")
    seen = sorted(d for cyc in R.rotation for d in cyc)
    if seen != list(range(n)):
        raise ValidationError("rotation cycles do not partition the darts")
    if R.edge_labels is not None and len(R.edge_labels) != n // 2:
        raise ValidationError("edge_labels length != number of edges")
    # connectivity over darts through twin and shared vertices
    vert = [None] * n
    for v, cyc in enumerate(R.rotation):
        for d in cyc:
            vert[d] = v
    reached = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        for nxt in (R.twin[d], *R.rotation[vert[d]]):
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    if len(reached) != n:
        raise ValidationError("underlying graph is not connected")
    faces = {min(f) for f in _trace_faces_raw(R.rotation, R.twin)}
    if not R.boundary_faces <= faces:
        raise ValidationError("boundary_faces refers to unknown faces")
    object.__setattr__(R, "vertex_of", tuple(vert))
