"""The rotation-system validation that ``surfhom.ribbon.validate_ribbon``
replaced, kept as the oracle for the differential tests in
``tests/test_ribbon.py``; the face tracing that ran anew on every
call before a surface kept its faces (``trace_faces``), by its own
loop, so the library's tracer is checked against an independent one;
the union-find over faces that ``complement_components`` ran before
it became a BFS; and the ``canonical_walk`` that compared every
rotation of a walk and of its reversal, where the library compares only
the rotations that start at the least dart.

Its connectivity search walks the whole rotation of a dart's vertex for
every dart it reaches, O(sum of squared degrees) steps, and it traces
every face even when no boundary face is marked.
"""

from surfhom.ribbon import ValidationError, edge_of_dart, edges, validate_walk


def _trace_faces_raw(rotation, twin):
    n = len(twin)
    prv = [None] * n
    for cyc in rotation:
        k = len(cyc)
        for i, d in enumerate(cyc):
            prv[d] = cyc[(i - 1) % k]
    faces = []
    used = [False] * n
    for d0 in range(n):
        if used[d0]:
            continue
        walk = []
        d = d0
        while not used[d]:
            used[d] = True
            walk.append(d)
            d = prv[twin[d]]
        faces.append(tuple(walk))
    return faces


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


def trace_faces(R):
    """All face walks, each from its smallest dart, sorted by that dart,
    traced anew on every call."""
    out = []
    for f in _trace_faces_raw(R.rotation, R.twin):
        i = f.index(min(f))
        out.append(f[i:] + f[:i])
    return tuple(sorted(out))


def complement_components(R, system):
    """Components of the surface minus the walks: the faces, merged by a
    union-find across every edge the system does not use."""
    used = set()
    for walk in system:
        validate_walk(R, walk)
        for d in walk:
            e = edge_of_dart(R, d)
            if e in used:
                raise ValidationError("system walks are not pairwise edge-disjoint")
            used.add(e)
    fmap = {d: f[0] for f in trace_faces(R) for d in f}
    parent = {f: f for f in set(fmap.values())}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges(R):
        if e not in used:
            a, b = find(fmap[e]), find(fmap[R.twin[e]])
            if a != b:
                parent[a] = b
    return len({find(f) for f in parent})


def canonical_walk(walk, twin):
    """Least dart sequence over all rotations of the walk and of its reversal."""
    m = len(walk)
    rev = tuple(twin[d] for d in reversed(walk))
    best = None
    for seq in (walk, rev):
        for i in range(m):
            cand = seq[i:] + seq[:i]
            if best is None or cand < best:
                best = cand
    return best
