"""Independent references the benchmark checks the program against.

Nothing here imports `dubins3d`: the closed-form planar Dubins CSC paths are
built from circle geometry in the plane, and the path check reads the fields
of a returned path object (arcs, segment, length) and recomputes every pose
with its own rotation formula.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi
# Planar CSC words as (start turn, end turn); +1 turns left (counter-clockwise).
CSC_WORDS = {"LSL": (1, 1), "RSR": (-1, -1), "LSR": (1, -1), "RSL": (-1, 1)}


# -- plain 3-vector helpers -------------------------------------------------

def add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scale(s, a):
    return (s * a[0], s * a[1], s * a[2])


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def norm(a):
    return math.sqrt(dot(a, a))


def unit(a):
    return scale(1.0 / norm(a), a)


# -- closed-form planar Dubins CSC -----------------------------------------

def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _center(p, heading, turn, r):
    # left circle sits at +90 degrees from the heading, right at -90
    return (p[0] - turn * r * math.sin(heading), p[1] + turn * r * math.cos(heading))


def _ray_offset(p, heading, q, u):
    """Signed offset h with p + h (cos, sin)(heading) on the line q + s u."""
    v = (math.cos(heading), math.sin(heading))
    den = _cross2(v, u)
    if den == 0.0:
        return math.inf
    return _cross2((q[0] - p[0], q[1] - p[1]), u) / den


def csc_paths_2d(p0, th0, p1, th1, r):
    """Every planar CSC path (LSL, RSR, LSR, RSL) from pose (p0, th0) to (p1, th1).

    Returns {word: dict(length, t1, seg, t2, h_i, h_f)} for the words that
    exist; t1 and t2 are the arc turn angles in [0, 2 pi), seg the segment
    length, and h_i, h_f the signed offsets along the start and goal heading
    lines at which the segment's carrier line crosses them (the two-offset
    parametrization's coordinates of the path).
    """
    out = {}
    for word, (s1, s2) in CSC_WORDS.items():
        c1 = _center(p0, th0, s1, r)
        c2 = _center(p1, th1, s2, r)
        dx, dy = c2[0] - c1[0], c2[1] - c1[1]
        dist = math.hypot(dx, dy)
        if s1 == s2:
            if dist == 0.0:
                continue
            seg = dist
            psi = math.atan2(dy, dx)
        else:
            if dist < 2.0 * r:
                continue
            seg = math.sqrt(dist * dist - 4.0 * r * r)
            # inner tangent: the centre line is turned by atan(2r / seg) from the segment
            psi = math.atan2(dy, dx) + s1 * math.atan2(2.0 * r, seg)
        t1 = (s1 * (psi - th0)) % TWO_PI
        t2 = (s2 * (th1 - psi)) % TWO_PI
        q1 = (c1[0] + s1 * r * math.sin(psi), c1[1] - s1 * r * math.cos(psi))
        u = (math.cos(psi), math.sin(psi))
        out[word] = {
            "length": r * (t1 + t2) + seg,
            "t1": t1,
            "seg": seg,
            "t2": t2,
            "h_i": _ray_offset(p0, th0, q1, u),
            "h_f": _ray_offset(p1, th1, q1, u),
        }
    return out


def planar_roots_2d(p0, th0, p1, th1, r):
    """Every root of the two tangency equations of a planar pair, all eight
    types together, from pose (p0, th0) to (p1, th1), as (type, h_i, h_f).

    Both offset points lie in the plane, so every root's carrier line does,
    and it is a common tangent of a start circle (radius r, tangent to the
    start heading line at p0) and a goal circle.  The equations place the
    start circle's centre at c = P_i + s (r / |v x g|) (v - g), with v the
    heading, g the carrier direction from P_i toward P_f (reversed for the
    switched types) and s the type's start sign; likewise at the goal.
    Written as c - P_i = a v + b hdir, that is a b < 0 for a regular root and
    a b > 0 for a switched one, at both ends with the same hdir; so a common
    tangent is a root when a b has the same sign at the start and at the
    goal, and the signs of (c - P) . (v - g) at the two ends give its type:
    regular types are 1 to 4, switched 5 to 8, counted with the start sign
    (+ before -) and then the end sign.  Tangents parallel to a heading have
    no finite offsets.
    """
    v0 = (math.cos(th0), math.sin(th0))
    v1 = (math.cos(th1), math.sin(th1))

    def sides(c, p, v, hdir):
        w = (c[0] - p[0], c[1] - p[1])
        switched = _cross2(w, hdir) * _cross2(v, w) > 0.0
        g = (-hdir[0], -hdir[1]) if switched else hdir
        sign = 1 if w[0] * (v[0] - g[0]) + w[1] * (v[1] - g[1]) > 0.0 else -1
        return switched, sign

    roots = []
    for s1 in (1, -1):
        c1 = _center(p0, th0, s1, r)
        for s2 in (1, -1):
            c2 = _center(p1, th1, s2, r)
            dx, dy = c2[0] - c1[0], c2[1] - c1[1]
            dist = math.hypot(dx, dy)
            if dist == 0.0:
                continue
            u = (dx / dist, dy / dist)
            # outer tangents, parallel to the centre line, one on each side
            lines = [((c1[0] - k * r * u[1], c1[1] + k * r * u[0]), u) for k in (1, -1)]
            if dist > 2.0 * r:
                # inner tangents, through the midpoint, turned by asin(2r / dist)
                mid = (0.5 * (c1[0] + c2[0]), 0.5 * (c1[1] + c2[1]))
                turn = math.asin(2.0 * r / dist)
                for k in (1, -1):
                    ca, sa = math.cos(k * turn), math.sin(k * turn)
                    lines.append((mid, (u[0] * ca - u[1] * sa, u[0] * sa + u[1] * ca)))
            for q, d in lines:
                h_i, h_f = _ray_offset(p0, th0, q, d), _ray_offset(p1, th1, q, d)
                if not (math.isfinite(h_i) and math.isfinite(h_f)):
                    continue
                pi = (p0[0] + h_i * v0[0], p0[1] + h_i * v0[1])
                pf = (p1[0] + h_f * v1[0], p1[1] + h_f * v1[1])
                hdir = (pf[0] - pi[0], pf[1] - pi[1])
                switched, start_sign = sides(c1, pi, v0, hdir)
                switched_f, end_sign = sides(c2, pf, v1, hdir)
                if switched == switched_f:
                    type_id = (5 if switched else 1) + (0 if start_sign > 0 else 2) + (0 if end_sign > 0 else 1)
                    roots.append((type_id, h_i, h_f))
    return roots


def fly_2d(p0, th0, word, t1, seg, t2, r):
    """Pose reached by flying arc, segment, arc piece by piece from (p0, th0)."""
    s1, s2 = CSC_WORDS[word]
    x, y, th = p0[0], p0[1], th0
    for turn, angle, straight in ((s1, t1, 0.0), (0, 0.0, seg), (s2, t2, 0.0)):
        if turn:
            cx, cy = _center((x, y), th, turn, r)
            th = th + turn * angle
            x, y = cx + turn * r * math.sin(th), cy - turn * r * math.cos(th)
        else:
            x, y = x + straight * math.cos(th), y + straight * math.sin(th)
    return (x, y), th


def planar_frame(start_pos, goal_pos, normal):
    """Orthonormal in-plane axes (e1 along the chord when it is nonzero)."""
    chord = sub(goal_pos, start_pos)
    e1 = unit(chord) if norm(chord) > 0.0 else unit(cross(normal, (1.0, 0.0, 0.0)))
    e2 = cross(normal, e1)
    return e1, e2


def to_plane(p, origin, e1, e2):
    d = sub(p, origin)
    return (dot(d, e1), dot(d, e2))


def heading_in_plane(v, e1, e2):
    return math.atan2(dot(v, e2), dot(v, e1))


# -- geometric path check ---------------------------------------------------

def _rotate(u, n, t):
    """Rodrigues rotation of u about unit axis n by angle t."""
    c, s = math.cos(t), math.sin(t)
    return add(add(scale(c, u), scale(s, cross(n, u))), scale(dot(n, u) * (1.0 - c), n))


def _arc_pose(arc, t):
    """Point and unit travel tangent of a right-handed arc at turn angle t."""
    n = (arc.plane_normal.x, arc.plane_normal.y, arc.plane_normal.z)
    c = (arc.center.x, arc.center.y, arc.center.z)
    s = (arc.start_point.x, arc.start_point.y, arc.start_point.z)
    radial = _rotate(sub(s, c), n, t)
    return add(c, radial), unit(cross(n, radial))


def _vec(v):
    return (v.x, v.y, v.z)


def path_errors(path, start_pos, start_dir, goal_pos, goal_dir, r):
    """Absolute errors of a CscPath's fields against the requested poses.

    Covers the start and goal pose, both C1 junctions, both arc radii (and
    that each arc's plane normal is a unit vector orthogonal to its radius),
    the turn-angle range and the total length against the sum of the pieces.
    """
    a1, seg, a2 = path.arc_start, path.segment, path.arc_end
    p_s0, t_s0 = _arc_pose(a1, 0.0)
    p_s1, t_s1 = _arc_pose(a1, a1.angle)
    p_e0, t_e0 = _arc_pose(a2, 0.0)
    p_e1, t_e1 = _arc_pose(a2, a2.angle)
    seg_vec = sub(_vec(seg.end), _vec(seg.start))
    seg_len = norm(seg_vec)
    err = {
        "start_position": norm(sub(p_s0, start_pos)),
        "start_heading": norm(sub(t_s0, start_dir)),
        "goal_position": norm(sub(p_e1, goal_pos)),
        "goal_heading": norm(sub(t_e1, goal_dir)),
        "junction1_position": norm(sub(p_s1, _vec(seg.start))),
        "junction2_position": norm(sub(_vec(seg.end), p_e0)),
    }
    if seg_len > 1e-8 * r:
        u = scale(1.0 / seg_len, seg_vec)
        err["junction1_heading"] = norm(sub(t_s1, u))
        err["junction2_heading"] = norm(sub(t_e0, u))
    else:
        err["junction1_heading"] = norm(sub(t_s1, t_e0))
        err["junction2_heading"] = 0.0
    for name, arc in (("arc1", a1), ("arc2", a2)):
        radial = sub(_vec(arc.start_point), _vec(arc.center))
        n = _vec(arc.plane_normal)
        err[f"{name}_radius"] = abs(norm(radial) - r) + abs(arc.radius - r)
        err[f"{name}_plane"] = abs(norm(n) - 1.0) + abs(dot(n, radial))
        err[f"{name}_angle_range"] = max(0.0, -arc.angle, arc.angle - TWO_PI)
    pieces = a1.radius * a1.angle + seg_len + a2.radius * a2.angle
    err["length"] = abs(path.total_length - pieces)
    return err


def path_failures(path, start_pos, start_dir, goal_pos, goal_dir, r, tol_scale=1e-8):
    """Names of the checks a path fails at tol_scale * r."""
    tol = tol_scale * r
    return [k for k, v in path_errors(path, start_pos, start_dir, goal_pos, goal_dir, r).items() if not v <= tol]
