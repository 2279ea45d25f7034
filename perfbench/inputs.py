"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed.  The properties the
program's cost depends on are laid out evenly rather than drawn
independently: the ratio |eig_real| / eig_imag (which sets the half-turn
contraction, hence a reach plan's pair count and crossing-search length) on
a log scale over [0.05, 3], the trace sign, and the target's depth.  Every
basis is skewed by a random well-conditioned change of frame.  This keeps
the latency distribution of one seed close to that of any other, so
run-to-run spread measures the program, not the draw.

Only public calls of ``planarcontrol`` are used, so the time spent here is
part of the workload's set-up.
"""

import math

import numpy as np

RATIO_RANGE = (0.05, 3.0)
EPSILONS = (1e-3, 1e-6, 1e-9)
MAX_PAIRS = 60  # reach_plan's documented default cap
DEPTH_RANGE = (0.15, 1.0)  # target distance from v(u_min), as a share of |p_minus - v(u_min)|
ORBIT_SAMPLES = 16  # per arc, for the vertices targets are built from (the fewest periodic_orbit allows)

# The fixed reference system of the package's worked examples.
S0 = {"a": [[-1.0, -1.0], [1.0, -1.0]], "eta": [1.0, 0.0], "omega": [-1.0, 1.0]}


def strata(rng, n):
    """Latin-hypercube samples in [0, 1): one per stratum, shuffled."""
    return (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) / n


def _skew(rng):
    while True:
        s = np.eye(2) + rng.normal(0.0, 0.3, (2, 2))
        if abs(np.linalg.det(s)) > 0.3:
            return s


def _control_data(rng):
    while True:
        eta = rng.normal(0.0, 1.0, 2)
        if np.linalg.norm(eta) >= 0.3:
            break
    u_min, u_max = np.sort(rng.uniform(-2.0, 2.0, 2))
    if u_max - u_min < 0.2:
        u_max = u_min + rng.uniform(0.2, 1.0)
    return eta, float(u_min), float(u_max)


def drift(rng, ratio, trace_sign, clockwise):
    """Skewed drift with |eig_real| / eig_imag = ratio (0 for zero trace)."""
    ei = rng.uniform(0.3, 2.0)
    er = trace_sign * ratio * ei
    spin = -1.0 if clockwise else 1.0
    c = np.array([[er, -spin * ei], [spin * ei, er]])
    s = _skew(rng)
    a = s @ c @ np.linalg.inv(s)
    if trace_sign == 0:
        a = a - 0.5 * np.trace(a) * np.eye(2)  # exact zero trace
    return a


def system_doc(rng, ratio, trace_sign, clockwise):
    eta, u_min, u_max = _control_data(rng)
    return {
        "a": drift(rng, ratio, trace_sign, clockwise).tolist(),
        "eta": eta.tolist(),
        "omega": [u_min, u_max],
    }


def make_system(pc, doc):
    return pc.LinearControlSystem(doc["a"], doc["eta"], *doc["omega"])


def log_ratio(x):
    lo, hi = RATIO_RANGE
    return lo * (hi / lo) ** x


def _vertices(pc, sys):
    """Vertices of the sampled orbit (each on the boundary) and their centroid."""
    poly = pc.periodic_orbit(sys, ORBIT_SAMPLES).polyline()[:-1]
    return poly, poly.mean(axis=0)


def ray_point(pc, sys, rng, lam_range):
    """``centroid + lam * (vertex - centroid)`` for a random orbit vertex.

    The centroid is that of the sampled orbit's vertices.  The region is
    convex and the vertices lie on its boundary, so lam in (0, 1) gives an
    interior point and lam > 1 an exterior one, without any membership code.
    """
    poly, centroid = _vertices(pc, sys)
    vertex = poly[rng.integers(len(poly))]
    lam = rng.uniform(*lam_range)
    return centroid + lam * (vertex - centroid)


def reach_target(pc, sys, rng, rho, lam_range=(0.05, 0.85), tol=0.02):
    """Interior target at a chosen depth for reach planning.

    Still a convex combination of the boundary's vertex centroid and a
    vertex, but among those (vertices in random order, lambda on a grid) the
    one whose canonical distance from the u_min equilibrium is closest to
    ``rho`` times that of p_minus.  That distance sets how many half turns the
    backward spiral from the target needs to leave the region, which is what
    reach_plan's crossing search costs; choosing it by stratum keeps the cost
    mix of one seed close to that of any other.
    """
    work = sys.time_reversed() if sys.trace > 0.0 else sys
    cf = work.canonical
    poly, centroid = _vertices(pc, sys)
    e_min = cf.to_canonical(pc.equilibrium(work, work.u_min))
    _, p_minus = pc.half_turn_fixed_points(work)
    want = rho * float(np.linalg.norm(cf.to_canonical(p_minus) - e_min))
    lam = np.linspace(lam_range[0], lam_range[1], 33)
    pts = centroid + lam[:, None, None] * (poly - centroid)  # (lambda, vertex, 2)
    gaps = np.abs(np.linalg.norm(cf.to_canonical(pts) - e_min, axis=2) - want)
    best_lam = gaps.argmin(axis=0)
    order = rng.permutation(len(poly))
    close = order[gaps[best_lam[order], order] <= tol * want]
    j = close[0] if len(close) else int(gaps.min(axis=0).argmin())
    return pts[best_lam[j], j]


def closed_form_pairs(pc, sys, epsilon):
    """Smallest k with err0 * q^(2k) <= epsilon / 4 (reach_plan's prediction)."""
    work = sys.time_reversed() if sys.trace > 0.0 else sys
    cf = work.canonical
    q = math.exp(math.pi * cf.eig_real / cf.eig_imag)
    zp, zm = (cf.to_canonical(p) for p in pc.half_turn_fixed_points(work))
    e_min = cf.to_canonical(pc.equilibrium(work, work.u_min))
    err0 = float(np.linalg.norm(e_min - zm))
    scale = max(1.0, float(np.linalg.norm(zp - zm)))
    want = max(epsilon / 4.0, 1e-13 * scale)
    if err0 <= want:
        return 1
    return max(1, math.ceil(math.log(want / err0) / (2.0 * math.log(q))))
