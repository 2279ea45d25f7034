"""The three workloads: how each builds its inputs, runs one operation and checks it.

A workload object is made from the imported ``planarcontrol`` package, a
seed and an output directory.  ``build()`` returns the fixed list of
operations one round replays; ``call(op)`` runs one operation through the
package's public interface (looked up on the package at call time, so the
traced run sees every call); ``check(op, out)`` compares the result with the
independent computations in :mod:`ref` and raises :class:`CheckFailed` on
any disagreement; ``digest(out)`` identifies an output so that a later
round's identical output for the same input counts as already checked.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

import inputs
import ref


class CheckFailed(Exception):
    """An output disagrees with the independent reference."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _hash(*parts):
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.digest()


def membership_band(rsys, tau_grid, dense):
    """Width of the band around the boundary where verdicts may legitimately differ.

    The program's membership intersects tangent half-planes at ``tau_grid``
    samples per arc, which overshoots the curve by about the sag of a chord
    polyline at the same resolution; the reference polygon undershoots by its
    own sag.  Four times the first plus the second, plus rounding slack.
    """
    coarse = ref.boundary(rsys, tau_grid - 1)
    scale = 1.0 + float(np.abs(dense).max())
    return 4.0 * ref.sag(coarse) + ref.sag(dense) + 1e-9 * scale


# --------------------------------------------------------------------- plan


@dataclass
class Request:
    kind: str  # "reach", "hop" or "loop"
    doc: dict
    system: object
    point: np.ndarray  # reach target, or hop/loop start
    epsilon: float = 0.0  # reach accuracy
    u_goal: float = 0.0  # hop/loop goal control


class Plan:
    """Steering requests: reach plans on both trace signs, hop and loop plans at zero trace."""

    name = "plan"
    tail_percentile = 95
    RATIO_CELLS = 40  # x 3 epsilons x 2 trace signs = 240 reach requests
    N_ZERO = 60
    HOP_TOL = 1e-9  # hop_plan's default line tolerance

    def __init__(self, pc, seed, out_dir):
        self.pc = pc
        self.seed = seed

    def build(self):
        pc = self.pc
        rng = np.random.default_rng([self.seed, 1])
        # Full factorial over the cost factors (ratio cell midpoint,
        # epsilon, trace sign), so every seed has the same mix; the seed
        # draws everything else.  Target depth is stratified within each
        # ratio cell, since the two together set the length of reach_plan's
        # crossing search.
        cells = [(c, e, sign) for c in range(self.RATIO_CELLS)
                 for e in range(len(inputs.EPSILONS)) for sign in (-1, 1)]
        per_cell = 2 * len(inputs.EPSILONS)
        depth = np.concatenate([inputs.strata(rng, per_cell) for _ in range(self.RATIO_CELLS)])
        ops = []
        for i, (c, e, sign) in enumerate(cells):
            ratio = inputs.log_ratio((c + 0.5) / self.RATIO_CELLS)
            doc = inputs.system_doc(rng, ratio, sign, bool(rng.integers(2)))
            sys = inputs.make_system(pc, doc)
            # Beyond the documented max_pairs cap reach_plan raises
            # EpsilonTooSmall by design; such a request asks the next coarser
            # accuracy instead.
            while e > 0 and inputs.closed_form_pairs(pc, sys, inputs.EPSILONS[e]) > inputs.MAX_PAIRS:
                e -= 1
            rho = inputs.DEPTH_RANGE[0] * (inputs.DEPTH_RANGE[1] / inputs.DEPTH_RANGE[0]) ** depth[i]
            target = inputs.reach_target(pc, sys, rng, rho)
            ops.append(Request("reach", doc, sys, target, epsilon=inputs.EPSILONS[e]))
        for j in range(self.N_ZERO):
            doc = inputs.system_doc(rng, 0.0, 0, j % 4 >= 2)
            sys = inputs.make_system(pc, doc)
            e_min = pc.equilibrium(sys, sys.u_min)
            e_max = pc.equilibrium(sys, sys.u_max)
            spread = float(np.linalg.norm(e_max - e_min))
            start = 0.5 * (e_min + e_max) + rng.normal(0.0, 1.5 * spread, 2)
            u_goal = float(rng.uniform(sys.u_min, sys.u_max))
            ops.append(Request("hop" if j % 2 == 0 else "loop", doc, sys, start, u_goal=u_goal))
        return [ops[k] for k in rng.permutation(len(ops))]

    def call(self, op):
        pc = self.pc
        if op.kind == "reach":
            return pc.reach_plan(op.system, op.point, op.epsilon)
        if op.kind == "hop":
            return pc.hop_plan(op.system, op.point, op.u_goal)
        return pc.loop_plan(op.system, op.point, op.u_goal)

    def digest(self, op, res):
        return _hash(
            res.schedule, res.start.tobytes(), res.goal.tobytes(), res.endpoint.tobytes(),
            res.endpoint_error, res.hops, res.time_reversed,
        )

    def check(self, op, res):
        rsys = ref.System(op.doc["a"], op.doc["eta"], *op.doc["omega"])
        schedule = [(float(u), float(dt)) for u, dt in res.schedule]
        require(all(math.isfinite(dt) and dt >= 0.0 for _, dt in schedule), "negative or non-finite duration")
        if op.kind == "reach":
            work = rsys.work()
            require(res.time_reversed == (rsys.trace > 0.0), "time_reversed does not match the trace sign")
            require(np.array_equal(res.goal, op.point), "goal is not the requested target")
            start = work.center(work.u_min)
            scale = max(1.0, float(np.abs(start).max()), float(np.abs(op.point).max()))
            require(np.linalg.norm(res.start - start) <= 1e-12 * scale, "start is not the u_min equilibrium")
            require(all(u in (work.u_min, work.u_max) for u, _ in schedule), "reach control is not extreme")
            tol = op.epsilon
        else:
            work = rsys
            pad = 1e-9 * (1.0 + max(abs(rsys.u_min), abs(rsys.u_max)))
            require(all(rsys.u_min - pad <= u <= rsys.u_max + pad for u, _ in schedule), "control out of range")
            goal_eq = work.center(op.u_goal)
            start, goal = (op.point, goal_eq) if op.kind == "hop" else (goal_eq, op.point)
            scale = max(1.0, float(np.abs(start).max()), float(np.abs(goal).max()))
            require(np.linalg.norm(res.start - start) <= 1e-12 * scale, "start is not the requested one")
            require(np.linalg.norm(res.goal - goal) <= 1e-12 * scale, "goal is not the requested one")
            tol = self.HOP_TOL * scale
        end = work.run(res.start, schedule)
        slack = 1e-12 * scale * (1 + len(schedule))
        require(np.linalg.norm(end - res.goal) <= tol + slack,
                f"independent endpoint misses the goal by {np.linalg.norm(end - res.goal):.3g} > {tol:.3g}")
        require(np.linalg.norm(res.endpoint - end) <= tol + slack,
                f"reported endpoint is {np.linalg.norm(res.endpoint - end):.3g} from the independent one")
        require(abs(res.endpoint_error - np.linalg.norm(res.endpoint - res.goal)) <= slack,
                "endpoint_error does not match the endpoint")


# -------------------------------------------------------------------- query


@dataclass
class Batch:
    region: int
    points: np.ndarray
    exterior: int  # how many exterior points get a distance


class Query:
    """Membership and exterior distance for batches of points around prebuilt regions."""

    name = "query"
    tail_percentile = 95
    N_REGIONS = 8
    BATCHES_PER_REGION = 3
    BATCH = 2048
    EXTERIOR = 64
    # The first LARGE_BATCHES batches of a round are LARGE times bigger, in
    # points and in exterior points.  They are 1/8 of the operations, so p95
    # falls inside their samples rather than on the machine's noise tail
    # over identical operations.
    LARGE_BATCHES = 3
    LARGE = 4
    BOX = 1.5  # sampling box, as a multiple of the orbit's bounding box
    REF_SAMPLES = 1024  # reference boundary vertices per arc

    def __init__(self, pc, seed, out_dir):
        self.pc = pc
        self.seed = seed
        self._refs = {}

    def build(self):
        pc = self.pc
        rng = np.random.default_rng([self.seed, 2])
        ratios = inputs.strata(rng, self.N_REGIONS)
        self.docs, self.regions = [], []
        for i in range(self.N_REGIONS):
            doc = inputs.system_doc(
                rng, inputs.log_ratio(ratios[i]), -1 if i % 2 == 0 else 1, (i // 2) % 2 == 1
            )
            self.docs.append(doc)
            self.regions.append(pc.build_orbit_region(inputs.make_system(pc, doc)))
        ops = []
        for b in range(self.N_REGIONS * self.BATCHES_PER_REGION):
            i = b % self.N_REGIONS
            xmin, xmax, ymin, ymax = self.regions[i].orbit.bounding_box()
            cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
            hx, hy = 0.5 * self.BOX * (xmax - xmin), 0.5 * self.BOX * (ymax - ymin)
            size = self.LARGE if b < self.LARGE_BATCHES else 1
            n = size * self.BATCH
            pts = np.column_stack([rng.uniform(cx - hx, cx + hx, n), rng.uniform(cy - hy, cy + hy, n)])
            ops.append(Batch(i, pts, size * self.EXTERIOR))
        self._refs = {}
        return ops

    def call(self, op):
        region = self.regions[op.region]
        margins = region.margins_many(op.points)
        exterior = op.points[margins < 0.0][: op.exterior]
        return margins, self.pc.polyline_distance(exterior, region.boundary)

    def digest(self, op, out):
        return _hash(out[0].tobytes(), out[1].tobytes())

    def _reference(self, i):
        if i not in self._refs:
            doc = self.docs[i]
            rsys = ref.System(doc["a"], doc["eta"], *doc["omega"])
            dense = ref.boundary(rsys, self.REF_SAMPLES)
            band = membership_band(rsys, 512, dense)  # build_orbit_region's default tau_grid
            self._refs[i] = (dense, band)
        return self._refs[i]

    def check(self, op, out):
        margins, dist = out
        dense, band = self._reference(op.region)
        require(margins.shape == (len(op.points),), "one margin per point expected")
        inside = ref.inside_even_odd(op.points, dense)
        disagree = (margins > 0.0) != inside
        off = ref.distance_to_polyline(op.points[disagree], dense)
        wrong = np.count_nonzero(off > band)
        require(wrong == 0, f"{wrong} membership verdicts disagree outside the band {band:.3g}")
        ext_mask = margins < 0.0
        exterior = op.points[ext_mask][: op.exterior]
        require(dist.shape == (len(exterior),), "one distance per exterior point expected")
        # Exterior by both verdicts; the program's distance is to its own
        # inscribed polyline, the reference's to a finer one.
        d_ref = ref.distance_to_polyline(exterior, dense)
        both = ~inside[ext_mask][: op.exterior]
        slack = ref.sag(self.regions[op.region].boundary) + ref.sag(dense) + 1e-9 * (1.0 + float(np.abs(dense).max()))
        gap = np.abs(dist - d_ref)[both]
        require(gap.size == 0 or gap.max() <= slack,
                f"distance off by {gap.max() if gap.size else 0:.3g} > {slack:.3g}")


# ---------------------------------------------------------------------- cli


@dataclass
class Invocation:
    command: str
    config: str  # path of the JSON config
    doc: dict
    out: str  # artifact directory
    svg: str | None
    malformed: bool = False


class Cli:
    """In-process runs of the command-line frontend over every subcommand."""

    name = "cli"
    tail_percentile = 95
    SAMPLES = 256  # the config's default samples per arc
    EPSILON = 1e-6
    # One ratio and one target depth, so that each command costs about the
    # same on every seed and the median stays inside one command's samples.
    RATIO = 0.4
    DEPTH = 0.5

    def __init__(self, pc, seed, out_dir):
        self.pc = pc
        self.seed = seed
        self.root = os.path.join(out_dir, f"cli-{seed}")

    def _write(self, name, doc):
        path = os.path.join(self.root, "configs", name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def build(self):
        pc = self.pc
        rng = np.random.default_rng([self.seed, 3])
        os.makedirs(os.path.join(self.root, "configs"), exist_ok=True)
        docs = {}
        for tag, sign, cw in (("neg", -1, False), ("pos", 1, True), ("zero", 0, bool(rng.integers(2)))):
            doc = inputs.system_doc(rng, self.RATIO if sign else 0.0, sign, cw)
            sys = inputs.make_system(pc, doc)
            doc["epsilon"] = self.EPSILON
            if sign:
                xmin, xmax, ymin, ymax = pc.periodic_orbit(sys).bounding_box()
                extent = max(xmax - xmin, ymax - ymin)
                doc["target"] = inputs.reach_target(pc, sys, rng, self.DEPTH).tolist()
                doc["start"] = doc["target"]
                # Interior point on the negative system, exterior on the positive one.
                lam = (0.1, 0.8) if sign < 0 else (1.3, 1.8)
                doc["point"] = inputs.ray_point(pc, sys, rng, lam).tolist()
                # Negative trace stops at a fixpoint (the region); positive
                # trace spreads outward, so it gets a coarser, shorter sweep.
                if sign < 0:
                    doc["grid"] = {"dx": extent / 40.0, "dt": sys.half_period / 12.0,
                                   "horizon": 20.0 * sys.half_period}
                else:
                    doc["grid"] = {"dx": extent / 32.0, "dt": sys.half_period / 10.0,
                                   "horizon": sys.half_period}
            else:
                e_min, e_max = pc.equilibrium(sys, sys.u_min), pc.equilibrium(sys, sys.u_max)
                spread = float(np.linalg.norm(e_max - e_min))
                doc["start"] = (0.5 * (e_min + e_max) + rng.normal(0.0, spread, 2)).tolist()
                doc["point"] = (0.5 * (e_min + e_max) + rng.normal(0.0, spread, 2)).tolist()
                anchors = np.vstack([e_min, e_max, doc["start"]])
                half = 3.0 * float(np.abs(anchors - anchors.mean(axis=0)).max())
                doc["grid"] = {"dx": half / 24.0, "dt": sys.half_period / 12.0,
                               "horizon": 4.0 * sys.half_period}
            docs[tag] = doc
        nu = 0.5 * sum(docs["neg"]["omega"])
        width = docs["neg"]["omega"][1] - docs["neg"]["omega"][0]
        docs["sweep"] = dict(docs["neg"], sweep={
            "nu": nu, "grid": [[nu - 0.5 * f * width, nu + 0.5 * f * width] for f in (0.5, 1.0, 1.5, 2.0)]})
        # Malformed configs: the module docstring promises exit code 2 for each.
        bad = {
            "bad_omega": dict(inputs.S0, omega=["x", 1]),
            "bad_dx": dict(inputs.S0, grid={"dx": "abc"}),
            "bad_samples": dict(inputs.S0, samples=4, target=[0.2, 0.1]),
        }
        plan = [
            ("analyze", "neg"), ("analyze", "pos"), ("analyze", "zero"),
            ("orbit", "neg"), ("orbit", "pos"),
            ("member", "neg"), ("member", "pos"), ("member", "zero"),
            ("plan", "neg"), ("plan", "pos"), ("plan", "zero"),
            ("reach", "neg"), ("reach", "pos"), ("reach", "zero"),
            ("sweep", "sweep"),
            ("analyze", "bad_omega"), ("reach", "bad_dx"), ("plan", "bad_samples"),
        ]
        ops = []
        for k, (command, tag) in enumerate(plan):
            doc = docs.get(tag) or bad[tag]
            out = os.path.join(self.root, f"{k:02d}-{command}-{tag}")
            os.makedirs(out, exist_ok=True)
            # Zero trace has no orbit, so analyze and member have nothing to draw.
            svg = None if (tag == "zero" and command in ("analyze", "member")) else os.path.join(out, "plot.svg")
            ops.append(Invocation(command, self._write(tag, doc), doc, out, svg, malformed=tag in bad))
        return ops

    def prepare(self, op):
        for name in os.listdir(op.out):
            os.unlink(os.path.join(op.out, name))

    def call(self, op):
        argv = [op.command, op.config, "--out", op.out]
        if op.svg is not None:
            argv += ["--svg", op.svg]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = self.pc.cli.main(argv)
        return code, stdout.getvalue()

    def _files(self, op, out):
        code, text = out
        if code != 0:
            return []
        return [n if os.path.isabs(n) or n == op.svg else os.path.join(op.out, n)
                for n in json.loads(text)["files"]]

    def digest(self, op, out):
        parts = [out[0], out[1]]
        for path in self._files(op, out):
            with open(path, "rb") as fh:
                parts.append(fh.read())
        return _hash(*parts)

    def bytes_written(self, op, out):
        return sum(os.path.getsize(p) for p in self._files(op, out))

    # Identical input must give identical bytes on every round.
    rerun_must_match = True

    def check(self, op, out):
        code, text = out
        if op.malformed:
            require(code == 2, f"malformed config {os.path.basename(op.config)} exited {code}, not 2")
            return
        require(code == 0, f"{op.command} exited {code}")
        report = json.loads(text)
        require(report["command"] == op.command, "report names another command")
        for path in self._files(op, out):
            require(os.path.isfile(path), f"missing artifact {path}")
            if path.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    json.load(fh)
            elif path.endswith(".svg"):
                require(ET.parse(path).getroot().tag.endswith("svg"), "svg root is not <svg>")
        rsys = ref.System(op.doc["a"], op.doc["eta"], *op.doc["omega"])
        getattr(self, "_check_" + op.command)(op, report, rsys)

    def _csv(self, op, name):
        with open(os.path.join(op.out, name), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return rows[0], [[float(x) for x in r] for r in rows[1:]]

    def _json(self, op, name):
        with open(os.path.join(op.out, name), encoding="utf-8") as fh:
            return json.load(fh)

    @staticmethod
    def _scale(*vecs):
        return 1.0 + max(float(np.abs(np.asarray(v, dtype=float)).max()) for v in vecs)

    def _check_analyze(self, op, report, rsys):
        doc = self._json(op, "analyze.json")
        if rsys.trace == 0.0:
            require(doc["classification"] == "controllable", "zero trace not classified controllable")
            require(doc["p_plus"] is None and doc["checks"] == [], "zero trace reports an orbit")
            return
        expect = "closed" if rsys.trace < 0.0 else "open"
        require(doc["classification"] == expect, f"classified {doc['classification']}, expected {expect}")
        require(doc["checks"] and all(c["passed"] for c in doc["checks"]), "an analyze check failed")
        p_plus, p_minus = ref.fixed_points(rsys.work())
        scale = self._scale(p_plus, p_minus)
        for key, want in (("p_plus", p_plus), ("p_minus", p_minus)):
            gap = np.linalg.norm(np.array(doc[key]) - want)
            require(gap <= 1e-9 * scale, f"{key} is {gap:.3g} from the iterated fixed point")

    def _check_orbit(self, op, report, rsys):
        header, rows = self._csv(op, "orbit.csv")
        require(header == ["t", "x", "y", "u"], "orbit.csv header")
        n = self.SAMPLES
        require(len(rows) == 2 * n + 1, "orbit.csv row count")
        work_plus, work_minus = ref.fixed_points(rsys.work())
        # The reversed system's corners are the original's, exchanged.
        p_plus, p_minus = (work_plus, work_minus) if rsys.trace < 0.0 else (work_minus, work_plus)
        half = rsys.half_period
        rows = np.array(rows)
        t, xy, u = rows[:, 0], rows[:, 1:3], rows[:, 3]
        first = np.arange(len(rows)) <= n
        want = np.empty_like(xy)
        want[first] = rsys.flow(t[first], p_plus, rsys.u_min)
        want[~first] = rsys.flow(t[~first] - half, p_minus, rsys.u_max)
        require(np.all(u[first] == rsys.u_min) and np.all(u[~first] == rsys.u_max), "orbit.csv controls")
        gap = float(np.linalg.norm(xy - want, axis=1).max())
        require(gap <= 1e-9 * self._scale(p_plus, p_minus), f"orbit.csv is {gap:.3g} off the exact orbit")

    def _check_member(self, op, report, rsys):
        doc = self._json(op, "member.json")
        if rsys.trace == 0.0:
            require(doc["verdict"] == "interior", "zero trace: the whole plane is the control set")
            return
        dense = ref.boundary(rsys, 1024)
        band = membership_band(rsys, op.doc.get("tau_grid", 512), dense)
        point = np.array(op.doc["point"])
        dist = ref.distance_to_polyline(point, dense)[0]
        require(dist > band, "member point chosen inside the tolerance band")
        want = "interior" if ref.inside_even_odd(point, dense)[0] else "exterior"
        require(doc["verdict"] == want, f"member verdict {doc['verdict']}, even-odd says {want}")

    def _check_plan(self, op, report, rsys):
        header, rows = self._csv(op, "plan.csv")
        require(header == ["index", "u", "dt"], "plan.csv header")
        schedule = [(u, dt) for _, u, dt in rows]
        plan = self._json(op, "plan.json")
        start, goal, endpoint = (np.array(plan[k]) for k in ("start", "goal", "endpoint"))
        require(all(dt >= 0.0 for _, dt in schedule), "negative duration")
        scale = self._scale(start, goal)
        if rsys.trace == 0.0:
            u0 = 0.5 * (rsys.u_min + rsys.u_max)
            require(np.linalg.norm(goal - rsys.center(u0)) <= 1e-12 * scale, "hop goal is not the u0 equilibrium")
            require(all(rsys.u_min <= u <= rsys.u_max for u, _ in schedule), "control out of range")
            work, tol = rsys, 1e-9 * scale
        else:
            require(plan["time_reversed"] == (rsys.trace > 0.0), "time_reversed does not match the trace")
            work, tol = rsys.work(), op.doc["epsilon"]
            require(np.array_equal(goal, np.array(op.doc["target"])), "goal is not the target")
            require(all(u in (work.u_min, work.u_max) for u, _ in schedule), "reach control is not extreme")
        end = work.run(start, schedule)
        slack = 1e-12 * scale * (1 + len(schedule))
        require(np.linalg.norm(end - goal) <= tol + slack, "independent endpoint misses the goal")
        require(np.linalg.norm(endpoint - end) <= tol + slack, "reported endpoint differs from the independent one")

    def _check_reach(self, op, report, rsys):
        header, rows = self._csv(op, "reach.csv")
        require(header == ["x", "y"], "reach.csv header")
        info = self._json(op, "reach.json")
        pts = np.array(rows).reshape(-1, 2)
        require(info["occupied"] == len(pts) > 0, "reach.json count differs from reach.csv")
        dx = op.doc["grid"]["dx"]
        start = np.array(op.doc["start"])
        require(np.abs(pts - start).max(axis=1).min() <= 0.5 * dx * (1 + 1e-9), "start cell not occupied")
        xmin, xmax, ymin, ymax = info["bounds"]
        require(np.all((pts[:, 0] > xmin) & (pts[:, 0] < xmax + dx) & (pts[:, 1] > ymin) & (pts[:, 1] < ymax + dx)),
                "occupied cell outside the grid")
        if rsys.trace < 0.0:
            dense = ref.boundary(rsys, 1024)
            out = pts[~ref.inside_even_odd(pts, dense)]
            worst = float(ref.distance_to_polyline(out, dense).max()) if len(out) else 0.0
            require(worst <= 2.0 * dx, f"reach leaves the region by {worst:.3g} > two cells")

    def _check_sweep(self, op, report, rsys):
        header, rows = self._csv(op, "sweep.csv")
        require(header[:2] == ["alpha", "rho"] and header[-1] == "hausdorff_prev", "sweep.csv header")
        grid = op.doc["sweep"]["grid"]
        require(len(rows) == len(grid), "one sweep row per range")
        prev = None
        for (alpha, rho, ppx, ppy, pmx, pmy, h), (a_want, r_want) in zip(rows, grid):
            require((alpha, rho) == (a_want, r_want), "sweep range differs from the config")
            s = ref.System(op.doc["a"], op.doc["eta"], alpha, rho)
            p_plus, p_minus = ref.fixed_points(s)
            scale = self._scale(p_plus, p_minus)
            gap = max(np.linalg.norm([ppx, ppy] - p_plus), np.linalg.norm([pmx, pmy] - p_minus))
            require(gap <= 1e-9 * scale, f"sweep fixed points off by {gap:.3g}")
            bnd = ref.boundary(s, self.SAMPLES)
            if prev is None:
                require(math.isnan(h), "first hausdorff_prev must be nan")
            else:
                want = ref.hausdorff(bnd, prev)
                require(abs(h - want) <= 1e-9 * scale, f"hausdorff_prev {h} != brute force {want}")
            prev = bnd


WORKLOADS = {w.name: w for w in (Plan, Query, Cli)}
