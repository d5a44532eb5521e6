"""Workspace model: a bounded box populated with axis-aligned obstacles.

The environment is the *workspace* the robot moves in.  Obstacles are AABBs
stored in two stacked arrays (``obs_lo``, ``obs_hi``) so collision queries
against *batches* of points or segments are single vectorised NumPy
expressions — the dominant cost of sampling-based planning is collision
checking, so this is the hot path (see the profiling guidance in the
project's HPC notes).

The environment also counts collision-detection calls.  The simulated
distributed runtime charges virtual time per CD call, so these counters are
the bridge between "real planner work" and "virtual machine time".

Since the kernels refactor the actual collision arithmetic lives in
:mod:`repro.kernels`: queries snapshot the obstacle set into a
structure-of-arrays :class:`~repro.kernels.data.EnvKernelData` (built
once: the obstacle set is fixed at construction) and dispatch to the
environment's configured :class:`~repro.kernels.base.KernelBackend` — ``reference`` by default,
which is bit-exact with the historical inline expressions.  The
environment is the only owner of that choice, always a
:data:`repro.kernels.BACKENDS` name; the per-call ``kernels=`` on its
query methods is for differential checks of one backend against the
other without mutating the default.
"""

from __future__ import annotations

import threading

import numpy as np

from ..kernels import EnvKernelData, get_backend
from .primitives import AABB

__all__ = ["Environment", "CollisionCounters"]

#: Box-obstacle pairs one slice of :meth:`Environment.boxes_on_boundary` tests.
_BOX_PAIRS = 1 << 16

#: Serialises first snapshots (module-level: an Environment is pickled to
#: inline-plane workers, a lock attribute would not survive that).
_SNAPSHOT_LOCK = threading.Lock()


class CollisionCounters:
    """Tally of collision-detection work performed against an environment.

    Every thread charges its own cell, so concurrent region tasks on one
    shared environment never race: ``point_checks`` / ``segment_checks``
    read the total over all threads, while ``snapshot`` / ``delta`` /
    ``rescale_since`` window the *calling* thread's work only — the exact
    per-task delta, whichever pool backend ran the task.
    """

    def __init__(self, point_checks: int = 0, segment_checks: int = 0):
        self._cells = {threading.get_ident(): [point_checks, segment_checks]}

    def _cell(self) -> "list[int]":
        ident = threading.get_ident()
        cell = self._cells.get(ident)
        if cell is None:
            cell = self._cells[ident] = [0, 0]
        return cell

    def charge(self, points: int = 0, segments: int = 0) -> None:
        """Add work done by the calling thread."""
        cell = self._cell()
        cell[0] += points
        cell[1] += segments

    # Totals copy the cell list first: another thread may add its cell
    # while this one sums.
    @property
    def point_checks(self) -> int:
        return sum(c[0] for c in list(self._cells.values()))

    @property
    def segment_checks(self) -> int:
        return sum(c[1] for c in list(self._cells.values()))

    def reset(self) -> None:
        self._cells = {}

    def snapshot(self) -> "CollisionCounters":
        return CollisionCounters(*self._cell())

    def delta(self, earlier: "CollisionCounters") -> "CollisionCounters":
        points, segments = self._cell()
        return CollisionCounters(
            points - earlier.point_checks, segments - earlier.segment_checks
        )

    def rescale_since(self, earlier: "CollisionCounters", num: int, den: int) -> None:
        """Scale the calling thread's charge since ``earlier`` by ``num/den``.

        The batched planners evaluate more points speculatively than the
        sequential oracle would; every evaluated point charges the same
        constant, so the integer proportion is exact.
        """
        cell = self._cell()
        for i, base in enumerate((earlier.point_checks, earlier.segment_checks)):
            cell[i] = base + (cell[i] - base) * num // den

    @property
    def total(self) -> int:
        return self.point_checks + self.segment_checks


class Environment:
    """A ``d``-dimensional bounded workspace with axis-aligned box obstacles.

    The obstacles are stored once, as two ``(n, d)`` arrays of lower and
    upper corners, whichever constructor built the environment; the
    :attr:`obstacles` list of :class:`AABB` is built from them only when
    asked for.

    Parameters
    ----------
    bounds:
        The workspace bounding box.
    obstacles:
        A list of :class:`AABB` obstacles, stacked into the arrays.
        Obstacles may overlap each other and may extend beyond ``bounds``
        (only the part inside the bounds matters for free-volume
        computations).
    name:
        Human-readable identifier used in benchmark output.
    kernel_backend:
        Name of the :mod:`repro.kernels` backend collision queries
        dispatch to by default.  ``"reference"`` is bit-exact with the
        pre-kernels inline expressions.
    """

    def __init__(
        self,
        bounds: AABB,
        obstacles: "list[AABB] | None" = None,
        name: str = "env",
        kernel_backend: str = "reference",
    ):
        obstacles = list(obstacles or [])
        if obstacles:
            lo = np.stack([o.lo for o in obstacles])
            hi = np.stack([o.hi for o in obstacles])
        else:
            lo = hi = np.empty((0, bounds.dim))
        self._init(bounds, lo, hi, name, kernel_backend)

    @classmethod
    def from_arrays(
        cls,
        bounds: AABB,
        obs_lo: np.ndarray,
        obs_hi: np.ndarray,
        name: str = "env",
        kernel_backend: str = "reference",
    ) -> "Environment":
        """Build an environment directly from stacked obstacle arrays.

        ``obs_lo`` / ``obs_hi`` (shape ``(n, d)``) are adopted as the
        obstacle arrays, without making ``n`` :class:`AABB` objects: the
        constructor of the procedural scenarios and of the shared-memory
        data plane, where 10k+ obstacle scenes make per-box objects the
        dominant cost.  Arrays may be read-only views (e.g. shared-memory
        attachments); they are never written to.
        """
        env = cls.__new__(cls)
        env._init(bounds, obs_lo, obs_hi, name, kernel_backend)
        return env

    def _init(self, bounds, obs_lo, obs_hi, name, kernel_backend) -> None:
        """The one initialiser: adopt and validate the obstacle arrays.

        ``lo <= hi`` is checked over all boxes at once — the check each
        :class:`AABB` makes, with the same answer for NaN (accepted).
        """
        obs_lo = np.ascontiguousarray(np.asarray(obs_lo, dtype=float))
        obs_hi = np.ascontiguousarray(np.asarray(obs_hi, dtype=float))
        if obs_lo.ndim != 2 or obs_lo.shape != obs_hi.shape:
            raise ValueError(
                f"obs_lo/obs_hi must be matching (n, d) arrays, got "
                f"{obs_lo.shape} and {obs_hi.shape}"
            )
        if obs_lo.shape[1] != bounds.dim:
            raise ValueError(
                f"obstacle dim {obs_lo.shape[1]} != workspace dim {bounds.dim}"
            )
        bad = np.any(obs_lo > obs_hi, axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"obstacle {i} has lo > hi: lo={obs_lo[i]}, hi={obs_hi[i]}")
        self.bounds = bounds
        self._obstacles: "list[AABB] | None" = None  # built on first access
        self.name = name
        self.counters = CollisionCounters()
        self._kernels = get_backend(kernel_backend)
        self._kernel_data: "EnvKernelData | None" = None
        self._obs_lo = obs_lo
        self._obs_hi = obs_hi

    @property
    def obstacles(self) -> "list[AABB]":
        """The obstacles as :class:`AABB` objects, one per array row;
        built from the arrays on first access and cached."""
        if self._obstacles is None:
            self._obstacles = [
                AABB(lo, hi) for lo, hi in zip(self._obs_lo, self._obs_hi)
            ]
        return self._obstacles

    # -- kernel dispatch ---------------------------------------------------
    @property
    def kernel_backend(self):
        """The backend collision queries use when no override is given."""
        return self._kernels

    def set_kernel_backend(self, backend: str) -> None:
        """Set the default backend, by name."""
        self._kernels = get_backend(backend)

    def kernel_data(self) -> EnvKernelData:
        """The SoA obstacle snapshot, built on first use and cached.

        Repeated collision calls in batched PRM/RRT replay share this one
        snapshot — also across threads that find it cold together (checked
        again under the lock), so whatever a backend caches on the
        snapshot exists once.
        """
        data = self._kernel_data
        if data is None:
            with _SNAPSHOT_LOCK:
                data = self._kernel_data
                if data is None:
                    data = self._kernel_data = EnvKernelData(
                        bounds_lo=self.bounds.lo,
                        bounds_hi=self.bounds.hi,
                        box_lo=self._obs_lo,
                        box_hi=self._obs_hi,
                    )
        return data

    def _resolve_kernels(self, kernels):
        return self._kernels if kernels is None else get_backend(kernels)

    # -- basic properties ---------------------------------------------------
    @property
    def dim(self) -> int:
        return self.bounds.dim

    @property
    def num_obstacles(self) -> int:
        # From the arrays: counting must not build the obstacle list.
        return int(self._obs_lo.shape[0])

    def obstacle_volume(self, within: AABB | None = None) -> float:
        """Total obstacle volume inside ``within`` (default: whole workspace).

        Overlapping obstacles are handled by inclusion-exclusion up to
        pairwise terms for speed; the procedural builders in
        :mod:`repro.geometry.environments` generate non-overlapping
        obstacles, for which this is exact.
        """
        region = within if within is not None else self.bounds
        vols = [o.intersection_volume(region) for o in self.obstacles]
        total = float(sum(vols))
        # Pairwise overlap correction.
        for i in range(len(self.obstacles)):
            oi = self.obstacles[i].intersection(region)
            if oi is None:
                continue
            for j in range(i + 1, len(self.obstacles)):
                total -= oi.intersection_volume(self.obstacles[j])
        return max(total, 0.0)

    def boxes_on_boundary(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Whether each box ``lo[i]..hi[i]`` straddles an obstacle surface
        (a narrow-passage region): True where the box touches an obstacle
        and lies inside none (``tests/oracle.py::box_obstacle_relation``
        is the per-box oracle).  Obstacles are scanned in slices of at most
        ``_BOX_PAIRS`` box-obstacle pairs, so the temporaries grow with the
        number of boxes, never with boxes x obstacles."""
        lo, hi = np.atleast_2d(lo)[:, None], np.atleast_2d(hi)[:, None]
        touches = np.zeros(lo.shape[0], dtype=bool)
        inside = np.zeros(lo.shape[0], dtype=bool)
        step = max(1, _BOX_PAIRS // max(lo.shape[0], 1))
        for s in range(0, self.num_obstacles, step):
            obs_lo, obs_hi = self._obs_lo[s : s + step], self._obs_hi[s : s + step]
            touches |= np.all((obs_lo <= hi) & (lo <= obs_hi), axis=2).any(axis=1)
            inside |= np.all((obs_lo <= lo) & (hi <= obs_hi), axis=2).any(axis=1)
        return touches & ~inside

    def free_volume(self, within: AABB | None = None) -> float:
        region = within if within is not None else self.bounds
        clipped = region.intersection(self.bounds)
        if clipped is None:
            return 0.0
        return max(clipped.volume() - self.obstacle_volume(clipped), 0.0)

    def blocked_fraction(self) -> float:
        v = self.bounds.volume()
        return 0.0 if v == 0 else self.obstacle_volume() / v

    # -- collision queries ---------------------------------------------------
    def points_in_collision(self, points: np.ndarray, kernels=None) -> np.ndarray:
        """Boolean mask: True where the point hits an obstacle or exits bounds.

        ``points`` has shape ``(n, d)`` or ``(d,)``.  ``kernels`` (a
        backend name) overrides the environment's default backend for
        this call.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        self.counters.charge(points=pts.shape[0] * max(1, self._obs_lo.shape[0]))
        hit = ~self._resolve_kernels(kernels).points_free(self.kernel_data(), pts)
        return bool(hit[0]) if single else hit

    def segments_in_collision(self, p: np.ndarray, q: np.ndarray, kernels=None) -> np.ndarray:
        """Vectorised swept test for segments ``p[i]->q[i]``."""
        p = np.atleast_2d(np.asarray(p, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        self.counters.charge(segments=p.shape[0] * max(1, self._obs_lo.shape[0]))
        return ~self._resolve_kernels(kernels).segments_free(self.kernel_data(), p, q)

    def boxes_free(self, lo: np.ndarray, hi: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Certificate mask: True where every point of the box
        ``lo[i]..hi[i]`` is free (False: not certified, check the points).

        ``points[i]`` is how many points of box ``i`` the caller would
        check.  A certified box's points are charged as
        :meth:`points_in_collision` would charge them, so the counters —
        and the virtual time they drive — do not depend on the certificate.
        """
        free = self._kernels.boxes_free(self.kernel_data(), lo, hi)
        skipped = int(points[free].sum())
        self.counters.charge(points=skipped * max(1, self._obs_lo.shape[0]))
        return free

    # -- ray probes (used by the k-rays RRT weight estimator) ----------------
    def ray_free_distance(self, origin: np.ndarray, direction: np.ndarray, max_dist: float) -> float:
        """Distance travelled from ``origin`` along ``direction`` before
        hitting an obstacle or the workspace boundary, capped at ``max_dist``.
        """
        origin = np.asarray(origin, dtype=float)
        direction = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            raise ValueError("ray direction must be non-zero")
        u = direction / norm
        self.counters.charge(segments=max(1, self._obs_lo.shape[0]))

        # Exit parameter through the workspace bounds.
        t_exit = _ray_box_exit(origin, u, self.bounds.lo, self.bounds.hi)
        best = min(max_dist, t_exit)
        t_enter = _ray_boxes_enter(origin, u, self._obs_lo, self._obs_hi)
        if t_enter.size:
            best = min(best, float(t_enter.min()))
        return max(best, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # blocked_fraction's pairwise overlap correction is O(n^2); on the
        # 10^4-10^5-obstacle scenario environments a repr must stay cheap.
        if self.num_obstacles <= 2000:
            blocked = f"{self.blocked_fraction():.2%}"
        else:
            blocked = "n/a"
        return (
            f"Environment(name={self.name!r}, dim={self.dim}, "
            f"obstacles={self.num_obstacles}, blocked={blocked})"
        )


def _ray_boxes_enter(origin, u, lo, hi) -> np.ndarray:
    """Parameter ``t >= 0`` where the ray ``origin + t * u`` first enters
    each box ``[lo[i], hi[i]]`` it hits — one slab test over every box;
    the boxes it misses are left out.  An axis the ray does not move along
    admits the boxes whose slab holds the origin and bounds nothing."""
    moving = u != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (lo - origin) / u
        tb = (hi - origin) / u
    swap = ta > tb
    near = np.where(moving, np.where(swap, tb, ta), -np.inf)
    far = np.where(moving, np.where(swap, ta, tb), np.inf)
    t0 = near.max(axis=1, initial=-np.inf)
    t1 = far.min(axis=1, initial=np.inf)
    inside = np.all(moving | ((lo <= origin) & (origin <= hi)), axis=1)
    hit = inside & (t0 <= t1) & (t1 >= 0.0)
    return np.maximum(t0[hit], 0.0)


def _ray_box_exit(origin, u, lo, hi) -> float:
    """Parameter t >= 0 where a ray starting inside [lo,hi] exits it."""
    t1 = np.inf
    for i in range(origin.shape[0]):
        if u[i] > 0.0:
            t1 = min(t1, (hi[i] - origin[i]) / u[i])
        elif u[i] < 0.0:
            t1 = min(t1, (lo[i] - origin[i]) / u[i])
    return max(t1, 0.0)
