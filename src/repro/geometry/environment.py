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
structure-of-arrays :class:`~repro.kernels.data.EnvKernelData` (cached,
invalidated on mutation) and dispatch to the environment's configured
:class:`~repro.kernels.base.KernelBackend` — ``reference`` by default,
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

    Parameters
    ----------
    bounds:
        The workspace bounding box.
    obstacles:
        A list of :class:`AABB` obstacles.  Obstacles may overlap each other
        and may extend beyond ``bounds`` (only the part inside the bounds
        matters for free-volume computations).
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
        self.bounds = bounds
        self._obstacles: "list[AABB] | None" = list(obstacles or [])
        self.name = name
        self.counters = CollisionCounters()
        self._kernels = get_backend(kernel_backend)
        self._kernel_data: "EnvKernelData | None" = None
        self._rebuild_arrays()

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

        The zero-copy constructor behind the shared-memory data plane:
        ``obs_lo`` / ``obs_hi`` (shape ``(n, d)``) are adopted as the
        collision arrays without materialising ``n`` Python :class:`AABB`
        objects or re-stacking them — for 10k+ obstacle scenes that is
        the dominant context-deserialisation cost.  The ``obstacles``
        list is built lazily on first access (collision queries never
        need it).  Arrays may be read-only views (e.g. shared-memory
        attachments); they are never written to.
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
        env = cls.__new__(cls)
        env.bounds = bounds
        env._obstacles = None  # materialised lazily from the arrays
        env.name = name
        env.counters = CollisionCounters()
        env._kernels = get_backend(kernel_backend)
        env._kernel_data = None
        env._obs_lo = obs_lo
        env._obs_hi = obs_hi
        return env

    @property
    def obstacles(self) -> "list[AABB]":
        """The obstacle list; materialised from the arrays on demand for
        environments built via :meth:`from_arrays`."""
        if self._obstacles is None:
            self._obstacles = [
                AABB(lo, hi) for lo, hi in zip(self._obs_lo, self._obs_hi)
            ]
        return self._obstacles

    def _rebuild_arrays(self) -> None:
        d = self.bounds.dim
        for obs in self.obstacles:
            if obs.dim != d:
                raise ValueError(f"obstacle dim {obs.dim} != workspace dim {d}")
        if self.obstacles:
            self._obs_lo = np.stack([o.lo for o in self.obstacles])
            self._obs_hi = np.stack([o.hi for o in self.obstacles])
        else:
            self._obs_lo = np.empty((0, d))
            self._obs_hi = np.empty((0, d))
        self._kernel_data = None  # SoA snapshot is stale after any mutation

    # -- mutation ---------------------------------------------------------
    def add_obstacle(self, obstacle: AABB) -> None:
        self.obstacles.append(obstacle)
        self._rebuild_arrays()

    # -- kernel dispatch ---------------------------------------------------
    @property
    def kernel_backend(self):
        """The backend collision queries use when no override is given."""
        return self._kernels

    def set_kernel_backend(self, backend: str) -> None:
        """Set the default backend, by name."""
        self._kernels = get_backend(backend)

    def kernel_data(self) -> EnvKernelData:
        """The cached SoA obstacle snapshot, rebuilt lazily after mutation.

        Repeated collision calls in batched PRM/RRT replay share this one
        snapshot instead of re-walking the Python obstacle list — also
        across threads that find it cold together (checked again under the
        lock), so whatever a backend caches on the snapshot exists once.
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
        # From the arrays, not the list: lazy ``from_arrays`` environments
        # must not materialise obstacles just to be counted.
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

    def box_obstacle_relation(self, box: AABB) -> str:
        """Classify ``box`` against the obstacle set.

        Returns ``"free"`` (touches no obstacle), ``"blocked"`` (entirely
        inside one obstacle), or ``"boundary"`` (straddles at least one
        obstacle surface).  Used to identify narrow-passage regions.
        """
        inside_any = False
        touches_any = False
        for obs in self.obstacles:
            if obs.intersects(box):
                touches_any = True
                if np.all(obs.lo <= box.lo) and np.all(box.hi <= obs.hi):
                    inside_any = True
                    break
        if inside_any:
            return "blocked"
        return "boundary" if touches_any else "free"

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

    def point_free(self, point: np.ndarray) -> bool:
        return not bool(self.points_in_collision(point))

    def segment_in_collision(
        self, p: np.ndarray, q: np.ndarray, resolution: float = 0.0, kernels=None
    ) -> bool:
        """Exact swept test of the segment ``p->q`` against all obstacles.

        ``resolution`` is accepted for interface parity with sampled local
        planners but the slab test here is exact for point robots, so it is
        unused.
        """
        del resolution
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        self.counters.charge(segments=max(1, self._obs_lo.shape[0]))
        backend = self._resolve_kernels(kernels)
        return not bool(backend.segments_free(self.kernel_data(), p[None, :], q[None, :])[0])

    def segments_in_collision(self, p: np.ndarray, q: np.ndarray, kernels=None) -> np.ndarray:
        """Vectorised swept test for segments ``p[i]->q[i]``."""
        p = np.atleast_2d(np.asarray(p, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        self.counters.charge(segments=p.shape[0] * max(1, self._obs_lo.shape[0]))
        return ~self._resolve_kernels(kernels).segments_free(self.kernel_data(), p, q)

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
        for lo, hi in zip(self._obs_lo, self._obs_hi):
            t_enter = _ray_box_enter(origin, u, lo, hi)
            if t_enter is not None and 0.0 <= t_enter < best:
                best = t_enter
        return max(best, 0.0)

    # -- sampling helpers -----------------------------------------------------
    def sample_free(self, rng: np.random.Generator, n: int, within: AABB | None = None, max_tries: int = 64) -> np.ndarray:
        """Rejection-sample ``n`` collision-free points (may return fewer if
        the region is heavily blocked after ``max_tries`` rounds)."""
        region = within if within is not None else self.bounds
        out: list[np.ndarray] = []
        need = n
        for _ in range(max_tries):
            if need <= 0:
                break
            cand = region.sample(rng, max(need * 2, 8))
            free = ~self.points_in_collision(cand)
            got = cand[free][:need]
            if got.size:
                out.append(got)
                need -= got.shape[0]
        if not out:
            return np.empty((0, self.dim))
        return np.vstack(out)

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


def _ray_box_enter(origin, u, lo, hi):
    """Parameter t >= 0 where ray origin+t*u first enters [lo,hi]; None if it misses."""
    t0, t1 = -np.inf, np.inf
    for i in range(origin.shape[0]):
        if u[i] == 0.0:
            if origin[i] < lo[i] or origin[i] > hi[i]:
                return None
        else:
            ta = (lo[i] - origin[i]) / u[i]
            tb = (hi[i] - origin[i]) / u[i]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 > t1:
                return None
    if t1 < 0.0:
        return None
    return max(t0, 0.0)


def _ray_box_exit(origin, u, lo, hi) -> float:
    """Parameter t >= 0 where a ray starting inside [lo,hi] exits it."""
    t1 = np.inf
    for i in range(origin.shape[0]):
        if u[i] > 0.0:
            t1 = min(t1, (hi[i] - origin[i]) / u[i])
        elif u[i] < 0.0:
            t1 = min(t1, (lo[i] - origin[i]) / u[i])
    return max(t1, 0.0)
