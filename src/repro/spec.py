"""repro.spec — the layered request vocabulary shared by every entry point.

A request is four composable specs with **one canonical name per knob**:

* :class:`WorkloadSpec` — *what to plan*: environment, planner, region
  and sample budgets, seed.  Also the unit of
  identity for the serving layer: :meth:`WorkloadSpec.cache_key` is the
  canonical content hash the :class:`~repro.service.RoadmapCache` keys
  snapshots by.
* :class:`ExecutionPolicy` — *where/how to run it*: execution ``mode``,
  load-balancing strategy, partitioner, PE count, topology and steal
  granularity for the simulated machine; worker count, backend and chunk
  size for the local pool; and the collision-kernel backend, which
  :meth:`WorkloadSpec.resolve_cspace` hands to the environment — the
  one place a request's backend name is acted on.
* :class:`FaultPolicy` — *what to do when it breaks*: failure ``policy``,
  retry budget, task timeout, and the deterministic ``injector``.
* :class:`ObsConfig` — *what to record*: the tracer.

:class:`PlanRequest` remains the aggregate the :func:`repro.api.plan`
facade consumes, a thin **frozen** wrapper over the four specs:

    >>> from repro import PlanRequest, WorkloadSpec, ExecutionPolicy, plan
    >>> report = plan(PlanRequest(
    ...     workload=WorkloadSpec(environment="med-cube", num_regions=512),
    ...     execution=ExecutionPolicy(strategy="hybrid", num_pes=96),
    ... ))

Spec objects are the only way to build a request: flat keyword
arguments (``PlanRequest(num_regions=512)``) and the ``execution="local"``
string spelling raise ``TypeError``, and every knob is read from its
spec (``request.execution.num_pes``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .core.parallel_prm import PRMWorkload, build_prm_workload
from .core.parallel_rrt import RRTWorkload, build_rrt_workload, default_root
from .cspace.space import ConfigurationSpace, EuclideanCSpace
from .geometry import environments
from .runtime.local_pool import FAILURE_POLICIES

if TYPE_CHECKING:
    from .obs.tracer import Tracer
    from .runtime.faults import FaultInjector
    from .runtime.topology import ClusterTopology

__all__ = [
    "WorkloadSpec",
    "ExecutionPolicy",
    "FaultPolicy",
    "ObsConfig",
    "PlanRequest",
]

_PLANNERS = ("prm", "rrt")
_MODES = ("simulate", "local")
_STRATEGIES = ("none", "repartition", "rand-8", "rand-k", "diffusive", "hybrid")
_BACKENDS = ("thread", "process")
_DATA_PLANES = ("auto", "shm")


def _environment_fingerprint(env: "str | object") -> bytes:
    """Stable content identity of an environment for cache keying.

    Catalog names hash by name; :class:`~repro.geometry.environment
    .Environment` instances hash by their exact bounds and obstacle
    arrays (content-addressed — two structurally identical environments
    share a key); anything else falls back to ``repr``, which is stable
    within a process.
    """
    if isinstance(env, str):
        return b"name:" + env.encode()
    bounds = getattr(env, "bounds", None)
    obstacles = getattr(env, "obstacles", None)
    if bounds is not None and obstacles is not None:
        h = hashlib.sha256()
        h.update(bounds.lo.tobytes())
        h.update(bounds.hi.tobytes())
        for obs in obstacles:
            h.update(obs.lo.tobytes())
            h.update(obs.hi.tobytes())
        return b"env:" + h.digest()
    return b"repr:" + repr(env).encode()


@dataclass(frozen=True)
class WorkloadSpec:
    """What to plan: the problem definition and its construction budget.

    This is the serving layer's unit of identity — two specs with equal
    :meth:`cache_key` build bit-identical roadmaps, so the
    :class:`~repro.service.RoadmapCache` may serve either from one frozen
    snapshot.
    """

    #: benchmark environment name (see ``repro.geometry.environments``)
    #: or an Environment instance.
    environment: "str | object" = "med-cube"
    planner: str = "prm"
    num_regions: int = 256
    #: PRM per-region sample budget (the paper's N / Nr).
    samples_per_region: int = 8
    #: RRT per-branch node budget.
    nodes_per_region: int = 12
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on any out-of-range or unknown field."""
        if self.planner not in _PLANNERS:
            raise ValueError(f"planner must be one of {_PLANNERS}, got {self.planner!r}")
        if self.num_regions < 1:
            raise ValueError("num_regions must be >= 1")
        if self.samples_per_region < 1:
            raise ValueError("samples_per_region must be >= 1")
        if self.nodes_per_region < 1:
            raise ValueError("nodes_per_region must be >= 1")

    def resolve_cspace(self, kernel_backend: "str | None" = None) -> ConfigurationSpace:
        """Materialise the configuration space (looking the environment up
        by catalog name when given as a string).

        ``kernel_backend`` is the request side's one hand-off of
        ``ExecutionPolicy.kernel_backend`` to the environment, which owns
        the choice from here on.  Catalog names resolve to fresh objects,
        so this configures only the caller's own workspace; a
        caller-supplied ``Environment`` instance is configured in place
        (the caller asked for the backend).  ``None`` leaves the
        environment as it is configured.
        """
        env = self.environment
        if isinstance(env, str):
            env = environments.by_name(env)
        cspace = EuclideanCSpace(env)
        if kernel_backend is not None:
            cspace.set_kernel_backend(kernel_backend)
        return cspace

    def build_workload(self, cspace: ConfigurationSpace) -> "PRMWorkload | RRTWorkload":
        """Run this spec's regional planners once over ``cspace`` — the
        one ``planner`` -> ``build_*_workload`` dispatch, shared by
        :func:`repro.api.plan` and the service's cache builder.  Anything
        but the defaults of a builder parameter means calling the builder
        directly, as :mod:`repro.bench.figures` does."""
        if self.planner == "prm":
            return build_prm_workload(
                cspace, self.num_regions, self.samples_per_region, seed=self.seed
            )
        return build_rrt_workload(
            cspace, default_root(cspace, self.seed), self.num_regions, self.nodes_per_region,
            seed=self.seed,
        )

    def cache_key(self) -> str:
        """Canonical content hash of (environment, planner params, seed).

        Every field that can change the built roadmap participates; two
        workloads differing in a single one — the seed included — never
        collide.
        """
        h = hashlib.sha256()
        h.update(_environment_fingerprint(self.environment))
        payload = {
            "planner": self.planner,
            "num_regions": self.num_regions,
            "samples_per_region": self.samples_per_region,
            "nodes_per_region": self.nodes_per_region,
            "seed": self.seed,
        }
        h.update(json.dumps(payload, sort_keys=True).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class ExecutionPolicy:
    """Where and how to run: simulated machine or local pool, one record.

    ``workers`` is the one spelling for pool size; ``num_pes`` is the
    *simulated* PE count, a genuinely different quantity.
    """

    #: "simulate" replays on the virtual machine; "local" runs the
    #: regional planners on this machine's cores.
    mode: str = "simulate"
    #: load-balancing strategy: "none", "repartition", "rand-8",
    #: "diffusive" or "hybrid" (simulate mode).
    strategy: str = "none"
    #: initial region->PE distribution: "block", "greedy" or "rcb".
    partitioner: str = "block"
    #: simulated machine size.
    num_pes: int = 16
    topology: "ClusterTopology | None" = None
    steal_chunk: "str | int" = "half"
    #: local pool size (also QueryEngine batch dispatch width); ``None``
    #: resolves to ``os.cpu_count()`` at dispatch time.
    workers: "int | None" = None
    backend: str = "thread"
    #: tasks per submission: an int (>1 amortises dispatch for tiny
    #: regions) or a :mod:`repro.runtime.chunking` policy name —
    #: ``"guided"`` (self-scheduling decay) or ``"weighted"`` (equal
    #: estimated cost per chunk).
    chunksize: "int | str" = 1
    #: how the planning context crosses the process boundary:
    #: ``"auto"`` (shared memory when the backend is ``"process"`` and
    #: the platform supports it, else the closure ships inline with each
    #: chunk) or ``"shm"`` (require shared memory, raise if ineligible).
    #: Results are bit-identical across planes; only transport differs.
    data_plane: str = "auto"
    #: collision backend, one of :data:`repro.kernels.BACKENDS` —
    #: ``"bvh"`` culls with a tree on obstacle-heavy scenes, bit-exact
    #: with ``"reference"`` — handed to the environment by
    #: :meth:`WorkloadSpec.resolve_cspace`.  ``None`` keeps whatever the
    #: environment is configured with: ``"reference"`` unless explicitly
    #: changed, so the default is reference everywhere.
    kernel_backend: "str | None" = None

    def validate(self) -> None:
        """Raise ``ValueError`` on any out-of-range or unknown field."""
        if self.mode not in _MODES:
            raise ValueError(f"execution must be one of {_MODES}, got {self.mode!r}")
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"strategy must be one of {_STRATEGIES}, got {self.strategy!r}"
            )
        if self.num_pes < 1:
            raise ValueError("num_pes must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for os.cpu_count())")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {self.backend!r}")
        from .runtime.chunking import validate_chunksize

        validate_chunksize(self.chunksize)
        if self.data_plane not in _DATA_PLANES:
            raise ValueError(
                f"data_plane must be one of {_DATA_PLANES}, got {self.data_plane!r}"
            )
        if self.kernel_backend is not None:
            from .kernels import BACKENDS

            if self.kernel_backend not in BACKENDS:
                raise ValueError(
                    f"kernel_backend must be one of {BACKENDS} "
                    f"(or None), got {self.kernel_backend!r}"
                )


@dataclass(frozen=True)
class FaultPolicy:
    """What to do when tasks fail: policy, budget, timeout, chaos plan."""

    #: "fail_fast" (default), "retry" (bounded retries with backoff), or
    #: "degrade" (abandon exhausted tasks and return a partial result).
    policy: str = "fail_fast"
    max_retries: int = 2
    #: seconds allowed per task before the attempt counts as failed
    #: (local execution; None disables timeouts).
    task_timeout: "float | None" = None
    #: deterministic chaos plan (see ``repro.runtime.faults``); None
    #: injects nothing and costs nothing.
    injector: "FaultInjector | None" = None

    def validate(self) -> None:
        """Raise ``ValueError`` on any out-of-range or unknown field."""
        if self.policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, got {self.policy!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive")

    def pool_kwargs(self, retry_seed: int = 0) -> "dict[str, Any]":
        """This policy as :func:`repro.runtime.run_tasks_parallel` kwargs."""
        return {
            "failure_policy": self.policy,
            "max_retries": self.max_retries,
            "task_timeout": self.task_timeout,
            "fault_injector": self.injector,
            "retry_seed": retry_seed,
        }


@dataclass(frozen=True)
class ObsConfig:
    """What to record: the observability hook."""

    #: None (default) records nothing at zero overhead.
    tracer: "Tracer | None" = None

    def validate(self) -> None:
        """Nothing to range-check; present for protocol symmetry."""


# -- the aggregate -----------------------------------------------------------

_SPEC_TYPES = {
    "workload": WorkloadSpec,
    "execution": ExecutionPolicy,
    "faults": FaultPolicy,
    "obs": ObsConfig,
}


class PlanRequest:
    """Everything :func:`repro.api.plan` needs: a frozen aggregate of
    :class:`WorkloadSpec`, :class:`ExecutionPolicy`, :class:`FaultPolicy`
    and :class:`ObsConfig`.

    Spec objects are the only spelling: anything else (a flat knob such
    as ``num_regions=8``, or ``execution="local"``) raises ``TypeError``.
    """

    __slots__ = ("workload", "execution", "faults", "obs")

    def __init__(
        self,
        workload: "WorkloadSpec | None" = None,
        execution: "ExecutionPolicy | None" = None,
        faults: "FaultPolicy | None" = None,
        obs: "ObsConfig | None" = None,
    ):
        specs = {"workload": workload, "execution": execution, "faults": faults, "obs": obs}
        for name, value in specs.items():
            if value is None:
                value = _SPEC_TYPES[name]()
            elif not isinstance(value, _SPEC_TYPES[name]):
                raise TypeError(
                    f"{name} must be a {_SPEC_TYPES[name].__name__}, "
                    f"got {type(value).__name__}"
                )
            object.__setattr__(self, name, value)

    # -- immutability --------------------------------------------------------
    def __setattr__(self, name, value):
        raise AttributeError(
            f"PlanRequest is frozen; use replace({name}=...) to derive a new one"
        )

    def replace(self, **changes) -> "PlanRequest":
        """A copy with the given spec fields replaced (canonical names)."""
        unknown = set(changes) - set(_SPEC_TYPES)
        if unknown:
            raise TypeError(f"unknown spec field(s): {sorted(unknown)}")
        kwargs = {name: getattr(self, name) for name in _SPEC_TYPES}
        kwargs.update(changes)
        return PlanRequest(**kwargs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlanRequest):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in _SPEC_TYPES)

    def __repr__(self) -> str:
        return (
            f"PlanRequest(workload={self.workload!r}, execution={self.execution!r}, "
            f"faults={self.faults!r}, obs={self.obs!r})"
        )

    # -- protocol ------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` on any out-of-range or unknown field."""
        self.workload.validate()
        self.execution.validate()
        self.faults.validate()
        self.obs.validate()

    def resolve_cspace(self) -> ConfigurationSpace:
        """Materialise the workload's configuration space, on the
        execution policy's kernel backend."""
        return self.workload.resolve_cspace(self.execution.kernel_backend)
