"""repro.spec — the layered request vocabulary shared by every entry point.

A request is four composable specs with **one canonical name per knob**:

* :class:`WorkloadSpec` — *what to plan*: environment, planner, region
  and sample budgets, seed.  Also the unit of
  identity for the serving layer: :meth:`WorkloadSpec.cache_key` is the
  canonical content hash the :class:`~repro.service.RoadmapCache` keys
  snapshots by.
* :class:`ExecutionPolicy` — *where/how to run it*: execution ``mode``,
  load-balancing strategy, PE count and steal granularity for the
  simulated machine; worker count, backend and chunk
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

import numpy as np

from .core.machine import STRATEGIES
from .core.parallel_prm import PRMWorkload, build_prm_workload
from .core.parallel_rrt import RRTWorkload, build_rrt_workload, default_root
from .cspace.space import ConfigurationSpace, EuclideanCSpace
from .geometry import Environment, environments
from .runtime.local_pool import FAILURE_POLICIES, resolve_workers
from .runtime.simulator import validate_steal_chunk

if TYPE_CHECKING:
    from .obs.tracer import Tracer
    from .runtime.faults import FaultInjector

__all__ = [
    "WorkloadSpec",
    "ExecutionPolicy",
    "FaultPolicy",
    "ObsConfig",
    "PlanRequest",
]

_PLANNERS = ("prm", "rrt")
_MODES = ("simulate", "local")
_BACKENDS = ("thread", "process")
_DATA_PLANES = ("auto", "shm")


def _environment_fingerprint(env: "str | Environment") -> bytes:
    """Stable content identity of an environment for cache keying.

    Catalog names hash by name; :class:`~repro.geometry.environment
    .Environment` instances hash by their exact bounds and obstacle
    arrays (content-addressed — two structurally identical environments
    share a key, whichever constructor built them).

    The obstacles are read from the arrays, never from the
    ``obstacles`` list: the rows of ``[box_lo | box_hi]`` are the byte
    stream of hashing each obstacle's ``lo`` then ``hi`` in turn.
    """
    if isinstance(env, str):
        return b"name:" + env.encode()
    data = env.kernel_data()
    h = hashlib.sha256()
    h.update(data.bounds_lo.tobytes())
    h.update(data.bounds_hi.tobytes())
    h.update(np.concatenate([data.box_lo, data.box_hi], axis=1).tobytes())
    return b"env:" + h.digest()


@dataclass(frozen=True)
class WorkloadSpec:
    """What to plan: the problem definition and its construction budget.

    This is the serving layer's unit of identity — two specs with equal
    :meth:`cache_key` build bit-identical roadmaps, so the
    :class:`~repro.service.RoadmapCache` may serve either from one frozen
    snapshot.
    """

    #: benchmark environment name (see ``repro.geometry.environments``)
    #: or an Environment instance.  A name is not checked against the
    #: catalog here: shm workers rebuild a spec from ``env.name``.
    environment: "str | Environment" = "med-cube"
    planner: str = "prm"
    num_regions: int = 256
    #: PRM per-region sample budget (the paper's N / Nr).
    samples_per_region: int = 8
    #: RRT per-branch node budget.
    nodes_per_region: int = 12
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` on any out-of-range or unknown field."""
        if not isinstance(self.environment, (str, Environment)):
            raise ValueError(
                f"environment must be a name or an Environment, got {self.environment!r}"
            )
        if self.planner not in _PLANNERS:
            raise ValueError(f"planner must be one of {_PLANNERS}, got {self.planner!r}")
        # ``ExecutionPolicy.num_pes``'s rule: an int, never a bool or a
        # float, so equal workloads have one spelling and one cache key.
        for name, least in (("num_regions", 1), ("samples_per_region", 1),
                            ("nodes_per_region", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an int >= {least}, got {value!r}")

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
        :func:`repro.api.plan` and the service's cache builder.  A builder
        takes exactly what a spec carries; the rest of Alg. 1 / Alg. 2 is
        the constants of ``repro.core.parallel_prm`` /
        ``repro.core.parallel_rrt``."""
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
    #: load-balancing strategy, one of :data:`repro.core.machine.STRATEGIES`:
    #: "none", "repartition", "rand-8", "diffusive" or "hybrid" (simulate mode).
    strategy: str = "none"
    #: simulated machine size.
    num_pes: int = 16
    #: tasks a victim hands over per steal: "half" of its stealable
    #: deque, or at most an int >= 1.
    steal_chunk: "str | int" = "half"
    #: local pool size (also QueryEngine batch dispatch width); ``None``
    #: resolves to ``os.cpu_count()`` at dispatch time.
    workers: "int | None" = None
    backend: str = "thread"
    #: tasks per submission in ``plan()``: an int (>1 amortises dispatch
    #: for tiny regions) or ``"guided"``, the one
    #: :mod:`repro.runtime.chunking` policy (self-scheduling decay).  A
    #: chunk of two or more PRM regions is planned as one block.
    #: ``QueryEngine.solve_many`` sends one chunk per worker instead.
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
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        # The pool's rule for ``workers`` (an int >= 1, or None), and the
        # same rule for ``num_pes`` without the None.
        pes = self.num_pes
        if isinstance(pes, bool) or not isinstance(pes, int) or pes < 1:
            raise ValueError(f"num_pes must be an int >= 1, got {pes!r}")
        resolve_workers(self.workers)
        validate_steal_chunk(self.steal_chunk)
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


@dataclass(frozen=True)
class PlanRequest:
    """Everything :func:`repro.api.plan` needs: a frozen aggregate of
    :class:`WorkloadSpec`, :class:`ExecutionPolicy`, :class:`FaultPolicy`
    and :class:`ObsConfig` (``None`` takes the spec's defaults); derive a
    new one with ``dataclasses.replace``.

    Spec objects are the only spelling: anything else (a flat knob such
    as ``num_regions=8``, or ``execution="local"``) raises ``TypeError``.
    """

    workload: "WorkloadSpec | None" = None
    execution: "ExecutionPolicy | None" = None
    faults: "FaultPolicy | None" = None
    obs: "ObsConfig | None" = None

    def __post_init__(self):
        for name, spec_type in _SPEC_TYPES.items():
            value = getattr(self, name)
            if value is None:
                object.__setattr__(self, name, spec_type())
            elif not isinstance(value, spec_type):
                raise TypeError(
                    f"{name} must be a {spec_type.__name__}, got {type(value).__name__}"
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
