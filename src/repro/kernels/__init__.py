"""repro.kernels — pluggable compute-kernel backends for the hot primitives.

Collision checks (``Environment`` point / segment queries) and batched
distance blocks (``BruteForceNN``) bottom out in the four primitives of
:class:`~repro.kernels.base.KernelBackend`, dispatched through this
registry:

* ``reference`` — today's float64 NumPy expressions, bit-exact with the
  historical inline code.  The default everywhere.
* ``fast32`` — float32 blocked/tiled kernels over the structure-of-arrays
  snapshot (:class:`~repro.kernels.data.EnvKernelData`); statistically
  equivalent.
* ``bvh`` — BVH-culled collision kernels for obstacle-heavy scenes
  (10³–10⁵ boxes, see ``repro.geometry.scenarios``); *bit-exact*
  with the reference (the tree culls, leaf tests are the reference
  expressions), distance primitives delegate to ``reference``.

The choice has one owner per primitive family.  The collision backend
belongs to the :class:`~repro.geometry.environment.Environment`
(constructor, ``from_arrays``, ``set_kernel_backend``); a request names
it once, ``ExecutionPolicy(kernel_backend="bvh")``, and
:meth:`repro.spec.WorkloadSpec.resolve_cspace` hands it to the
environment — no layer in between takes or forwards a backend.  The
distance backend belongs to ``BruteForceNN(dim, kernels=...)``.  A
per-call ``kernels=`` exists on the ``Environment`` query methods only,
for differential checks of one backend against another.

Adding a backend is ``register(name, factory)`` plus the four methods —
see the recipe in DESIGN.md.
"""

from __future__ import annotations

from .base import KernelBackend
from .bvh_backend import BVHKernels
from .data import EnvKernelData
from .fast32 import Fast32Kernels
from .reference import ReferenceKernels
from .select import select_canonical, select_canonical_block, select_canonical_rows

__all__ = [
    "KernelBackend",
    "EnvKernelData",
    "ReferenceKernels",
    "Fast32Kernels",
    "BVHKernels",
    "DEFAULT_BACKEND",
    "register",
    "get_backend",
    "available_backends",
    "select_canonical",
    "select_canonical_block",
    "select_canonical_rows",
]

DEFAULT_BACKEND = "reference"

#: name -> zero-arg factory.  Instantiation is deferred (and cached) so
#: registering an expensive backend costs nothing until first use.
_FACTORIES: "dict[str, type[KernelBackend] | object]" = {}
_INSTANCES: "dict[str, KernelBackend]" = {}


def register(name: str, factory) -> None:
    """Register a backend factory (a ``KernelBackend`` subclass or any
    zero-arg callable returning one) under ``name``.  Re-registering a
    name replaces the factory and drops the cached instance."""
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> "list[str]":
    """Registered backend names, sorted."""
    return sorted(_FACTORIES)


def get_backend(name: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve a backend by name (cached singleton per name).

    ``None`` resolves to :data:`DEFAULT_BACKEND`; an already-constructed
    :class:`KernelBackend` passes through unchanged, so call sites accept
    either form.  Unknown names raise ``ValueError`` listing what is
    registered.
    """
    if name is None:
        name = DEFAULT_BACKEND
    if isinstance(name, KernelBackend):
        return name
    try:
        inst = _INSTANCES.get(name)
        if inst is None:
            inst = _INSTANCES[name] = _FACTORIES[name]()
        return inst
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        ) from None


register("reference", ReferenceKernels)
register("fast32", Fast32Kernels)
register("bvh", BVHKernels)
