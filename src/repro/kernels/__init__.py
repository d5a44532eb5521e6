"""repro.kernels — one exact leaf under an optional cull.

Collision checks (``Environment`` point / segment queries) bottom out in
the reference expressions of :mod:`repro.kernels.reference`; what a
backend name chooses is whether every obstacle is scanned or a tree
narrows each query to a few candidates first:

* ``reference`` — the float64 all-pairs NumPy scan, bit-exact with the
  historical inline code.  The default everywhere.
* ``bvh`` — the same leaf tests behind a BVH cull, for obstacle-heavy
  scenes (10³–10⁵ boxes, see ``repro.geometry.scenarios``).  The tree
  only culls, so every verdict is *bit-exact* with ``reference``.

Both names are held to one parity tier: bit-exact.  The choice has one
owner, the :class:`~repro.geometry.environment.Environment` (constructor,
``from_arrays``, ``set_kernel_backend``); a request names it once,
``ExecutionPolicy(kernel_backend="bvh")``, and
:meth:`repro.spec.WorkloadSpec.resolve_cspace` hands it to the
environment — no layer in between takes or forwards a backend.  A
per-call ``kernels=`` exists on the ``Environment`` query methods only,
for differential checks of one backend against the other.  A backend is
always a name: :data:`BACKENDS` lists them, :func:`get_backend` resolves
one.
"""

from __future__ import annotations

from .base import KernelBackend
from .bvh_backend import BVHKernels
from .data import EnvKernelData
from .reference import ReferenceKernels
from .select import select_canonical, select_canonical_block, select_canonical_rows

__all__ = [
    "KernelBackend",
    "EnvKernelData",
    "ReferenceKernels",
    "BVHKernels",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "get_backend",
    "select_canonical",
    "select_canonical_block",
    "select_canonical_rows",
]

DEFAULT_BACKEND = "reference"

_INSTANCES: "dict[str, KernelBackend]" = {
    "reference": ReferenceKernels(),
    "bvh": BVHKernels(),
}

#: Every backend name, in the order error messages list them.
BACKENDS = tuple(_INSTANCES)


def get_backend(name: "str | None" = None) -> KernelBackend:
    """The backend called ``name`` (one shared instance per name).

    ``None`` resolves to :data:`DEFAULT_BACKEND`; anything that is not
    one of :data:`BACKENDS` — a backend instance included — raises
    ``ValueError`` listing them.
    """
    if name is None:
        name = DEFAULT_BACKEND
    if not isinstance(name, str) or name not in _INSTANCES:
        raise ValueError(f"unknown kernel backend {name!r}; available: {BACKENDS}")
    return _INSTANCES[name]
