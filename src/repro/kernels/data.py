"""Structure-of-arrays obstacle snapshot consumed by compute kernels.

``EnvKernelData`` flattens a workspace — bounds plus the obstacle
arrays — into contiguous NumPy buffers so kernels loop over flat arrays
instead of Python primitive objects.  It is built once per environment
mutation (see :meth:`repro.geometry.environment.Environment.kernel_data`)
and shared by every backend: the reference backend reads the float64
arrays, the fast32 backend the float32 mirrors.

One obstacle type is carried, the one an ``Environment`` can hold:
axis-aligned boxes (lo/hi plus the center/half-extent form blocked
kernels prefer).
"""

from __future__ import annotations

import numpy as np

__all__ = ["EnvKernelData"]


def _as2d(arr, dim: int, name: str) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    if out.size == 0:
        return np.empty((0, dim))
    out = np.atleast_2d(out)
    if out.shape[1] != dim:
        raise ValueError(f"{name} has dim {out.shape[1]}, expected {dim}")
    return out


class EnvKernelData:
    """Flat, read-only obstacle arrays plus float32 mirrors.

    Parameters
    ----------
    bounds_lo, bounds_hi:
        Workspace bounding box, shape ``(d,)``.
    box_lo, box_hi:
        Axis-aligned box obstacles, shape ``(nb, d)`` (may be empty).

    Derived center/half-extent arrays and float32 mirrors (``*32``
    attributes) are precomputed so per-query kernel calls do no layout
    work.  Instances are treated as immutable; mutate the source
    ``Environment`` and take a fresh snapshot instead.
    """

    def __init__(
        self,
        bounds_lo: np.ndarray,
        bounds_hi: np.ndarray,
        box_lo: "np.ndarray | None" = None,
        box_hi: "np.ndarray | None" = None,
    ):
        self.bounds_lo = np.ascontiguousarray(np.asarray(bounds_lo, dtype=np.float64))
        self.bounds_hi = np.ascontiguousarray(np.asarray(bounds_hi, dtype=np.float64))
        if self.bounds_lo.shape != self.bounds_hi.shape or self.bounds_lo.ndim != 1:
            raise ValueError("bounds_lo/bounds_hi must be matching 1-D arrays")
        d = self.bounds_lo.shape[0]
        self.dim = d

        self.box_lo = _as2d(box_lo if box_lo is not None else (), d, "box_lo")
        self.box_hi = _as2d(box_hi if box_hi is not None else (), d, "box_hi")
        if self.box_lo.shape != self.box_hi.shape:
            raise ValueError("box_lo/box_hi shape mismatch")
        self.box_center = 0.5 * (self.box_lo + self.box_hi)
        self.box_half = 0.5 * (self.box_hi - self.box_lo)

        # float32 mirrors for the fast32 backend (cast once, not per query).
        self.bounds_lo32 = self.bounds_lo.astype(np.float32)
        self.bounds_hi32 = self.bounds_hi.astype(np.float32)
        self.box_lo32 = self.box_lo.astype(np.float32)
        self.box_hi32 = self.box_hi.astype(np.float32)
        self.box_center32 = self.box_center.astype(np.float32)
        self.box_half32 = self.box_half.astype(np.float32)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_environment(cls, env) -> "EnvKernelData":
        """Snapshot an :class:`~repro.geometry.environment.Environment`.

        Uses the environment's stacked obstacle arrays directly (no Python
        obstacle walk).  Prefer ``env.kernel_data()`` which caches the
        snapshot and invalidates it on mutation.
        """
        return cls(
            bounds_lo=env.bounds.lo,
            bounds_hi=env.bounds.hi,
            box_lo=env._obs_lo,
            box_hi=env._obs_hi,
        )

    # -- properties --------------------------------------------------------
    @property
    def num_boxes(self) -> int:
        return self.box_lo.shape[0]

    @property
    def nbytes(self) -> int:
        """Total bytes held by the float64 arrays and float32 mirrors."""
        return sum(
            getattr(self, a).nbytes
            for a in (
                "bounds_lo", "bounds_hi", "box_lo", "box_hi", "box_center",
                "box_half", "bounds_lo32", "bounds_hi32", "box_lo32",
                "box_hi32", "box_center32", "box_half32",
            )
        )

    # -- perturbation (equivalence-gate support) ---------------------------
    def inflated(self, margin: float) -> "EnvKernelData":
        """A copy with every obstacle grown by ``margin`` and the workspace
        bounds shrunk by it (negative ``margin`` reverses both).

        Used by the statistical-equivalence gates: a query whose reference
        verdict is identical on the ``+eps`` and ``-eps`` worlds is at
        least ``eps`` away from every decision boundary, so a fast backend
        must agree on it.  Degenerate boxes (half-extent driven negative)
        collapse to their center point.
        """
        m = float(margin)
        half = np.maximum(self.box_half + m, 0.0)
        lo = self.box_center - half
        hi = self.box_center + half
        blo = self.bounds_lo + m
        bhi = self.bounds_hi - m
        mid = 0.5 * (blo + bhi)
        blo = np.minimum(blo, mid)
        bhi = np.maximum(bhi, mid)
        return EnvKernelData(bounds_lo=blo, bounds_hi=bhi, box_lo=lo, box_hi=hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnvKernelData(dim={self.dim}, boxes={self.num_boxes})"
