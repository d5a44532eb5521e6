"""Structure-of-arrays obstacle snapshot consumed by compute kernels.

``EnvKernelData`` flattens a workspace — bounds plus the obstacle
arrays — into contiguous float64 NumPy buffers so kernels loop over flat
arrays instead of Python primitive objects.  It is built once per
environment mutation (see
:meth:`repro.geometry.environment.Environment.kernel_data`) and shared by
both backends; nothing in it is derived.

One obstacle type is carried, the one an ``Environment`` can hold:
axis-aligned boxes, as lo/hi corners.
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
    """Flat, read-only workspace bounds and obstacle boxes.

    Parameters
    ----------
    bounds_lo, bounds_hi:
        Workspace bounding box, shape ``(d,)``.
    box_lo, box_hi:
        Axis-aligned box obstacles, shape ``(nb, d)`` (may be empty).

    Instances are treated as immutable; mutate the source ``Environment``
    and take a fresh snapshot instead.
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

    @property
    def num_boxes(self) -> int:
        return self.box_lo.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnvKernelData(dim={self.dim}, boxes={self.num_boxes})"
