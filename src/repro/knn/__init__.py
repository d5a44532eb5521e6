"""Interchangeable k-nearest-neighbour backends.

Every backend implements the same :class:`NeighborFinder` interface with
the canonical ``(distance, insertion order)`` tie-break and bit-identical
float64 distances, so swapping one for another never changes a planner's
output — only its latency.  Like :mod:`repro.kernels`, backends are
addressable by name through a small registry so the selection can travel
through :class:`~repro.spec.ExecutionPolicy` (``nn_backend``) and the
serving layer:

* ``"brute"`` — vectorised flat scan (:class:`BruteForceNN`), fastest
  below a few thousand points.
* ``"kdtree"`` — incremental-insert kd-tree (:class:`KDTreeNN`), best
  for static sets queried many times.
* ``"incremental"`` — logarithmic-rebuild kd-tree forest
  (:class:`IncrementalNN`), built for interleaved insert/query streams
  (growing RRT trees).
"""

from typing import Callable

from .base import KnnStats, NeighborFinder
from .brute import BruteForceNN
from .incremental import IncrementalNN
from .kdtree import KDTreeNN

__all__ = [
    "KnnStats",
    "NeighborFinder",
    "BruteForceNN",
    "KDTreeNN",
    "IncrementalNN",
    "register_nn_factory",
    "get_nn_factory",
    "available_nn_factories",
]

#: name -> ``dim -> NeighborFinder`` factory.
_NN_FACTORIES: "dict[str, Callable]" = {}


def register_nn_factory(name: str, factory: Callable) -> None:
    """Register a ``dim -> NeighborFinder`` factory under ``name``."""
    if not name:
        raise ValueError("nn factory name must be non-empty")
    _NN_FACTORIES[name] = factory


def available_nn_factories() -> "tuple[str, ...]":
    """Registered factory names, sorted."""
    return tuple(sorted(_NN_FACTORIES))


def get_nn_factory(name):
    """Resolve an NN backend selection to a ``dim -> NeighborFinder``
    factory.

    ``None`` returns ``None`` (caller keeps its default); a non-string
    callable passes through unchanged (custom factories); a registered
    name resolves through the registry; anything else raises
    ``ValueError`` listing what is available.
    """
    if name is None or not isinstance(name, str):
        return name
    try:
        return _NN_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown nn backend {name!r}; available: {available_nn_factories()}"
        ) from None


register_nn_factory("brute", BruteForceNN)
register_nn_factory("kdtree", KDTreeNN)
register_nn_factory("incremental", IncrementalNN)
