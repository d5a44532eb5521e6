"""Theoretical load-imbalance model (Sec. IV-B).

The model environment is a 2-D square workspace with one square obstacle
equidistant from the bounding box.  Every region's free volume ``V_free``
is computable exactly, and the paper takes region load to be proportional
to ``V_free``.  The model then compares:

* the **naive** mapping — a 1-D partition of the region mesh assigning a
  balanced number of region *columns* to each processor — against
* the **best** achievable mapping — a greedy global partition of region
  weights ignoring edge cuts (exact balance is NP-complete).

yielding (a) the coefficient of variation of per-PE load for each mapping
(Fig. 4a) and (b) the potential improvement: the reduction in the
most-loaded PE's share (Fig. 4b).  The same quantities recomputed from a
real sampling run (number of samples per region) validate the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cspace.space import EuclideanCSpace
from ..geometry.environment import Environment
from ..geometry.environments import model_2d
from ..partition.edge_cut import loads_of
from ..partition.greedy import partition_greedy_lpt
from ..partition.naive import partition_block
from ..subdivision.uniform import UniformSubdivision
from .metrics import coefficient_of_variation, max_load_reduction
from .weights import prm_free_volume_weights, prm_sample_count_weights

__all__ = ["ModelPoint", "ModelEnvironmentAnalysis"]


@dataclass(frozen=True)
class ModelPoint:
    """Model predictions and experimental measurements at one PE count."""

    num_pes: int
    #: CoV of V_free-proportional load under the naive 1-D mapping.
    model_imbalance: float
    #: CoV of V_free-proportional load under the greedy best mapping.
    model_best: float
    #: CoV of measured sample counts under the naive mapping.
    experimental_imbalance: float
    #: CoV of measured sample counts after repartitioning.
    experimental_best: float
    #: % reduction of max V_free load achievable (theoretical improvement).
    model_improvement: float
    #: % reduction of max sample-count load achieved (experimental).
    experimental_improvement: float


class ModelEnvironmentAnalysis:
    """Analytic + experimental study of the model environment.

    Parameters
    ----------
    obstacle_fraction:
        Area fraction of the central square obstacle.
    num_regions:
        Total grid regions (kept constant across PE counts: strong scaling).
    total_samples:
        Sample budget for the experimental validation.
    """

    def __init__(
        self,
        obstacle_fraction: float = 0.25,
        num_regions: int = 4096,
        total_samples: int = 20000,
        seed: int = 0,
    ):
        self.env: Environment = model_2d(obstacle_fraction)
        self.num_regions = num_regions
        self.total_samples = total_samples
        self.seed = seed
        self.subdivision = UniformSubdivision(self.env.bounds, num_regions, overlap=0.0)
        #: analytic V_free per region.
        self.free_volumes = prm_free_volume_weights(self.subdivision, self.env)
        self._samples = self._draw_samples()
        self.sample_counts = prm_sample_count_weights(self.subdivision, self._samples)

    def _draw_samples(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        cspace = EuclideanCSpace(self.env)
        out = []
        need = self.total_samples
        while need > 0:
            cand = cspace.sample(rng, max(2 * need, 64))
            ok = cspace.valid(cand)
            got = cand[ok][:need]
            if got.size:
                out.append(got)
                need -= got.shape[0]
        return np.vstack(out)

    # -- load distributions ----------------------------------------------------
    def naive_assignment(self, num_pes: int) -> "dict[int, int]":
        """The naive 1-D mapping: balanced contiguous spans of the
        row-major region mesh (exactly balanced columns when the PE count
        divides the column count)."""
        return partition_block(self.subdivision.graph, num_pes)

    def best_assignment(self, weights: "dict[int, float]", num_pes: int) -> "dict[int, int]":
        return partition_greedy_lpt(self.subdivision.graph, weights, num_pes)

    # -- headline quantities ----------------------------------------------------
    def analyze(self, num_pes: int) -> ModelPoint:
        """All Fig. 4 quantities at one processor count."""
        if num_pes < 1:
            raise ValueError("num_pes must be >= 1")
        naive = self.naive_assignment(num_pes)
        best_model = self.best_assignment(self.free_volumes, num_pes)
        # The experimental repartition uses the measurable weight (samples).
        best_exp = self.best_assignment(self.sample_counts, num_pes)

        graph = self.subdivision.graph
        loads_naive_model = loads_of(graph, self.free_volumes, naive, num_pes)
        loads_best_model = loads_of(graph, self.free_volumes, best_model, num_pes)
        loads_naive_exp = loads_of(graph, self.sample_counts, naive, num_pes)
        loads_best_exp = loads_of(graph, self.sample_counts, best_exp, num_pes)

        return ModelPoint(
            num_pes=num_pes,
            model_imbalance=coefficient_of_variation(loads_naive_model),
            model_best=coefficient_of_variation(loads_best_model),
            experimental_imbalance=coefficient_of_variation(loads_naive_exp),
            experimental_best=coefficient_of_variation(loads_best_exp),
            model_improvement=max_load_reduction(loads_naive_model, loads_best_model),
            experimental_improvement=max_load_reduction(loads_naive_exp, loads_best_exp),
        )

    def sweep(self, pe_counts: "list[int]") -> "list[ModelPoint]":
        return [self.analyze(p) for p in pe_counts]
