"""Sequential Probabilistic Roadmap Method (Kavraki et al., 1996).

This is the planner invoked inside each region by the uniform-subdivision
parallel PRM (line 8 of Algorithm 1 in the paper).  It samples valid
configurations, connects each to its k nearest neighbours with a local
planner, and returns the regional roadmap together with the operation
counts the virtual-time model charges for.

The planner is one configuration: uniform rejection sampling
(:class:`~repro.cspace.sampling.UniformSampler`), brute-force k-NN
(:class:`~repro.knn.brute.BruteForceNN`) and a straight-line local planner,
with every k-NN candidate of a new vertex attempted.  No connection
decision therefore depends on an earlier outcome, so the batched planner
(the default) runs :meth:`PRM.build` and :meth:`PRM.connect_roadmaps` as
array passes over a *block* of independent segments — many regions, many
adjacencies — with sampling, k-NN and local planning each run once over
the block (:class:`PRMBlock`).  One region or one adjacency is the block
of one.  The one-vertex-at-a-time loop is the oracle
(``tests/oracle.py::SequentialPRM``): ``PlannerStats`` and the
environment's ``CollisionCounters`` are field for field the loop's, and
the roadmap is the loop's to the last place of its edge weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cspace.local_planner import StraightLinePlanner
from ..cspace.sampling import UniformSampler
from ..cspace.space import ConfigurationSpace
from ..geometry.primitives import AABB
from ..knn.brute import BruteForceNN
from .roadmap import Roadmap
from .stats import PlannerStats

__all__ = ["PRM", "PRMBlock", "PRMResult", "PRMSegment"]


def _rows_of(ids: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Row in ``ids`` of every id in ``wanted`` (all present), in ``wanted``'s shape."""
    sorter = np.argsort(ids, kind="stable")
    return sorter[np.searchsorted(ids, wanted, sorter=sorter)]


def _segment_ledgers(
    seg: np.ndarray, g: int, ok: np.ndarray, checks: np.ndarray
) -> "tuple[list[int], list[int], list[int]]":
    """Per-segment ``(lp_calls, lp_checks, lp_successes)`` of validated
    pairs whose segment indices are ``seg``."""
    calls = np.bincount(seg, minlength=g)
    per_checks = np.bincount(seg, weights=checks, minlength=g).astype(np.int64)
    wins = np.bincount(seg[ok], minlength=g)
    return calls.tolist(), per_checks.tolist(), wins.tolist()


#: The edges of a block without any: ``(uv, length)``.
_NO_EDGES = (np.empty((0, 2), dtype=np.int64), np.empty(0))


@dataclass
class PRMResult:
    """Roadmap plus the work ledger for the invocation."""

    roadmap: Roadmap
    stats: PlannerStats


@dataclass
class PRMBlock:
    """A block of independent regional roadmaps, side by side in flat arrays.

    What a block-mode :meth:`PRM.build` returns (and extends): segment
    ``s`` owns vertex rows ``[offsets[s], offsets[s + 1])`` in insertion
    order; ``edges`` are ``(uv, length)`` — ``(k, 2)`` vertex rows, column
    0 the newer endpoint, and weights — in the order the one-region build
    would have inserted them; ``stats[s]`` is segment ``s``'s ledger for
    the invocation.
    """

    ids: np.ndarray
    configs: np.ndarray
    offsets: np.ndarray
    edges: "tuple[np.ndarray, np.ndarray]"
    stats: "list[PlannerStats]"

    def configs_array(self) -> "tuple[np.ndarray, np.ndarray]":
        """Vertex ids and configurations, as :meth:`Roadmap.configs_array`."""
        return self.ids, self.configs

    def edge_rows(self) -> "tuple[np.ndarray, np.ndarray]":
        """Edges as vertex rows and weights, as :meth:`Roadmap.edge_rows`."""
        return self.edges


@dataclass(frozen=True)
class PRMSegment:
    """Segment ``index`` of ``block``: one region's result when the region
    was planned inside a block.  The segments of a block all hold the same
    :class:`PRMBlock`, so a pickled chunk of them carries its arrays once,
    flat, and :meth:`Roadmap.merge` takes the block whole."""

    block: PRMBlock
    index: int


class PRM:
    """Sequential PRM.

    Parameters
    ----------
    cspace:
        The configuration space to plan in.
    local_planner:
        The edge validator, a :class:`StraightLinePlanner` (default
        resolution 0.25).
    k:
        Number of nearest-neighbour connection attempts per node.
    """

    def __init__(
        self,
        cspace: ConfigurationSpace,
        local_planner=None,
        k: int = 6,
    ):
        self.cspace = cspace
        self.sampler = UniformSampler()
        self.local_planner = (
            local_planner if local_planner is not None
            else StraightLinePlanner(resolution=0.25)
        )
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def build(
        self,
        n_samples: "int | Sequence[int]",
        rng: "np.random.Generator | Sequence[np.random.Generator]",
        within: "AABB | np.ndarray | None" = None,
        roadmap: "Roadmap | PRMBlock | None" = None,
        id_base: "int | Sequence[int]" = 0,
    ) -> "PRMResult | PRMBlock":
        """Construct (or extend) a roadmap with ``n_samples`` new samples.

        ``within`` restricts sampling to a sub-box of C-space — this is how
        regional roadmaps are built.  ``id_base`` offsets vertex ids so that
        regional roadmaps have globally unique ids.

        Given a *sequence* of generators this builds a block of
        independent roadmaps, one segment per generator (``n_samples``
        and ``id_base`` a scalar for all or one per segment, ``within`` one
        box for all or the sampler's ``(g, 2, d)`` box array), and returns
        a :class:`PRMBlock`; ``roadmap`` is then an earlier
        block over the same segments to extend.  Sampling, growing k-NN
        and local planning each run once over the whole block — see
        :meth:`_build_segments`, which a one-generator build runs as the
        block of one.
        """
        if not isinstance(rng, np.random.Generator):
            return self._build_segments(n_samples, list(rng), within, roadmap, id_base)
        rmap = roadmap if roadmap is not None else Roadmap(self.cspace.dim)
        ids, cfgs = rmap.configs_array()
        # The block of one, seeded with the roadmap's vertices.
        seed = PRMBlock(ids, cfgs, np.array([0, ids.size]), _NO_EDGES, [])
        block = self._build_segments(n_samples, [rng], within, seed, id_base)
        rmap.add_vertices(block.ids[ids.size:], block.configs[ids.size:])
        uv, w = block.edges
        rmap.add_edges(block.ids[uv[:, 0]], block.ids[uv[:, 1]], w)
        return PRMResult(rmap, block.stats[0])

    def _build_segments(
        self, n_samples, rngs: list, within, block: "PRMBlock | None", id_base
    ) -> PRMBlock:
        """Block-mode :meth:`build`: every segment's one-region build, as
        three array passes over the block.

        The one-region loop validates *every* k-NN candidate of every new
        vertex, so the block's work is fixed by geometry alone: (1) the
        sampler's lock-step rounds, one generator per segment; (2) one
        segmented growing k-NN (row ``i`` of a segment sees its stored
        vertices and rows ``< i``); (3) one ``batch_pairs_counted`` over all candidate pairs in
        (segment, row, candidate) order — the order the one-region build
        inserts edges in.  Verdicts, distances and interpolation are
        elementwise, so batch composition changes no bit; ledgers are
        per-segment ``bincount`` s and the k-NN charge in closed form.
        """
        g, dim = len(rngs), self.cspace.dim
        if block is None:
            block = PRMBlock(
                np.empty(0, dtype=np.int64), np.empty((0, dim)), np.zeros(g + 1, dtype=np.int64),
                _NO_EDGES, [],
            )
        elif not isinstance(block, PRMBlock) or block.offsets.size != g + 1:
            raise ValueError("a block build extends a PRMBlock over the same segments")
        batches = self.sampler(self.cspace, rngs, n_samples, within=within)
        n0 = np.diff(block.offsets)
        m = np.array([len(b) for b in batches], dtype=np.int64)
        new_offsets = np.concatenate(([0], np.cumsum(m)))
        segments = np.arange(g)
        seg_new = np.repeat(segments, m)
        new_cfgs = np.concatenate([b.configs for b in batches]) if g else np.empty((0, dim))
        bases = np.broadcast_to(np.asarray(id_base, dtype=np.int64), (g,))
        new_ids = (bases + n0 - new_offsets[:-1])[seg_new] + np.arange(seg_new.size)

        nn = BruteForceNN(dim)
        if block.ids.size:
            nn.add_batch(block.ids, block.configs)
        nbrs, _dists = nn.knn_block_growing(
            new_ids, new_cfgs, self.k, segments=(block.offsets, new_offsets)
        )
        # Segment-major vertex arrays: a segment's earlier rows, then its new ones.
        order = np.argsort(np.concatenate((np.repeat(segments, n0), seg_new)), kind="stable")
        ids = np.concatenate((block.ids, new_ids))[order]
        configs = np.concatenate((block.configs, new_cfgs))[order]
        place = np.empty_like(order)  # the row every earlier, then new vertex lands on
        place[order] = np.arange(order.size)

        row, pos = np.nonzero(nbrs >= 0)
        cand = nbrs[row, pos]
        cand_rows = _rows_of(ids, cand)
        ok, checks, lengths = self.local_planner.batch_pairs_counted(
            self.cspace, new_cfgs[row], configs[cand_rows]
        )
        calls, per_checks, wins = _segment_ledgers(seg_new[row], g, ok, checks)
        stats = [
            PlannerStats(
                sample_attempts=batches[s].attempts, samples_accepted=ms, nn_queries=ms,
                nn_distance_evals=ms * n0s + ms * (ms - 1) // 2,
                lp_calls=calls[s], lp_checks=per_checks[s],
                lp_successes=wins[s], edges_added=wins[s],
            )
            for s, (ms, n0s) in enumerate(zip(m.tolist(), n0.tolist()))
        ]
        uv = np.stack((place[block.ids.size + row[ok]], cand_rows[ok]), axis=1)
        edges = (np.concatenate((place[block.edges[0]], uv)),
                 np.concatenate((block.edges[1], lengths[ok])))
        return PRMBlock(ids, configs, block.offsets + new_offsets, edges, stats)

    def connect_roadmaps(
        self,
        rmap: Roadmap,
        ids_a: np.ndarray,
        ids_b: np.ndarray,
        k: int | None = None,
        segments=None,
    ) -> "PlannerStats | list[PlannerStats]":
        """Attempt connections between two vertex sets of one merged roadmap.

        Used for the inter-region connection phase (lines 10-12 of
        Algorithm 1): for each vertex in ``ids_a``, try its ``k`` nearest
        vertices in ``ids_b``.

        ``segments = (offsets_a, offsets_b)`` connects a block of
        adjacencies in one pass: adjacency ``i`` is
        ``ids_a[oa[i]:oa[i+1]]`` against ``ids_b[ob[i]:ob[i+1]]``, and the
        result is one ledger per adjacency.  Without the component filter
        no decision depends on an earlier outcome, so the block is one
        segmented k-NN, one ``batch_pairs_counted`` and one bulk edge
        insertion in (adjacency, vertex, candidate) order — the order the
        loop inserts in.  Without ``segments`` it connects the block of
        one; the one-pair-at-a-time loop is the oracle
        (``tests/oracle.py::SequentialPRM``).
        """
        if segments is not None:
            return self._connect_segments(rmap, ids_a, ids_b, k, segments)
        whole = ([0, len(ids_a)], [0, len(ids_b)])
        return self._connect_segments(rmap, ids_a, ids_b, k, whole)[0]

    def _connect_segments(
        self, rmap: Roadmap, ids_a, ids_b, k: "int | None", segments
    ) -> "list[PlannerStats]":
        ids_a = np.asarray(ids_a, dtype=np.int64)
        ids_b = np.asarray(ids_b, dtype=np.int64)
        oa, ob = (np.asarray(o, dtype=np.int64) for o in segments)
        na, nb = np.diff(oa), np.diff(ob)
        cfg_a, cfg_b = rmap.configs_of(ids_a.tolist()), rmap.configs_of(ids_b.tolist())
        nn = BruteForceNN(self.cspace.dim)
        nn.add_batch(ids_b, cfg_b)
        nbrs, _dists = nn.knn_batch_arrays(
            cfg_a, k if k is not None else self.k, segments=(ob, oa)
        )
        row, pos = np.nonzero(nbrs >= 0)
        v = nbrs[row, pos]
        ok, checks, lengths = self.local_planner.batch_pairs_counted(
            self.cspace, cfg_a[row], cfg_b[_rows_of(ids_b, v)]
        )
        seg = np.repeat(np.arange(na.size), na)[row]
        added = rmap.add_edges(ids_a[row][ok], v[ok], lengths[ok])
        calls, per_checks, wins = _segment_ledgers(seg, na.size, ok, checks)
        edges = np.bincount(seg[ok][added], minlength=na.size).tolist()
        return [
            PlannerStats(
                nn_queries=qa if qb else 0, nn_distance_evals=qa * qb,
                lp_calls=calls[i], lp_checks=per_checks[i],
                lp_successes=wins[i], edges_added=edges[i],
            )
            for i, (qa, qb) in enumerate(zip(na.tolist(), nb.tolist()))
        ]
