"""Sequential Probabilistic Roadmap Method (Kavraki et al., 1996).

This is the planner invoked inside each region by the uniform-subdivision
parallel PRM (line 8 of Algorithm 1 in the paper).  It samples valid
configurations, connects each to its k nearest neighbours with a local
planner, and returns the regional roadmap together with the operation
counts the virtual-time model charges for.

Neighbour connection — the hot path — is batched through the local
planner's ``batch_pairs`` whenever it offers one, *including* on the
default ``connect_same_component=True`` path: candidates are filtered by
connected component first and only the survivors are validated, in an
order that reproduces the sequential planner's operation counts exactly
(see :meth:`PRM._connect_batched`).  ``PlannerStats`` and the
environment's ``CollisionCounters`` are therefore field-for-field
identical to the one-edge-at-a-time implementation; the virtual-time
model depends on that.

Without the component filter (``connect_same_component=False``, how the
regional planner of the parallel build runs it) no decision depends on an
earlier outcome, so :meth:`PRM.build` and :meth:`PRM.connect_roadmaps` also
take a *block* of independent segments — many regions, many adjacencies —
and run sampling, k-NN and local planning once over the block
(:attr:`PRM.runs_blocks`, :class:`PRMBlock`); their one-region call stays
the oracle for it.
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

_BLOCK = 64


def _rows_of(ids: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Row in ``ids`` of every id in ``wanted`` (all present)."""
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
    order; ``edges`` are ``(u, v, length)`` columns in the order the
    one-region build would have inserted them, ``u`` the newer endpoint;
    ``stats[s]`` is segment ``s``'s ledger for the invocation.
    """

    ids: np.ndarray
    configs: np.ndarray
    offsets: np.ndarray
    edges: "tuple[np.ndarray, np.ndarray, np.ndarray]"
    stats: "list[PlannerStats]"


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
    sampler:
        A sampler from :mod:`repro.cspace.sampling` (default uniform).
    local_planner:
        Edge validator (default straight-line at resolution 0.25).
    k:
        Number of nearest-neighbour connection attempts per node.
    connect_same_component:
        If False (default), skip connection attempts between vertices
        already in the same connected component — the standard PRM
        optimisation.
    nn_factory:
        Callable ``dim -> NeighborFinder`` (default brute force, the right
        choice at regional roadmap sizes).
    batched:
        Use the local planner's vectorised ``batch_pairs`` when available
        (default True).  Operation counts are identical either way; False
        forces the one-edge-at-a-time reference path (used by the perf
        suite to measure the speedup and by tests to assert parity).
    fail_fast:
        Opt into the chunked fail-fast batch validator
        (``batch_pairs_chunked``) so long invalid segments stop early.
        Faster in cluttered spaces but *changes* ``lp_checks`` (fewer
        checks on failures), so it is off by default — the virtual-time
        model wants the exact counts.
    """

    def __init__(
        self,
        cspace: ConfigurationSpace,
        sampler=None,
        local_planner=None,
        k: int = 6,
        connect_same_component: bool = True,
        nn_factory=None,
        batched: bool = True,
        fail_fast: bool = False,
    ):
        self.cspace = cspace
        self.sampler = sampler if sampler is not None else UniformSampler()
        self.local_planner = (
            local_planner if local_planner is not None
            else StraightLinePlanner(resolution=0.25)
        )
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.connect_same_component = connect_same_component
        self.nn_factory = nn_factory if nn_factory is not None else BruteForceNN
        self.batched = batched
        self.fail_fast = fail_fast

    # -- batched validation ------------------------------------------------
    def _use_batch(self) -> bool:
        return self.batched and hasattr(self.local_planner, "batch_pairs")

    def _validate_pairs(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> "tuple[np.ndarray, int, np.ndarray]":
        if self.fail_fast and hasattr(self.local_planner, "batch_pairs_chunked"):
            return self.local_planner.batch_pairs_chunked(self.cspace, starts, ends)
        return self.local_planner.batch_pairs(self.cspace, starts, ends)

    @property
    def runs_blocks(self) -> bool:
        """Whether :meth:`build` / :meth:`connect_roadmaps` accept a block
        of segments.  The block passes replay exactly this configuration:
        uniform rejection sampling, brute-force neighbours, a local
        planner with per-segment check counts, and
        ``connect_same_component=False`` — without the component filter no
        connection decision depends on an earlier outcome, so every
        candidate pair of a block can be validated in one call."""
        return (
            type(self.sampler) is UniformSampler
            and self.nn_factory is BruteForceNN
            and self._use_batch()
            and not self.fail_fast
            and not self.connect_same_component
            and hasattr(self.local_planner, "batch_pairs_counted")
        )

    def _connect_batched(
        self,
        rmap: Roadmap,
        vid: int,
        cfg: np.ndarray,
        neighbors: "list[tuple[int, float]]",
        stats: PlannerStats,
    ) -> None:
        """Connect a *new* vertex to its candidate neighbours, batched.

        Reproduces the sequential semantics exactly.  With
        ``connect_same_component=True`` the sequential loop validates, per
        connected component, that component's candidates in order until
        the first success (a success merges the component into ``vid``'s,
        so its remaining candidates are skipped); components are mutually
        independent because ``vid`` starts in a singleton component.  So:
        group candidates by current component and validate one wave per
        round — the first still-open candidate of every still-open group —
        through one ``batch_pairs`` call.  Round 1 covers everything when
        components are distinct, which is the common case.
        """
        if self.connect_same_component:
            groups: "dict[int, list[int]]" = {}
            for nbr_id, _d in neighbors:
                groups.setdefault(rmap.component_id(nbr_id), []).append(nbr_id)
            queues = list(groups.values())
        else:
            queues = [[nbr_id] for nbr_id, _d in neighbors]
        pos = [0] * len(queues)
        active = list(range(len(queues)))
        while active:
            wave_ids = [queues[g][pos[g]] for g in active]
            ends = rmap.configs_of(wave_ids)
            starts = np.broadcast_to(cfg, ends.shape)
            ok, checks, lengths = self._validate_pairs(starts, ends)
            stats.lp_calls += len(wave_ids)
            stats.lp_checks += checks
            still_open = []
            for j, g in enumerate(active):
                if ok[j]:
                    stats.lp_successes += 1
                    if rmap.add_edge(vid, wave_ids[j], float(lengths[j])):
                        stats.edges_added += 1
                else:
                    pos[g] += 1
                    if pos[g] < len(queues[g]):
                        still_open.append(g)
            active = still_open

    def _build_block(
        self,
        rmap: Roadmap,
        configs: np.ndarray,
        id_base: int,
        next_local: int,
        nn,
        stats: PlannerStats,
    ) -> None:
        """Add ``configs`` to the roadmap in predict-validate-replay blocks.

        Per block of up to ``_BLOCK`` samples: (1) batch the k-NN queries
        with growing visibility (query *i* sees the block's earlier
        samples, exactly as the interleaved query/insert loop would);
        (2) predict which candidate pairs the sequential connection loop
        will actually validate — the first unconsumed candidate of each
        distinct connected component, per vertex — and validate the whole
        prediction in one vectorised ``batch_pairs_counted`` call (pair
        verdicts depend only on geometry, never on roadmap state, so
        validating ahead of time is safe); then (3) replay the sequential
        decision loop in strict order against the verdict cache, applying
        edges as it goes so component checks see exactly the state the
        reference implementation would.  A replay that needs a verdict
        the prediction missed (e.g. the candidate *after* a failed
        attempt in the same component) pauses, and the loop predicts
        again from the paused state — a handful of small follow-up
        batches in practice.

        ``PlannerStats`` are charged from the replay, so they match the
        sequential path field for field.  The environment's
        ``CollisionCounters`` are rescaled from the speculative charge to
        the replayed one (the charge per intermediate point is a constant
        factor, so the correction is exact integer arithmetic).
        """
        env = getattr(self.cspace, "env", None)
        counters = getattr(env, "counters", None)
        cslot = rmap.component_slot
        for lo in range(0, configs.shape[0], _BLOCK):
            chunk = configs[lo : lo + _BLOCK]
            m = chunk.shape[0]
            vids = [id_base + next_local + i for i in range(m)]
            next_local += m
            nbr_lists = nn.knn_block_growing(
                np.asarray(vids, dtype=np.int64), chunk, self.k
            )
            stats.nn_queries += m
            for i in range(m):
                rmap.add_vertex(chunk[i], vids[i])
            before = counters.snapshot() if counters is not None else None
            spec_checks = 0
            seq_checks = 0
            cache: "dict[tuple[int, int], tuple[bool, int, float]]" = {}
            ptr = [0] * m
            active = [i for i in range(m) if nbr_lists[i]]
            while active:
                # Predict the verdicts the replay will need from here.
                # Component slots are stable within a round (no edges are
                # applied while predicting), so roots memoise per id.
                need: "list[tuple[int, int]]" = []
                root_cache: "dict[int, int]" = {}
                for i in active:
                    lst = nbr_lists[i]
                    if self.connect_same_component:
                        rv = cslot(vids[i])
                        seen: "set[int]" = set()
                        for pos in range(ptr[i], len(lst)):
                            c = lst[pos][0]
                            rc = root_cache.get(c)
                            if rc is None:
                                rc = root_cache[c] = cslot(c)
                            if rc == rv or rc in seen:
                                continue
                            seen.add(rc)
                            if (i, pos) not in cache:
                                need.append((i, pos))
                    else:
                        for pos in range(ptr[i], len(lst)):
                            if (i, pos) not in cache:
                                need.append((i, pos))
                if need:
                    starts = chunk[[i for i, _pos in need]]
                    ends = rmap.configs_of(nbr_lists[i][pos][0] for i, pos in need)
                    ok, per_checks, lengths = self.local_planner.batch_pairs_counted(
                        self.cspace, starts, ends
                    )
                    spec_checks += int(per_checks.sum())
                    for j, key in enumerate(need):
                        cache[key] = (bool(ok[j]), int(per_checks[j]), float(lengths[j]))
                # Strict in-order replay; a missing verdict pauses the
                # replay (later vertices' decisions depend on the
                # outcome) until the next prediction round fills it.
                paused = False
                still_open: "list[int]" = []
                for i in active:
                    if paused:
                        still_open.append(i)
                        continue
                    vid = vids[i]
                    lst = nbr_lists[i]
                    pos = ptr[i]
                    rs = cslot(vid)
                    while pos < len(lst):
                        v = lst[pos][0]
                        if self.connect_same_component and cslot(v) == rs:
                            pos += 1
                            continue
                        verdict = cache.get((i, pos))
                        if verdict is None:
                            paused = True
                            break
                        okp, c, length = verdict
                        stats.lp_calls += 1
                        stats.lp_checks += c
                        seq_checks += c
                        if okp:
                            stats.lp_successes += 1
                            if rmap.add_edge(vid, v, length):
                                stats.edges_added += 1
                            rs = cslot(vid)
                        pos += 1
                    ptr[i] = pos
                    if pos < len(lst):
                        still_open.append(i)
                active = still_open
            if counters is not None and spec_checks:
                counters.rescale_since(before, seq_checks, spec_checks)

    def build(
        self,
        n_samples: "int | Sequence[int]",
        rng: "np.random.Generator | Sequence[np.random.Generator]",
        within: "AABB | Sequence[AABB] | None" = None,
        roadmap: "Roadmap | PRMBlock | None" = None,
        id_base: "int | Sequence[int]" = 0,
    ) -> "PRMResult | PRMBlock":
        """Construct (or extend) a roadmap with ``n_samples`` new samples.

        ``within`` restricts sampling to a sub-box of C-space — this is how
        regional roadmaps are built.  ``id_base`` offsets vertex ids so that
        regional roadmaps have globally unique ids.

        Given a *sequence* of generators this builds a block of
        independent roadmaps, one segment per generator (``n_samples``,
        ``within`` and ``id_base`` a scalar for all or one per segment),
        and returns a :class:`PRMBlock`; ``roadmap`` is then an earlier
        block over the same segments to extend.  Sampling, growing k-NN
        and local planning each run once over the whole block — see
        :meth:`_build_segments`.  Needs :attr:`runs_blocks`.
        """
        if not isinstance(rng, np.random.Generator):
            return self._build_segments(n_samples, list(rng), within, roadmap, id_base)
        stats = PlannerStats()
        rmap = roadmap if roadmap is not None else Roadmap(self.cspace.dim)

        batch = self.sampler(self.cspace, rng, n_samples, within=within)
        stats.sample_attempts += batch.attempts
        stats.samples_accepted += len(batch)

        nn = self.nn_factory(self.cspace.dim)
        # Seed NN structure with pre-existing vertices (extension mode).
        ids, cfgs = rmap.configs_array()
        if ids.size:
            nn.add_batch(ids, cfgs)

        if (
            self._use_batch()
            and not self.fail_fast
            and hasattr(self.local_planner, "batch_pairs_counted")
            and hasattr(nn, "knn_block_growing")
        ):
            self._build_block(
                rmap, np.asarray(batch.configs, dtype=float), id_base,
                rmap.num_vertices, nn, stats,
            )
            stats.nn_distance_evals += nn.stats.distance_evals
            return PRMResult(rmap, stats)

        batched = self._use_batch()
        next_local = rmap.num_vertices
        for cfg in batch.configs:
            vid = id_base + next_local
            next_local += 1
            rmap.add_vertex(cfg, vid)

            neighbors = nn.knn(cfg, self.k)
            stats.nn_queries += 1
            if batched and len(neighbors) > 1:
                self._connect_batched(rmap, vid, cfg, neighbors, stats)
            else:
                for nbr_id, _dist in neighbors:
                    if self.connect_same_component and rmap.same_component(vid, nbr_id):
                        continue
                    result = self.local_planner(self.cspace, cfg, rmap.config(nbr_id))
                    stats.lp_calls += 1
                    stats.lp_checks += result.checks
                    if result.valid:
                        stats.lp_successes += 1
                        if rmap.add_edge(vid, nbr_id, result.length):
                            stats.edges_added += 1
            nn.add(vid, cfg)
        stats.nn_distance_evals += nn.stats.distance_evals
        return PRMResult(rmap, stats)

    def _build_segments(
        self, n_samples, rngs: list, within, block: "PRMBlock | None", id_base
    ) -> PRMBlock:
        """Block-mode :meth:`build`: every segment's one-region build, as
        three array passes over the block.

        With ``connect_same_component=False`` the one-region loop
        validates *every* k-NN candidate of every new vertex (its
        predict-validate-replay degenerates to one round), so the block's
        work is fixed by geometry alone: (1) the sampler's lock-step
        rounds, one generator per segment; (2) one segmented growing k-NN
        (row ``i`` of a segment sees its stored vertices and rows ``< i``);
        (3) one ``batch_pairs_counted`` over all candidate pairs in
        (segment, row, candidate) order — the order the one-region build
        inserts edges in.  Verdicts, distances and interpolation are
        elementwise, so batch composition changes no bit; ledgers are
        per-segment ``bincount`` s and the k-NN charge in closed form.
        """
        if not self.runs_blocks:
            raise ValueError("this PRM configuration builds one region at a time")
        g, dim = len(rngs), self.cspace.dim
        if block is None:
            none = np.empty(0, dtype=np.int64)
            block = PRMBlock(
                none, np.empty((0, dim)), np.zeros(g + 1, dtype=np.int64),
                (none, none, np.empty(0)), [],
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

        nn = self.nn_factory(dim)
        if block.ids.size:
            nn.add_batch(block.ids, block.configs)
        nbrs, _dists = nn.knn_block_growing(
            new_ids, new_cfgs, self.k, segments=(block.offsets, new_offsets)
        )
        # Segment-major vertex arrays: a segment's earlier rows, then its new ones.
        order = np.argsort(np.concatenate((np.repeat(segments, n0), seg_new)), kind="stable")
        ids = np.concatenate((block.ids, new_ids))[order]
        configs = np.concatenate((block.configs, new_cfgs))[order]

        row, pos = np.nonzero(nbrs >= 0)
        cand = nbrs[row, pos]
        ok, checks, lengths = self.local_planner.batch_pairs_counted(
            self.cspace, new_cfgs[row], configs[_rows_of(ids, cand)]
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
        edges = tuple(
            np.concatenate(pair)
            for pair in zip(block.edges, (new_ids[row][ok], cand[ok], lengths[ok]))
        )
        return PRMBlock(ids, configs, block.offsets + new_offsets, edges, stats)

    def connect_roadmaps(
        self,
        rmap: Roadmap,
        ids_a: np.ndarray,
        ids_b: np.ndarray,
        k: int | None = None,
        max_attempts: int | None = None,
        segments=None,
    ) -> "PlannerStats | list[PlannerStats]":
        """Attempt connections between two vertex sets of one merged roadmap.

        Used for the inter-region connection phase (lines 10-12 of
        Algorithm 1): for each vertex in ``ids_a``, try its ``k`` nearest
        vertices in ``ids_b``.

        Batched exactly like :meth:`build`: candidate pairs accumulate
        into one validation batch, flushed early only when a pair's
        same-component decision could depend on a pending outcome (either
        of its components is already touched by an unvalidated pair).
        Operation counts match the sequential reference path exactly.

        ``segments = (offsets_a, offsets_b)`` connects a block of
        adjacencies in one pass: adjacency ``i`` is
        ``ids_a[oa[i]:oa[i+1]]`` against ``ids_b[ob[i]:ob[i+1]]``, and the
        result is one ledger per adjacency.  Without the component filter
        the one-adjacency loop never flushes early, so the block is one
        segmented k-NN, one ``batch_pairs_counted`` and one bulk edge
        insertion in (adjacency, vertex, candidate) order — the order the
        loop inserts in.  Needs :attr:`runs_blocks`.
        """
        if segments is not None:
            if max_attempts is not None:
                raise ValueError("a block of adjacencies takes no max_attempts")
            return self._connect_segments(rmap, ids_a, ids_b, k, segments)
        stats = PlannerStats()
        k = k if k is not None else self.k
        ids_b = np.asarray(ids_b, dtype=np.int64)
        if ids_b.size == 0 or len(ids_a) == 0:
            return stats
        nn = self.nn_factory(self.cspace.dim)
        nn.add_batch(ids_b, rmap.configs_of(int(i) for i in ids_b))
        if self._use_batch():
            self._connect_pairs_batched(rmap, ids_a, nn, k, max_attempts, stats)
            stats.nn_distance_evals += nn.stats.distance_evals
            return stats
        attempts = 0
        for u in np.asarray(ids_a, dtype=np.int64):
            u = int(u)
            cfg = rmap.config(u)
            stats.nn_queries += 1
            for v, _dist in nn.knn(cfg, k):
                if max_attempts is not None and attempts >= max_attempts:
                    stats.nn_distance_evals += nn.stats.distance_evals
                    return stats
                if self.connect_same_component and rmap.same_component(u, v):
                    continue
                attempts += 1
                result = self.local_planner(self.cspace, cfg, rmap.config(v))
                stats.lp_calls += 1
                stats.lp_checks += result.checks
                if result.valid:
                    stats.lp_successes += 1
                    if rmap.add_edge(u, v, result.length):
                        stats.edges_added += 1
        stats.nn_distance_evals += nn.stats.distance_evals
        return stats

    def _connect_segments(
        self, rmap: Roadmap, ids_a, ids_b, k: "int | None", segments
    ) -> "list[PlannerStats]":
        if not self.runs_blocks:
            raise ValueError("this PRM configuration connects one adjacency at a time")
        ids_a = np.asarray(ids_a, dtype=np.int64)
        ids_b = np.asarray(ids_b, dtype=np.int64)
        oa, ob = (np.asarray(o, dtype=np.int64) for o in segments)
        na, nb = np.diff(oa), np.diff(ob)
        cfg_a, cfg_b = rmap.configs_of(ids_a.tolist()), rmap.configs_of(ids_b.tolist())
        nn = self.nn_factory(self.cspace.dim)
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

    def _connect_pairs_batched(
        self,
        rmap: Roadmap,
        ids_a: np.ndarray,
        nn,
        k: int,
        max_attempts: int | None,
        stats: PlannerStats,
    ) -> None:
        pending: "list[tuple[int, int]]" = []
        pending_roots: "set[int]" = set()

        def flush() -> None:
            if not pending:
                return
            starts = rmap.configs_of(u for u, _v in pending)
            ends = rmap.configs_of(v for _u, v in pending)
            ok, checks, lengths = self._validate_pairs(starts, ends)
            stats.lp_calls += len(pending)
            stats.lp_checks += checks
            for i, (u, v) in enumerate(pending):
                if ok[i]:
                    stats.lp_successes += 1
                    if rmap.add_edge(u, v, float(lengths[i])):
                        stats.edges_added += 1
            pending.clear()
            pending_roots.clear()

        attempts = 0
        exhausted = False
        for u in np.asarray(ids_a, dtype=np.int64):
            u = int(u)
            stats.nn_queries += 1
            for v, _dist in nn.knn(rmap.config(u), k):
                if max_attempts is not None and attempts >= max_attempts:
                    exhausted = True
                    break
                if self.connect_same_component:
                    ru, rv = rmap.component_id(u), rmap.component_id(v)
                    if ru == rv or ru in pending_roots or rv in pending_roots:
                        # Decision may depend on a pending outcome: settle
                        # the batch, then re-evaluate against fresh state.
                        flush()
                        ru, rv = rmap.component_id(u), rmap.component_id(v)
                        if ru == rv:
                            continue
                    pending_roots.add(ru)
                    pending_roots.add(rv)
                attempts += 1
                pending.append((u, v))
            if exhausted:
                break
        flush()
