"""Sequential Rapidly-exploring Random Tree (LaValle & Kuffner, 2001).

Also the regional planner of the uniform *radial* subdivision parallel
RRT (line 11 of Algorithm 2).  "Biased toward its region" is three
per-call arguments of :meth:`RRT.grow`: ``within`` — the domain ``q_rand``
is drawn from (the region itself, so no collision check or neighbour scan
is spent on a sample that cannot extend this branch); ``bias_target`` —
the point ``goal_bias`` of the draws go to (the paper's "region candidate
defined by the random ray"); and ``region_predicate`` — the vectorised
membership guard every valid ``q_new`` still has to pass.  All three
travel with the call, never on the planner: one ``RRT`` serves every
region of a decomposition, from several threads at once.

Growth — the RRT hot path — is :meth:`RRT._grow_batched`.  Its semantic
oracle, ``tests/oracle.py::SequentialRRT``, is the one-extension-at-a-
time loop over a :class:`~repro.knn.brute.BruteForceNN`; the batched path
inlines that finder's scan and replays the oracle exactly while
vectorising the per-iteration array work in blocks, mirroring the
predict-validate-replay strategy of :class:`repro.planners.prm.PRM`:

1. **Sample** a block's worth of ``q_rand`` draws up front, replaying the
   oracle's stream double for double: the oracle takes one ``random()``
   for the bias gate (when there is a bias target) and ``dim`` uniforms
   per ``cspace.sample`` draw, so one ``rng.random`` call covers the
   block, the gate is walked over its values, and every uniform row is
   mapped through the domain in one ``cspace.sample(within=..., unit=...)``
   call.  The generator is then rewound and advanced by exactly the
   doubles the oracle would have consumed, so every sample — and the
   generator's end state — is bit-identical to the sequential loop's.
2. **Batch the nearest-neighbour work**: distances from all block samples
   to the frozen tree are one broadcast; nodes accepted *inside* the
   block contribute one incremental distance column each, so the nearest
   node for iteration *i* is an O(1) combine of the frozen row minimum
   and the running block minimum — never a rebuild.  Ties (including
   frozen-vs-block ties) fall back to replaying the reference selection
   on the composed distance vector, so the chosen neighbour is identical
   even in degenerate geometry.  The tree always holds at least its
   root, so every draw has a nearest node.
3. **Speculatively validate** the extensions the replay will need —
   steer arithmetic, the ``q_new`` validity point check, the region
   predicate, and the local-plan segment — in batches.  Verdicts are
   geometry-only functions of ``(q_near, q_rand)``, so they are cached
   by ``(nearest vertex, sample identity)``; repeated goal-bias draws
   share one entry per tree vertex, which makes bias *chains* (each
   acceptance re-routing the next bias draw through the new node) cost
   exactly one validation per chain link, the same as the oracle.
4. **Replay** the accept/reject loop in strict order against the verdict
   cache, charging :class:`PlannerStats` per the oracle; a replay that
   needs a verdict the prediction missed (an acceptance moved some later
   sample's nearest node) pauses and re-predicts from the updated state.

The environment's ``CollisionCounters`` are rescaled from the
speculative charge to the replayed one at the end of the call — the
charge per evaluated point is a constant factor, so the correction is
exact integer arithmetic (same argument as the PRM build).  Tree
topology, ``PlannerStats``, and counters are asserted field-for-field
identical to the sequential oracle in ``tests/test_rrt_batched.py`` and
the oracle matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..cspace.local_planner import StraightLinePlanner
from ..cspace.space import ConfigurationSpace
from ..knn.brute import BruteForceNN
from .roadmap import Roadmap
from .stats import PlannerStats

__all__ = ["RRT", "RRTResult"]

#: Iterations speculated per batch: from ``_BLOCK_MIN`` up to ``_BLOCK``.
#: The size doubles after a block whose predictions all held and halves
#: after one that had to re-predict (an acceptance moved a later sample's
#: nearest node).  Where most extensions are rejected, blocks grow and
#: amortise the frozen-tree distance broadcast; where most are accepted —
#: a branch sampling inside its own cone — a wide block would validate
#: candidates against neighbours they no longer have by the time the
#: replay reaches them, or that it never reaches (a 6-node branch needs
#: ~8 draws, not 128).  Results do not depend on the size: the replay is
#: the oracle's loop either way.
_BLOCK = 128
_BLOCK_MIN = 8


@dataclass
class RRTResult:
    """Tree (as a roadmap plus parent pointers) and the work ledger."""

    tree: Roadmap
    parents: "dict[int, int]"
    root_id: int
    stats: PlannerStats

    @property
    def roadmap(self) -> Roadmap:
        """Uniform alias: the tree, named as ``PRMResult`` names its roadmap."""
        return self.tree


class RRT:
    """Sequential RRT with optional region constraint and growth bias.

    Parameters
    ----------
    cspace:
        Configuration space.
    step_size:
        Maximum extension length ``Δq``.
    local_planner:
        Validator for each extension segment, a
        :class:`~repro.cspace.local_planner.StraightLinePlanner` (default
        resolution 0.25).
    goal_bias:
        Probability of sampling the bias target instead of uniformly.
    """

    def __init__(
        self,
        cspace: ConfigurationSpace,
        step_size: float = 0.5,
        local_planner=None,
        goal_bias: float = 0.05,
    ):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 <= goal_bias <= 1.0:
            raise ValueError("goal_bias must be in [0, 1]")
        self.cspace = cspace
        self.step_size = step_size
        self.local_planner = (
            local_planner if local_planner is not None
            else StraightLinePlanner(resolution=0.25)
        )
        self.goal_bias = goal_bias

    def grow(
        self,
        root: np.ndarray,
        n_nodes: int,
        rng: np.random.Generator,
        bias_target: np.ndarray | None = None,
        region_predicate: "Callable[[np.ndarray], np.ndarray] | None" = None,
        max_iterations: int | None = None,
        id_base: int = 0,
        within=None,
    ) -> RRTResult:
        """Grow a fresh tree of up to ``n_nodes`` nodes rooted at ``root``
        (vertex id ``id_base``), in at most ``max_iterations`` draws
        (default ``20 * n_nodes``): one regional branch of Alg. 2.

        ``within`` is the domain the unbiased ``q_rand`` draws come from:
        anything ``cspace.sample(rng, n, within=...)`` accepts, i.e. an
        elementwise map of the unit cube (``from_unit_cube``) whose
        ``sample`` maps ``dim`` uniforms per draw (an ``AABB``, a
        ``ConeRegion``); None draws from the whole space.  It narrows the
        *proposal* only — ``region_predicate`` still decides what may
        join the tree.
        ``region_predicate``, a vectorised ``(m, dim) -> (m,) bool``
        membership test, restricts accepted nodes to a region (the radial
        subdivision cones); ``bias_target`` is the configuration toward
        which ``goal_bias`` of the samples are drawn.

        ``rng`` is left where the one-extension-at-a-time oracle leaves it,
        so consecutive ``grow`` calls on one generator stay identical too.
        """
        stats = PlannerStats()
        root = np.asarray(root, dtype=float)
        if not self.cspace.valid_single(root):
            raise ValueError("RRT root configuration is invalid")
        stats.sample_attempts += 1
        tree = Roadmap(self.cspace.dim)
        tree.add_vertex(root, id_base)
        parents = {id_base: id_base}

        max_iterations = max_iterations if max_iterations is not None else 20 * n_nodes
        self._grow_batched(
            tree, parents, n_nodes, rng, bias_target, region_predicate,
            max_iterations, id_base, stats, within,
        )
        return RRTResult(tree, parents, id_base, stats)

    def _grow_batched(
        self,
        tree: Roadmap,
        parents: "dict[int, int]",
        n_nodes: int,
        rng: np.random.Generator,
        bias_target: np.ndarray | None,
        region_predicate,
        max_iterations: int,
        id_base: int,
        stats: PlannerStats,
        within,
    ) -> None:
        """Predict-validate-replay growth: identical results, vectorised.

        See the module docstring for the strategy.  Distances are
        computed with :meth:`BruteForceNN._dist_block`'s per-dimension
        accumulation, which is bit-identical to the per-query path the
        oracle takes, so nearest-neighbour choices and steer parameters
        match exactly.
        """
        cspace = self.cspace
        dim = cspace.dim
        step = self.step_size
        lp = self.local_planner
        counters = cspace.env.counters
        before = counters.snapshot()

        bias_cfg = np.asarray(bias_target, dtype=float) if bias_target is not None else None

        # Insertion-order store of every tree configuration — the same
        # layout the oracle's NeighborFinder holds, so the tie-break
        # fallback can replay the reference selection on an identical
        # array.  The root plus the node budget always fit.
        cap = 1 + n_nodes
        store = np.empty((cap, dim))
        store[0] = tree.config(id_base)
        store_ids = np.empty(cap, dtype=np.int64)
        store_ids[0] = id_base
        n_store = 1

        next_local = 1
        added = 0
        nn_evals = 0
        spec_points = 0  # points speculatively evaluated against the env
        seq_points = 0  # points the sequential oracle would evaluate
        # (near_vid, sample key) -> (point_ok, region_ok, lp_ok, lp_checks,
        # lp_length, q_new); kept across blocks — geometry never changes.
        cache: "dict[tuple[int, object], tuple]" = {}
        it = 0
        block = _BLOCK_MIN

        gated = bias_cfg is not None  # the oracle tests the bias gate
        width = dim + gated  # doubles one oracle iteration may consume

        def draw(m: int, first: int) -> "tuple[np.ndarray, list[object], list[int]]":
            """The oracle's next ``m`` ``q_rand`` draws, with a cache key
            per draw (a bias draw's is ``"bias"``; uniform draws are
            globally unique: ``first`` is the iteration index of the first
            one) and the generator position (doubles drawn since the call)
            after each draw.

            The oracle draws one double for the bias gate and ``dim`` for a
            uniform sample, all from one stream: one ``rng.random`` call
            covers the block's worst case, the gate is walked over its
            values as Python floats, and every uniform row is mapped in one
            ``cspace.sample(unit=...)`` call.  The caller rewinds the
            generator to the position the oracle would stop at."""
            raw = rng.random(m * width)
            vals = raw.tolist()
            gb = self.goal_bias
            drawn = np.empty((m, dim))
            keys: "list[object]" = [None] * m
            ends = [0] * m
            uniform: "list[int]" = []  # block rows that draw a uniform sample
            starts: "list[int]" = []  # where each one's doubles start in raw
            pos = 0
            for b in range(m):
                pos += gated
                if gated and vals[pos - 1] < gb:
                    drawn[b] = bias_cfg
                    keys[b] = "bias"
                else:
                    uniform.append(b)
                    starts.append(pos)
                    keys[b] = first + b
                    pos += dim
                ends[b] = pos
            if uniform:
                rows = np.array(starts)[:, None] + np.arange(dim)
                drawn[uniform] = cspace.sample(rng, within=within, unit=raw[rows])
            return drawn, keys, ends

        while it < max_iterations and added < n_nodes:
            B = min(block, max_iterations - it)
            missed = False
            # -- 1. replay the sampling RNG exactly -----------------------
            rng_state = rng.bit_generator.state
            samples, skey, ends = draw(B, it)
            it += B
            consumed = B  # draws the oracle makes before it stops
            # -- 2. frozen-tree distances: one broadcast ----------------
            n0 = n_store
            D = np.empty((B, n0))
            BruteForceNN._dist_block(store[:n0], samples, D)
            frozen_min = D.min(axis=1)
            frozen_arg = D.argmin(axis=1)
            frozen_tie = (D == frozen_min[:, None]).sum(axis=1) > 1
            # Running minima over nodes accepted inside this block; one
            # incremental distance column per acceptance.
            blk_D = np.empty((B, B))
            blk_min = np.full(B, np.inf)
            blk_arg = np.full(B, -1)
            blk_tie = np.zeros(B, dtype=bool)
            n_blk = 0

            def nearest(i: int) -> "tuple[int, float, int]":
                """``(vid, distance, store row)`` of sample ``i``'s nearest
                tree node under the current block state.  Exact reference
                semantics: a unique strict minimum is resolved directly,
                anything tied replays the oracle's selection on the
                composed distance vector."""
                fmin = frozen_min[i]
                bmin = blk_min[i]
                if bmin < fmin:
                    if not blk_tie[i]:
                        row = n0 + int(blk_arg[i])
                        return (int(store_ids[row]), float(bmin), row)
                elif fmin < bmin:
                    if not frozen_tie[i]:
                        row = int(frozen_arg[i])
                        return (int(store_ids[row]), float(fmin), row)
                d = np.concatenate((D[i], blk_D[i, :n_blk])) if n_blk else D[i]
                # argmin returns the FIRST minimum, i.e. the earliest
                # inserted node — the canonical (distance, insertion
                # order) tie-break every NeighborFinder implements.
                row = int(np.argmin(d))
                return (int(store_ids[row]), float(d[row]), row)

            pending = list(range(B))
            while pending and added < n_nodes:
                # -- predict & batch-validate the verdicts replay needs --
                need: "list[tuple[tuple[int, object], int, float, int]]" = []
                seen: "set[tuple[int, object]]" = set()
                for i in pending:
                    vid_near, dist, row = nearest(i)
                    if dist == 0.0:
                        continue
                    key = (vid_near, skey[i])
                    if key in cache or key in seen:
                        continue
                    seen.add(key)
                    need.append((key, row, dist, i))
                if need:
                    q_nears = store[[row for _k, row, _d, _i in need]]
                    q_rands = samples[[i for _k, _r, _d, i in need]]
                    dists = np.array([d for _k, _r, d, _i in need])
                    ts = np.minimum(step / dists, 1.0)
                    q_news = cspace.interpolate_pairs(q_nears, q_rands, ts)
                    ok_pts = np.atleast_1d(cspace.valid(q_news))
                    spec_points += len(need)
                    region_ok = np.ones(len(need), dtype=bool)
                    passed = np.nonzero(ok_pts)[0]
                    if passed.size and region_predicate is not None:
                        region_ok[passed] = np.atleast_1d(region_predicate(q_news[passed]))
                    lp_sel = np.nonzero(ok_pts & region_ok)[0]
                    lp_ok = np.zeros(len(need), dtype=bool)
                    lp_checks = np.zeros(len(need), dtype=np.int64)
                    lp_len = np.zeros(len(need))
                    if lp_sel.size:
                        ok2, per_checks, lens = lp.batch_pairs_exact(
                            cspace, q_nears[lp_sel], q_news[lp_sel]
                        )
                        lp_ok[lp_sel] = ok2
                        lp_checks[lp_sel] = per_checks
                        lp_len[lp_sel] = lens
                        spec_points += int(per_checks.sum())
                    for j, (key, _row, _d, _i) in enumerate(need):
                        cache[key] = (
                            bool(ok_pts[j]), bool(region_ok[j]), bool(lp_ok[j]),
                            int(lp_checks[j]), float(lp_len[j]), q_news[j],
                        )
                # -- strict in-order replay ------------------------------
                done = 0
                for i in pending:
                    if added >= n_nodes:
                        consumed = i
                        break
                    stats.nn_queries += 1
                    nn_evals += n0 + n_blk
                    vid_near, dist, _row = nearest(i)
                    if dist == 0.0:
                        done += 1
                        continue
                    verdict = cache.get((vid_near, skey[i]))
                    if verdict is None:
                        # An acceptance moved this sample's nearest node;
                        # pause and re-predict from the updated state.
                        stats.nn_queries -= 1
                        nn_evals -= n0 + n_blk
                        missed = True
                        break
                    done += 1
                    pt_ok, reg_ok, l_ok, l_checks, l_len, q_new = verdict
                    stats.sample_attempts += 1
                    seq_points += 1
                    if not pt_ok or not reg_ok:
                        continue
                    stats.lp_calls += 1
                    stats.lp_checks += l_checks
                    seq_points += l_checks
                    if not l_ok:
                        continue
                    stats.lp_successes += 1
                    vid = id_base + next_local
                    next_local += 1
                    tree.add_vertex(q_new, vid)
                    tree.add_edge(vid_near, vid, l_len)
                    stats.edges_added += 1
                    parents[vid] = vid_near
                    store[n_store] = q_new
                    store_ids[n_store] = vid
                    # Incremental distance column: the new node vs every
                    # block sample — the same row-wise norm the reference
                    # finder computes (bit-identical to the frozen
                    # matrix's per-dimension accumulation).
                    blk_D[:, n_blk] = np.linalg.norm(samples - q_new, axis=1)
                    col = blk_D[:, n_blk]
                    better = col < blk_min
                    blk_tie |= col == blk_min
                    blk_tie[better] = False
                    blk_arg[better] = n_blk
                    np.copyto(blk_min, col, where=better)
                    n_store += 1
                    n_blk += 1
                    added += 1
                pending = pending[done:]
            block = max(_BLOCK_MIN, block // 2) if missed else min(_BLOCK, 2 * block)
            used = ends[consumed - 1] if consumed else 0
            if used < B * width:
                # The block's draw took doubles the oracle never reaches —
                # bias draws, or iterations after the node budget is met:
                # rewind and advance by exactly the ones it consumed.
                rng.bit_generator.state = rng_state
                rng.random(used)

        if spec_points:
            # Exact rescale of the speculative charge to the replayed one.
            counters.rescale_since(before, seq_points, spec_points)
        stats.nn_distance_evals += nn_evals
        stats.samples_accepted += added
