"""Unit tests of the harness itself (not collected by tier-1):

    python -m pytest benchmarks/e2e -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _p in (str(ROOT / "src"), str(HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, self_times, union_length  # noqa: E402


# -- self time ----------------------------------------------------------------

def _span(sid, parent, start, end, name="x.y"):
    return Span(sid, parent, name, start, end, "op0", None)


def test_self_time_nested_children():
    spans = [_span(1, None, 0, 10), _span(2, 1, 1, 4), _span(3, 2, 2, 3), _span(4, 1, 6, 9)]
    selfs = self_times(spans)
    assert selfs == {1: 10 - 3 - 3, 2: 3 - 1, 3: 1, 4: 3}
    assert sum(selfs.values()) == 10  # layers add back up to the root's wall


def test_self_time_overlapping_children_count_once():
    # Two pool threads ran children side by side: 2..6 and 4..8 cover 6 s.
    spans = [_span(1, None, 0, 10), _span(2, 1, 2, 6), _span(3, 1, 4, 8)]
    assert self_times(spans)[1] == 4


def test_self_time_clips_children_to_the_parent():
    # A child that outlives its parent (answer set after the phase closed).
    spans = [_span(1, None, 0, 10), _span(2, 1, 8, 15)]
    assert self_times(spans)[1] == 8


def test_union_length_merges_and_skips_empty():
    assert union_length([(0, 1), (0.5, 2), (3, 3), (5, 6)]) == 3


# -- percentiles ----------------------------------------------------------------

def test_nearest_rank_is_an_observed_value():
    vals = list(range(1, 101))
    assert stats.nearest_rank(vals, 50) == 50
    assert stats.nearest_rank(vals, 90) == 90
    assert stats.nearest_rank(vals, 100) == 100
    assert stats.nearest_rank([3.0, 1.0, 2.0], 34) == 2.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(100, 90.0) == 10 and stats.supported(100, 90.0)
    assert not stats.supported(99, 90.0)  # rank 90 of 99 leaves 9 beyond
    assert not stats.supported(999, 99.0) and stats.supported(1000, 99.0)
    assert not stats.supported(375, 99.0) and stats.supported(375, 95.0)


# -- machine speed ----------------------------------------------------------------

def test_calibration_rescales_to_the_nominal_speed():
    ticks = iter([10.0, 10.5])
    assert stats.calibrate(clock=lambda: next(ticks), steal=lambda: 0.0) == 0.5
    nominal = stats.CALIBRATION_NOMINAL_S
    # readings at nominal leave a timing alone; a machine at half speed
    # (readings twice nominal on average) halves it.
    assert stats.at_nominal_speed(3.0, nominal, nominal) == 3.0
    assert stats.at_nominal_speed(3.0, 1.5 * nominal, 2.5 * nominal) == pytest.approx(1.5)


def test_stolen_seconds_come_out_before_rescaling():
    nominal = stats.CALIBRATION_NOMINAL_S
    assert stats.at_nominal_speed(3.0, nominal, nominal, stolen=1.0) == 2.0
    assert stats.at_nominal_speed(3.0, 2 * nominal, 2 * nominal, stolen=1.0) == 1.0
    # the calibration reading is the seconds the machine gave its kernel
    ticks, stolen = iter([10.0, 10.5]), iter([7.0, 7.1])
    assert stats.calibrate(lambda: next(ticks), lambda: next(stolen)) == pytest.approx(0.4)
    # ticks over every vCPU can overstate one operation's loss: never more than half
    assert stats.given_seconds(1.0, 0.9) == 0.5 and stats.given_seconds(1.0, -0.1) == 1.0
    assert stats.steal_clock() >= 0.0


def test_relative_difference_is_infinite_off_zero():
    assert run.relative_difference(2.0, 2.5) == 0.25 and run.relative_difference(0.0, 0.0) == 0.0
    assert run.relative_difference(0.0, 0.01) == float("inf")


# -- open loop --------------------------------------------------------------------

class FakeClock:
    def __init__(self, oversleep=0.0, send_cost=0.0):
        self.now, self.oversleep, self.send_cost = 0.0, oversleep, send_cost
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, dt):
        self.sleeps.append((self.now, dt))
        self.now += dt + self.oversleep


def test_open_loop_never_sleeps_past_due_and_measures_from_due():
    fc = FakeClock(send_cost=0.25)
    sent = []

    def send(i, due):
        sent.append((i, due, fc.now))
        fc.now += fc.send_cost  # a stalled submit delays the generator ...

    offsets = [0.0, 0.1, 0.2, 1.0]
    late = stats.run_open_loop(offsets, send, clock=fc.clock, sleep=fc.sleep)
    # ... but every request is still stamped with its *due* time,
    assert [due for _i, due, _now in sent] == offsets
    # the generator never asks to sleep beyond the next due instant,
    for at, dt in fc.sleeps:
        assert any(abs(at + dt - off) < 1e-12 for off in offsets)
    # it does not sleep at all while behind schedule, and reports lateness.
    assert len(fc.sleeps) == 1 and late[1] == pytest.approx(0.15) and late[3] == 0.0


def test_open_loop_reports_timer_oversleep_as_lateness():
    fc = FakeClock(oversleep=0.004)
    late = stats.run_open_loop([0.01, 0.02], lambda i, due: None, fc.clock, fc.sleep)
    assert late == pytest.approx([0.004, 0.004])


# -- inputs -------------------------------------------------------------------------

def _canon(obj):
    """Inputs reduced to comparable plain data."""
    if isinstance(obj, np.ndarray):
        return ("nd", obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if hasattr(obj, "cache_key"):  # WorkloadSpec: content hash covers the scene
        return obj.cache_key()
    return obj


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_identical_inputs(name):
    kwargs = {"n_obstacles": 200} if name == "prm_warehouse_process" else {}
    wl = type(workloads.WORKLOADS[name])(**kwargs)
    a, b, c = wl.generate(11, 4), wl.generate(11, 4), wl.generate(12, 4)
    assert _canon(a) == _canon(b)
    # the RRT workload pins its planning problem (see RrtMixed30Local).
    assert (_canon(a) == _canon(c)) == (name == "rrt_mixed30_local")
    assert bool(wl.note) == (name == "rrt_mixed30_local")  # ... and says so in every run


# -- tracing ----------------------------------------------------------------------

def test_install_wraps_then_restores_and_pool_threads_are_adopted():
    import repro.api as api
    from repro.planners.rrt import RRT
    from repro.spec import ExecutionPolicy, WorkloadSpec

    original_plan, original_grow = api.plan, RRT.__dict__["grow"]
    rec = Recorder()
    rec.install(layers.TARGETS)
    try:
        assert api.plan is not original_plan
        with rec.operation("op0"):
            api.plan(WorkloadSpec("mixed-30", "rrt", num_regions=4, nodes_per_region=10, seed=1),
                     ExecutionPolicy(mode="local", workers=2))
    finally:
        rec.uninstall()
    assert api.plan is original_plan and RRT.__dict__["grow"] is original_grow
    by_id = {s.id: s for s in rec.spans}
    grows = [s for s in rec.spans if s.name == "planners.rrt_grow"]
    assert len(grows) == 4
    for s in grows:  # every task span hangs off the pool span, not the root
        assert by_id[s.parent].name == "runtime.pool_run"
    ledger = layers.Ledger(rec.spans, {"op0"})
    assert ledger.unattributed_frac() < 0.5
    assert ledger.attrs["runtime.pool_run"][0]["workers"] == 2


def test_install_fails_loudly_on_a_renamed_target():
    from spans import Target

    rec = Recorder()
    with pytest.raises(AttributeError):
        rec.install([Target("planners.gone", "repro.planners.prm.PRM", "no_such_method")])
    rec.uninstall()


def test_coverage_guard_flags_missing_and_forbidden_spans():
    ok = dict.fromkeys(layers.EXPECTED["sim_strategy_sweep"], 1)
    assert layers.coverage_errors("sim_strategy_sweep", ok) == []
    missing = dict(ok, **{"runtime.sim_run": 0})
    assert any("runtime.sim_run" in e for e in layers.coverage_errors("sim_strategy_sweep", missing))
    leaked = dict(ok, **{"knn.query": 3})
    assert any("knn.query" in e for e in layers.coverage_errors("sim_strategy_sweep", leaked))


# -- the run ----------------------------------------------------------------------

def test_correct_run_exits_zero_and_corrupted_oracle_exits_nonzero():
    wl = workloads.PrmMedcubeSim(num_regions=16, samples_per_region=4, num_pes=4)
    code, result, _detail = run.run_single(wl, seed=1, seconds=0, trace=False)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    code, result, detail = run.run_single(wl, seed=1, seconds=0, trace=False, corrupt_oracle=True)
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"] and detail["metrics"]["fail_frac"] == 1.0


def test_peak_rss_is_read_before_the_oracle_runs():
    class HungryOracle(workloads.PrmMedcubeSim):
        def verify(self, state, m, corrupt):
            # enough touched memory to set a new process peak whatever ran before
            ballast = np.ones(int((run.peak_rss_mb() + 64) * 2**20 / 8))
            self.rss_in_verify = run.peak_rss_mb()
            del ballast
            return super().verify(state, m, corrupt)

    wl = HungryOracle(num_regions=16, samples_per_region=4, num_pes=4)
    code, result, _detail = run.run_single(wl, seed=1, seconds=0, trace=False)
    assert code == 0
    assert result["metrics"]["peak_rss_mb"]["value"] < wl.rss_in_verify - 32


def test_stop_children_leaves_no_process_behind():
    from multiprocessing import resource_tracker, shared_memory

    seg = shared_memory.SharedMemory(create=True, size=64)  # starts the resource tracker
    seg.close()
    seg.unlink()
    tracker = resource_tracker._resource_tracker._pid
    hung = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(600)"])
    assert {tracker, hung.pid} <= set(run._children())
    run.stop_children(patience_s=0.2)
    assert run._children() == []


def test_traced_run_reports_every_per_layer_metric():
    wl = workloads.SimStrategySweep(num_regions=64)
    code, result, detail = run.run_single(wl, seed=1, seconds=0, trace=True)
    assert code == 0, detail["errors"]
    assert sorted(result["metrics"]) == layers.per_layer_names()
    assert result["metrics"]["runtime.sim_run_s"]["value"] > 0
    assert result["metrics"]["planners.prm_build_s"]["value"] == 0  # bypass workload


def test_benchmark_json_matches_the_harness():
    decl = run.benchmark_decl()
    assert decl["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert decl["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in decl["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert tuple(w["name"] for w in decl["workloads"]) == run.WORKLOAD_NAMES
    assert decl["per_layer"] == layers.per_layer_decl()
    assert [m["name"] for m in decl["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    # every bound lives in one of the two declaration files, in one shape.
    everywhere = {m["name"] for m in decl["end_to_end"]}
    extra = run.end_to_end_decl()[len(everywhere):]
    assert [m["name"] for m in extra] == [
        "serve_p50_ms", "serve_p90_ms", "serve_mixed_p50_ms", "serve_cold_ms",
        "serve_burst_qps", "fail_frac"]
    for m in extra:
        assert set(m) == {"name", "unit", "better", "bound", "workloads"}
        assert m["better"] in ("lower", "higher") and m["bound"] >= 0
        assert set(m["workloads"]) <= set(run.WORKLOAD_NAMES)


def test_without_the_program_run_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "prm_medcube_sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    with pytest.raises(ValueError):
        json.loads(proc.stdout or "not json")
