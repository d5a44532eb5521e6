"""Tests for the true-parallel local execution backend."""

import time

import pytest

from repro.runtime import run_tasks_parallel
from repro.runtime.local_pool import _run_attempts


def _square(task_id):
    return task_id * task_id


class _BlockTask:
    """A task that also offers ``run_block``: block values are tagged so a
    result says which path produced it; ``work`` is the task id, so the
    shares of a block are as skewed as the ids."""

    def __init__(self, poison=None, decline=False, pause=0.0, work=float, slow=None):
        self.poison, self.decline, self.pause, self.work = poison, decline, pause, work
        self.slow = slow

    def __call__(self, tid):
        if tid == self.poison:
            raise RuntimeError(f"task {tid} exploded")
        time.sleep(0.05 if tid == self.slow else self.pause)
        return ("task", tid)

    def run_block(self, tids):
        if self.decline:
            return None
        values = [("block", self(tid)[1]) for tid in tids]
        return values, [self.work(tid) for tid in tids]


class TestRunTasksParallel:
    def test_all_results_present(self):
        res = run_tasks_parallel(_square, list(range(20)), workers=4)
        assert res.results == {i: i * i for i in range(20)}
        assert set(res.per_task_time) == set(range(20))

    def test_single_worker(self):
        res = run_tasks_parallel(_square, [1, 2, 3], workers=1)
        assert res.results == {1: 1, 2: 4, 3: 9}

    def test_empty_task_list(self):
        res = run_tasks_parallel(_square, [], workers=2)
        assert res.results == {}
        assert res.slowest_task() is None

    def test_window_bounds_inflight(self):
        res = run_tasks_parallel(_square, list(range(50)), workers=2, window=3)
        assert len(res.results) == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            run_tasks_parallel(_square, [1], workers=0)
        with pytest.raises(ValueError):
            run_tasks_parallel(_square, [1], backend="gpu")

    def test_threads_give_wall_clock_overlap(self):
        def sleepy(task_id):
            time.sleep(0.05)
            return task_id

        res = run_tasks_parallel(sleepy, list(range(8)), workers=8)
        # 8 x 50ms serial would be 400ms; parallel should be well under.
        assert res.wall_time < 0.3

    def test_slowest_task_identified(self):
        def variable(task_id):
            time.sleep(0.01 * (task_id == 3))
            return task_id

        res = run_tasks_parallel(variable, list(range(5)), workers=2)
        task, duration = res.slowest_task()
        assert task in range(5)
        assert duration == max(res.per_task_time.values())

    def test_tracer_sees_every_task(self):
        from repro.obs import Tracer, summarize_events

        tr = Tracer()
        res = run_tasks_parallel(_square, list(range(12)), workers=3, tracer=tr)
        summary = summarize_events(tr.memory.events)
        assert summary.tasks_executed == len(res.results) == 12
        assert tr.metrics.histogram("task_time").count == 12
        assert tr.metrics.counter("pool_tasks").value == 12


class TestBackendsAndChunking:
    def test_thread_and_process_agree(self):
        tasks = list(range(12))
        rt = run_tasks_parallel(_square, tasks, workers=2, backend="thread")
        rp = run_tasks_parallel(_square, tasks, workers=2, backend="process")
        assert rt.results == rp.results == {t: t * t for t in tasks}
        assert set(rp.per_task_time) == set(tasks)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_chunksize_preserves_results(self, backend):
        tasks = list(range(10))
        res = run_tasks_parallel(_square, tasks, workers=2, backend=backend, chunksize=4)
        assert res.results == {t: t * t for t in tasks}
        assert set(res.per_task_time) == set(tasks)

    def test_chunksize_validation(self):
        with pytest.raises(ValueError):
            run_tasks_parallel(_square, [1], workers=1, chunksize=0)
        with pytest.raises(ValueError):
            run_tasks_parallel(_square, [1], workers=1, backend="greenlet")

    def test_tracer_sees_every_task_with_chunks(self):
        from repro.obs import Tracer, summarize_events

        tr = Tracer()
        res = run_tasks_parallel(
            _square, list(range(9)), workers=2, chunksize=2, tracer=tr
        )
        summary = summarize_events(tr.memory.events)
        assert summary.tasks_executed == len(res.results) == 9
        assert tr.metrics.histogram("task_time").count == 9
        assert tr.metrics.counter("pool_tasks").value == 9


class TestBlockChunks:
    """A chunk of two or more fresh tasks is offered to ``fn.run_block``."""

    def test_times_are_the_measured_block_apportioned_by_work(self):
        entries = tuple((tid, 0) for tid in (1, 2, 3, 4))
        before = time.perf_counter()
        rows, _shm = _run_attempts(_BlockTask(pause=0.01), entries, None, False, False)
        measured = time.perf_counter() - before
        assert [(tid, a, ok, value) for tid, a, ok, value, _dt, _t0 in rows] == [
            (tid, 0, True, ("block", tid)) for tid in (1, 2, 3, 4)
        ]
        times = [dt for *_row, dt, _t0 in rows]
        assert 0.04 <= sum(times) <= measured
        assert times == pytest.approx([sum(times) * tid / 10 for tid in (1, 2, 3, 4)])
        # Start stamps are the cumulative offsets inside the block.
        stamps = [t0 for *_row, t0 in rows]
        assert before <= stamps[0]
        assert stamps[1:] == pytest.approx([t0 + dt for t0, dt in zip(stamps, times)][:-1])

    def test_workless_block_is_shared_equally(self):
        entries = tuple((tid, 0) for tid in range(4))
        rows, _shm = _run_attempts(
            _BlockTask(pause=0.005, work=lambda tid: 0.0), entries, None, False, False
        )
        times = [dt for *_row, dt, _t0 in rows]
        assert times == pytest.approx([sum(times) / 4] * 4) and sum(times) >= 0.02

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_every_chunk_sums_to_its_measured_time(self, backend):
        from repro.obs import Tracer

        tr = Tracer()
        res = run_tasks_parallel(
            _BlockTask(pause=0.004), list(range(1, 11)), workers=2, backend=backend,
            chunksize=4, tracer=tr,
        )
        assert res.results == {
            **{tid: ("block", tid) for tid in range(1, 9)}, 9: ("block", 9), 10: ("block", 10)
        }
        stamp = {
            (e.name, e.attrs["task"]): e.ts
            for e in tr.memory.events if e.name in ("task_start", "task_end")
        }
        for chunk in ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10)):
            measured = stamp["task_end", chunk[-1]] - stamp["task_start", chunk[0]]
            assert sum(res.per_task_time[tid] for tid in chunk) == pytest.approx(measured)
            assert measured >= 0.004 * len(chunk)
            assert res.per_task_time[chunk[-1]] > res.per_task_time[chunk[0]]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_one_task_chunks_keep_measured_per_task_times(self, backend):
        res = run_tasks_parallel(_BlockTask(slow=3), list(range(6)), workers=2, backend=backend)
        assert res.results == {tid: ("task", tid) for tid in range(6)}
        assert res.per_task_time[3] >= 0.05
        assert all(res.per_task_time[tid] < 0.05 for tid in (0, 1, 2, 4, 5))
