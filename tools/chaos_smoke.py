#!/usr/bin/env python
"""CI chaos smoke: one chaotic plan() on the process backend.

Runs the acceptance scenario end to end — one worker crash plus two
transient region failures under ``failure_policy="retry"`` — on the real
``ProcessPoolExecutor`` backend, verifies parity with the fault-free
run, and writes the JSON-lines trace to the given path so CI can keep
it as the failure-story artifact.  It then re-reads that trace and fails
unless the trace alone tells the report's story: the same retries,
worker deaths and abandoned regions.

Run:  python tools/chaos_smoke.py chaos-trace.jsonl
"""

import sys

from repro import (
    ExecutionPolicy,
    Fault,
    FaultInjector,
    FaultPolicy,
    JsonlSink,
    ObsConfig,
    Tracer,
    WorkloadSpec,
    plan,
    read_jsonl,
    summarize_events,
)

_WORKLOAD = WorkloadSpec(planner="prm", num_regions=12, samples_per_region=4, seed=7)
_EXECUTION = ExecutionPolicy(mode="local", backend="process", workers=3)


def _signature(report):
    rm = report.roadmap
    ids, cfgs = rm.configs_array()
    edges = sorted((min(u, v), max(u, v), round(w, 12)) for u, v, w in rm.edges())
    return list(ids), cfgs.tolist(), edges


def main(trace_path: str) -> int:
    clean = plan(_WORKLOAD, execution=_EXECUTION)
    region_ids = sorted(clean.pool.results)
    injector = FaultInjector(
        [
            Fault("crash", task=region_ids[1], attempt=0),
            Fault("raise", task=region_ids[4], attempt=0),
            Fault("raise", task=region_ids[8], attempt=0),
        ]
    )
    tracer = Tracer(sinks=[JsonlSink(trace_path)])
    try:
        chaotic = plan(
            _WORKLOAD,
            execution=_EXECUTION,
            faults=FaultPolicy(policy="retry", injector=injector),
            obs=ObsConfig(tracer=tracer),
        )
    finally:
        tracer.close()

    problems = []
    if _signature(chaotic) != _signature(clean):
        problems.append("chaotic roadmap diverged from the fault-free run")
    if chaotic.abandoned_regions:
        problems.append(f"abandoned regions: {chaotic.abandoned_regions}")
    if chaotic.retries < 2:
        problems.append(f"expected >=2 retries, saw {chaotic.retries}")
    if chaotic.worker_deaths < 1:
        problems.append("expected at least one worker death")
    told = summarize_events(read_jsonl(trace_path))
    traced = (told.task_retries, told.worker_deaths, sorted(told.abandoned_tasks))
    reported = (chaotic.retries, chaotic.worker_deaths, chaotic.abandoned_regions)
    if traced != reported:
        problems.append(
            f"trace tells (retries, deaths, abandoned) {traced}, the report {reported}"
        )

    print(chaotic.summary())
    if problems:
        print("CHAOS SMOKE FAILED:", "; ".join(problems), file=sys.stderr)
        return 1
    print(f"chaos smoke OK — trace written to {trace_path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
