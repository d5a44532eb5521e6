#!/usr/bin/env python
"""Actual wall-clock time of a plan on your machine's cores.

The simulator answers "how would this scale to 3,072 cores?"; this example
shows the other side: ``plan(spec, ExecutionPolicy(mode="local", ...))``
runs the same regional planner for real on a local pool, and the sweep
below times it per ``workers`` x ``backend``.

Run:  python examples/true_parallel_speedup.py [--quick]

``--quick`` shrinks the problem to CI-smoke scale (seconds, same code
paths).
"""

import sys

from repro import ExecutionPolicy, WorkloadSpec, plan
from repro.bench import format_table


def main(quick: bool = False) -> None:
    spec = WorkloadSpec(
        environment="med-cube",
        planner="prm",
        num_regions=32 if quick else 256,
        samples_per_region=8 if quick else 40,
        seed=7,
    )
    print(f"{spec.num_regions} regions x {spec.samples_per_region} samples, med-cube\n")
    rows = []
    for backend in ("thread", "process"):
        serial_time = None
        for workers in (1, 2) if quick else (1, 2, 4, 8):
            report = plan(
                spec, ExecutionPolicy(mode="local", workers=workers, backend=backend)
            )
            wall = report.pool.wall_time
            if serial_time is None:
                serial_time = wall
            rows.append(
                [
                    backend,
                    workers,
                    f"{wall:.2f}s",
                    f"{serial_time / wall:.2f}x",
                    report.roadmap.num_vertices,
                ]
            )
    print(format_table(["backend", "workers", "wall time", "speedup", "roadmap nodes"], rows))
    print(
        "\n(Every row builds the same roadmap.  Regional planning is mostly "
        "Python-bound, so threads\ntrade the GIL and can run slower than one "
        "worker; the process backend is the one that\nscales with cores.)"
    )


if __name__ == "__main__":
    main(quick="--quick" in sys.argv[1:])
