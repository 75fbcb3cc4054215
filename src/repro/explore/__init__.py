"""repro.explore — the parallel experiment engine.

The paper's evaluation is a design-space study (ablations over issue
width, cache geometry, predictor type, optimization level); this package
turns that pattern into a first-class batch subsystem:

* :mod:`repro.explore.spec` — declarative, JSON-loadable sweep specs
  (grid or seeded random sampling over programs x configuration axes);
* :mod:`repro.explore.plan` — deterministic expansion into self-contained
  jobs;
* :mod:`repro.explore.pool` — the worker-pool layer: a multiprocessing
  pool with per-job timeouts and crash isolation for sweeps, and a keyed
  thread pool (per-key FIFO order; the simulation server no longer uses
  it: session requests run on their connection's thread);
* :mod:`repro.explore.backend` — pluggable execution backends: serial
  loop, local process pool, and HTTP fan-out over a remote worker fleet
  (``repro-sim worker`` servers) — all record-for-record bit-identical;
* :mod:`repro.explore.runner` — worker-side job execution (pure function
  of the payload: every backend runs this same function, which is what
  makes their records bit-identical);
* :mod:`repro.explore.artifacts` — content-addressed per-job setup cache
  (C-compile and assembly artifacts), shared on-disk across the process
  pool's workers and held in-memory per remote worker server; a remote
  sweep's dispatcher compiles through it and ships the assembly;
* :mod:`repro.explore.store` — JSONL result store;
* :mod:`repro.explore.report` — ranking, metric tables, pairwise
  speedups (text rendering in :mod:`repro.viz.sweep`);
* :mod:`repro.explore.engine` — ``run_sweep``, the one entry point;
* :mod:`repro.explore.service` — the server-side sweep queue behind the
  ``/explore/*`` endpoints;
* :mod:`repro.explore.warehouse` — the cross-run result warehouse behind
  ``/warehouse/*``: longitudinal queries, Pareto frontiers, and the
  baseline regression sentinel over every ingested sweep.

Quick tour::

    from repro.explore import SweepSpec, run_sweep

    spec = SweepSpec.from_json({
        "name": "width-vs-cache",
        "programs": [{"name": "kernel", "source": KERNEL_ASM}],
        "axes": [
            {"name": "width", "values": [
                {"config.buffers.fetchWidth": 1,
                 "config.buffers.commitWidth": 1},
                {"config.buffers.fetchWidth": 4,
                 "config.buffers.commitWidth": 4}],
             "labels": ["w1", "w4"]},
            {"name": "lines", "path": "config.cache.lineCount",
             "values": [8, 32]},
        ],
    })
    run = run_sweep(spec, workers=4)        # workers=0: the serial loop
    print(run.report(metric="cycles").render_text())
"""

from repro.explore.artifacts import ArtifactCache, default_cache
from repro.explore.backend import (BACKEND_NAMES, ExecutionBackend,
                                   ProcessBackend, RemoteBackend,
                                   SerialBackend, resolve_backend)
from repro.explore.engine import RUNNER_TASK, SweepRun, run_sweep
from repro.explore.plan import Job, plan_jobs
from repro.explore.pool import (Future, JobResult, KeyedThreadPool,
                                ProcessWorkerPool, default_worker_count)
from repro.explore.report import METRICS, MetricError, SweepReport
from repro.explore.runner import JobError, execute_payload
from repro.explore.service import ExploreManager
from repro.explore.spec import (Axis, ProgramSpec, SweepPoint, SweepSpec,
                                SweepSpecError)
from repro.explore.store import ResultStore, load_records
from repro.explore.warehouse import (BaselineMissing, ResultWarehouse,
                                     WarehouseError)

__all__ = [
    "ArtifactCache",
    "default_cache",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "RemoteBackend",
    "BACKEND_NAMES",
    "resolve_backend",
    "SweepSpec",
    "SweepSpecError",
    "ProgramSpec",
    "Axis",
    "SweepPoint",
    "Job",
    "plan_jobs",
    "ProcessWorkerPool",
    "KeyedThreadPool",
    "Future",
    "JobResult",
    "default_worker_count",
    "execute_payload",
    "JobError",
    "ResultStore",
    "load_records",
    "SweepReport",
    "MetricError",
    "METRICS",
    "SweepRun",
    "run_sweep",
    "RUNNER_TASK",
    "ExploreManager",
    "ResultWarehouse",
    "WarehouseError",
    "BaselineMissing",
]
