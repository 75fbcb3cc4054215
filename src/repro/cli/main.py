"""``repro-sim`` — batch simulation CLI.

Sec. II-E of the paper: *"The CLI requires two mandatory arguments: the
assembly language source code in a text file and the architecture
description in JSON format.  Additional parameters allow to specify the
program's entry point, memory configuration, data dump, and various levels
of output verbosity and format (either text or JSON).  The CLI must be
connected to the server using host and port parameters, with an optional
connection to the GCC compiler."*

This CLI supports both modes: ``--host/--port`` talk to a running
``repro-server``; without them the simulation runs in-process (convenient
for batch benchmarking on one machine).  ``--compile`` accepts a C file
instead of assembly and runs the integrated compiler first.

``repro-sim explore SPEC.json`` enters the design-space experiment engine
(:mod:`repro.explore`): the spec's grid (or random sample) of
program x architecture points runs on a pluggable execution backend —
``--backend serial`` (in-process loop), ``--backend process`` (local
worker pool, the default), or ``--backend remote`` fanning jobs out over
HTTP to a fleet of sweep workers named by repeatable ``--worker-url``
flags — or is submitted to a running server with ``--host``, where
``--backend fleet`` runs it on the server's own registered worker fleet
(:mod:`repro.fleet`) and ``--follow`` streams live per-job progress
events instead of polling.  The comparison report (metric table,
best-config ranking, pairwise speedups) prints as text or JSON.
``repro-sim worker`` serves one such sweep worker (a repro-server whose
expected traffic is ``/worker/execute``); with ``--register
FRONTEND:PORT`` it heartbeats into that frontend's fleet registry.

``repro-sim warehouse`` is the cross-run result warehouse console
(:mod:`repro.explore.warehouse`): ``ingest`` historical run JSONL files
into a local ``--store`` file, then ``query`` / ``pareto`` / ``diff`` /
``baseline`` against it — or against a running server's warehouse with
``--host``, where every finished sweep is ingested automatically and
``repro-sim explore --follow`` warns when the just-finished sweep
regressed against the pinned baseline.

``repro-sim lint`` runs repro-lint (:mod:`repro.analyze`), the static
invariant checker: state-contract pairing and dirty-version bumps,
lock discipline in the threaded modules, determinism of the record
paths, and protocol-surface completeness — against the committed
``lint-baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.compiler.driver import compile_c
from repro.core.config import CpuConfig
from repro.errors import ReproError, SourceError
from repro.memory.layout import MemoryLocation
from repro.sim.simulation import Simulation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Batch simulator for superscalar RISC-V programs",
        epilog="Design-space sweeps: 'repro-sim explore SPEC.json --help' "
               "runs grids/samples of configurations on a worker pool or "
               "a remote fleet; 'repro-sim worker --help' serves one "
               "fleet worker; 'repro-sim warehouse --help' queries the "
               "cross-run result warehouse (Pareto frontiers, baseline "
               "regression diffs); 'repro-sim lint --help' runs the "
               "static invariant checker over src/repro.")
    parser.add_argument("program",
                        help="assembly source file (or C file with --compile)")
    parser.add_argument("architecture",
                        help="architecture description JSON file, or a "
                             "preset name (default/scalar/wide)")
    parser.add_argument("--entry", default=None,
                        help="entry point label or byte address")
    parser.add_argument("--memory", default=None,
                        help="memory configuration JSON file "
                             "(list of MemoryLocation objects)")
    parser.add_argument("--dump", default=None, metavar="ADDR:LEN",
                        help="hex-dump a memory range after the run")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--verbosity", type=int, choices=(0, 1, 2), default=1,
                        help="0: headline metrics, 1: summary, 2: full stats")
    parser.add_argument("--max-cycles", type=int, default=None)
    parser.add_argument("--compile", action="store_true",
                        help="treat the program as C and compile it first")
    parser.add_argument("-O", "--optimize", type=int, default=1,
                        choices=(0, 1, 2, 3), help="C optimization level")
    parser.add_argument("--emit-asm", default=None, metavar="FILE",
                        help="with --compile: also write the generated assembly")
    parser.add_argument("--host", default=None,
                        help="simulation server host (remote mode)")
    parser.add_argument("--port", type=int, default=8045,
                        help="simulation server port (remote mode)")
    parser.add_argument("--power", action="store_true",
                        help="append the area / power estimate report")
    parser.add_argument("--disassemble", action="store_true",
                        help="print the machine-code disassembly and exit")
    return parser


def _load_architecture(spec: str) -> CpuConfig:
    if spec in ("default", "scalar", "wide"):
        return CpuConfig.preset(spec)
    with open(spec, "r", encoding="utf-8") as handle:
        return CpuConfig.from_json_str(handle.read())


def _load_memory(path: Optional[str]) -> List[MemoryLocation]:
    if path is None:
        return []
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        data = data.get("memory", [])
    return [MemoryLocation.from_json(d) for d in data]


def _parse_dump(spec: Optional[str]):
    if spec is None:
        return None
    addr_text, _, len_text = spec.partition(":")
    return int(addr_text, 0), int(len_text or "64", 0)


def _print_text(stats: dict, verbosity: int, out) -> None:
    print(f"halt reason       : {stats['haltReason']}", file=out)
    print(f"cycles            : {stats['cycles']}", file=out)
    print(f"committed instrs  : {stats['committedInstructions']}", file=out)
    print(f"IPC               : {stats['ipc']:.3f}", file=out)
    if verbosity == 0:
        return
    bp = stats["branchPredictor"]
    print(f"branch accuracy   : {bp['accuracy']:.3f} "
          f"({bp['correct']}/{bp['predictions']})", file=out)
    print(f"ROB flushes       : {stats['robFlushes']}", file=out)
    print(f"FLOPs             : {stats['flopsTotal']}", file=out)
    print(f"wall time         : {stats['wallTimeS'] * 1e6:.2f} us "
          f"@ simulated clock", file=out)
    if "cache" in stats:
        cache = stats["cache"]
        print(f"cache hit ratio   : {cache['hitRatio']:.3f} "
              f"({cache['hits']}/{cache['accesses']}), "
              f"{cache['bytesWritten']} B written", file=out)
    if verbosity < 2:
        return
    print("dynamic mix       :", file=out)
    for key, value in sorted(stats["dynamicMix"].items()):
        pct = stats["dynamicMixPercent"][key]
        print(f"    {key:<20} {value:>8} ({pct:5.1f} %)", file=out)
    print("unit utilization  :", file=out)
    for name, info in sorted(stats["functionalUnits"].items()):
        print(f"    {name:<8} {info['kind']:<7} busy {info['busyCycles']:>8} "
              f"cycles ({info['busyPercent']:5.1f} %)", file=out)
    print("dispatch stalls   :", file=out)
    for key, value in sorted(stats["dispatchStalls"].items()):
        print(f"    {key:<16} {value}", file=out)


def build_explore_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim explore",
        description="Run a design-space sweep (repro.explore) and report")
    parser.add_argument("spec", help="sweep specification JSON file")
    parser.add_argument("--backend",
                        choices=("serial", "process", "remote", "fleet"),
                        default=None,
                        help="execution backend (default: inferred from "
                             "--workers — 0 is serial, anything else the "
                             "local process pool; 'fleet' runs on the "
                             "server's registered worker fleet and "
                             "requires --host)")
    parser.add_argument("--worker-url", action="append", default=None,
                        metavar="HOST:PORT", dest="worker_urls",
                        help="remote sweep worker (repeat once per worker; "
                             "requires --backend remote; start workers "
                             "with 'repro-sim worker')")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: one per CPU; "
                             "0 = serial in-process loop)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock budget "
                             "(process/remote backends)")
    parser.add_argument("--out", default=None, metavar="FILE.jsonl",
                        help="write per-run records as JSONL")
    parser.add_argument("--metric", default="cycles",
                        help="ranking metric (cycles/ipc/energy/...)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress lines")
    parser.add_argument("--host", default=None,
                        help="submit to a running repro-server instead of "
                             "executing locally")
    parser.add_argument("--port", type=int, default=8045)
    parser.add_argument("--poll", type=float, default=0.5,
                        help="status poll interval in remote mode")
    parser.add_argument("--follow", action="store_true",
                        help="with --host: stream live per-job progress "
                             "events (GET /explore/stream) instead of "
                             "polling /explore/status")
    parser.add_argument("--trace-out", default=None, metavar="FILE.ndjson",
                        dest="trace_out",
                        help="with --host: export the sweep's span tree "
                             "(GET /trace/<sweepId>) as NDJSON, one span "
                             "per line, after the sweep finishes")
    return parser


def _follow_summary(finished: list, total: int) -> str:
    """One "repro-sim top"-style live line: completion, verdicts, and
    the wall-time percentiles (shared nearest-rank rule) so a slow tail
    is visible while the sweep is still running."""
    ok = sum(1 for event in finished if event.get("kind") == "ok")
    failed = len(finished) - ok
    line = f"  == {len(finished)}/{total} jobs ({ok} ok, {failed} failed)"
    elapsed = sorted(event.get("elapsedS", 0.0) for event in finished
                     if event.get("elapsedS") is not None)
    if elapsed:
        from repro.obs.metrics import nearest_rank
        line += (f", wall p50 {nearest_rank(elapsed, 0.5) * 1e3:.0f}ms"
                 f" p90 {nearest_rank(elapsed, 0.9) * 1e3:.0f}ms")
    return line


def _render_event(event: dict) -> str:
    kind = event.get("event")
    if kind == "dispatch":
        return (f"  [{event.get('job', '?')}] {event.get('label', '')} "
                f"-> worker {event.get('worker')}")
    if kind == "finish":
        verdict = event.get("kind", "?")
        note = "" if verdict == "ok" else f": {event.get('error', '')}"
        return (f"  [{event.get('job', '?')}] {event.get('label', '')} "
                f"{verdict} in {event.get('elapsedS', 0):.3f}s{note}")
    detail = {key: value for key, value in event.items()
              if key not in ("seq", "event", "sweepId", "tS")}
    return f"  {kind} {detail}" if detail else f"  {kind}"


def _warn_regressions(client, sweep_id: str) -> None:
    """One-line warning after ``--follow`` when the finished sweep
    regressed against the warehouse baseline (the server-side sentinel,
    reused as a pure query here).  Silent by design when no baseline is
    pinned (409) or the diff fails — the warning is advisory, never a
    reason to fail the sweep."""
    from repro.server.protocol import ApiError
    try:
        diff = client.warehouse_regressions(sweep=sweep_id)
    except (ApiError, OSError):
        return
    flags = [flag for entry in diff.get("sweeps", [])
             for flag in entry.get("flags", [])]
    if not flags:
        return
    worst = max(flags, key=lambda flag: abs(flag.get("deltaPct", 0)))
    print(f"WARNING: sweep {sweep_id} regressed vs baseline "
          f"{diff.get('baseline')}: {len(flags)} metric delta(s) beyond "
          f"{diff.get('tolerance', 0) * 100:g}% (worst: {worst['label']} "
          f"{worst['metric']} {worst.get('deltaPct', 0):+g}%) — "
          f"see 'repro-sim warehouse diff'", file=sys.stderr)


def _explore_remote(args, spec_data: dict, out) -> int:
    import time

    from repro.server.client import SimClient
    client = SimClient(args.host, args.port)
    # "remote" + --host already errored out in explore_main, so this is
    # None or a server-side backend name, forwarded verbatim
    backend = args.backend
    if backend == "fleet" and not args.quiet:
        from repro.viz.sweep import render_fleet_table
        fleet = client.health().get("fleet")
        if fleet:
            print(render_fleet_table(fleet), file=sys.stderr, end="")
    submitted = client.explore_submit(spec_data, workers=args.workers,
                                      metric=args.metric,
                                      job_timeout_s=args.job_timeout,
                                      backend=backend)
    sweep_id = submitted["sweepId"]
    if not args.quiet:
        print(f"submitted sweep {sweep_id} "
              f"({submitted['jobs']} jobs, "
              f"{submitted.get('backend', 'default')} backend)",
              file=sys.stderr)
    if args.follow:
        # live event stream: one line per dispatch/finish plus a rolling
        # top-style summary, ends with the terminal event — no polling
        finished = []
        total = submitted["jobs"]
        for event in client.explore_stream(sweep_id):
            if args.quiet:
                continue
            print(_render_event(event), file=sys.stderr)
            if event.get("event") == "finish":
                finished.append(event)
                print(_follow_summary(finished, total), file=sys.stderr)
        status = client.explore_status(sweep_id)
        if status["state"] == "done":
            _warn_regressions(client, sweep_id)
    else:
        while True:
            status = client.explore_status(sweep_id)
            if status["state"] in ("done", "failed", "cancelled"):
                break
            if not args.quiet:
                print(f"  {status['completed']}/{status['jobs']} jobs done",
                      file=sys.stderr)
            time.sleep(max(0.05, args.poll))
    result = client.explore_result(sweep_id, metric=args.metric)
    if args.trace_out:
        trace = client.trace(sweep_id)
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            for span in trace["spans"]:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
        if not args.quiet:
            print(f"wrote {len(trace['spans'])} spans to {args.trace_out}",
                  file=sys.stderr)
    if args.out:
        from repro.explore import ResultStore
        with ResultStore(args.out) as store:
            store.extend(result["records"])
    if args.format == "json":
        json.dump(result["report"], out, indent=2)
        print(file=out)
    else:
        print(result["reportText"], file=out, end="")
    return 0 if status["state"] == "done" and not status["failed"] else 1


def explore_main(argv: Optional[List[str]] = None) -> int:
    """``repro-sim explore`` — the batch experiment-engine mode."""
    args = build_explore_parser().parse_args(argv)
    out = sys.stdout
    from repro.explore import (METRICS, ResultStore, SweepSpec,
                               default_worker_count, resolve_backend,
                               run_sweep)
    if args.metric not in METRICS:
        # fail before any simulation runs: a typo'd metric must not cost
        # the whole sweep
        print(f"error: unknown ranking metric {args.metric!r} "
              f"(one of {', '.join(sorted(METRICS))})", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 0:
        print("error: --workers must be >= 0 (0 = serial)",
              file=sys.stderr)
        return 2
    if args.worker_urls and args.backend != "remote":
        print("error: --worker-url requires --backend remote",
              file=sys.stderr)
        return 2
    if args.backend == "remote":
        if args.host is not None:
            print("error: --backend remote drives the worker fleet "
                  "directly; it cannot be combined with --host submission",
                  file=sys.stderr)
            return 2
        if not args.worker_urls:
            print("error: --backend remote needs at least one --worker-url "
                  "(start workers with 'repro-sim worker')", file=sys.stderr)
            return 2
    if args.backend == "fleet" and args.host is None:
        print("error: --backend fleet is server-orchestrated: submit with "
              "--host to a repro-server whose workers registered via "
              "'repro-sim worker --register'", file=sys.stderr)
        return 2
    if args.follow and args.host is None:
        print("error: --follow streams server-side progress; it requires "
              "--host", file=sys.stderr)
        return 2
    try:
        spec = SweepSpec.load(args.spec)
    except (OSError, ReproError) as exc:
        print(f"error: cannot load sweep spec: {exc}", file=sys.stderr)
        return 2

    if args.host is not None:
        return _explore_remote(args, spec.to_json(), out)

    workers = args.workers if args.workers is not None \
        else default_worker_count()
    try:
        backend = resolve_backend(args.backend, workers=workers,
                                  job_timeout_s=args.job_timeout,
                                  worker_urls=args.worker_urls or ())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = ResultStore(args.out) if args.out else None

    def progress(record: dict) -> None:
        if not args.quiet:
            verdict = "ok" if record["ok"] else record.get("kind", "error")
            print(f"  [{record['index'] + 1:>3}] {record['label']:<48} "
                  f"{verdict}", file=sys.stderr)

    try:
        run = run_sweep(spec, store=store, on_record=progress,
                        backend=backend)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        backend.close()
        if store is not None:
            store.close()
    report = run.report(metric=args.metric)
    if args.format == "json":
        payload = report.to_json()
        payload["elapsedS"] = round(run.elapsed_s, 4)
        payload["backend"] = run.backend
        payload["workers"] = run.workers
        payload["execution"] = run.execution
        json.dump(payload, out, indent=2)
        print(file=out)
    else:
        print(f"{len(run.jobs)} jobs on the {run.backend} backend "
              f"({run.workers if run.workers else 'no'} workers) in "
              f"{run.elapsed_s:.2f}s", file=out)
        print(report.render_text(), file=out, end="")
        if not args.quiet:
            from repro.viz.sweep import render_execution_summary
            summary = render_execution_summary(run.to_json())
            if summary:
                print(summary, file=out, end="")
    # failed grid points must be mappable back to their configs: repeat
    # them on stderr with job id + axis values (the report's FAILED lines
    # carry the same), independent of --format/--quiet
    for record in run.failures:
        point = ", ".join(f"{k}={v}"
                          for k, v in record.get("point", {}).items())
        print(f"FAILED job {record['index']} ({point}): "
              f"{record.get('kind', 'error')}: {record.get('error')}",
              file=sys.stderr)
    return 0 if not run.failures else 1


def build_warehouse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim warehouse",
        description="Cross-run result warehouse console: ingest run "
                    "JSONL files, query records, extract Pareto "
                    "frontiers, pin a baseline, and diff sweeps "
                    "against it (repro.explore.warehouse)",
        epilog="Local mode (--store FILE.jsonl) keeps the warehouse in "
               "one append-only file that survives invocations "
               "(including the baseline pin); remote mode (--host) "
               "talks to a running repro-server, whose warehouse "
               "ingests every finished sweep automatically.")
    parser.add_argument("action",
                        choices=("ingest", "query", "pareto", "diff",
                                 "baseline"),
                        help="ingest RUN.jsonl...  |  query  |  pareto  "
                             "|  diff (exit 1 when regressions are "
                             "flagged)  |  baseline SWEEP_ID")
    parser.add_argument("args", nargs="*",
                        help="run JSONL files for 'ingest'; the sweep "
                             "id for 'baseline'")
    parser.add_argument("--store", default=None, metavar="FILE.jsonl",
                        help="local warehouse file (created on first "
                             "use; mutually exclusive with --host)")
    parser.add_argument("--host", default=None,
                        help="query a running repro-server's warehouse")
    parser.add_argument("--port", type=int, default=8045)
    parser.add_argument("--sweep", default=None,
                        help="filter to one sweep id or name (diff: the "
                             "sweep to compare against the baseline)")
    parser.add_argument("--program", default=None,
                        help="filter to one program name")
    parser.add_argument("--axis", action="append", default=None,
                        metavar="AXIS=VALUE", dest="axis_filters",
                        help="filter by an axis point value (repeatable)")
    parser.add_argument("-x", default="cycles", dest="x_metric",
                        metavar="METRIC", help="pareto: x metric "
                        "(default cycles)")
    parser.add_argument("-y", default="energy", dest="y_metric",
                        metavar="METRIC", help="pareto: y metric "
                        "(default energy)")
    parser.add_argument("--metrics", default=None,
                        help="diff: comma-separated metrics "
                             "(default cycles,energy,area)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="diff: relative worse-direction delta "
                             "beyond which a config is flagged "
                             "(default 0.05)")
    parser.add_argument("--name", default=None,
                        help="ingest: sweep display name "
                             "(default: the file stem)")
    parser.add_argument("--sweep-id", default=None, dest="sweep_id",
                        help="ingest: explicit sweep id (default: a "
                             "content hash of the records)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    return parser


def _warehouse_axes(axis_filters) -> Optional[dict]:
    if not axis_filters:
        return None
    axes = {}
    for item in axis_filters:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"--axis takes AXIS=VALUE, got {item!r}")
        axes[name] = value
    return axes


def warehouse_main(argv: Optional[List[str]] = None) -> int:
    """``repro-sim warehouse`` — the cross-run result warehouse console."""
    args = build_warehouse_parser().parse_args(argv)
    out = sys.stdout
    if (args.store is None) == (args.host is None):
        print("error: pick exactly one warehouse: --store FILE.jsonl "
              "(local) or --host HOST (a running repro-server)",
              file=sys.stderr)
        return 2
    try:
        axes = _warehouse_axes(args.axis_filters)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = None
    if args.metrics is not None:
        metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]

    from repro.server.protocol import ApiError
    from repro.viz.warehouse import (render_pareto_frontier,
                                     render_regression_report,
                                     render_warehouse_table)

    local = client = None
    if args.store is not None:
        from repro.explore.warehouse import ResultWarehouse
        local = ResultWarehouse(args.store)
    else:
        from repro.server.client import SimClient
        client = SimClient(args.host, args.port)

    try:
        if args.action == "ingest":
            if client is not None:
                print("error: 'ingest' is local-only (a server's "
                      "warehouse ingests every finished sweep "
                      "automatically)", file=sys.stderr)
                return 2
            if not args.args:
                print("error: 'ingest' needs at least one run JSONL "
                      "file (e.g. from 'repro-sim explore --out')",
                      file=sys.stderr)
                return 2
            import time as _time
            for path in args.args:
                ack = local.import_file(path, sweep_id=args.sweep_id,
                                        name=args.name,
                                        ingested_at=_time.time())
                print(f"ingested {path} as sweep {ack['sweepId']}: "
                      f"{ack['ingested']} new / {ack['skipped']} known "
                      f"record(s)"
                      + (f", {ack['regressions']} regression(s) vs "
                         f"baseline" if ack["regressions"] else ""),
                      file=out)
            return 0
        if args.action == "baseline":
            if len(args.args) != 1:
                print("error: 'baseline' takes exactly one sweep id",
                      file=sys.stderr)
                return 2
            ack = client.warehouse_baseline(args.args[0]) \
                if client is not None else local.set_baseline(args.args[0])
            print(f"baseline pinned: sweep {ack['baseline']} "
                  f"({ack['name']}, {ack['records']} record(s))", file=out)
            return 0
        if args.action == "query":
            result = client.warehouse_query(
                sweep=args.sweep, program=args.program, axes=axes,
                metrics=metrics) if client is not None else \
                local.query(sweep=args.sweep, program=args.program,
                            axes=axes,
                            **({"metrics": metrics} if metrics else {}))
            if args.format == "json":
                json.dump(result, out, indent=2, sort_keys=True)
                print(file=out)
            else:
                print(render_warehouse_table(result), file=out, end="")
            return 0
        if args.action == "pareto":
            result = client.warehouse_pareto(
                x=args.x_metric, y=args.y_metric, sweep=args.sweep,
                program=args.program, axes=axes) if client is not None \
                else local.pareto(x=args.x_metric, y=args.y_metric,
                                  sweep=args.sweep, program=args.program,
                                  axes=axes)
            if args.format == "json":
                json.dump(result, out, indent=2, sort_keys=True)
                print(file=out)
            else:
                print(render_pareto_frontier(result), file=out, end="")
            return 0
        # diff: exit 1 when the sentinel flags anything (CI-friendly)
        kwargs = {}
        if args.tolerance is not None:
            kwargs["tolerance"] = args.tolerance
        if metrics:
            kwargs["metrics"] = metrics
        result = client.warehouse_regressions(sweep=args.sweep, **kwargs) \
            if client is not None \
            else local.regressions(sweep=args.sweep, **kwargs)
        if args.format == "json":
            json.dump(result, out, indent=2, sort_keys=True)
            print(file=out)
        else:
            print(render_regression_report(result), file=out, end="")
        return 1 if result.get("flagged") else 0
    except (ApiError, OSError, KeyError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args \
            else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    finally:
        if local is not None:
            local.close()


def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim worker",
        description="Serve one distributed-sweep worker (a repro-server "
                    "whose expected traffic is POST /worker/execute; "
                    "point 'repro-sim explore --backend remote "
                    "--worker-url HOST:PORT' at it)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8046,
                        help="TCP port (0 picks a free one, printed in "
                             "the startup banner)")
    parser.add_argument("--no-gzip", action="store_true",
                        help="disable gzip content-encoding")
    parser.add_argument("--register", default=None, metavar="HOST:PORT",
                        help="fleet frontend to register with "
                             "(periodic /fleet/register heartbeats; the "
                             "frontend then schedules 'backend: fleet' "
                             "sweeps onto this worker)")
    parser.add_argument("--advertise", default=None, metavar="HOST:PORT",
                        help="URL the frontend should dial back "
                             "(default: --host:--port as bound; set this "
                             "behind NAT / container networking)")
    parser.add_argument("--capacity", type=int, default=1,
                        help="advertised parallel-job capacity")
    parser.add_argument("--heartbeat", type=float, default=None,
                        metavar="SECONDS",
                        help="heartbeat interval override (default: "
                             "what the frontend suggests, TTL/3)")
    parser.add_argument("--cancel-stride", type=int, default=None,
                        metavar="CYCLES",
                        help="cooperative-cancel check interval for "
                             "jobs this worker executes")
    parser.add_argument("--quiet", action="store_true")
    return parser


def worker_main(argv: Optional[List[str]] = None) -> int:
    """``repro-sim worker`` — serve jobs for remote design-space sweeps."""
    args = build_worker_parser().parse_args(argv)
    from repro.server.httpd import serve
    serve(args.host, args.port, enable_gzip=not args.no_gzip,
          verbose=not args.quiet, role="sweep worker",
          register_with=args.register, advertise=args.advertise,
          capacity=args.capacity, heartbeat_s=args.heartbeat,
          cancel_stride=args.cancel_stride)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explore":
        return explore_main(argv[1:])
    if argv and argv[0] == "worker":
        return worker_main(argv[1:])
    if argv and argv[0] == "warehouse":
        return warehouse_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analyze.cli import lint_main
        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    out = sys.stdout

    try:
        with open(args.program, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"error: cannot read program: {exc}", file=sys.stderr)
        return 2

    if args.compile:
        result = compile_c(source, args.optimize)
        if not result.success:
            for err in result.errors:
                print(f"error: {err['line']}:{err['column']}: "
                      f"{err['message']}", file=sys.stderr)
            return 1
        source = result.assembly
        if args.emit_asm:
            with open(args.emit_asm, "w", encoding="utf-8") as handle:
                handle.write(source)

    try:
        config = _load_architecture(args.architecture)
        memory = _load_memory(args.memory)
    except (OSError, json.JSONDecodeError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    entry: Optional[object] = args.entry
    if entry is not None and entry.isdigit():
        entry = int(entry)

    if args.disassemble:
        from repro.asm.parser import Assembler
        from repro.isa.encoding import disassemble, encode_program
        try:
            program = Assembler().assemble(
                source, entry=entry, memory_locations=memory,
                stack_size=config.memory.call_stack_size)
        except SourceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for line in disassemble(encode_program(program)):
            print(line, file=out)
        return 0

    if args.host is not None:
        # remote mode: send the job to a running repro-server
        from repro.server.client import SimClient
        client = SimClient(args.host, args.port)
        response = client.simulate(
            source, config=config.to_json(), entry=entry,
            memory=[m.to_json() for m in memory],
            maxCycles=args.max_cycles)
        if not response.get("success"):
            print(f"error: {response.get('errors')}", file=sys.stderr)
            return 1
        stats = response["result"]["statistics"]
        if args.format == "json":
            json.dump(response["result"], out, indent=2)
            print(file=out)
        else:
            _print_text(stats, args.verbosity, out)
        return 0

    try:
        simulation = Simulation.from_source(
            source, config=config, entry=entry, memory_locations=memory)
        result = simulation.run(args.max_cycles)
    except SourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.format == "json":
        payload = result.to_json()
        dump = _parse_dump(args.dump)
        if dump is not None:
            payload["memoryDump"] = simulation.cpu.memory.dump(*dump)
        json.dump(payload, out, indent=2)
        print(file=out)
    else:
        _print_text(result.statistics, args.verbosity, out)
        if args.verbosity >= 2:
            ring = simulation.checkpoints
            print(f"checkpoint ring   : {len(ring)} checkpoints, "
                  f"{ring.bytes_retained() / 1024.0:.1f} KiB retained "
                  f"(shared pages counted once)", file=out)
            tier = ("config-specialized step loop"
                    if simulation.cpu._step_loop is not None
                    else "interpreter")
            print(f"trace tier        : {tier}", file=out)
        dump = _parse_dump(args.dump)
        if dump is not None:
            print("memory dump:", file=out)
            print(simulation.cpu.memory.dump(*dump), file=out)
        if args.power:
            from repro.sim.energy import render_power_report
            print(file=out)
            print(render_power_report(simulation.cpu), file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
