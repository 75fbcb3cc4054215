"""Cold-fleet setup acceptance: a sweep's dispatcher compiles a repeated C
program once and ships the assembly, which must cut a cold fleet's setup
>= 3x without moving a record byte.

**Setup reduction** — the first job of a compile-bound sweep goes
through ``/worker/execute`` to each of 6 cold worker servers over real
HTTP, one after another, best of 3 rounds:

* cold: every worker gets the inline ``c`` job and compiles it;
* shipped: a :class:`RemoteBackend` dispatcher compiles it once through
  its artifact cache, and every worker gets the assembly.

Setup is what an arm pays until every worker holds the program's
assembly: per job, from the moment the dispatcher takes it up to the
moment the worker's ``program_assembly`` returns, summed over the six
jobs.  Shipped, that is the dispatcher compile plus carrying the 46 K
characters of assembly to each worker; cold, it is carrying the C source
and compiling it on each worker.  The bar applies to setup.  The six
jobs' summed wall time end to end is measured beside it and moves far
less, because every worker still assembles the program in both arms.

**Identity** — the same sweep on serial, remote (a fixed worker list)
and fleet (a worker registry) backends gives byte-identical records, and
no worker compiles.
"""

import gc
import json
import time

import pytest

import repro.explore.runner as runner
from repro.explore import ArtifactCache, RemoteBackend, SweepSpec, run_sweep
from repro.explore.plan import plan_jobs
from repro.fleet import WorkerRegistry
from repro.server.client import SimClient
from repro.server.httpd import SimServer

#: acceptance bar: cold-fleet setup at least this much cheaper when the
#: dispatcher compiles once and ships the assembly
MIN_FLEET_SETUP_REDUCTION_X = 3.0

#: cold workers in the measured fleet (in-process servers over real HTTP)
FLEET_WORKERS = 6


def heavy_kernel(funcs: int = 24) -> str:
    """A compile-bound C workload: enough functions and loop nests that
    one compile (~60 ms) dwarfs shipping its assembly to a worker."""
    parts = ["extern int data[64];"]
    for i in range(funcs):
        parts.append(f"""
int stage{i}(int a, int b) {{
    int acc = a ^ (b + {i});
    for (int r = 0; r < {3 + i % 3}; r++) {{
        acc += (a << (r % 5)) ^ (b >> (r % 3));
        acc ^= acc * {2 * i + 3} + r;
        if (acc > {1000 + i}) acc -= b * {i + 1};
        else acc += a - r;
    }}
    return acc;
}}""")
    calls = " + ".join(f"stage{i}(acc, data[i % 64])"
                       for i in range(funcs))
    parts.append(f"""
int main(void) {{
    int acc = 7;
    for (int i = 0; i < 2; i++) acc = {calls};
    return acc;
}}""")
    return "\n".join(parts)


HEAVY_KERNEL = heavy_kernel()

SMALL_KERNEL = ("int main(void) { int s = 0; "
                "for (int i = 1; i <= 10; i++) s += i; return s; }")


def sweep_spec(kernel=SMALL_KERNEL, points=4, **extra) -> SweepSpec:
    return SweepSpec.from_json({
        **extra,
        "name": "dataplane-bench",
        "programs": [{"name": "kernel", "c": kernel, "entry": "main",
                      "memory": [{"name": "data", "dtype": "word",
                                  "values": [(7 * i + 3) % 64
                                             for i in range(64)]}]}],
        "axes": [{"name": "width", "path": "config.buffers.fetchWidth",
                  "values": [1, 2, 3, 4][:points]}],
    })


def record_bytes(run):
    return [json.dumps(r, sort_keys=True) for r in run.records]


def first_jobs(payload, shipped: bool, delivered: list) -> tuple:
    """``(setup s, summed wall s)`` of one job on each of FLEET_WORKERS
    fresh workers; *shipped* compiles on the dispatcher.  *delivered*
    collects the times ``program_assembly`` returns, on either side."""
    servers = [SimServer(("127.0.0.1", 0)) for _ in range(FLEET_WORKERS)]
    for server in servers:
        server.start_background()
    clients = [SimClient(port=server.port, timeout=120.0)
               for server in servers]
    try:
        backend = RemoteBackend([f"127.0.0.1:{s.port}" for s in servers],
                                artifact_store=ArtifactCache())
        setup = wall = 0.0
        gc.collect()
        gc.disable()                    # collector pauses are host noise
        try:
            for client in clients:
                del delivered[:]
                started = time.perf_counter()
                body = backend._shipped(payload) if shipped else payload
                assert client.worker_execute(body)["ok"]
                wall += time.perf_counter() - started
                # the worker's call returns last: it is the one that runs
                # the job, after any dispatcher call
                setup += max(delivered) - started
        finally:
            gc.enable()
        assert sum(s.api.artifacts.stats()["compile"]["misses"]
                   for s in servers) == (0 if shipped else FLEET_WORKERS)
        return setup, wall
    finally:
        for client in clients:
            client.close()
        for server in servers:
            server.shutdown()
            server.server_close()


@pytest.fixture(scope="module")
def fleet_setup_times():
    """``{"cold"|"shipped": [setup s, wall s]}``, best of 3 rounds."""
    # one simulated cycle: the jobs are setup, not simulation
    payload = plan_jobs(sweep_spec(HEAVY_KERNEL, points=1,
                                   maxCycles=1))[0].payload
    payload["program"]["optimizeLevel"] = 2
    delivered = []
    real = runner.program_assembly

    def timed(job, cache):
        try:
            return real(job, cache)
        finally:
            delivered.append(time.perf_counter())

    best = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "program_assembly", timed)
        for _ in range(3):
            for arm in ("cold", "shipped"):
                sample = first_jobs(payload, arm == "shipped", delivered)
                best[arm] = [min(pair) for pair
                             in zip(best.get(arm, sample), sample)]
    (cold, cold_wall), (shipped, shipped_wall) = best["cold"], best["shipped"]
    print(f"\ncold-fleet setup ({FLEET_WORKERS} workers): "
          f"cold={cold * 1e3:.1f} ms shipped={shipped * 1e3:.1f} ms "
          f"reduction={cold / shipped:.2f}x; first jobs end to end "
          f"cold={cold_wall * 1e3:.1f} ms shipped={shipped_wall * 1e3:.1f} "
          f"ms ({cold_wall / shipped_wall:.2f}x)")
    return best


class TestFleetSetupReduction:
    def test_dataplane_cuts_cold_fleet_setup_3x(self, fleet_setup_times):
        cold = fleet_setup_times["cold"][0]
        shipped = fleet_setup_times["shipped"][0]
        assert cold / shipped >= MIN_FLEET_SETUP_REDUCTION_X, \
            f"cold-fleet setup reduction {cold / shipped:.2f}x " \
            f"< {MIN_FLEET_SETUP_REDUCTION_X}x"


class TestDataPlaneIdentity:
    def test_remote_and_fleet_records_identical_to_serial(self):
        serial = record_bytes(run_sweep(sweep_spec(), workers=0))
        servers = [SimServer(("127.0.0.1", 0)) for _ in range(2)]
        for server in servers:
            server.start_background()
        try:
            urls = [f"127.0.0.1:{s.port}" for s in servers]
            registry = WorkerRegistry()
            for url in urls:
                registry.register(url)
            for members in (urls, registry):
                backend = RemoteBackend(members,
                                        artifact_store=ArtifactCache())
                assert record_bytes(run_sweep(sweep_spec(),
                                              backend=backend)) == serial
            assert [s.api.artifacts.stats()["compile"]["misses"]
                    for s in servers] == [0, 0]
        finally:
            for server in servers:
                server.shutdown()
                server.server_close()
