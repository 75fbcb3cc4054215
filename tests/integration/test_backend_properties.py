"""Generated-input identity across execution backends.

The serial loop, the process pool and the remote backend (over two
in-process worker servers) run the same planned payloads: a generated
program (``random_program``) on a validated generated configuration
(``random_config(cycle_limit=True)``), once as it is and once with an
entry label that does not exist.  Kinds, errors and record bytes must be
identical at every index.  A fixed case covers the remote backend's
dispatch-time compile: the C examples at O0-O3, against serial.

Tier-1 runs hypothesis' default example budget; the long run is
``pytest tests/integration/test_backend_properties.py
--hypothesis-profile=ci``.
"""

import json

import pytest
from hypothesis import given, settings

from repro.explore import (ArtifactCache, ProcessBackend, RemoteBackend,
                           SerialBackend, SweepSpec, plan_jobs, run_sweep)
from repro.server.httpd import SimServer
from tests.integration.test_differential import random_config, random_program
from tests.integration.test_golden_determinism import _example_attr


@pytest.fixture(scope="module")
def servers():
    """Two in-process sweep-worker servers."""
    instances = [SimServer(("127.0.0.1", 0)) for _ in range(2)]
    for server in instances:
        server.start_background()
    yield instances
    for server in instances:
        server.shutdown()
        server.server_close()


@pytest.fixture(scope="module")
def backends(servers):
    # this process runs server threads, so the pool must not fork it
    process = ProcessBackend(workers=2, start_method="spawn")
    try:
        yield [SerialBackend(), process,
               RemoteBackend([f"127.0.0.1:{s.port}" for s in servers])]
    finally:
        process.close()


def outcomes(results):
    return [(r.index, r.kind, r.error, json.dumps(r.value, sort_keys=True))
            for r in results]


def generated_payloads(source, config):
    spec = SweepSpec.from_json({
        "name": "generated",
        "programs": [{"name": "as-drawn", "source": source},
                     {"name": "bad-entry", "source": source,
                      "entry": "nowhere"}],
        "config": config.to_json(),
        "collect": "full",
    })
    return [job.payload for job in plan_jobs(spec)]


@settings(deadline=None)
@given(random_program(), random_config(cycle_limit=True))
def test_backends_agree_on_generated_programs(backends, source, config):
    payloads = generated_payloads(source, config)
    serial, *others = [outcomes(backend.run(payloads))
                       for backend in backends]
    assert serial[0][1] == "ok"
    assert serial[1][1] == "error" and "nowhere" in serial[1][2]
    for other in others:
        assert other == serial


def test_c_examples_compile_at_dispatch_to_serial_records(servers):
    config = {"memory": {"callStackSize": 4096}}
    spec = SweepSpec.from_json({
        "name": "c-examples",
        "programs": [
            {"name": "quicksort", "entry": "main",
             "c": _example_attr("quicksort", "QUICKSORT_C"),
             "memory": [{"name": "data", "dtype": "word", "alignment": 4,
                         "values": _example_attr("quicksort", "VALUES")}]},
            {"name": "linked_list", "entry": "main",
             "c": _example_attr("linked_list", "LINKED_LIST_C")}],
        "config": config,
        "axes": [{"name": "O", "path": "optimizeLevel",
                  "values": [0, 1, 2, 3]}],
    })
    store = ArtifactCache()
    remote = run_sweep(spec, backend=RemoteBackend(
        [f"127.0.0.1:{s.port}" for s in servers], artifact_store=store))
    serial = run_sweep(spec, workers=0)
    assert [r["stats"]["intRegisters"][10] for r in serial.records] \
        == [_example_attr("quicksort", "EXPECTED_CHECK")] * 4 \
        + [_example_attr("linked_list", "EXPECTED")] * 4
    assert [json.dumps(r, sort_keys=True) for r in remote.records] \
        == [json.dumps(r, sort_keys=True) for r in serial.records]
    assert store.stats()["compile"]["misses"] == 8
    assert [s.api.artifacts.stats()["compile"]["misses"]
            for s in servers] == [0, 0]
