"""The artifact cache over the wire (protocol v10): a fleet sweep and a
CLI ``--backend remote`` sweep compile a repeated C program once, on
their dispatcher, and ship the assembly — no worker compiles, records
stay byte-identical to serial — and the v8 artifact routes are gone."""

import json
import time

import pytest

from repro.cli.main import main
from repro.explore.artifacts import (ARTIFACT_DIR_ENV, default_cache,
                                     reset_default_cache)
from repro.server.client import SimClient
from repro.server.httpd import SimServer
from repro.server.protocol import PROTOCOL_VERSION, Api, ApiError

C_KERNEL = ("int main(void) { int s = 0; "
            "for (int i = 1; i <= 11; i++) s += i; return s; }")

SPEC = {
    "name": "artifact-api",
    "programs": [{"name": "sum", "c": C_KERNEL, "entry": "main"}],
    "axes": [{"name": "width", "path": "config.buffers.fetchWidth",
              "values": [1, 2, 3, 4]}],
}


@pytest.fixture
def server():
    instance = SimServer(("127.0.0.1", 0))
    instance.start_background()
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture
def fleet():
    workers = [SimServer(("127.0.0.1", 0)) for _ in range(2)]
    for worker in workers:
        worker.start_background()
    yield workers
    for worker in workers:
        worker.shutdown()
        worker.server_close()


@pytest.fixture
def memory_only_default_cache(monkeypatch):
    """The process default cache without its disk tier, so a compile
    here is a compile, not a hit left by an earlier run."""
    monkeypatch.setenv(ARTIFACT_DIR_ENV, "off")
    reset_default_cache()
    yield
    monkeypatch.undo()
    reset_default_cache()


def worker_compiles(fleet):
    return [w.api.artifacts.stats()["compile"] for w in fleet]


def finished_records(client, sweep_id):
    deadline = time.monotonic() + 60.0
    while client.explore_status(sweep_id)["state"] in ("queued", "running"):
        assert time.monotonic() < deadline, "sweep stuck"
        time.sleep(0.05)
    return client.explore_result(sweep_id)["records"]


class TestFleetDataPlane:
    def test_one_compile_fleet_wide_and_identical_records(
            self, server, fleet):
        """A fleet sweep compiles the shared program once, on the
        frontend; its workers receive assembly and compile nothing."""
        for worker in fleet:
            server.api.fleet.register(f"127.0.0.1:{worker.port}")
        client = SimClient(port=server.port)
        try:
            serial = finished_records(client, client.explore_submit(
                SPEC, backend="serial")["sweepId"])
            before = server.api.artifacts.stats()["compile"]["misses"]
            records = finished_records(client, client.explore_submit(
                SPEC, backend="fleet")["sweepId"])
        finally:
            client.close()
        assert [r["ok"] for r in records] == [True] * 4
        assert json.dumps(records, sort_keys=True) \
            == json.dumps(serial, sort_keys=True)
        assert server.api.artifacts.stats()["compile"]["misses"] \
            == before + 1
        assert worker_compiles(fleet) == [
            {"hits": 0, "misses": 0, "entries": 0}] * 2
        assert sum(w.api.artifacts.stats()["assemble"]["misses"]
                   for w in fleet) >= 1

    def test_cli_remote_sweep_compiles_once_on_the_dispatcher(
            self, fleet, tmp_path, memory_only_default_cache):
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps(SPEC))
        serial_out, remote_out = tmp_path / "s.jsonl", tmp_path / "r.jsonl"
        assert main(["explore", str(spec_file), "--backend", "serial",
                     "--quiet", "--out", str(serial_out)]) == 0
        reset_default_cache()
        urls = [arg for worker in fleet
                for arg in ("--worker-url", f"127.0.0.1:{worker.port}")]
        assert main(["explore", str(spec_file), "--backend", "remote",
                     *urls, "--quiet", "--out", str(remote_out)]) == 0
        assert remote_out.read_bytes() == serial_out.read_bytes()
        assert default_cache().stats()["compile"]["misses"] == 1
        assert worker_compiles(fleet) == [
            {"hits": 0, "misses": 0, "entries": 0}] * 2


class TestSchemaAndVersion:
    def test_data_plane_routes_are_gone(self):
        assert PROTOCOL_VERSION == 10
        api = Api()
        try:
            for method, path in (("GET", "/artifact/" + "f" * 64),
                                 ("POST", "/artifact/prefetch")):
                with pytest.raises(ApiError,
                                   match="no such endpoint") as info:
                    api.handle(method, path, {})
                assert info.value.status == 404
            stats = api.handle("GET", "/worker/status", None)
            assert "fetch" not in stats["artifactCache"]
        finally:
            api.close()
