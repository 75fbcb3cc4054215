"""Batch CLI tests (Sec. II-E)."""

import json

import pytest

from repro.cli.main import main
from repro.core.config import CpuConfig
from repro.server.httpd import SimServer

PROGRAM = """
    li a0, 0
    li t0, 1
    li t1, 10
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""

C_PROGRAM = """
int main(void) {
    int s = 0;
    for (int i = 1; i <= 10; i++) s += i;
    return s;
}
"""


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def arch_file(tmp_path):
    path = tmp_path / "arch.json"
    path.write_text(CpuConfig().to_json_str())
    return str(path)


class TestLocalMode:
    def test_text_output(self, asm_file, arch_file, capsys):
        assert main([asm_file, arch_file]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "halt reason" in out

    def test_preset_architecture_name(self, asm_file, capsys):
        assert main([asm_file, "scalar"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_json_output(self, asm_file, arch_file, capsys):
        assert main([asm_file, arch_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["statistics"]["committedInstructions"] > 0

    def test_verbosity_levels(self, asm_file, arch_file, capsys):
        main([asm_file, arch_file, "--verbosity", "0"])
        brief = capsys.readouterr().out
        main([asm_file, arch_file, "--verbosity", "2"])
        full = capsys.readouterr().out
        assert len(full) > len(brief)
        assert "unit utilization" in full
        assert "trace tier        : config-specialized step loop" in full

    def test_entry_point(self, tmp_path, arch_file, capsys):
        path = tmp_path / "entry.s"
        path.write_text("a:\n    li a0, 1\n    ebreak\nstart:\n"
                        "    li a0, 2\n    ebreak\n")
        main([str(path), arch_file, "--format", "json", "--entry", "start"])
        data = json.loads(capsys.readouterr().out)
        assert data["statistics"]["committedInstructions"] == 2

    def test_memory_dump(self, tmp_path, arch_file, capsys):
        path = tmp_path / "store.s"
        path.write_text("    li t0, 0x55\n    sb t0, 0(sp)\n    ebreak\n")
        main([str(path), arch_file, "--dump", "512:16"])
        assert "55" in capsys.readouterr().out

    def test_memory_config_file(self, tmp_path, arch_file, capsys):
        prog = tmp_path / "mem.s"
        prog.write_text("    la t0, user_data\n    lw a0, 0(t0)\n    ebreak\n")
        mem = tmp_path / "mem.json"
        mem.write_text(json.dumps(
            [{"name": "user_data", "dtype": "word", "values": [777]}]))
        assert main([str(prog), arch_file, "--memory", str(mem),
                     "--format", "json"]) == 0

    def test_missing_program_file(self, arch_file, capsys):
        assert main(["/does/not/exist.s", arch_file]) == 2

    def test_bad_architecture_file(self, asm_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main([asm_file, str(bad)]) == 2

    def test_asm_error_exit_code(self, tmp_path, arch_file, capsys):
        path = tmp_path / "bad.s"
        path.write_text("frobnicate x1\n")
        assert main([str(path), arch_file]) == 1
        assert "error" in capsys.readouterr().err


class TestCompileMode:
    def test_compile_and_run(self, tmp_path, arch_file, capsys):
        path = tmp_path / "prog.c"
        path.write_text(C_PROGRAM)
        assert main([str(path), arch_file, "--compile", "-O", "2",
                     "--entry", "main", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["haltReason"].startswith("program finished")

    def test_emit_asm(self, tmp_path, arch_file):
        src = tmp_path / "prog.c"
        src.write_text(C_PROGRAM)
        asm = tmp_path / "out.s"
        main([str(src), arch_file, "--compile", "--entry", "main",
              "--emit-asm", str(asm)])
        assert "main:" in asm.read_text()

    def test_c_error_exit_code(self, tmp_path, arch_file, capsys):
        path = tmp_path / "bad.c"
        path.write_text("int main( {")
        assert main([str(path), arch_file, "--compile"]) == 1
        assert "error" in capsys.readouterr().err


class TestRemoteMode:
    def test_cli_against_live_server(self, asm_file, arch_file, capsys):
        server = SimServer(("127.0.0.1", 0))
        server.start_background()
        try:
            code = main([asm_file, arch_file, "--host", "127.0.0.1",
                         "--port", str(server.port), "--format", "json"])
            assert code == 0
            data = json.loads(capsys.readouterr().out)
            assert data["statistics"]["committedInstructions"] > 0
        finally:
            server.shutdown()

    def test_remote_text_output(self, asm_file, arch_file, capsys):
        server = SimServer(("127.0.0.1", 0))
        server.start_background()
        try:
            main([asm_file, arch_file, "--host", "127.0.0.1",
                  "--port", str(server.port)])
            assert "IPC" in capsys.readouterr().out
        finally:
            server.shutdown()


class TestExploreMode:
    """`repro-sim explore` — the design-space experiment engine mode."""

    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "name": "cli-sweep",
            "programs": [{"name": "sum", "source": PROGRAM}],
            "axes": [{"name": "width", "path": "config.buffers.fetchWidth",
                      "values": [1, 2]}],
        }))
        return str(path)

    def test_text_report(self, spec_file, capsys):
        assert main(["explore", spec_file, "--workers", "0",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Design-space sweep: cli-sweep" in out
        assert "ranking by cycles" in out
        assert "width=2" in out

    def test_json_report_and_jsonl_records(self, spec_file, tmp_path,
                                           capsys):
        from repro.explore import load_records
        for workers in ("0", "2"):          # serial loop, process pool
            records_path = tmp_path / f"records-{workers}.jsonl"
            assert main(["explore", spec_file, "--workers", workers,
                         "--quiet", "--format", "json", "--metric", "ipc",
                         "--out", str(records_path)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["metric"] == "ipc"
            assert report["runs"] == 2
            records = load_records(str(records_path))
            assert [r["index"] for r in records] == [0, 1]
            assert all(r["ok"] for r in records)
        assert (tmp_path / "records-2.jsonl").read_bytes() \
            == (tmp_path / "records-0.jsonl").read_bytes()

    def test_missing_spec_file(self, capsys):
        assert main(["explore", "/definitely/not/here.json"]) == 2
        assert "cannot load sweep spec" in capsys.readouterr().err

    def test_negative_workers_is_a_clean_error(self, spec_file, capsys):
        assert main(["explore", spec_file, "--workers", "-2"]) == 2
        assert "--workers must be >= 0" in capsys.readouterr().err

    def test_unknown_metric_fails_before_the_sweep_runs(self, spec_file,
                                                        capsys):
        assert main(["explore", spec_file, "--workers", "0",
                     "--metric", "cacheMissRatio"]) == 2
        err = capsys.readouterr().err
        assert "unknown ranking metric" in err
        assert "cacheMissRate" in err      # the valid names are listed

    def test_invalid_spec_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"programs\": []}")
        assert main(["explore", str(path)]) == 2

    def test_failed_jobs_set_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "name": "broken",
            "programs": [{"name": "bad", "source": "    frob x1\n"}],
            "axes": [],
        }))
        assert main(["explore", str(path), "--workers", "0",
                     "--quiet"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_failure_summary_names_job_id_and_axis_values(self, tmp_path,
                                                          capsys):
        """A failed grid point must map back to its config: the summary
        carries the job id and the axis values, not just a label."""
        path = tmp_path / "half.json"
        path.write_text(json.dumps({
            "name": "half-broken",
            "programs": [{"name": "bad", "source": "    frob x1\n"},
                         {"name": "good", "source": PROGRAM}],
            "axes": [{"name": "width", "path": "config.buffers.fetchWidth",
                      "values": [1, 2]}],
        }))
        assert main(["explore", str(path), "--workers", "0",
                     "--quiet"]) == 1
        captured = capsys.readouterr()
        # the report's FAILED lines carry job id + point...
        assert "[job 0; program=bad, width=1]" in captured.out
        # ...and so does the stderr summary (independent of --format)
        assert "FAILED job 0 (program=bad, width=1): error:" in captured.err
        assert "FAILED job 1 (program=bad, width=2)" in captured.err

    def test_backend_serial_and_explicit_process(self, spec_file, capsys):
        assert main(["explore", spec_file, "--backend", "serial",
                     "--quiet"]) == 0
        assert "serial backend" in capsys.readouterr().out
        assert main(["explore", spec_file, "--backend", "process",
                     "--workers", "2", "--quiet"]) == 0
        assert "process backend" in capsys.readouterr().out

    def test_backend_remote_runs_against_a_worker_fleet(self, spec_file,
                                                        capsys):
        workers = [SimServer(("127.0.0.1", 0)) for _ in range(2)]
        for server in workers:
            server.start_background()
        try:
            code = main(["explore", spec_file, "--backend", "remote",
                         "--worker-url", f"127.0.0.1:{workers[0].port}",
                         "--worker-url", f"127.0.0.1:{workers[1].port}"])
            assert code == 0
            out = capsys.readouterr().out
            assert "remote backend" in out
            assert "Design-space sweep: cli-sweep" in out
            assert "execution (remote backend" in out
            assert f"127.0.0.1:{workers[0].port}" in out
        finally:
            for server in workers:
                server.shutdown()
                server.server_close()

    def test_backend_flag_validation(self, spec_file, capsys):
        assert main(["explore", spec_file, "--backend", "remote"]) == 2
        assert "--worker-url" in capsys.readouterr().err
        assert main(["explore", spec_file, "--worker-url", "h:1"]) == 2
        assert "requires --backend remote" in capsys.readouterr().err
        assert main(["explore", spec_file, "--backend", "remote",
                     "--worker-url", "h:1",
                     "--host", "127.0.0.1"]) == 2
        assert "cannot be combined" in capsys.readouterr().err
        assert main(["explore", spec_file, "--backend", "remote",
                     "--worker-url", "nonsense"]) == 2
        assert "worker URL" in capsys.readouterr().err
        assert main(["explore", spec_file, "--backend", "fleet"]) == 2
        assert "server-orchestrated" in capsys.readouterr().err
        assert main(["explore", spec_file, "--follow"]) == 2
        assert "requires --host" in capsys.readouterr().err

    def test_fleet_submission_with_follow(self, spec_file, tmp_path,
                                          capsys):
        """--host --backend fleet --follow against a server whose
        registry holds one self-registered worker (the server itself);
        the records it writes are the serial loop's, byte for byte."""
        serial_out, fleet_out = (tmp_path / "serial.jsonl",
                                 tmp_path / "fleet.jsonl")
        assert main(["explore", spec_file, "--backend", "serial",
                     "--quiet", "--out", str(serial_out)]) == 0
        capsys.readouterr()
        server = SimServer(("127.0.0.1", 0))
        server.start_background()
        try:
            # the frontend doubles as its own (only) fleet worker
            server.api.fleet.register(f"127.0.0.1:{server.port}")
            code = main(["explore", spec_file, "--backend", "fleet",
                         "--follow", "--host", "127.0.0.1",
                         "--port", str(server.port),
                         "--out", str(fleet_out)])
            assert code == 0
            captured = capsys.readouterr()
            assert "Design-space sweep: cli-sweep" in captured.out
            assert "fleet: 1 live / 1 known workers" in captured.err
            assert "-> worker" in captured.err      # dispatch events
            assert "done" in captured.err           # terminal event
        finally:
            server.shutdown()
            server.server_close()
        assert fleet_out.read_bytes() == serial_out.read_bytes()

    def test_remote_submission(self, spec_file, capsys):
        server = SimServer(("127.0.0.1", 0))
        server.start_background()
        try:
            code = main(["explore", spec_file, "--quiet", "--workers", "0",
                         "--host", "127.0.0.1", "--port", str(server.port),
                         "--poll", "0.05"])
            assert code == 0
            assert "Design-space sweep: cli-sweep" \
                in capsys.readouterr().out
        finally:
            server.shutdown()
            server.server_close()


class TestWorkerMode:
    """`repro-sim worker` — the distributed-sweep worker serve mode."""

    def test_worker_parser_defaults(self):
        from repro.cli.main import build_worker_parser
        args = build_worker_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8046
        assert not args.no_gzip

    def test_worker_subprocess_serves_jobs(self):
        import os
        import pathlib
        import re
        import subprocess
        import sys

        repo = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "worker", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            match = None
            seen = []
            for _ in range(5):             # interpreter warnings may lead
                banner = proc.stdout.readline()
                seen.append(banner)
                match = re.search(r"sweep worker listening on "
                                  r"http://127\.0\.0\.1:(\d+)", banner)
                if match:
                    break
            assert match, f"no worker banner in: {seen!r}"
            port = int(match.group(1))
            from repro.explore.plan import plan_jobs
            from repro.explore.spec import SweepSpec
            from repro.server.client import SimClient
            job = plan_jobs(SweepSpec.from_json({
                "name": "smoke",
                "programs": [{"name": "sum", "source": PROGRAM}],
            }))[0]
            client = SimClient("127.0.0.1", port, timeout=30.0)
            try:
                assert client.health()["status"] == "ok"
                out = client.worker_execute(job.payload)
                assert out["ok"] and out["value"]["stats"]["cycles"] > 0
            finally:
                client.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)


class TestExtensionFlags:
    def test_power_report(self, asm_file, arch_file, capsys):
        assert main([asm_file, arch_file, "--power"]) == 0
        out = capsys.readouterr().out
        assert "total area" in out and "average power" in out

    def test_disassemble(self, asm_file, arch_file, capsys):
        assert main([asm_file, arch_file, "--disassemble"]) == 0
        out = capsys.readouterr().out
        assert "0x0000:" in out
        assert "addi" in out

    def test_disassemble_error_handling(self, tmp_path, arch_file, capsys):
        path = tmp_path / "bad.s"
        path.write_text("frob x1\n")
        assert main([str(path), arch_file, "--disassemble"]) == 1


class TestLintMode:
    """``repro-sim lint`` — the static invariant checker
    (:mod:`repro.analyze`)."""

    @staticmethod
    def fixture_root(tmp_path, source):
        import textwrap
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "comp.py").write_text(textwrap.dedent(source))
        return tmp_path

    CLEAN = """
        class Whole:
            def save_state(self):
                return {"x": self.x}
            def restore_state(self, state):
                self.x = state["x"]
    """

    DIRTY = """
        class Half:
            def save_state(self):
                return {"x": self.x}
    """

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = self.fixture_root(tmp_path, self.CLEAN)
        assert main(["lint", "--root", str(root)]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = self.fixture_root(tmp_path, self.DIRTY)
        assert main(["lint", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "SC001" in out
        assert "1 new finding(s)" in out

    def test_usage_error_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--format", "yaml"])
        assert excinfo.value.code == 2

    def test_missing_root_exits_two(self, tmp_path, capsys):
        assert main(["lint", "--root", str(tmp_path / "nowhere")]) == 2

    def test_json_report_parses_and_is_schema_stable(self, tmp_path,
                                                     capsys):
        root = self.fixture_root(tmp_path, self.DIRTY)
        assert main(["lint", "--root", str(root),
                     "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert set(report) == {"version", "findings", "baselined",
                               "staleBaselineEntries", "counts"}
        (finding,) = report["findings"]
        assert set(finding) == {"rule", "file", "line", "message",
                                "severity"}
        assert finding["rule"] == "SC001"
        assert report["counts"] == {"new": 1, "baselined": 0, "stale": 0}

    def test_update_baseline_round_trip(self, tmp_path, capsys):
        root = self.fixture_root(tmp_path, self.DIRTY)
        baseline = root / "lint-baseline.json"
        assert main(["lint", "--root", str(root),
                     "--update-baseline"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        # same findings, now baselined: clean run
        assert main(["lint", "--root", str(root)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_fixed_finding_goes_stale_not_fatal(self, tmp_path, capsys):
        root = self.fixture_root(tmp_path, self.DIRTY)
        assert main(["lint", "--root", str(root),
                     "--update-baseline"]) == 0
        (root / "src" / "repro" / "comp.py").write_text(
            "class Gone:\n    pass\n")
        capsys.readouterr()
        assert main(["lint", "--root", str(root)]) == 0
        assert "stale" in capsys.readouterr().out
