"""Every example script must run cleanly (they are executable docs)."""

import os
import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, args=(), timeout=300, env=None) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout, env=env)
    assert result.returncode == 0, \
        f"{name} failed:\n{result.stdout}\n{result.stderr}"
    return result.stdout


def run_design_sweep(tmp_path, *args) -> str:
    """design_sweep.py with its own temporary directory, which must hold
    no ``repro-sweep-*`` records directory once the script is done."""
    out = run_example("design_sweep.py", args=args,
                      env={**os.environ, "TMPDIR": str(tmp_path)})
    assert f"records round-tripped through {tmp_path}" in out
    assert list(tmp_path.glob("repro-sweep-*")) == []
    return out


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "sum(1..100) = 5050" in out
        assert "O0:" in out and "O3:" in out
        assert "Runtime statistics" in out

    def test_quicksort(self):
        out = run_example("quicksort.py")
        assert out.count("OK") >= 4
        assert "WRONG" not in out
        assert "verified in simulated memory" in out

    def test_linked_list(self):
        out = run_example("linked_list.py")
        assert out.count("OK") >= 4
        assert "WRONG" not in out

    def test_polymorphism(self):
        out = run_example("polymorphism.py")
        assert "OK" in out and "WRONG" not in out
        assert "BTB hits" in out

    def test_hpc_optimization(self):
        out = run_example("hpc_optimization.py")
        assert "row-major" in out and "col-major" in out
        assert "WRONG" not in out

    def test_design_sweep(self, tmp_path):
        out = run_design_sweep(tmp_path, "--warehouse")
        assert "Design-space sweep: width-x-cache" in out
        assert "best configuration: program=checksum/width=wide/cache=big" \
            in out
        assert "records round-tripped" in out
        assert "0 failures" in out
        # the warehouse tour: import, planted regression, frontier, reopen
        assert "nightly rerun ingested: 1 config(s) flagged" in out
        assert "REGRESSED program=checksum/width=narrow/cache=tiny" in out
        assert "1 regression(s) flagged" in out
        assert "Pareto frontier (cycles vs energy)" in out
        assert "rows, baseline pin included" in out

    def test_design_sweep_remote_fleet(self, tmp_path):
        out = run_design_sweep(tmp_path, "--backend", "remote")
        assert "spawned worker fleet" in out
        assert "records identical to the local pool run" in out

    def test_design_sweep_server_fleet(self, tmp_path):
        out = run_design_sweep(tmp_path, "--backend", "fleet")
        assert "2 workers registered" in out
        assert "4 streamed finish events" in out
        assert "records identical to the local pool run" in out
        # worker-side job counters live on the worker processes
        assert "worker jobs on the workers' own /metrics: 4 (" in out
        assert "on the frontend's: 0" in out

    def test_extensions_tour(self):
        out = run_example("extensions_tour.py")
        assert "pipelined" in out
        assert "L1 + L2" in out
        assert "breakpoint" in out
        assert "total area" in out

    def test_table1_loadtest_quick(self):
        out = run_example("table1_loadtest.py", args=["--quick",
                                                      "--users", "5"],
                          timeout=300)
        assert "Direct" in out and "Docker" in out
        assert "MEASURED LATENCY" in out
