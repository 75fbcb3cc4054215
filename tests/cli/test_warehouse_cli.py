"""repro-sim warehouse: local-store console round trip and exit codes."""

import json

import pytest

from repro.cli.main import main
from repro.explore.store import ResultStore


def record(index, width, cycles, energy):
    return {"index": index, "label": f"program=sum/width={width}",
            "point": {"program": "sum", "width": width}, "ok": True,
            "stats": {"cycles": cycles, "ipc": 1.0,
                      "energy": {"totalPj": energy}, "areaKGE": 10.0}}


@pytest.fixture
def run_files(tmp_path):
    base = str(tmp_path / "day0.jsonl")
    with ResultStore(base) as store:
        store.extend([record(0, "w1", 100, 50.0),
                      record(1, "w2", 80, 70.0)])
    worse = str(tmp_path / "day1.jsonl")
    with ResultStore(worse) as store:
        store.extend([record(0, "w1", 100, 50.0),
                      record(1, "w2", 95, 70.0)])   # planted regression
    return base, worse


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "warehouse.jsonl")


def ingest_both(store_path, run_files):
    base, worse = run_files
    assert main(["warehouse", "ingest", base, "--store", store_path,
                 "--sweep-id", "day0"]) == 0
    assert main(["warehouse", "ingest", worse, "--store", store_path,
                 "--sweep-id", "day1"]) == 0


class TestWarehouseConsole:
    def test_ingest_query_pareto_baseline_diff(self, store_path,
                                               run_files, capsys):
        ingest_both(store_path, run_files)
        out = capsys.readouterr().out
        assert "ingested" in out and "2 new / 0 known" in out

        assert main(["warehouse", "query", "--store", store_path]) == 0
        assert "warehouse: 4 record(s) across 2 sweep(s)" \
            in capsys.readouterr().out

        assert main(["warehouse", "pareto", "--store", store_path,
                     "--format", "json"]) == 0
        pareto = json.loads(capsys.readouterr().out)
        assert pareto["points"] == 4
        assert pareto["dominated"] == 4 - len(pareto["frontier"])

        assert main(["warehouse", "baseline", "day0",
                     "--store", store_path]) == 0
        assert "baseline pinned: sweep day0" in capsys.readouterr().out

        # the pin persists in the store file across invocations
        assert main(["warehouse", "diff", "--store", store_path]) == 1
        diff_text = capsys.readouterr().out
        assert "REGRESSED program=sum/width=w2: cycles" in diff_text
        assert main(["warehouse", "diff", "--store", store_path,
                     "--format", "json"]) == 1
        diff = json.loads(capsys.readouterr().out)
        [flag] = [flag for entry in diff["sweeps"] for flag in entry["flags"]]
        assert (flag["label"], flag["metric"]) \
            == ("program=sum/width=w2", "cycles")
        assert flag["deltaPct"] == pytest.approx(18.75)   # 80 -> 95

        # clean diff (huge tolerance) exits 0
        assert main(["warehouse", "diff", "--store", store_path,
                     "--tolerance", "0.9"]) == 0

    def test_query_filters_and_json(self, store_path, run_files, capsys):
        ingest_both(store_path, run_files)
        capsys.readouterr()
        assert main(["warehouse", "query", "--store", store_path,
                     "--sweep", "day0", "--axis", "width=w2",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 1
        assert data["rows"][0]["label"] == "program=sum/width=w2"

    def test_exit_codes_on_bad_usage(self, store_path, capsys):
        # exactly one of --store/--host
        assert main(["warehouse", "query"]) == 2
        assert "pick exactly one warehouse" in capsys.readouterr().err
        # malformed --axis
        assert main(["warehouse", "query", "--store", store_path,
                     "--axis", "width"]) == 2
        # unknown baseline sweep
        assert main(["warehouse", "baseline", "ghost",
                     "--store", store_path]) == 2
        # diff before any baseline pin
        assert main(["warehouse", "diff", "--store", store_path]) == 2
        assert "no baseline sweep pinned" in capsys.readouterr().err


class TestFollowRegressionWarning:
    """The one-line advisory after `repro-sim explore --follow`."""

    @staticmethod
    def diff_payload(flags):
        return {"baseline": "day0", "tolerance": 0.05,
                "sweeps": [{"sweepId": "day1", "flags": flags}]}

    def test_flagged_sweep_prints_one_warning_line(self, capsys):
        from repro.cli.main import _warn_regressions

        class FlaggedClient:
            def warehouse_regressions(self, sweep=None):
                return TestFollowRegressionWarning.diff_payload(
                    [{"label": "program=sum/width=w2", "metric": "cycles",
                      "deltaPct": 18.75},
                     {"label": "program=sum/width=w1", "metric": "energy",
                      "deltaPct": 6.0}])

        _warn_regressions(FlaggedClient(), "day1")
        err = capsys.readouterr().err
        assert err.count("WARNING") == 1
        assert "sweep day1 regressed vs baseline day0" in err
        assert "2 metric delta(s) beyond 5%" in err
        assert "worst: program=sum/width=w2 cycles +18.75%" in err

    def test_silent_when_no_baseline_pinned(self, capsys):
        from repro.cli.main import _warn_regressions
        from repro.server.protocol import ApiError

        class NoBaselineClient:
            def warehouse_regressions(self, sweep=None):
                raise ApiError("no baseline sweep pinned", status=409)

        _warn_regressions(NoBaselineClient(), "day1")
        assert capsys.readouterr().err == ""

    def test_silent_when_nothing_regressed(self, capsys):
        from repro.cli.main import _warn_regressions

        class CleanClient:
            def warehouse_regressions(self, sweep=None):
                return TestFollowRegressionWarning.diff_payload([])

        _warn_regressions(CleanClient(), "day1")
        assert capsys.readouterr().err == ""
