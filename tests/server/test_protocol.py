"""Protocol-layer tests (no HTTP transport)."""

import json

import pytest

from repro.core.config import CpuConfig
from repro.memory.main_memory import MAX_CAPACITY
from repro.server.protocol import MAX_SEEK_CYCLE, Api, ApiError
from repro.sim.state import dumps_raw


def wire(reply):
    """A reply as a client decodes it: state arrives as pre-serialized
    JSON text, spliced into the body by ``dumps_raw``."""
    return json.loads(dumps_raw(reply))


@pytest.fixture
def api():
    return Api()


PROGRAM = """
    li a0, 0
    li t0, 1
    li t1, 5
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""


class TestMetaEndpoints:
    def test_health(self, api):
        out = api.handle("GET", "/health", None)
        assert out["status"] == "ok"

    def test_schema_lists_endpoints(self, api):
        out = api.handle("GET", "/schema", None)
        paths = {e["path"] for e in out["endpoints"]}
        assert {"/compile", "/parseAsm", "/simulate", "/session/new",
                "/session/step"} <= paths

    def test_unknown_endpoint_404(self, api):
        with pytest.raises(ApiError) as info:
            api.handle("POST", "/nope", {})
        assert info.value.status == 404


class TestCompile:
    def test_success(self, api):
        out = api.handle("POST", "/compile",
                         {"code": "int main(void){return 3;}",
                          "optimizeLevel": 2})
        assert out["success"]
        assert "main:" in out["assembly"]
        assert out["lineMap"]

    def test_error_reported_with_position(self, api):
        out = api.handle("POST", "/compile", {"code": "int main( {"})
        assert not out["success"]
        assert out["errors"][0]["line"] >= 1

    def test_missing_code(self, api):
        with pytest.raises(ApiError):
            api.handle("POST", "/compile", {})

    def test_bad_level(self, api):
        with pytest.raises(ApiError):
            api.handle("POST", "/compile", {"code": "int main(void){return 0;}",
                                            "optimizeLevel": 9})

    @pytest.mark.parametrize("level", ["x", None, 1.5, True])
    def test_non_integer_level_is_400(self, api, level):
        with pytest.raises(ApiError) as info:
            api.handle("POST", "/compile", {"code": "int main(void){return 0;}",
                                            "optimizeLevel": level})
        assert info.value.status == 400


class TestParseAsm:
    def test_valid(self, api):
        out = api.handle("POST", "/parseAsm", {"code": PROGRAM})
        assert out["success"]
        assert out["instructionCount"] == 7
        assert "loop" in out["labels"]

    def test_invalid_reports_line(self, api):
        out = api.handle("POST", "/parseAsm", {"code": "nop\nfrob x1"})
        assert not out["success"]
        assert out["errors"][0]["line"] == 2

    @pytest.mark.parametrize("code,line,column", [
        ("nop\naddi a0, x0, 017", 2, 14),           # leading-zero literal
        ("    .word 09", 1, 11),
        ("    add x1, x2, 5", 1, 17),                # operand positions are
        ("    lw x1, 4(q9)", 1, 13),                 # the source's
        ("    li x5, bogus+", 1, 12),
        ("/* c */ addi a0, x0, q", 1, 22),
    ])
    def test_errors_at_source_positions(self, api, code, line, column):
        out = api.handle("POST", "/parseAsm", {"code": code})
        assert not out["success"]
        error = out["errors"][0]
        assert (error["line"], error["column"]) == (line, column)

    def test_oversized_data_directive_is_an_editor_error(self, api):
        out = api.handle("POST", "/parseAsm", {"code": ".skip 4000000000"})
        assert not out["success"]
        assert "data segment" in out["errors"][0]["message"]


class TestSimulate:
    def test_batch_run(self, api):
        out = api.handle("POST", "/simulate", {"code": PROGRAM})
        assert out["success"]
        assert out["result"]["statistics"]["committedInstructions"] > 0

    def test_with_config_preset(self, api):
        out = api.handle("POST", "/simulate",
                         {"code": PROGRAM, "config": "wide"})
        assert out["success"]

    def test_with_config_json(self, api):
        out = api.handle("POST", "/simulate",
                         {"code": PROGRAM,
                          "config": CpuConfig.preset("scalar").to_json()})
        assert out["success"]

    def test_with_memory_locations(self, api):
        out = wire(api.handle("POST", "/simulate", {
            "code": "la t0, arr\nlw a0, 0(t0)\nebreak",
            "memory": [{"name": "arr", "dtype": "word", "values": [321]}],
            "fullState": True,
        }))
        assert out["success"]
        assert out["state"]["registers"]["int"][10] == 321

    def test_bad_memory_config(self, api):
        with pytest.raises(ApiError):
            api.handle("POST", "/simulate",
                       {"code": "nop", "memory": [{"name": "x"}]})

    def test_asm_error_payload(self, api):
        out = api.handle("POST", "/simulate", {"code": "frob"})
        assert not out["success"]

    @pytest.mark.parametrize("max_cycles", ["10", 2.5, True, [10]])
    def test_non_integer_max_cycles_is_400(self, api, max_cycles):
        with pytest.raises(ApiError) as info:
            api.handle("POST", "/simulate",
                       {"code": PROGRAM, "maxCycles": max_cycles})
        assert info.value.status == 400

    def test_cycle_budget_past_the_cap_is_400(self, api):
        """The run halts at the smaller of maxCycles and config.maxCycles;
        a budget past MAX_SEEK_CYCLE would pin this connection's thread."""
        with pytest.raises(ApiError) as info:
            api.handle("POST", "/simulate", {
                "code": "spin: j spin", "maxCycles": 10**12,
                "config": {"maxCycles": 10**12}})
        assert info.value.status == 400
        assert str(MAX_SEEK_CYCLE) in info.value.message
        with pytest.raises(ApiError):
            api.handle("POST", "/simulate", {
                "code": "spin: j spin",
                "config": {"maxCycles": MAX_SEEK_CYCLE + 1}})

    @pytest.mark.parametrize("budget", [
        {"maxCycles": 10**12},                       # capped by the config
        {"config": {"maxCycles": MAX_SEEK_CYCLE}},
        {"maxCycles": 50, "config": {"maxCycles": 10**12}},
    ])
    def test_cycle_budget_within_the_cap_runs(self, api, budget):
        out = api.handle("POST", "/simulate", {"code": "ebreak", **budget})
        assert out["success"]

    @pytest.mark.parametrize("route", ["/simulate", "/session/new"])
    def test_memory_capacity_past_the_cap_is_400(self, api, route):
        config = CpuConfig().to_json()
        config["memory"]["capacity"] = MAX_CAPACITY + 1
        with pytest.raises(ApiError) as info:
            api.handle("POST", route, {"code": "ebreak", "config": config})
        assert info.value.status == 400
        assert api.handle("GET", "/health", None)["sessions"] == 0

    @pytest.mark.parametrize("config", [5, ["wide"], True,
                                        {"buffers": 5},
                                        {"buffers": {"robSize": "x"}}])
    def test_malformed_config_is_400(self, api, config):
        with pytest.raises(ApiError) as info:
            api.handle("POST", "/simulate", {"code": PROGRAM,
                                             "config": config})
        assert info.value.status == 400


class TestSessions:
    def test_lifecycle(self, api):
        out = api.handle("POST", "/session/new", {"code": PROGRAM})
        sid = out["sessionId"]
        state = wire(api.handle("POST", "/session/step",
                                {"sessionId": sid, "cycles": 5}))["state"]
        assert state["cycle"] == 5
        state = wire(api.handle("POST", "/session/step",
                                {"sessionId": sid, "cycles": -3}))["state"]
        assert state["cycle"] == 2      # backward simulation over the API
        state = wire(api.handle("POST", "/session/seek",
                                {"sessionId": sid, "cycle": 10}))["state"]
        assert state["cycle"] == 10
        assert api.handle("POST", "/session/close",
                          {"sessionId": sid})["success"]

    def test_state_endpoint(self, api):
        sid = api.handle("POST", "/session/new", {"code": PROGRAM})["sessionId"]
        state = wire(api.handle("POST", "/session/state",
                                {"sessionId": sid}))["state"]
        assert state["cycle"] == 0

    def test_session_payloads_carry_checkpoint_gauge(self, api):
        """Every session/* status payload reports the checkpoint ring's
        real memory footprint (shared frozen pages counted once)."""
        sid = api.handle("POST", "/session/new", {"code": PROGRAM})["sessionId"]
        for method, body in (("/session/state", {}),
                             ("/session/step", {"cycles": 5}),
                             ("/session/seek", {"cycle": 2})):
            out = api.handle("POST", method, {"sessionId": sid, **body})
            gauge = out["checkpoints"]
            assert gauge["count"] >= 1              # cycle 0 is pinned
            assert gauge["capacity"] >= gauge["count"]
            assert gauge["bytesRetained"] > 0
        # delta-format steps carry the gauge too
        out = api.handle("POST", "/session/step",
                         {"sessionId": sid, "cycles": 1, "delta": True})
        assert out["checkpoints"]["bytesRetained"] > 0

    def test_unknown_session_404(self, api):
        with pytest.raises(ApiError) as info:
            api.handle("POST", "/session/step",
                       {"sessionId": "nope", "cycles": 1})
        assert info.value.status == 404

    def test_negative_seek_rejected(self, api):
        sid = api.handle("POST", "/session/new", {"code": PROGRAM})["sessionId"]
        with pytest.raises(ApiError):
            api.handle("POST", "/session/seek",
                       {"sessionId": sid, "cycle": -1})

    def test_session_error_on_bad_code(self, api):
        out = api.handle("POST", "/session/new", {"code": "frob"})
        assert not out["success"]


class TestStepValidation:
    """Cycle counts must be validated, not silently looped or passed
    through to ``step_back`` (protocol v2)."""

    @pytest.fixture
    def sid(self, api):
        return api.handle("POST", "/session/new", {"code": PROGRAM})["sessionId"]

    @pytest.mark.parametrize("cycles", [0, "7", 2.5, None, True,
                                        10 ** 6, -(10 ** 6)])
    def test_invalid_cycles_rejected(self, api, sid, cycles):
        with pytest.raises(ApiError):
            api.handle("POST", "/session/step",
                       {"sessionId": sid, "cycles": cycles})

    def test_rejected_step_does_not_advance(self, api, sid):
        with pytest.raises(ApiError):
            api.handle("POST", "/session/step", {"sessionId": sid, "cycles": 0})
        state = wire(api.handle("POST", "/session/state",
                                {"sessionId": sid}))
        assert state["state"]["cycle"] == 0

    def test_absurd_seek_rejected(self, api, sid):
        with pytest.raises(ApiError):
            api.handle("POST", "/session/seek",
                       {"sessionId": sid, "cycle": 10 ** 9})
        with pytest.raises(ApiError):
            api.handle("POST", "/session/seek",
                       {"sessionId": sid, "cycle": "end"})


class TestDeltaServing:
    def test_step_serves_delta_after_full_base(self):
        from repro.sim.state import apply_snapshot_delta
        api = Api()
        sid = api.handle("POST", "/session/new", {"code": PROGRAM})["sessionId"]
        first = wire(api.handle("POST", "/session/step",
                                {"sessionId": sid, "cycles": 2,
                                 "delta": True}))
        assert first["stateFormat"] == "delta"
        assert first["stateDelta"]["format"] == "full"   # no base yet
        view = first["stateDelta"]["state"]
        for _ in range(4):
            out = wire(api.handle("POST", "/session/step",
                                  {"sessionId": sid, "cycles": 1,
                                   "delta": True}))
            delta = out["stateDelta"]
            assert delta["format"] == "delta"
            view = apply_snapshot_delta(view, delta)
        full = wire(api.handle("POST", "/session/state", {"sessionId": sid}))
        assert view == full["state"]

    def test_full_payload_remains_default(self, api):
        sid = api.handle("POST", "/session/new", {"code": PROGRAM})["sessionId"]
        out = wire(api.handle("POST", "/session/step",
                              {"sessionId": sid, "cycles": 3}))
        assert out["stateFormat"] == "full"
        assert out["state"]["cycle"] == 3
        assert out["protocolVersion"] >= 2

    def test_backward_step_serves_full_resync(self, api):
        sid = api.handle("POST", "/session/new", {"code": PROGRAM})["sessionId"]
        api.handle("POST", "/session/step",
                   {"sessionId": sid, "cycles": 10, "delta": True})
        out = wire(api.handle("POST", "/session/step",
                              {"sessionId": sid, "cycles": -4,
                               "delta": True}))
        assert out["stateDelta"]["format"] == "full"
        assert out["stateDelta"]["state"]["cycle"] == 6


class TestSessionMemory:
    PROGRAM = """
    .data
arr: .word 11, 22, 33
    .text
    la t0, arr
    li t1, 99
    sw t1, 0(t0)
    ebreak
"""

    def test_symbol_view_with_typed_values(self, api):
        sid = api.handle("POST", "/session/new",
                         {"code": self.PROGRAM})["sessionId"]
        out = api.handle("POST", "/session/memory",
                         {"sessionId": sid, "symbol": "arr"})
        assert out["values"] == [11, 22, 33]
        assert bytes.fromhex(out["bytes"])[:4] == (11).to_bytes(4, "little")

    def test_since_version_short_circuits(self, api):
        sid = api.handle("POST", "/session/new",
                         {"code": self.PROGRAM})["sessionId"]
        out = api.handle("POST", "/session/memory",
                         {"sessionId": sid, "symbol": "arr"})
        again = api.handle("POST", "/session/memory",
                           {"sessionId": sid, "symbol": "arr",
                            "sinceVersion": out["version"]})
        assert again["unchanged"]

    def test_version_moves_when_store_commits(self, api):
        sid = api.handle("POST", "/session/new",
                         {"code": self.PROGRAM})["sessionId"]
        before = api.handle("POST", "/session/memory",
                            {"sessionId": sid, "symbol": "arr"})
        api.handle("POST", "/session/step", {"sessionId": sid, "cycles": 50})
        after = api.handle("POST", "/session/memory",
                           {"sessionId": sid, "symbol": "arr",
                            "sinceVersion": before["version"]})
        assert "unchanged" not in after
        assert after["values"] == [99, 22, 33]

    def test_unknown_symbol_404(self, api):
        sid = api.handle("POST", "/session/new",
                         {"code": self.PROGRAM})["sessionId"]
        with pytest.raises(ApiError) as info:
            api.handle("POST", "/session/memory",
                       {"sessionId": sid, "symbol": "ghost"})
        assert info.value.status == 404

    def test_out_of_range_address_rejected(self, api):
        sid = api.handle("POST", "/session/new",
                         {"code": self.PROGRAM})["sessionId"]
        with pytest.raises(ApiError):
            api.handle("POST", "/session/memory",
                       {"sessionId": sid, "address": 2 ** 31, "size": 16})


class TestSessionManager:
    def test_ttl_eviction(self):
        from repro.server.session import SessionManager
        mgr = SessionManager(ttl_s=0.0)
        first = mgr.create("nop")
        mgr.create("nop")     # creation evicts the stale first session
        assert mgr.get(first.id) is None

    def test_max_sessions(self):
        from repro.server.session import SessionManager
        mgr = SessionManager(max_sessions=2)
        a = mgr.create("nop")
        mgr.create("nop")
        mgr.create("nop")
        assert len(mgr) == 2
        assert mgr.get(a.id) is None   # oldest evicted
