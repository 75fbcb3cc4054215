"""Sec. IV-A claim: "Using gzip compression increased throughput on the
local server by 40 %".

The paper's deployment is network-bound enough that smaller payloads mean
more transactions per second.  In a loopback-only environment the bandwidth
effect is muted, so we verify the mechanism on both levels:

* the wire effect — gzip shrinks the step-state payload several-fold, which
  is what buys throughput on a real network;
* the protocol effect — a gzip closed-loop run completes with zero errors
  and throughput within a sane band of the identity run.
"""

import gzip
import http.client
import json

from repro.server.loadtest import DEFAULT_PROGRAMS, LoadTestConfig, run_load_test


def _step_payload_bytes(server, use_gzip):
    conn = http.client.HTTPConnection("127.0.0.1", server.port)
    body = json.dumps({"code": DEFAULT_PROGRAMS[0]}).encode()
    headers = {"Content-Type": "application/json"}
    if use_gzip:
        headers["Accept-Encoding"] = "gzip"
    conn.request("POST", "/session/new", body=body, headers=headers)
    sid = json.loads(conn.getresponse().read())["sessionId"]
    body = json.dumps({"sessionId": sid, "cycles": 10}).encode()
    conn.request("POST", "/session/step", body=body, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    conn.close()
    return len(raw)


def test_gzip_shrinks_step_payload(direct_server):
    compressed = _step_payload_bytes(direct_server, True)
    plain = _step_payload_bytes(direct_server, False)
    ratio = plain / compressed
    print(f"\nstep-state payload: {plain} B identity vs {compressed} B "
          f"gzip ({ratio:.1f}x smaller)")
    assert ratio > 2.0, "gzip should compress the JSON state several-fold"


def test_gzip_loadtest_vs_identity(direct_server, nogzip_server):
    config = LoadTestConfig(users=8, steps_per_user=10, ramp_up_s=0.1,
                            think_time_s=0.0, use_gzip=True)
    with_gzip = run_load_test("127.0.0.1", direct_server.port, config)
    config_plain = LoadTestConfig(users=8, steps_per_user=10, ramp_up_s=0.1,
                                  think_time_s=0.0, use_gzip=False)
    without = run_load_test("127.0.0.1", nogzip_server.port, config_plain)
    assert with_gzip.errors == 0 and without.errors == 0
    print(f"\nthroughput: gzip {with_gzip.throughput_tps:.1f} tps, "
          f"identity {without.throughput_tps:.1f} tps "
          f"(paper on a real network: +40 % with gzip)")
    # on loopback gzip's CPU cost can offset the bandwidth win; require the
    # two to be within the same order of magnitude
    assert with_gzip.throughput_tps > 0.3 * without.throughput_tps


def test_gzip_compression_cost_benchmark():
    """One step-state payload, compressed at the server's level."""
    from repro import Simulation
    from benchmarks.conftest import SUM_LOOP
    sim = Simulation.from_source(SUM_LOOP)
    sim.step(25)
    payload = json.dumps({"success": True, "state": sim.snapshot()}).encode()
    compressed = gzip.compress(payload, 1)
    assert len(compressed) < len(payload)
