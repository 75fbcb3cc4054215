"""Fleet-orchestration acceptance: cooperative-cancellation latency.

The ISSUE-5 acceptance bar: a job abandoned by ``/explore/cancel`` must
stop **within one cancel-check stride** of the cancel reaching its
worker — not at its cycle budget.  Two latencies are measured against a
real worker server over HTTP:

* **stride latency** — wall time from firing a :class:`CancelToken` to
  ``Simulation.run`` returning (pure simulation, no transport); the
  documented worst case is ``cancel_stride`` cycles of simulation.
* **end-to-end latency** — wall time from ``POST /worker/cancel`` to the
  in-flight ``/worker/execute`` reply arriving (stride + HTTP both
  ways).

The budget the cancelled job *would* have burned (50M spin cycles,
minutes of CPU) anchors the comparison.
"""

import threading
import time

import pytest

from repro.explore.plan import plan_jobs
from repro.explore.spec import SweepSpec
from repro.fleet.cancel import CancelToken
from repro.server.client import SimClient
from repro.server.httpd import SimServer
from repro.sim.simulation import (CANCELLED_HALT_REASON,
                                  DEFAULT_CANCEL_STRIDE, Simulation)

#: acceptance bar: end-to-end cancel latency, generous for CI noise —
#: the point of comparison is the minutes-long cycle budget it replaces
MAX_CANCEL_LATENCY_S = 5.0

SPIN = "spin:\n    j spin\n"

#: cycle budget of the victim job: ~minutes of simulation if cancellation
#: failed, so a latency in the stride regime is unambiguous
SPIN_BUDGET = 50_000_000


def spin_payload():
    spec = SweepSpec.from_json({
        "name": "cancel-bench",
        "programs": [{"name": "spin", "source": SPIN}],
        "axes": [{"name": "width", "path": "config.buffers.fetchWidth",
                  "values": [1]}],
        "maxCycles": SPIN_BUDGET,
    })
    return plan_jobs(spec)[0].payload


def measure_stride_latency() -> float:
    """Fire a token mid-run; wall time until the run returns (best of 3)."""
    best = None
    for _ in range(3):
        sim = Simulation.from_source(SPIN)
        token = CancelToken()
        done = {}

        def run(sim=sim, token=token, done=done):
            done["result"] = sim.run(max_cycles=SPIN_BUDGET, cancel=token)

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.1)                    # let it settle into the loop
        fired = time.perf_counter()
        token.cancel("bench")
        thread.join(timeout=60.0)
        latency = time.perf_counter() - fired
        assert not thread.is_alive()
        assert done["result"].halt_reason == CANCELLED_HALT_REASON
        best = latency if best is None else min(best, latency)
    return best


def measure_end_to_end_latency(server) -> float:
    """POST /worker/cancel -> in-flight /worker/execute reply (best of 3)."""
    best = None
    for round_index in range(3):
        cancel_id = f"bench-cancel-{round_index}"
        reply = {}

        def execute(reply=reply, cancel_id=cancel_id):
            client = SimClient("127.0.0.1", server.port, timeout=120.0)
            try:
                reply.update(client.worker_execute(spin_payload(),
                                                   cancel_id=cancel_id))
            finally:
                client.close()

        thread = threading.Thread(target=execute)
        thread.start()
        deadline = time.monotonic() + 10.0
        while server.api.cancels.active() == 0:
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.005)
        control = SimClient("127.0.0.1", server.port, timeout=10.0)
        try:
            fired = time.perf_counter()
            out = control.worker_cancel(cancel_id, reason="bench")
            assert out["cancelled"] is True
            thread.join(timeout=60.0)
            latency = time.perf_counter() - fired
        finally:
            control.close()
        assert not thread.is_alive()
        assert reply["kind"] == "cancelled", reply
        best = latency if best is None else min(best, latency)
    return best


@pytest.fixture(scope="module")
def worker_server():
    server = SimServer(("127.0.0.1", 0))
    server.start_background()
    yield server
    server.shutdown()
    server.server_close()


class TestCancellationLatency:
    def test_cancel_latency_within_acceptance(self, worker_server):
        stride_s = measure_stride_latency()
        end_to_end_s = measure_end_to_end_latency(worker_server)
        print(f"\ncancellation latency: stride={stride_s * 1e3:.1f} ms, "
              f"end-to-end={end_to_end_s * 1e3:.1f} ms "
              f"(stride={DEFAULT_CANCEL_STRIDE} cycles; the job's budget "
              f"was {SPIN_BUDGET / 1e6:.0f}M cycles)")
        assert stride_s < MAX_CANCEL_LATENCY_S
        assert end_to_end_s < MAX_CANCEL_LATENCY_S
