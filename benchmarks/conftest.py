"""Shared fixtures and program corpus for the paper-shape tests.

Every table and figure of the paper's evaluation (Sec. IV) has a test in
this directory, named after it (``test_table1_load.py``,
``test_figures.py``, ``test_render_time.py`` for the render budget,
``test_json_overhead.py`` for the JSON share, ``test_ablation_*.py``).
Paper numbers came from an Intel i5 8300H laptop running the Java
server — ours come from a pure-Python simulator, so absolute values
differ; the *shape* (who wins, by what factor, where latency blows up)
is asserted instead.  End-to-end numbers are measured only by
``benchmarks/e2e`` (see its ``README.md``).
"""

from __future__ import annotations

import pytest

from repro import CpuConfig
from repro.compiler import compile_c
from repro.server.httpd import SimServer

#: loop kernel used across benches (the "interactively simulate 40 steps"
#: programs of the load test are in repro.server.loadtest)
SUM_LOOP = """
    li a0, 0
    li t0, 1
    li t1, 200
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""

QUICKSORT_C = """
extern int data[16];
void quicksort(int *a, int lo, int hi) {
    if (lo >= hi) return;
    int pivot = a[(lo + hi) / 2];
    int i = lo; int j = hi;
    while (i <= j) {
        while (a[i] < pivot) i++;
        while (a[j] > pivot) j--;
        if (i <= j) { int t = a[i]; a[i] = a[j]; a[j] = t; i++; j--; }
    }
    quicksort(a, lo, j);
    quicksort(a, i, hi);
}
int main(void) { quicksort(data, 0, 15); return 0; }
"""


def big_stack() -> CpuConfig:
    config = CpuConfig()
    config.memory.call_stack_size = 4096
    return config


def compile_ok(source: str, level: int) -> str:
    result = compile_c(source, level)
    assert result.success, result.errors
    return result.assembly


@pytest.fixture(scope="session")
def direct_server():
    """A gzip-enabled server without the simulated-Docker overhead."""
    server = SimServer(("127.0.0.1", 0), enable_gzip=True)
    server.start_background()
    yield server
    server.shutdown()


@pytest.fixture(scope="session")
def docker_server():
    """Simulated-Docker deployment: calibrated per-request overhead.

    The paper's Docker rows show ~10 % median latency overhead at 30 users
    growing under load; with the bench's 20x time compression the overhead
    is scaled up accordingly so the separation stays measurable above
    scheduler noise."""
    server = SimServer(("127.0.0.1", 0), enable_gzip=True, overhead_ms=8.0)
    server.start_background()
    yield server
    server.shutdown()


@pytest.fixture(scope="session")
def nogzip_server():
    server = SimServer(("127.0.0.1", 0), enable_gzip=False)
    server.start_background()
    yield server
    server.shutdown()
