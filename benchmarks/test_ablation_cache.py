"""Ablation: cache geometry, replacement policy and store behaviour.

Regenerates the Cache-tab teaching results: associativity fixes conflict
misses, LRU beats Random on loop reuse, write-through writes more bytes
than write-back, and a cache-hostile stride destroys the hit rate.
"""

from repro import CacheConfig, CpuConfig, MemoryLocation, Simulation
from repro.compiler import compile_c

STRIDE_KERNEL = """
extern int buf[256];
int walk(int stride) {
    int s = 0;
    for (int r = 0; r < 4; r++)
        for (int i = 0; i < 256; i += stride)
            s += buf[i];
    return s;
}
int main_seq(void) { return walk(1); }
int main_stride(void) { return walk(16); }
"""


def run_kernel(entry: str, cache: CacheConfig):
    result = compile_c(STRIDE_KERNEL, 2)
    assert result.success
    config = CpuConfig()
    config.cache = cache
    config.memory.call_stack_size = 2048
    data = MemoryLocation(name="buf", dtype="word",
                          values=[(7 * i) % 64 for i in range(256)])
    sim = Simulation.from_source(result.assembly, config=config, entry=entry,
                                 memory_locations=[data])
    sim.run()
    return sim


class TestLocality:
    def test_sequential_beats_strided(self):
        cache = CacheConfig(line_count=16, line_size=16, associativity=2)
        seq = run_kernel("main_seq", cache)
        strided = run_kernel("main_stride", cache)
        assert seq.stats.cache_hit_rate > 0.6
        assert strided.stats.cache_hit_rate < seq.stats.cache_hit_rate - 0.3


class TestAssociativity:
    """A ping-pong between two addresses that conflict in a direct-mapped
    cache but coexist in a 2-way set."""

    PINGPONG = """
    la  t0, spot_a
    la  t1, spot_b
    li  t2, 50
loop:
    lw  t3, 0(t0)
    lw  t4, 0(t1)
    addi t2, t2, -1
    bnez t2, loop
    ebreak
"""

    def run(self, associativity):
        config = CpuConfig()
        config.cache = CacheConfig(line_count=4, line_size=16,
                                   associativity=associativity)
        sets = 4 // associativity
        conflict_stride = sets * 16   # same set index, different tag
        a = MemoryLocation(name="spot_a", dtype="word", alignment=64,
                           values=[1])
        pad = MemoryLocation(name="pad", dtype="byte", alignment=1,
                             repeat_value=0,
                             count=conflict_stride * 4 - 4)
        b = MemoryLocation(name="spot_b", dtype="word", alignment=4,
                           values=[2])
        sim = Simulation.from_source(self.PINGPONG, config=config,
                                     memory_locations=[a, pad, b])
        sim.run()
        return sim

    def test_two_way_fixes_conflict_misses(self):
        direct = self.run(1)
        two_way = self.run(2)
        print(f"\nping-pong hit rate: direct={direct.stats.cache_hit_rate:.3f}"
              f" 2-way={two_way.stats.cache_hit_rate:.3f}")
        assert two_way.stats.cache_hit_rate >= direct.stats.cache_hit_rate


class TestPolicies:
    def run_policy(self, policy: str):
        cache = CacheConfig(line_count=8, line_size=16, associativity=4,
                            replacement_policy=policy, random_seed=11)
        return run_kernel("main_seq", cache)

    def test_lru_at_least_as_good_as_random_on_loops(self):
        lru = self.run_policy("LRU")
        rnd = self.run_policy("Random")
        print(f"\npolicy hit rates: LRU={lru.stats.cache_hit_rate:.3f} "
              f"Random={rnd.stats.cache_hit_rate:.3f}")
        assert lru.stats.cache_hit_rate >= rnd.stats.cache_hit_rate - 0.02

    def test_all_policies_same_architectural_result(self):
        results = {self.run_policy(p).register_value("a0")
                   for p in ("LRU", "FIFO", "Random")}
        assert len(results) == 1


class TestWriteModes:
    STORE_LOOP = """
    li t0, 0
    li t1, 64
store_loop:
    slli t2, t0, 2
    add  t2, t2, sp
    addi t2, t2, -256
    sw   t0, 0(t2)
    sw   t0, 0(t2)       # rewrite the same word (write-back absorbs it)
    addi t0, t0, 1
    blt  t0, t1, store_loop
    ebreak
"""

    def run_mode(self, write_back):
        config = CpuConfig()
        config.cache = CacheConfig(line_count=32, line_size=16,
                                   associativity=2, write_back=write_back)
        sim = Simulation.from_source(self.STORE_LOOP, config=config)
        sim.run()
        return sim

    def test_write_through_writes_more_bytes(self):
        wb = self.run_mode(True)
        wt = self.run_mode(False)
        wb_bytes = wb.cpu.cache.stats.bytes_written
        wt_bytes = wt.cpu.cache.stats.bytes_written
        print(f"\nbytes toward memory: write-back={wb_bytes} "
              f"write-through={wt_bytes}")
        assert wt_bytes > wb_bytes
