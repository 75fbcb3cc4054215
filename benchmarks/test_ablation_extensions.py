"""Ablation: the paper's future-work extensions, measured.

Sec. V names the directions; this repo implements them and measures their
effect: pipelined functional units, a second cache level, and the
area/power model (which turns the other ablations into cost/benefit
curves).
"""

from repro import CacheConfig, CpuConfig, FuSpec, MemoryLocation, Simulation
from repro.compiler import compile_c
from repro.sim.energy import estimate_area, estimate_energy

FP_KERNEL_C = """
extern float a[64];
extern float b[64];
float dot(void) {
    float s0 = 0.0f;
    float s1 = 0.0f;
    for (int i = 0; i < 64; i += 2) {
        s0 = s0 + a[i] * b[i];         /* two independent chains */
        s1 = s1 + a[i + 1] * b[i + 1];
    }
    return s0 + s1;
}
int main(void) { return (int)dot(); }
"""


def fp_config(pipelined: bool) -> CpuConfig:
    config = CpuConfig()
    config.memory.call_stack_size = 2048
    config.fus = [
        FuSpec("FX", "FX1"), FuSpec("FX", "FX2"),
        FuSpec("FP", "FP1", pipelined=pipelined),
        FuSpec("LS", "LS1"), FuSpec("LS", "LS2"),
        FuSpec("Branch", "BR1"), FuSpec("Memory", "MEM"),
    ]
    return config


def run_fp(pipelined: bool):
    compiled = compile_c(FP_KERNEL_C, 2)
    assert compiled.success
    values_a = [0.5 + 0.01 * i for i in range(64)]
    values_b = [1.0 + 0.005 * i for i in range(64)]
    locs = [MemoryLocation(name="a", dtype="float", values=values_a),
            MemoryLocation(name="b", dtype="float", values=values_b)]
    sim = Simulation.from_source(compiled.assembly,
                                 config=fp_config(pipelined), entry="main",
                                 memory_locations=locs)
    sim.run()
    return sim


class TestPipelinedFpAblation:
    def test_pipelined_fp_speeds_up_fp_kernel(self):
        plain = run_fp(False)
        piped = run_fp(True)
        print(f"\nFP dot product: non-pipelined {plain.cpu.cycle} cycles, "
              f"pipelined {piped.cpu.cycle} cycles "
              f"({plain.cpu.cycle / piped.cpu.cycle:.2f}x)")
        assert piped.cpu.cycle < plain.cpu.cycle
        assert plain.register_value("a0") == piped.register_value("a0")

    def test_pipelining_raises_fp_unit_throughput(self):
        plain = run_fp(False)
        piped = run_fp(True)
        # same FP work completes in fewer cycles -> higher busy share
        flops = plain.stats.flops_total
        assert piped.stats.flops_total == flops
        assert piped.stats.ipc > plain.stats.ipc


class TestL2Ablation:
    WALK = """
    la   t0, buf
    li   t5, 3          # passes
pass_loop:
    li   t1, 0
    li   t2, 256
walk:
    slli t3, t1, 2
    add  t3, t3, t0
    lw   t4, 0(t3)
    addi t1, t1, 1
    blt  t1, t2, walk
    addi t5, t5, -1
    bnez t5, pass_loop
    ebreak
"""

    def run_cfg(self, l2: bool):
        config = CpuConfig()
        config.cache = CacheConfig(line_count=8, line_size=16,
                                   associativity=2, access_delay=1,
                                   line_replacement_delay=2)
        if l2:
            config.l2_cache = CacheConfig(line_count=128, line_size=16,
                                          associativity=4, access_delay=4,
                                          line_replacement_delay=4)
        config.memory.load_latency = 40
        buf = MemoryLocation(name="buf", dtype="word",
                             values=list(range(256)))
        sim = Simulation.from_source(self.WALK, config=config,
                                     memory_locations=[buf])
        sim.run()
        return sim

    def test_l2_cuts_memory_time(self):
        without = self.run_cfg(False)
        with_l2 = self.run_cfg(True)
        print(f"\n1KB working set, 3 passes: L1-only {without.cpu.cycle} "
              f"cycles, +L2 {with_l2.cpu.cycle} cycles")
        assert with_l2.cpu.cycle < without.cpu.cycle * 0.85

    def test_l2_hit_rate_on_repeat_passes(self):
        sim = self.run_cfg(True)
        l2 = sim.cpu.l2_cache.stats
        print(f"L2: {l2.accesses} accesses, hit ratio {l2.hit_ratio:.3f}")
        assert l2.hit_ratio > 0.5   # passes 2 and 3 hit


class TestAreaPowerAblation:
    def test_width_vs_area_vs_energy_tradeoff(self):
        """The HW/SW co-design question of the paper's intro: performance
        per area, performance per joule, across widths."""
        source = "\n".join(
            f"    addi x{5 + (i % 8)}, x{5 + (i % 8)}, 1"
            for i in range(96)) + "\n    ebreak"
        rows = []
        for name in ("scalar", "default", "wide"):
            config = CpuConfig.preset(name)
            sim = Simulation.from_source(source, config=config)
            sim.run()
            area = estimate_area(config).total
            energy = estimate_energy(sim.cpu)
            rows.append((name, sim.cpu.cycle, area,
                         energy.total_pj / 1000.0))
        print("\narch       cycles   area[kGE]  energy[nJ]")
        for name, cycles, area, energy in rows:
            print(f"{name:<10} {cycles:>6} {area:>10.1f} {energy:>10.2f}")
        # wider machines: fewer cycles but monotonically more area
        assert rows[0][1] > rows[1][1] > rows[2][1]
        assert rows[0][2] < rows[1][2] < rows[2][2]

    def test_cache_pays_for_itself_in_energy(self):
        """Memory traffic dominates energy; a cache cuts it."""
        walk = """
    la   t0, buf
    li   t5, 4
p:  li   t1, 0
    li   t2, 64
w:  slli t3, t1, 2
    add  t3, t3, t0
    lw   t4, 0(t3)
    addi t1, t1, 1
    blt  t1, t2, w
    addi t5, t5, -1
    bnez t5, p
    ebreak
"""
        def run(enabled):
            config = CpuConfig()
            config.cache.enabled = enabled
            buf = MemoryLocation(name="buf", dtype="word",
                                 values=list(range(64)))
            sim = Simulation.from_source(walk, config=config,
                                         memory_locations=[buf])
            sim.run()
            return estimate_energy(sim.cpu).dynamic_pj["memoryTraffic"]
        assert run(True) < run(False)
