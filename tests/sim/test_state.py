"""State-engine tests: versioned components, checkpoint time travel, and
delta snapshots (see ``repro.sim.state``).

The load-bearing property is bit-exactness: a checkpoint restore followed
by replay must be indistinguishable from a from-zero re-run, and a chain of
delta payloads applied client-side must reproduce every full snapshot.
"""

import json

import pytest

from repro import CpuConfig, Simulation
from repro.sim.state import (
    SNAPSHOT_SECTIONS,
    CheckpointRing,
    RawJson,
    SnapshotCache,
    apply_snapshot_delta,
    dumps_raw,
)


# Ground truth for delta-vs-full comparisons: a missed dirty-marking site
# would make two warm caches serve identically stale payloads, so the
# reference side always rebuilds from scratch (Simulation.snapshot_cold).
def cold_snapshot(sim: Simulation) -> dict:
    return sim.snapshot_cold()

LOOP = """
    li a0, 0
    li t0, 1
    li t1, 40
loop:
    add a0, a0, t0
    addi t0, t0, 1
    ble t0, t1, loop
    ebreak
"""

#: a memory-heavy kernel: stores, loads, line evictions, mispredictions
MEM_LOOP = """
    addi sp, sp, -256
    li t0, 0
loop:
    slli t1, t0, 2
    add  t1, t1, sp
    sw   t0, 0(t1)
    lw   t2, 0(t1)
    mul  t3, t2, t2
    addi t0, t0, 1
    li   t4, 40
    blt  t0, t4, loop
    ebreak
"""


#: a data-dependent branch on an LCG bit: ~200 mispredictions, each one
#: a log entry, over ~4k cycles
BRANCHY = """
    li t0, 0
    li t1, 400
    li t3, 12345
loop:
    li t4, 1103515245
    mul t3, t3, t4
    addi t3, t3, 1234
    srli t2, t3, 16
    andi t2, t2, 1
    beqz t2, skip
    addi a0, a0, 1
skip:
    addi t0, t0, 1
    blt t0, t1, loop
    ebreak
"""


class TestCheckpointRing:
    def test_due_every_interval_once(self):
        ring = CheckpointRing(interval=10, capacity=4)
        assert ring.due(10) and ring.due(20)
        assert not ring.due(5)
        ring.put(10, "s10")
        assert not ring.due(10)

    def test_nearest_picks_greatest_not_exceeding(self):
        ring = CheckpointRing(interval=10, capacity=8)
        for cycle in (0, 10, 20, 30):
            ring.put(cycle, f"s{cycle}")
        assert ring.nearest(25).cycle == 20
        assert ring.nearest(30).cycle == 30
        assert ring.nearest(9).cycle == 0
        # future checkpoints are found too (deterministic trajectory)
        assert ring.nearest(1000).cycle == 30

    def test_lru_eviction_pins_cycle_zero(self):
        ring = CheckpointRing(interval=10, capacity=3)
        for cycle in (0, 10, 20, 30, 40):
            ring.put(cycle, f"s{cycle}")
        assert len(ring) == 3
        assert 0 in ring.cycles()          # pinned
        assert ring.cycles() == [0, 30, 40]

    def test_restore_use_refreshes_lru_rank(self):
        ring = CheckpointRing(interval=10, capacity=3)
        for cycle in (0, 10, 20):
            ring.put(cycle, f"s{cycle}")
        ring.nearest(10)                   # 10 becomes most recently used
        ring.put(30, "s30")                # evicts 20, not 10
        assert ring.cycles() == [0, 10, 30]

    def test_bytes_retained_counts_shared_blobs_once(self):
        """Page-compressed checkpoints share clean-page blobs by
        reference; the gauge must not multiply a shared 1 KiB page by
        the number of checkpoints holding it."""
        ring = CheckpointRing(interval=10, capacity=8)
        shared = bytes(4096)
        ring.put(0, {"pages": (shared,), "counters": (0, 0)})
        single = ring.bytes_retained()
        assert single > 4096
        ring.put(10, {"pages": (shared,), "counters": (1, 1)})
        two = ring.bytes_retained()
        # the second checkpoint adds envelope bytes, not another blob
        assert two - single < 1024
        ring.put(20, {"pages": (bytes(4096),), "counters": (2, 2)})
        assert ring.bytes_retained() - two > 4096

    def test_bytes_retained_tracks_ring_mutations(self):
        ring = CheckpointRing(interval=10, capacity=4)
        assert ring.bytes_retained() == 0
        ring.put(0, {"pages": (bytes(2048),), "counters": ()})
        grown = ring.bytes_retained()
        assert grown > 2048
        assert ring.bytes_retained() == grown     # cached, same generation
        ring.clear()
        assert ring.bytes_retained() == 0

    def test_bytes_retained_on_a_real_simulation(self):
        simulation = Simulation.from_source(
            MEM_LOOP, checkpoint_interval=16, checkpoint_capacity=8)
        base = simulation.checkpoints.bytes_retained()
        assert base > 0
        simulation.step(64)
        assert len(simulation.checkpoints) > 1
        grown = simulation.checkpoints.bytes_retained()
        assert grown > base
        # consecutive checkpoints share clean pages: far below the naive
        # capacity x full-image estimate (the memory alone is 64 KiB)
        capacity = simulation.cpu.memory.capacity
        assert grown < len(simulation.checkpoints) * capacity

    def test_degenerate_capacity_rejected(self):
        """capacity=1 could never retain a non-zero checkpoint (cycle 0 is
        pinned, so every put would evict the entry it just added)."""
        with pytest.raises(ValueError):
            CheckpointRing(interval=10, capacity=1)

    def test_degenerate_max_bytes_rejected(self):
        with pytest.raises(ValueError):
            CheckpointRing(interval=10, capacity=4, max_bytes=0)
        with pytest.raises(ValueError):
            CheckpointRing(interval=10, capacity=4, max_bytes=-1)
        CheckpointRing(interval=10, capacity=4, max_bytes=None)  # unbounded

    def test_byte_budget_evicts_lru_first(self):
        """Over-budget puts evict in LRU order, exactly like capacity."""
        blob = lambda: {"pages": (bytes(4096),)}   # ~4 KiB, unshared
        budget = 3 * 4096 + 2048                   # room for ~3 blobs
        ring = CheckpointRing(interval=10, capacity=24, max_bytes=budget)
        for cycle in (0, 10, 20):
            ring.put(cycle, blob())
        assert ring.cycles() == [0, 10, 20]        # within budget
        ring.put(30, blob())                       # over: 10 is LRU
        assert ring.cycles() == [0, 20, 30]
        ring.nearest(20)                           # 20 most recently used
        ring.put(40, blob())                       # over: 30 is LRU now
        assert ring.cycles() == [0, 20, 40]

    def test_byte_budget_pins_cycle_zero_and_newest(self):
        """A budget smaller than any state still keeps the cycle-0 base
        plus the just-stored checkpoint — time travel stays possible."""
        ring = CheckpointRing(interval=10, capacity=24, max_bytes=1)
        for cycle in (0, 10, 20, 30):
            ring.put(cycle, {"pages": (bytes(4096),)})
        assert ring.cycles() == [0, 30]
        assert ring.bytes_retained() > 1           # floor, not budget

    def test_byte_budget_counts_shared_blobs_once(self):
        """Eviction pressure follows the *deduplicated* footprint: many
        checkpoints sharing clean pages fit where unshared ones don't."""
        shared = bytes(8192)
        ring = CheckpointRing(interval=10, capacity=24, max_bytes=3 * 8192)
        for cycle in (0, 10, 20, 30, 40, 50):
            ring.put(cycle, {"pages": (shared,), "cycle": cycle})
        assert ring.cycles() == [0, 10, 20, 30, 40, 50]

    def test_byte_budget_seek_stays_bit_exact(self):
        """A budget tight enough to force evictions only changes *which*
        checkpoints time travel restores from, never where it lands."""
        tight = Simulation.from_source(MEM_LOOP, checkpoint_interval=8,
                                       checkpoint_capacity=24,
                                       checkpoint_max_bytes=96 * 1024)
        free = Simulation.from_source(MEM_LOOP, checkpoint_interval=8,
                                      checkpoint_capacity=24)
        tight.step(120)
        free.step(120)
        assert len(tight.checkpoints) < len(free.checkpoints)  # evicted
        for target in (97, 40, 3, 111):
            tight.seek(target)
            free.seek(target)
            assert json.dumps(tight.snapshot_cold(), sort_keys=True) \
                == json.dumps(free.snapshot_cold(), sort_keys=True)

    def test_cleared_ring_degrades_to_from_zero_rerun(self):
        sim = Simulation.from_source(LOOP, checkpoint_interval=16)
        sim.step(100)
        sim.checkpoints.clear()
        sim.step_back(1)                   # falls back to reset + replay
        assert sim.cycle == 99
        assert sim.last_replay_cycles == 99
        fresh = Simulation.from_source(LOOP)
        fresh.step(99)
        assert sim.snapshot() == fresh.snapshot()


class TestSnapshotCache:
    def test_rebuilds_only_on_version_change(self):
        cache = SnapshotCache()
        calls = []
        build = lambda: calls.append(1) or {"n": len(calls)}
        first = cache.section("x", 1, build)
        assert cache.section("x", 1, build) is first
        assert len(calls) == 1
        second = cache.section("x", 2, build)
        assert second == {"n": 2} and len(calls) == 2


class TestComponentProtocol:
    """Every substrate honours save_state / restore_state / version."""

    def _cpu(self, source=MEM_LOOP, config=None):
        sim = Simulation.from_source(source, config=config)
        sim.step(25)
        return sim.cpu

    @pytest.mark.parametrize("component", [
        lambda cpu: cpu.arch_regs,
        lambda cpu: cpu.rename,
        lambda cpu: cpu.memory,
        lambda cpu: cpu.cache,
        lambda cpu: cpu.predictor,
        lambda cpu: cpu.predictor.btb,
    ])
    def test_roundtrip_is_identity(self, component):
        cpu = self._cpu()
        target = component(cpu)
        saved = target.save_state()
        target.restore_state(saved)
        assert target.save_state() == saved

    def test_versions_move_on_mutation(self):
        cpu = self._cpu()
        before = (cpu.arch_regs.version, cpu.rename.version,
                  cpu.memory.version, cpu.cache.version)
        cpu.arch_regs.write("x5", 123)
        cpu.memory.write_bytes(0, b"\x01")
        assert cpu.arch_regs.version > before[0]
        assert cpu.memory.version > before[2]

    def test_restore_bumps_version(self):
        """Versions are monotonic: a restore must not reuse old tokens."""
        cpu = self._cpu()
        saved = cpu.arch_regs.save_state()
        v = cpu.arch_regs.version
        cpu.arch_regs.restore_state(saved)
        assert cpu.arch_regs.version > v


class TestCheckpointTimeTravel:
    def test_step_back_replays_at_most_one_interval(self):
        sim = Simulation.from_source(LOOP, checkpoint_interval=16,
                                     checkpoint_capacity=8)
        sim.step(100)
        sim.step_back(1)
        assert sim.cycle == 99
        assert 0 < sim.last_replay_cycles <= 16

    def test_seek_forward_uses_future_checkpoint(self):
        sim = Simulation.from_source(LOOP, checkpoint_interval=16,
                                     checkpoint_capacity=8)
        sim.step(100)
        sim.seek(5)
        assert sim.cycle == 5
        sim.seek(90)                        # restore cp@80(+) and replay
        assert sim.cycle == 90
        assert sim.last_replay_cycles <= 16

    def test_restore_matches_fresh_run_exactly(self):
        sim = Simulation.from_source(MEM_LOOP, checkpoint_interval=16)
        sim.step(120)
        reference = sim.snapshot()
        sim.step(80)
        sim.step_back(80)
        assert sim.snapshot() == reference
        fresh = Simulation.from_source(MEM_LOOP)
        fresh.step(120)
        assert sim.snapshot() == fresh.snapshot()

    def test_random_replacement_policy_replays_bit_exact(self):
        config = CpuConfig()
        config.cache.replacement_policy = "Random"
        config.cache.line_count = 4
        sim = Simulation.from_source(MEM_LOOP, config=config,
                                     checkpoint_interval=16)
        sim.step(150)
        reference = sim.snapshot()
        sim.step(60)
        sim.step_back(60)
        assert sim.snapshot() == reference

    def test_checkpoints_survive_reset(self):
        sim = Simulation.from_source(LOOP, checkpoint_interval=16)
        sim.step(64)
        stored = len(sim.checkpoints)
        sim.reset()
        assert len(sim.checkpoints) == stored
        sim.seek(60)                        # restored via an old checkpoint
        assert sim.cycle == 60
        assert sim.last_replay_cycles <= 16

    def test_debugger_commit_hook_survives_time_travel(self):
        """restore_state is in-place: observers keep their CPU reference."""
        sim = Simulation.from_source(LOOP, checkpoint_interval=16)
        cpu = sim.cpu
        sim.step(50)
        sim.step_back(20)
        assert sim.cpu is cpu


class TestSnapshotDelta:
    def test_delta_chain_reproduces_every_full_snapshot(self):
        """Client-side patching tracks a cache-bypassing ground truth for a
        whole run — every dirty-marking site (sections and per-instruction)
        is exercised by the memory-heavy kernel."""
        sim = Simulation.from_source(MEM_LOOP, checkpoint_interval=32)
        reference = Simulation.from_source(MEM_LOOP)
        view = sim.snapshot()
        for _ in range(260):
            sim.step(1)
            reference.step(1)
            delta = sim.snapshot_delta(since_cycle=view["cycle"])
            view = apply_snapshot_delta(view, delta)
            assert view == cold_snapshot(reference)
            if sim.halted:
                break
        assert sim.halted  # the kernel finishes inside the budget

    def test_encoded_state_has_the_bytes_of_json_dumps(self):
        """The wire encoder splices fragments with ``json.dumps``'s own
        separators: a full state is byte-equal to ``json.dumps`` of the
        dict form, and a delta (entry-level sections and the full-state
        fallback after a step back included) re-encodes to itself."""
        sim = Simulation.from_source(MEM_LOOP)
        oracle = Simulation.from_source(MEM_LOOP)
        sim.snapshot_json()
        deltas = []
        for move in [1] * 60 + [-7, 2, 1, 1]:
            base = sim.cycle
            for each in (sim, oracle):
                if move > 0:
                    each.step(move)
                else:
                    each.step_back(-move)
            delta = sim.snapshot_delta_json(since_cycle=base)
            assert json.dumps(json.loads(delta)) == delta
            deltas.append(delta)
            assert sim.snapshot_json() == json.dumps(oracle.snapshot())
        assert any('"__entryDelta": true' in delta for delta in deltas)
        assert any('"format": "full"' in delta for delta in deltas)

    def test_log_text_grows_to_the_bytes_of_the_cold_log(self):
        """Each full serve encodes only the log entries added since the
        last one; the spliced text stays ``json.dumps`` of the cold log
        through a long run, and after a step back (a restore replaces
        the log, which re-renders it)."""
        sim = Simulation.from_source(BRANCHY, checkpoint_interval=64)
        oracle = Simulation.from_source(BRANCHY)

        def assert_log_bytes():
            cold = json.dumps(oracle.snapshot_cold()["log"])
            assert sim.snapshot_json().endswith(f'"log": {cold}}}')

        assert_log_bytes()
        while not sim.halted:
            sim.step(97)
            oracle.step(97)
            assert_log_bytes()
        assert len(sim.cpu.log) > 150
        for each in (sim, oracle):
            each.step_back(1500)
        assert_log_bytes()
        for each in (sim, oracle):
            each.step(300)
        assert_log_bytes()

    def test_encoded_full_snapshot_is_value_identical(self):
        a = Simulation.from_source(MEM_LOOP)
        b = Simulation.from_source(MEM_LOOP)
        a.step(70)
        b.step(70)
        a.snapshot()                     # warm the fragment caches
        b.snapshot()
        a.step(5)
        b.step(5)
        assert json.loads(a.snapshot_json()) == b.snapshot()

    def test_entry_delta_skips_unchanged_instructions(self):
        """A long-latency stall leaves most ROB entries untouched: the rob
        section arrives as an entry-level delta referencing them by id."""
        sim = Simulation.from_source(MEM_LOOP)
        sim.step(40)
        sim.snapshot()
        sim.step(1)
        delta = sim.snapshot_delta(since_cycle=sim.cycle - 1)
        rob = delta["sections"].get("rob")
        if rob is not None and isinstance(rob, dict):
            assert rob["__entryDelta"]
            assert len(rob["changed"]) < len(rob["ids"])
            # every unchanged id must be resolvable from the base pool
            base = sim.snapshot()
            for uid in rob["ids"]:
                assert str(uid) in rob["changed"] or any(
                    e["id"] == uid for e in base["rob"])

    #: wide fetch into a tiny issue window: dispatch trickles, so the
    #: fetch buffer turns over partially — the entry-delta sweet spot
    FRONT_STALL_CONFIG = dict(fetch_width=4, commit_width=1,
                              issue_window_size=2)

    def _front_stall_config(self):
        from repro import BufferConfig, CpuConfig
        config = CpuConfig()
        config.buffers = BufferConfig(**self.FRONT_STALL_CONFIG)
        return config

    def test_fetch_buffer_entry_delta(self):
        """A fetch section dirtied by partial buffer turnover references
        its unchanged buffered instructions by id (schema v3)."""
        sim = Simulation.from_source(MEM_LOOP,
                                     config=self._front_stall_config())
        reference = Simulation.from_source(
            MEM_LOOP, config=self._front_stall_config())
        seen_entry_delta = False
        view = sim.snapshot()
        for _ in range(160):
            sim.step(1)
            reference.step(1)
            delta = sim.snapshot_delta(since_cycle=view["cycle"])
            fetch = delta.get("sections", {}).get("fetch") \
                if delta["format"] == "delta" else None
            if isinstance(fetch, dict) and fetch.get("__entryDelta"):
                seen_entry_delta = True
                assert set(fetch) == {"__entryDelta", "pc",
                                      "stalledUntil", "ids", "changed"}
                assert len(fetch["changed"]) < len(fetch["ids"])
            view = apply_snapshot_delta(view, delta)
            assert view == cold_snapshot(reference)
            if sim.halted:
                break
        assert seen_entry_delta, \
            "the kernel never produced a fetch entry-delta"

    def test_store_buffer_entry_delta(self):
        """Store-buffer entries carry ids; entries whose drain state is
        unchanged are referenced by id and resolved from the base."""
        sim = Simulation.from_source(MEM_LOOP)
        reference = Simulation.from_source(MEM_LOOP)
        seen_entry_delta = False
        view = sim.snapshot()
        for _ in range(260):
            sim.step(1)
            reference.step(1)
            delta = sim.snapshot_delta(since_cycle=view["cycle"])
            if delta["format"] == "delta":
                storeb = delta["sections"].get("storeBuffer")
                if isinstance(storeb, dict) and storeb.get("__entryDelta"):
                    seen_entry_delta = True
                    assert len(storeb["changed"]) < len(storeb["ids"])
            view = apply_snapshot_delta(view, delta)
            assert view == cold_snapshot(reference)
            if sim.halted:
                break
        assert seen_entry_delta, \
            "the kernel never produced a storeBuffer entry-delta"
        # every served store-buffer entry carries its resolving id
        for entry in view["storeBuffer"]:
            assert "id" in entry

    def test_apply_rejects_mismatched_base(self):
        """A delta computed against a view the client never received (e.g.
        after a lost response) must fail loudly, not merge silently."""
        sim = Simulation.from_source(LOOP)
        stale = sim.snapshot()
        sim.step(3)
        sim.snapshot()                       # server view advances past us
        sim.step(2)
        delta = sim.snapshot_delta(since_cycle=3)
        assert delta["format"] == "delta"
        with pytest.raises(ValueError, match="base mismatch"):
            apply_snapshot_delta(stale, delta)

    def test_dumps_raw_splices_byte_identical(self):
        fragment = json.dumps({"x": [1, 2], "y": None, "s": "t\"ext"})
        payload = {"success": True, "n": 3, "state": RawJson(fragment)}
        plain = {"success": True, "n": 3,
                 "state": {"x": [1, 2], "y": None, "s": "t\"ext"}}
        assert dumps_raw(payload) == json.dumps(plain)
        assert dumps_raw(plain) == json.dumps(plain)
        assert dumps_raw([1, "a"]) == json.dumps([1, "a"])

    def test_delta_skips_clean_sections(self):
        sim = Simulation.from_source(LOOP)
        sim.snapshot()
        sim.step(1)
        delta = sim.snapshot_delta(since_cycle=sim.cycle - 1)
        assert delta["format"] == "delta"
        assert set(delta["sections"]) < set(SNAPSHOT_SECTIONS)
        # an idle cache/l2 never reappears on the wire
        assert "cache" not in delta["sections"]

    def test_stale_base_falls_back_to_full(self):
        sim = Simulation.from_source(LOOP)
        sim.snapshot()
        sim.step(5)
        delta = sim.snapshot_delta(since_cycle=3)   # not the served base
        assert delta["format"] == "full"
        assert delta["state"]["cycle"] == 5

    def test_backward_jump_falls_back_to_full(self):
        sim = Simulation.from_source(LOOP)
        sim.step(30)
        base = sim.snapshot()
        sim.step_back(10)
        delta = sim.snapshot_delta(since_cycle=base["cycle"])
        assert delta["format"] == "full"
        assert delta["state"]["cycle"] == 20

    def test_stale_snapshots_are_not_aliased(self):
        """A served snapshot must stay frozen while the simulation moves."""
        sim = Simulation.from_source(LOOP)
        sim.step(10)
        first = sim.snapshot()
        log_len = len(first["log"])
        cycle = first["cycle"]
        sim.step(30)
        sim.snapshot()
        assert first["cycle"] == cycle
        assert len(first["log"]) == log_len
