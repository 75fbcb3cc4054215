"""The superscalar out-of-order pipeline: processor state and side exits.

Block layout follows the main simulator window (Fig. 12): fetch and decode
blocks, reorder (retire) buffer, issue windows for the FX and FP ALUs,
branch unit and load/store components, a variable number of FX / FP / LS
units, load and store buffers, and a memory unit connected to the cache.

:class:`Cpu` holds that state, snapshots and checkpoints it, and owns the
rare control transfers a cycle may take (mispredict flush, store drain,
load resolution, decode redirect, operand evaluation).  The clock cycle
itself, ``Cpu.step`` and its stage methods ``_commit`` … ``_fetch``, is
generated from the stage emitters of :mod:`repro.core.tracegen` (the one
definition of every stage) and installed when this module loads.  A
cycle runs the blocks in reverse pipeline order (commit -> memory ->
execute -> issue -> dispatch -> fetch), which realizes the paper's "two
sub-steps" rule: a functional unit completes its current instruction and
can accept the next one within a single clock cycle (Sec. III-A).
Mispredicted branches are detected at execute and recovered at commit
with a configurable flush penalty; exceptions are checked when the
instruction is committed (Sec. III-B).
"""

from __future__ import annotations

import copy
import json
import struct
from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple

from repro.asm.program import Program
from repro.core.config import CpuConfig, FuSpec
from repro.core.decoded import DecodedOp
from repro.core.rename import RenameFile
from repro.core.simcode import SimCode
from repro.errors import MemoryAccessError, SimulationException
from repro.isa.instruction import FuClass
from repro.isa.registers import RegisterFile
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryModel
from repro.memory.main_memory import MainMemory
from repro.predictor.unit import BranchPredictor
from repro.sim.state import SNAPSHOT_SECTIONS, SnapshotCache


class FuRuntime:
    """Execution state of one functional unit.

    Non-pipelined units (the paper's default, Sec. III-A) hold at most one
    instruction; pipelined units (the future-work extension, enabled via
    ``FuSpec.pipelined``) accept a new instruction every cycle while earlier
    ones are still in flight."""

    __slots__ = ("spec", "simcode", "busy_until", "busy_cycles",
                 "inflight", "last_issue_cycle", "pipelined", "ops_set",
                 "name", "kind", "flat_latency", "ops_lat")

    def __init__(self, spec: FuSpec):
        self.spec = spec
        self.simcode: Optional[SimCode] = None
        self.busy_until = -1
        self.busy_cycles = 0
        #: pipelined mode: [(simcode, finish_cycle), ...]
        self.inflight: List[Tuple[SimCode, int]] = []
        self.last_issue_cycle = -1
        #: hot-path mirrors of the spec (attribute-chain-free)
        self.pipelined = spec.pipelined
        self.name = spec.name
        self.kind = spec.kind
        #: None = supports every op class (see FuSpec.supported_set)
        self.ops_set: Optional[frozenset] = spec.supported_set()
        #: latency_of() split into data (the issue stage): FX/FP use the
        #: per-op-class dict, everything else the flat latency
        self.flat_latency: Optional[int] = (
            None if spec.kind in ("FX", "FP") else spec.latency)
        self.ops_lat: Dict[str, int] = spec.operations

    @property
    def busy(self) -> bool:
        if self.pipelined:
            return bool(self.inflight)
        return self.simcode is not None

    def squash(self) -> None:
        if self.simcode is not None:
            self.simcode.squashed = True
        for simcode, _finish in self.inflight:
            simcode.squashed = True
        self.simcode = None
        self.busy_until = -1
        self.inflight = []

    def snapshot(self) -> dict:
        if self.spec.pipelined:
            current = [s.instruction.render() for s, _ in self.inflight]
            return {
                "name": self.spec.name, "kind": self.spec.kind,
                "busy": self.busy, "pipelined": True,
                "instruction": current[0] if current else None,
                "inflight": current,
                "busyUntil": max((f for _, f in self.inflight), default=None),
                "busyCycles": self.busy_cycles,
            }
        return {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "busy": self.busy,
            "instruction": self.simcode.instruction.render() if self.simcode else None,
            "busyUntil": self.busy_until if self.busy else None,
            "busyCycles": self.busy_cycles,
        }


class StoreBufferEntry:
    """One store tracked from dispatch until its post-commit drain."""

    __slots__ = ("simcode", "address", "data", "committed", "drain_until")

    def __init__(self, simcode: SimCode):
        self.simcode = simcode
        self.address: Optional[int] = None
        self.data: Optional[bytes] = None
        self.committed = False
        self.drain_until = -1


class Cpu:
    """Complete processor state; ``step`` and its stage methods are
    generated (see the module docstring)."""

    def __init__(self, program: Program, config: CpuConfig):
        config.validate()
        self.program = program
        self.config = config

        # -- substrates -------------------------------------------------
        self.arch_regs = RegisterFile()
        self.rename = RenameFile(config.memory.rename_file_size, self.arch_regs)
        self.memory = MainMemory(config.memory.capacity,
                                 config.memory.load_latency,
                                 config.memory.store_latency)
        self.l2_cache: Optional[Cache] = None
        if config.l2_cache is not None and config.l2_cache.enabled \
                and config.cache.enabled:
            self.l2_cache = Cache(config.l2_cache, self.memory)
        self.cache: Optional[Cache] = (
            Cache(config.cache, self.memory,
                  next_level=self.l2_cache or self.memory)
            if config.cache.enabled else None)
        self.memmodel = MemoryModel(self.memory, self.cache)
        self.predictor = BranchPredictor(config.predictor)

        # -- pipeline structures -----------------------------------------
        self.fetch_buffer: Deque[SimCode] = deque()
        self.rob: Deque[SimCode] = deque()
        self.windows: Dict[str, List[SimCode]] = {
            FuClass.FX.value: [], FuClass.FP.value: [],
            FuClass.LS.value: [], FuClass.BRANCH.value: [],
        }
        self.fus: List[FuRuntime] = [
            FuRuntime(spec) for spec in config.fus if spec.kind != "Memory"]
        self.memory_units: List[FuRuntime] = [
            FuRuntime(spec) for spec in config.fus if spec.kind == "Memory"]
        #: loads whose address is known, waiting for / in a memory unit
        self.load_queue: List[SimCode] = []
        self.load_buffer: List[SimCode] = []
        self.store_buffer: List[StoreBufferEntry] = []
        #: store-buffer index: simcode id -> entry (commit/execute lookups)
        self._store_by_id: Dict[int, StoreBufferEntry] = {}
        #: event-driven wake-up: tag -> [(waiting simcode, operand name)]
        self._tag_waiters: Dict[int, List[Tuple[SimCode, str]]] = {}

        # -- static decode cache -------------------------------------------
        self.decoded: List[DecodedOp] = program.decoded_ops()
        self._instr_count = len(program.instructions)
        self._fus_by_kind: Dict[str, List[FuRuntime]] = {
            kind: [fu for fu in self.fus if fu.kind == kind]
            for kind in self.windows}
        self._all_fus: List[FuRuntime] = self.fus + self.memory_units
        self._window_items: List[Tuple[str, List[SimCode]]] = \
            list(self.windows.items())
        # config scalars hoisted out of the per-cycle attribute chains
        buffers = config.buffers
        self._fetch_width = buffers.fetch_width
        self._fetch_capacity = 2 * buffers.fetch_width
        self._fetch_branch_limit = buffers.fetch_branch_limit
        self._commit_width = buffers.commit_width
        self._rob_size = buffers.rob_size
        self._issue_window_size = buffers.issue_window_size
        self._load_buffer_size = config.memory.load_buffer_size
        self._store_buffer_size = config.memory.store_buffer_size
        self._max_cycles = config.max_cycles
        #: per-static-instruction dispatch legality (None = dispatchable):
        #: an op no unit of its class executes would deadlock the window
        self._dispatch_error: List[Optional[str]] = [
            None if any(fu.ops_set is None or dop.op_class in fu.ops_set
                        for fu in self._fus_by_kind[dop.fu_kind])
            else (f"configuration error: no {dop.fu_kind} unit "
                  f"supports '{dop.op_class}' (instruction "
                  f"'{dop.mnemonic}' at pc={dop.pc:#x})")
            for dop in self.decoded]

        # -- front-end state ---------------------------------------------
        self.pc = program.entry_pc
        self.fetch_stall_until = -1
        self.fetch_past_end = False

        # -- trace tier (repro.core.tracegen) -----------------------------
        #: tri-state gate: None = not yet resolved, False = disabled for
        #: this CPU (config.trace off), True = step loop engaged
        self._trace_wanted: Optional[bool] = None
        #: the config-specialized step loop, None while the interpreter runs
        self._step_loop = None

        # -- bookkeeping ---------------------------------------------------
        self.cycle = 0
        self.next_id = 0
        self.halted: Optional[str] = None
        self.committed_exception: Optional[SimulationException] = None
        self.log: List[Tuple[int, str]] = []
        #: optional per-commit observer (the debugger's breakpoint probe)
        self.commit_hook = None

        # -- incremental state engine (repro.sim.state) --------------------
        # Dirty counters, one per snapshot section group; every mutation of
        # the corresponding structure bumps its counter, so snapshot payloads
        # can be cached and patched instead of rebuilt (the registers /
        # rename / memory / cache substrates carry their own counters).
        self.v_front = 0       # fetch buffer membership + squashes
        self.v_rob = 0         # ROB membership + any in-flight SimCode state
        self.v_windows = 0     # issue-window membership + operand wake-ups
        self.v_fus = 0         # FX/FP/branch unit occupancy + busy cycles
        self.v_mem_units = 0   # memory unit occupancy + busy cycles
        self.v_loadq = 0       # load queue membership
        self.v_storeb = 0      # store buffer membership + entry state
        self._snap_cache = SnapshotCache()
        #: deepcopy memo seed for save/restore: static objects shared by
        #: every in-flight instruction (built lazily, see _checkpoint_memo)
        self._static_memo: Optional[Dict[int, object]] = None

        # -- counters consumed by the statistics collector -----------------
        self.committed = 0
        self.committed_by_type: Dict[str, int] = {}
        self.committed_by_mnemonic: Dict[str, int] = {}
        self.flops = 0
        self.rob_flushes = 0
        self.decode_redirects = 0
        self.fetch_stall_cycles = 0
        self.dispatch_stalls: Dict[str, int] = {
            "robFull": 0, "renameFull": 0, "windowFull": 0,
            "loadBufferFull": 0, "storeBufferFull": 0,
        }

        self._initialize()

    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        """Simulation init sequence (Sec. III-A): memory image, register
        seeding (sp, ra), entry PC."""
        image = self.program.initial_memory_image(self.config.memory.capacity)
        self.memory.set_image(image)
        # Stack pointer at the top of the call-stack region (Sec. III-C);
        # prefer the architecture's own call-stack size when the program was
        # assembled with the same default.
        sp = self.program.stack_pointer or self.config.memory.call_stack_size
        self.arch_regs.write("x2", sp)
        self.initial_sp = sp
        # Return address sentinel: one instruction past the program, so the
        # final `ret` of the entry routine leaves the program (pipeline
        # drains and the simulation ends).
        self.arch_regs.write("x1", self.program.code_size_bytes)
        self.log_msg(f"simulation initialized: entry pc={self.pc:#x}, sp={sp:#x}")

    def log_msg(self, message: str) -> None:
        """Debug log; every message is stamped with its cycle (Sec. II-A)."""
        self.log.append((self.cycle, message))

    def run(self, budget: int) -> None:
        """Uninstrumented hot loop: step until halted or *budget* cycles.

        Equivalent to calling :meth:`step` in a loop; exists so that
        run-to-completion simulations (no observers, no snapshots) avoid
        per-cycle bookkeeping in callers.  When the trace tier is enabled
        (``CpuConfig.trace``) the loop runs through the configuration-
        specialized step function instead — bit-exact, pinned by the
        golden determinism suite.  A commit hook (the debugger's probe)
        forces the interpreter path."""
        if self._trace_wanted is not False and self.commit_hook is None:
            loop = self._step_loop
            if loop is None:
                if self.config.trace:
                    loop = self._step_loop = compile_step(self)
                    self._trace_wanted = True
                else:
                    self._trace_wanted = False
            if loop is not None:
                loop(self, budget)
                return
        step = self.step
        while self.halted is None and self.cycle < budget:
            step()

    def _flush_after_mispredict(self, branch: SimCode) -> None:
        """Commit-time branch recovery: flush everything younger."""
        branch.mispredicted = True
        self.rob_flushes += 1
        target = branch.actual_target if branch.actual_taken else branch.pc + 4
        self.log_msg(
            f"mispredicted {branch.mnemonic} at pc={branch.pc:#x}: "
            f"flush, redirect to {target:#x}")
        self._squash_pipeline()
        self.pc = target if target is not None else branch.pc + 4
        self.fetch_past_end = False
        self.fetch_stall_until = self.cycle + self.config.buffers.flush_penalty

    def _squash_pipeline(self) -> None:
        for simcode in list(self.fetch_buffer) + list(self.rob):
            simcode.squashed = True
            simcode.sver += 1
        for window in self.windows.values():
            window.clear()
        self.fetch_buffer.clear()
        self.rob.clear()
        for fu in self.fus + self.memory_units:
            fu.squash()
        self.load_queue.clear()
        self.load_buffer.clear()
        self.store_buffer = [e for e in self.store_buffer if e.committed]
        self._store_by_id = {e.simcode.id: e for e in self.store_buffer}
        self._tag_waiters.clear()
        self.rename.flush()
        self.predictor.on_flush()
        self._mark_all_sections_dirty()

    def _mark_all_sections_dirty(self) -> None:
        """Bump every pipeline section counter (mass-mutation events:
        pipeline squash, checkpoint restore)."""
        self.v_front += 1
        self.v_rob += 1
        self.v_windows += 1
        self.v_fus += 1
        self.v_mem_units += 1
        self.v_loadq += 1
        self.v_storeb += 1

    def _try_load(self, load: SimCode) -> Tuple[str, object, int]:
        """Resolve a load against older stores; returns (status, value, delay).

        status is 'wait' when an older store's address is unknown or
        partially overlaps, 'forward' on a store-buffer hit, 'memory' when
        the access goes to the cache / main memory.
        """
        dop = load.dop
        addr = load.address
        size = dop.memory_size
        load_id = load.id
        forward_src: Optional[StoreBufferEntry] = None
        lo, hi = addr, addr + size
        # the store buffer is id-ordered (appended at dispatch, committed
        # prefix survives squashes), so stop at the first younger store
        for entry in self.store_buffer:
            if entry.simcode.id >= load_id:
                break
            if entry.committed and entry.drain_until >= 0:
                continue  # already written to memory
            if entry.address is None:
                return "wait", None, 0
            e_lo, e_hi = entry.address, entry.address + len(entry.data or b"")
            if e_hi <= lo or hi <= e_lo:
                continue  # disjoint
            if e_lo <= lo and hi <= e_hi and entry.data is not None:
                forward_src = entry  # youngest covering store wins
            else:
                return "wait", None, 0  # partial overlap: wait for drain
        if forward_src is not None:
            off = addr - forward_src.address
            raw = forward_src.data[off:off + size]
            value = self._decode_load_value(load, raw)
            return "forward", value, 1
        try:
            value, delay, tx = self.memmodel.load(
                addr, size, dop.memory_signed, dop.load_is_float,
                self.cycle, load_id)
            load.transaction = tx
        except MemoryAccessError as exc:
            load.exception = exc
            return "memory", 0, 1
        return "memory", value, delay

    @staticmethod
    def _decode_load_value(load: SimCode, raw: bytes):
        dop = load.dop
        if dop.load_is_float:
            return struct.unpack("<f", raw)[0] if len(raw) == 4 \
                else struct.unpack("<d", raw)[0]
        return int.from_bytes(raw, "little", signed=dop.memory_signed)

    def _drain_store(self, entry: StoreBufferEntry) -> None:
        """Perform the architectural store at commit; model drain timing."""
        simcode = entry.simcode
        try:
            delay, tx = self.memmodel.store(
                entry.address, entry.data, self.cycle, simcode.id)
            simcode.transaction = tx
            simcode.mem_delay = delay
        except MemoryAccessError as exc:
            # surfaced at commit (we are at commit): record + optional halt
            simcode.exception = exc
            delay = 1
            if self.config.halt_on_exception:
                self.committed_exception = exc
                self.halted = f"exception: {exc}"
        entry.committed = True
        entry.drain_until = self.cycle + max(1, delay)
        simcode.sver += 1
        self.v_storeb += 1

    def _evaluate(self, simcode: SimCode) -> None:
        dop = simcode.dop
        values = simcode.op_values
        expr = dop.expr
        if expr is not None:
            # fused fast path: no EvalContext (and no operand-dict copy)
            # is allocated per executed instruction (see Expression)
            result, assignments, exception = expr.eval_fast(values, simcode.pc)
            if exception is not None:
                simcode.exception = exception
        else:
            result = None
            assignments = []
        simcode.assignments = assignments

        if dop.fu_kind == "LS":
            simcode.address = int(result) & 0xFFFFFFFF if result is not None else 0
            if dop.is_store:
                simcode.store_data = dop.store_encode(
                    values[dop.store_value_name])
            return

        if dop.is_branch:
            target = dop.static_target
            if target is None:  # jalr-style: depends on a source register
                target = int(dop.target_expr.eval_fast(
                    values, simcode.pc)[0]) & 0xFFFFFFFF
            if dop.is_unconditional:
                simcode.actual_taken = True
            else:
                simcode.actual_taken = bool(result)
            simcode.actual_target = target if simcode.actual_taken else None
            # jal/jalr write the link register via the '=' side effect
            if simcode.dest_arch is not None and assignments:
                simcode.result = assignments[-1][1]
            return

        # FX / FP result: the value assigned to the destination argument
        dest_name = dop.dest_name
        if dest_name is not None:
            for name, value in reversed(assignments):
                if name == dest_name:
                    simcode.result = value
                    break
            else:
                simcode.result = result
        else:
            simcode.result = result

    def _decode_redirect(self, simcode: SimCode) -> bool:
        """Early (decode-time) redirect for statically-computable targets."""
        dop = simcode.dop
        computed = dop.static_target
        if computed is None:
            return False  # jalr-style: target known only at execute
        should_take = dop.is_unconditional or simcode.predicted_taken
        if not should_take:
            return False
        if simcode.predicted_taken and simcode.predicted_target == computed:
            return False  # fetch already went the right way
        # redirect: squash everything younger still in the fetch buffer
        for younger in self.fetch_buffer:
            younger.squashed = True
            younger.sver += 1
        self.fetch_buffer.clear()
        self.v_front += 1
        self.v_rob += 1
        simcode.sver += 1
        simcode.predicted_taken = True
        simcode.predicted_target = computed
        self.pc = computed
        self.fetch_past_end = False
        self.fetch_stall_until = max(self.fetch_stall_until, self.cycle + 1)
        self.decode_redirects += 1
        self.log_msg(
            f"decode redirect for {dop.mnemonic} at pc={simcode.pc:#x} "
            f"-> {computed:#x}")
        return True

    # ==================================================================
    # GUI snapshots (incremental: cached per section, patched when dirty)
    # ==================================================================
    def _snap_fetch(self) -> dict:
        return {
            "pc": self.pc,
            "stalledUntil": self.fetch_stall_until,
            "buffer": [s.to_json() for s in self.fetch_buffer],
        }

    def _snap_rob(self) -> list:
        return [s.to_json() for s in self.rob]

    def _snap_windows(self) -> dict:
        return {name: [s.to_json() for s in window]
                for name, window in self.windows.items()}

    def _snap_fus(self) -> list:
        return [fu.snapshot() for fu in self.fus]

    def _snap_mem_units(self) -> list:
        return [fu.snapshot() for fu in self.memory_units]

    def _snap_loadq(self) -> list:
        return [s.to_json() for s in self.load_queue]

    def _snap_storeb(self) -> list:
        return [self.storeb_entry(e) for e in self.store_buffer]

    @staticmethod
    def storeb_entry(entry) -> dict:
        """Payload of one store-buffer entry: its drain state, not
        instruction JSON (the ``id`` resolves entry-level deltas)."""
        return {"id": entry.simcode.id,
                "instruction": entry.simcode.instruction.render(),
                "address": entry.address, "committed": entry.committed,
                "drainUntil": entry.drain_until}

    def _snap_cache_lines(self):
        return self.cache.lines_snapshot() if self.cache else None

    def _snap_l2_lines(self):
        return self.l2_cache.lines_snapshot() if self.l2_cache else None

    #: section -> payload builder, a plain function called with the Cpu:
    #: bound methods kept on the instance would make every Cpu a reference
    #: cycle, alive (memory pages, program image and all) until a full
    #: garbage collection
    _SECTION_BUILDERS = {
        "fetch": _snap_fetch, "rob": _snap_rob, "issueWindows": _snap_windows,
        "functionalUnits": _snap_fus, "memoryUnits": _snap_mem_units,
        "loadQueue": _snap_loadq, "storeBuffer": _snap_storeb,
        "registers": lambda cpu: cpu.arch_regs.snapshot(),
        "rename": lambda cpu: cpu.rename.snapshot(),
        "cache": _snap_cache_lines, "l2Cache": _snap_l2_lines,
    }

    def section_versions(self) -> Dict[str, object]:
        """Current dirty-version token of every snapshot section.

        Tokens are equality-comparable and move whenever the section's
        payload could have changed; they never repeat with different
        content (restores bump instead of rewinding)."""
        return {
            "fetch": (self.v_front, self.pc, self.fetch_stall_until),
            "rob": self.v_rob,
            "issueWindows": self.v_windows,
            "functionalUnits": self.v_fus,
            "memoryUnits": self.v_mem_units,
            "loadQueue": self.v_loadq,
            "storeBuffer": self.v_storeb,
            "registers": self.arch_regs.version,
            "rename": self.rename.version,
            "cache": self.cache.version if self.cache else None,
            "l2Cache": self.l2_cache.version if self.l2_cache else None,
        }

    def snapshot(self) -> dict:
        """Complete processor-view payload (Fig. 12) as a dict: the
        library form of the :meth:`section_json` texts the server sends.

        Sections are cached keyed by their dirty version (see
        :mod:`repro.sim.state`): a stalled machine rebuilds almost nothing,
        an active one rebuilds only the blocks that moved."""
        versions = self.section_versions()
        section = self._snap_cache.section
        builders = self._SECTION_BUILDERS
        data = {"cycle": self.cycle, "pc": self.pc, "halted": self.halted}
        for name in SNAPSHOT_SECTIONS:
            data[name] = section(name, versions[name],
                                 partial(builders[name], self))
        return data

    # -- serialized fragments (repro.sim.state.RawJson) ------------------
    @staticmethod
    def _json_list(simcodes) -> str:
        """Spliced per-instruction fragments, with ``json.dumps``'s own
        separators so the text is the bytes of the dict payload."""
        return "[" + ", ".join([s.to_json_str() for s in simcodes]) + "]"

    def _json_fetch(self) -> str:
        return (f'{{"pc": {self.pc}, '
                f'"stalledUntil": {self.fetch_stall_until}, '
                f'"buffer": {self._json_list(self.fetch_buffer)}}}')

    def _json_rob(self) -> str:
        return self._json_list(self.rob)

    def _json_windows(self) -> str:
        return "{" + ", ".join(
            f"{json.dumps(name)}: {self._json_list(window)}"
            for name, window in self.windows.items()) + "}"

    def _json_loadq(self) -> str:
        return self._json_list(self.load_queue)

    #: sections serialized by splicing per-instruction fragments (plain
    #: functions, as in _SECTION_BUILDERS)
    _JSON_BUILDERS = {"fetch": _json_fetch, "rob": _json_rob,
                      "issueWindows": _json_windows, "loadQueue": _json_loadq}

    def section_json(self, name: str,
                     version: Optional[object] = None) -> str:
        """Serialized payload of one snapshot section, cached per version.

        Instruction-list sections (fetch, ROB, windows, load queue) are
        assembled from per-instruction cached fragments, so re-serving a
        mostly-quiet machine re-encodes only the instructions that moved;
        the remaining sections serialize their (version-cached) payload in
        one C-encoder call per content change."""
        if version is None:
            version = self.section_versions()[name]
        fragment = self._JSON_BUILDERS.get(name)
        if fragment is not None:
            return self._snap_cache.section(name + "#json", version,
                                            partial(fragment, self))
        payload = self._snap_cache.section(
            name, version, partial(self._SECTION_BUILDERS[name], self))
        return self._snap_cache.section(name + "#json", version,
                                        lambda: json.dumps(payload))

    # ==================================================================
    # state-engine protocol (repro.sim.state): checkpoint save / restore
    # ==================================================================
    def _checkpoint_memo(self) -> Dict[int, object]:
        """Fresh deepcopy memo pre-seeded with the static objects every
        in-flight instruction references (program, config, decode cache),
        so checkpoints copy per-instance state only and keep the immutable
        skeleton shared."""
        memo = self._static_memo
        if memo is None:
            memo = {id(self.program): self.program,
                    id(self.config): self.config}
            for dop in self.decoded:
                memo[id(dop)] = dop
                memo[id(dop.instruction)] = dop.instruction
            self._static_memo = memo
        return dict(memo)

    def save_counters(self) -> dict:
        """Statistics-facing counters (see RuntimeStatistics.save_state)."""
        return {
            "committed": self.committed,
            "byType": dict(self.committed_by_type),
            "byMnemonic": dict(self.committed_by_mnemonic),
            "flops": self.flops,
            "robFlushes": self.rob_flushes,
            "decodeRedirects": self.decode_redirects,
            "fetchStallCycles": self.fetch_stall_cycles,
            "dispatchStalls": dict(self.dispatch_stalls),
        }

    def restore_counters(self, counters: dict) -> None:
        self.committed = counters["committed"]
        self.committed_by_type = dict(counters["byType"])
        self.committed_by_mnemonic = dict(counters["byMnemonic"])
        self.flops = counters["flops"]
        self.rob_flushes = counters["robFlushes"]
        self.decode_redirects = counters["decodeRedirects"]
        self.fetch_stall_cycles = counters["fetchStallCycles"]
        self.dispatch_stalls = dict(counters["dispatchStalls"])

    def save_state(self) -> dict:
        """Complete, self-contained processor state at the current cycle.

        The in-flight instruction graph (fetch buffer, ROB, windows, queues,
        functional units, tag waiters — all sharing SimCode objects) is
        deep-copied in one pass so cross-references stay consistent; the
        substrates (registers, rename, memory, caches, predictor) save
        through their own state-engine protocol."""
        graph = {
            "fetch_buffer": list(self.fetch_buffer),
            "rob": list(self.rob),
            "windows": {name: list(w) for name, w in self.windows.items()},
            "load_queue": list(self.load_queue),
            "load_buffer": list(self.load_buffer),
            "store_buffer": list(self.store_buffer),
            "tag_waiters": {tag: list(w)
                            for tag, w in self._tag_waiters.items()},
            "fus": [(fu.simcode, fu.busy_until, fu.busy_cycles,
                     list(fu.inflight), fu.last_issue_cycle)
                    for fu in self._all_fus],
            "exception": self.committed_exception,
        }
        return {
            "graph": copy.deepcopy(graph, self._checkpoint_memo()),
            "regs": self.arch_regs.save_state(),
            "rename": self.rename.save_state(),
            "memory": self.memory.save_state(),
            "cache": self.cache.save_state() if self.cache else None,
            "l2Cache": (self.l2_cache.save_state()
                        if self.l2_cache else None),
            "predictor": self.predictor.save_state(),
            "scalars": (self.cycle, self.pc, self.next_id, self.halted,
                        self.fetch_stall_until, self.fetch_past_end),
            "log": list(self.log),
            "counters": self.save_counters(),
        }

    def restore_state(self, state: dict) -> None:
        """Reinstall a :meth:`save_state` snapshot in place (bit-exact).

        Object identity of the CPU and its substrates is preserved, so
        observers, debugger hooks and cross-component references survive.
        The stored state is deep-copied on the way in — a checkpoint can be
        restored any number of times."""
        graph = copy.deepcopy(state["graph"], self._checkpoint_memo())
        self.fetch_buffer.clear()
        self.fetch_buffer.extend(graph["fetch_buffer"])
        self.rob.clear()
        self.rob.extend(graph["rob"])
        for name, window in self.windows.items():
            window[:] = graph["windows"][name]
        self.load_queue[:] = graph["load_queue"]
        self.load_buffer[:] = graph["load_buffer"]
        self.store_buffer = list(graph["store_buffer"])
        self._store_by_id = {e.simcode.id: e for e in self.store_buffer}
        self._tag_waiters = {tag: list(w)
                             for tag, w in graph["tag_waiters"].items()}
        for fu, (simcode, busy_until, busy_cycles, inflight, last_issue) \
                in zip(self._all_fus, graph["fus"]):
            fu.simcode = simcode
            fu.busy_until = busy_until
            fu.busy_cycles = busy_cycles
            fu.inflight = list(inflight)
            fu.last_issue_cycle = last_issue
        self.committed_exception = graph["exception"]
        self.arch_regs.restore_state(state["regs"])
        self.rename.restore_state(state["rename"])
        self.memory.restore_state(state["memory"])
        if self.cache is not None:
            self.cache.restore_state(state["cache"])
        if self.l2_cache is not None:
            self.l2_cache.restore_state(state["l2Cache"])
        self.predictor.restore_state(state["predictor"])
        (self.cycle, self.pc, self.next_id, self.halted,
         self.fetch_stall_until, self.fetch_past_end) = state["scalars"]
        self.log = list(state["log"])
        self.restore_counters(state["counters"])
        # versions are monotonic, never restored: bump everything so every
        # cached payload (here and in delta-serving sessions) goes stale
        self._mark_all_sections_dirty()


# The clock cycle (``step`` and its stage methods) is generated from the
# stage emitters, the one definition of every pipeline stage.
from repro.core.tracegen import compile_step, install_interpreter  # noqa: E402

install_interpreter(Cpu)
