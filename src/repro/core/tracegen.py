"""Pipeline stages, defined once and emitted as two programs.

Every rule of a clock cycle lives here once, as an *emitter* that writes
the Python source of one stage (commit, memory, execute, issue,
dispatch, fetch, busy accounting, end detection).  Run against an
:class:`_Emit`, the same emitter lines produce both programs:

* **The interpreter** (``build_interpreter_source``): ``Cpu.step`` and its
  stage methods ``_commit`` … ``_fetch``.  Unspecialized: they read the
  configuration from ``cpu``, loop over the units, branch at run time on
  unit kind and ``pipelined``, run the debugger's commit hook and call
  the predictor's and rename file's own methods.  Built once per process
  and installed on :class:`repro.core.pipeline.Cpu` when that module
  loads; stepped simulation runs it and ``PipelineProfiler`` wraps it.
* **The step loop** (``build_step_source``, the trace tier): one function
  per configuration for ``Cpu.run``'s uninstrumented runs, with every
  stage inlined into one loop body, constants folded into literals and
  per-unit code unrolled.  Its only lines of its own are
  specializations the parity properties in
  ``tests/integration/test_differential.py`` check: inlined
  ``BranchPredictor.predict_indexed``/``train`` and
  ``RenameFile.write``/``commit``, version bumps and commit statistics
  batched until the run exits, and a flag cascade for windows whose
  units share one spec.  Compiled loops live in a bounded LRU cache keyed
  by the configuration signature; ``CpuConfig.trace = False`` disables
  the tier.

Rare control transfers (mispredict flush, store drain, load resolution,
decode redirect, operand evaluation) are ``Cpu`` methods both programs
call.  The step loop specializes on the configuration only, never on the
program: fetch reads the static decode cache (the machine is
Harvard-style), so nothing compiled can go stale.

Identity-stability rules for what generated code may hoist into locals:

* Stable for the lifetime of a ``Cpu`` (restore mutates them in place):
  ``fetch_buffer``, ``rob``, window lists, ``load_queue``,
  ``load_buffer``, ``rename``/``rename.entries``, ``arch_regs``,
  ``predictor``, FU runtime objects, ``windows`` dict, ``decoded``.
* Rebound during a run (attribute access required everywhere):
  ``cpu.store_buffer``, ``cpu._store_by_id`` (rebuilt by squash/drain),
  ``rename._free`` (rebuilt by flush), ``predictor._spec_local``
  (rebound by ``on_flush``).
* Rebound by ``restore_state`` between runs (hoisted once per call):
  ``cpu._tag_waiters``, ``rename.rat``, ``cpu.log``,
  ``cpu.dispatch_stalls``, ``committed_by_type`` /
  ``committed_by_mnemonic``, the predictor's PHT and BTB arrays.

Determinism: loops are cached by a JSON signature of what they fold in
(never by object identity), generated code iterates no sets, reads no
clocks, and touches no environment.
"""

from __future__ import annotations

import json
import linecache
import re
import threading
from bisect import insort
from collections import OrderedDict
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple

from repro.core.simcode import SimCode
from repro.errors import SimulationException
from repro.isa.bits import float32_round
from repro.predictor.bits import make_bit_predictor

#: compiled step loops by configuration signature, least recently used
#: first.  Clients choose configurations, so the cache is bounded;
#: recompiling an evicted loop costs a few milliseconds.
_STEP_CACHE: "OrderedDict[str, Callable]" = OrderedDict()
_STEP_CACHE_SIZE = 64
_STEP_CACHE_LOCK = threading.Lock()

#: canonical register name -> file index, pre-resolved so the generated
#: commit path never re-parses the index from the name string
_REG_INT: Dict[str, int] = {f"x{i}": i for i in range(32)}
_FP_IDX: Dict[str, int] = {f"f{i}": i for i in range(32)}

#: configuration scalars ``Cpu`` hoists at construction; the step loop
#: folds them into literals, so they are all part of its cache key
_SCALARS = ("_fetch_width", "_fetch_capacity", "_fetch_branch_limit",
            "_commit_width", "_rob_size", "_issue_window_size",
            "_load_buffer_size", "_store_buffer_size", "_max_cycles")


# ----------------------------------------------------------------------
# what an emitter knows at generation time
# ----------------------------------------------------------------------
class _Emit:
    """The configuration as an emitter sees it: with a ``cpu`` (the step
    loop) values are literals and per-unit code is unrolled; without one
    (the interpreter) the same lines read them at run time and loop."""

    def __init__(self, cpu=None):
        self.cpu = cpu
        self.folded = cpu is not None

    def const(self, attr: str) -> str:
        """A configuration scalar (one of :data:`_SCALARS`)."""
        assert attr in _SCALARS, attr
        return str(getattr(self.cpu, attr)) if self.folded else f"cpu.{attr}"

    def flag(self, attr: str):
        """A ``CpuConfig`` switch: a bool now, or the run-time test."""
        return (getattr(self.cpu.config, attr) if self.folded
                else f"cpu.config.{attr}")

    def units(self, group: str, var: str, body) -> List[str]:
        """``body(unit)`` for every unit of ``cpu.<group>``: unrolled as
        ``<var>0``, ``<var>1``… when folded, a ``for`` loop otherwise."""
        if not self.folded:
            return [f"for {var} in cpu.{group}:", *_indent(body(_Unit(var)))]
        lines: List[str] = []
        for i, unit in enumerate(getattr(self.cpu, group)):
            lines += body(_Unit(f"{var}{i}", [unit]))
        return lines

    def all_units(self, group: str, var: str, pred) -> str:
        """Expression: ``pred(unit)`` holds for every unit of the group."""
        if not self.folded:
            return f"all({pred(_Unit(var))} for {var} in cpu.{group})"
        return " and ".join(pred(_Unit(f"{var}{i}", [unit]))
                            for i, unit in enumerate(getattr(self.cpu,
                                                             group)))


class _Unit:
    """A functional-unit variable of emitted code.  *units* are the
    runtimes it can name in the step loop: a property they all share
    folds to a constant; the rest (all, in the interpreter) is read at
    run time."""

    def __init__(self, var: str, units=None):
        self.var = var
        self.units = units

    def _fold(self, get, expr: str):
        if self.units:
            values = [get(unit) for unit in self.units]
            if all(value == values[0] for value in values):
                return values[0]
        return expr.format(u=self.var)

    @property
    def pipelined(self):
        return self._fold(lambda unit: unit.pipelined, "{u}.pipelined")

    @property
    def is_ls(self):
        return self._fold(lambda unit: unit.kind == "LS", "{u}.kind == 'LS'")

    @property
    def load_extra(self):
        """Memory-unit latency beyond the access itself."""
        return self._fold(lambda unit: unit.flat_latency - 1,
                          "{u}.flat_latency - 1")


def _indent(lines: List[str], levels: int = 1) -> List[str]:
    pad = "    " * levels
    return [pad + line for line in lines]


def _if(cond, then: List[str], orelse: List[str] = ()) -> List[str]:
    """``if cond:`` over two blocks; a constant *cond* keeps one block."""
    if cond is True or cond is False:
        return list(then if cond else orelse)
    lines = [f"if {cond}:", *_indent(then)]
    if orelse:
        lines += ["else:", *_indent(orelse)]
    return lines


def _pick(cond, then: str, orelse: str) -> str:
    """Expression counterpart of :func:`_if`."""
    if cond is True or cond is False:
        return then if cond else orelse
    return f"({then} if {cond} else {orelse})"


def _busy(u: _Unit) -> str:
    """Unit *u* holds an instruction (a pipelined one: any in flight)."""
    return _pick(u.pipelined, f"{u.var}.inflight",
                 f"{u.var}.simcode is not None")


def _idle(u: _Unit) -> str:
    return _pick(u.pipelined, f"not {u.var}.inflight",
                 f"{u.var}.simcode is None")


def _accepts(u: _Unit) -> str:
    """Unit *u* takes an instruction this cycle: idle, or pipelined and
    not yet issued to this cycle (initiation interval 1)."""
    return _pick(u.pipelined, f"{u.var}.last_issue_cycle != cycle",
                 f"{u.var}.simcode is None")


# ----------------------------------------------------------------------
# specializations: the step loop inlines what the interpreter calls
# ----------------------------------------------------------------------
def _predict_lines(config) -> List[str]:
    """Inline ``BranchPredictor.predict_indexed`` for fetch (``pc``/``dop``
    name the branch); sets ``taken``/``target``/``pht_index``.  The PHT
    and BTB arrays are hoisted; ``predictor._spec_local`` is not (it is
    rebound mid-run by ``on_flush``)."""
    p = config.predictor
    hmask = (1 << p.history_bits) - 1
    direction = ("entry.state >= 2"
                 if p.predictor_type.lower() in ("two", "2bit")
                 else "entry.state == 1")
    lines = [
        "btb.lookups += 1",
        f"bi = (pc >> 2) % {p.btb_size}",
        "if btb._tags[bi] == pc:",
        "    btb.hits += 1",
        "    target = btb._targets[bi]",
        "else:",
        "    target = None",
    ]
    if p.use_global_history:
        lines.append("h = predictor._spec_global")
    else:
        lines += ["sl = predictor._spec_local", "h = sl.get(pc, 0)"]
    lines += [
        f"pht_index = ((pc >> 2) ^ h) % {p.pht_size}",
        "if dop.is_unconditional:",
        "    taken = True",
        "    pbit = 1",
        "else:",
        "    entry = pht[pht_index]",
        "    if entry is None:",
        f"        entry = PredCls({p.default_state})",
        "        pht[pht_index] = entry",
        f"    taken = {direction}",
        "    pbit = 1 if taken else 0",
    ]
    if p.use_global_history:
        lines.append(f"predictor._spec_global = ((h << 1) | pbit) & {hmask}")
    else:
        lines.append(f"sl[pc] = ((h << 1) | pbit) & {hmask}")
    return lines


def _train_lines(config) -> List[str]:
    """Inline ``BranchPredictor.train`` for the commit path (``head`` is
    the resolving branch); leaves ``correct`` set."""
    p = config.predictor
    hmask = (1 << p.history_bits) - 1
    ptype = p.predictor_type.lower()
    lines = [
        "predictor.predictions += 1",
        "takenb = True if head.actual_taken else False",
        "tkn = 1 if takenb else 0",
        "pidx = head.pht_index",
        "if pidx is None:",
    ]
    if p.use_global_history:
        lines.append("    pidx = ((head.pc >> 2)"
                     f" ^ predictor._commit_global) % {p.pht_size}")
    else:
        lines.append("    pidx = ((head.pc >> 2)"
                     f" ^ commit_local.get(head.pc, 0)) % {p.pht_size}")
    update = []
    if ptype in ("one", "1bit"):
        update = ["    entry.state = tkn"]
    elif ptype in ("two", "2bit"):
        update = [
            "    if tkn:",
            "        s = entry.state + 1",
            "        entry.state = 3 if s > 3 else s",
            "    else:",
            "        s = entry.state - 1",
            "        entry.state = 0 if s < 0 else s",
        ]
    # zero-bit: static counters never learn, but the entry is still
    # allocated on first touch (state save/restore pins the sparse set)
    lines += [
        "if not dop.is_unconditional:",
        "    entry = pht[pidx]",
        "    if entry is None:",
        f"        entry = PredCls({p.default_state})",
        "        pht[pidx] = entry",
        *update,
    ]
    if p.use_global_history:
        lines.append("predictor._commit_global = "
                     f"((predictor._commit_global << 1) | tkn) & {hmask}")
    else:
        lines += [
            "old = commit_local.get(head.pc, 0)",
            f"commit_local[head.pc] = ((old << 1) | tkn) & {hmask}",
        ]
    lines += [
        "tgt = head.actual_target or 0",
        "if takenb:",
        f"    bi = (head.pc >> 2) % {p.btb_size}",
        "    btb._tags[bi] = head.pc",
        "    btb._targets[bi] = tgt",
        "correct = (head.predicted_taken == takenb) and ("
        "not takenb or head.predicted_target == tgt)",
    ]
    return lines


def _rename_write(em: _Emit, value: str) -> List[str]:
    """``rename.write(tag, value)``."""
    if not em.folded:
        return [f"rename.write(tag, {value})"]
    return ["e = entries[tag]", f"e.value = {value}", "e.valid = True",
            "rename.version += 1"]


def _rename_commit(em: _Emit) -> List[str]:
    """``rename.commit(tag)``.  Inlined with ``RegisterFile.write``, the
    register index comes pre-resolved (reg_int/fp_idx); x0 writes store
    nothing and bump no version, like the method's early return."""
    if not em.folded:
        return ["rename.commit(tag)"]
    return [
        "e = entries[tag]",
        "arch = e.arch",
        "if arch is not None:",
        "    ii = int_index(arch)",
        "    if ii is None:",
        "        arch_fp[fp_idx[arch]] = f32r(float(e.value))",
        "        arch_regs.version += 1",
        "    elif ii:",
        "        v = int(e.value) & 0xFFFFFFFF",
        "        arch_int[ii] = (v - 0x100000000",
        "                        if v >= 0x80000000 else v)",
        "        arch_regs.version += 1",
        "    if rat.get(arch) == tag:",
        "        del rat[arch]",
        "e.busy = False",
        "e.valid = False",
        "e.arch = None",
        "fr = rename._free",
        "if tag not in fr:",
        "    fr.append(tag)",
        "nt += 1",
    ]


def _count_commit(em: _Emit) -> List[str]:
    """Commit statistics and the debugger's per-commit probe.  The step
    loop runs without a hook and counts commits per ``dop.index``; its
    run-exit flush expands them (see build_step_source)."""
    if em.folded:
        return ["di = dop.index", "c = commit_counts[di]",
                "commit_counts[di] = c + 1", "if not c:",
                "    commit_order.append(di)"]
    return [
        "cpu.committed += 1",
        "if cpu.commit_hook is not None:",
        "    cpu.commit_hook(head)",
        "t = dop.type_key",
        "by_type[t] = by_type.get(t, 0) + 1",
        "m = dop.mnemonic",
        "by_mnemonic[m] = by_mnemonic.get(m, 0) + 1",
        "if dop.flops:",
        "    cpu.flops += dop.flops",
    ]


def _resolve_branch(em: _Emit) -> List[str]:
    """Train the predictor on a committing branch; a misprediction
    flushes everything younger and ends the commit stage (recovery at
    commit, Sec. III-B)."""
    recover = ["cpu._flush_after_mispredict(head)", "break"]
    if em.folded:
        return [*_train_lines(em.cpu.config), "if correct:",
                "    predictor.correct += 1", "else:",
                "    predictor.mispredictions += 1", *_indent(recover)]
    return [
        "correct = predictor.train(",
        "    head.pc, bool(head.actual_taken), head.actual_target or 0,",
        "    head.predicted_taken, head.predicted_target,",
        "    pht_index=head.pht_index, unconditional=dop.is_unconditional)",
        "if not correct:",
        *_indent(recover),
    ]


# ----------------------------------------------------------------------
# the stages, in the order one clock cycle runs them
# ----------------------------------------------------------------------
def _emit_commit(em: _Emit) -> List[str]:
    """Retire up to commit-width written-back instructions, in order.
    Exceptions surface here; stores drain to memory; a halt instruction
    or a mispredicted branch ends the stage."""
    return [
        # version counters are change-detectors (monotonic, never
        # restored): batch the per-commit bumps into one write per stage
        "nc = 0",
        *(["nt = 0"] if em.folded else []),
        f"for _ in range({em.const('_commit_width')}):",
        "    if not rob:",
        "        break",
        "    head = rob[0]",
        "    ts = head.timestamps",
        "    if 'writeback' not in ts:",
        "        break",
        "    rob.popleft()",
        "    nc += 1",
        "    ts['commit'] = cycle",
        "    head.sver += 1",
        "    dop = head.dop",
        *_indent(_count_commit(em)),
        "    if head.exception is not None:",
        "        log.append((cycle, f'exception at pc={head.pc:#x}'"
        " f' ({head.mnemonic}): {head.exception}'))",
        *_indent(_if(em.flag("halt_on_exception"), [
            "cpu.committed_exception = head.exception",
            "cpu.halted = f'exception: {head.exception}'",
            "break",
        ]), 2),
        "    if dop.is_store:",
        "        entry = cpu._store_by_id.get(head.id)",
        "        if entry is not None:",
        "            cpu._drain_store(entry)",
        "        if cpu.halted is not None:",
        "            break",
        "    if dop.is_load:",
        "        if load_buffer and load_buffer[0] is head:",
        "            load_buffer.pop(0)",
        "        else:",
        "            try:",
        "                load_buffer.remove(head)",
        "            except ValueError:",
        "                pass",
        "    tag = head.dest_tag",
        "    if tag is not None:",
        *_indent(_rename_commit(em), 2),
        "    if dop.is_halt:",
        "        cpu.halted = (\"halt instruction '\" + dop.mnemonic"
        " + \"' committed\")",
        "        log.append((cycle, cpu.halted))",
        "        break",
        "    if dop.is_branch:",
        *_indent(_resolve_branch(em), 2),
        "if nc:",
        "    cpu.v_rob += nc",
        *(["if nt:", "    rename.version += nt"] if em.folded else []),
    ]


def _writeback(em: _Emit, sc: str) -> List[str]:
    """Write *sc*'s register result and wake the window entries waiting
    on it: the issue-window wake-up of Sec. III-A, made event-driven (a
    value is captured the moment it is produced)."""
    value = f"{sc}.result"
    return [
        f"tag = {sc}.dest_tag",
        "if tag is not None:",
        *_indent(_rename_write(em, value)),
        "    waiters = tag_waiters.pop(tag, None)",
        "    if waiters:",
        "        cpu.v_rob += 1",
        "        cpu.v_windows += 1",
        "        for wsc, wname in waiters:",
        f"            wsc.operands[wname] = ('val', {value})",
        f"            wsc.op_values[wname] = {value}",
        "            wsc.pending_tags.pop(wname, None)",
        "            wsc.sver += 1",
        f"{sc}.timestamps['writeback'] = cycle",
    ]


def _emit_memory(em: _Emit) -> List[str]:
    """Memory units: release drained stores, write back finished loads,
    then start the load at the head of the queue on each free unit (it
    waits while an older store's address is unknown or overlaps it)."""
    def finish(m: _Unit) -> List[str]:
        return [
            f"if {m.var}.simcode is not None and cycle >= {m.var}.busy_until:",
            f"    load = {m.var}.simcode",
            f"    {m.var}.simcode = None",
            "    cpu.v_mem_units += 1",
            *_indent(_writeback(em, "load")),
            "    load.sver += 1",
            "    cpu.v_rob += 1",
        ]

    def start(m: _Unit) -> List[str]:
        return [
            f"if load_queue and {m.var}.simcode is None:",
            "    load = load_queue[0]",
            "    status, value, delay = try_load(load)",
            "    if status != 'wait':",
            "        load_queue.pop(0)",
            "        cpu.v_loadq += 1",
            f"        {m.var}.simcode = load",
            f"        d = delay + {m.load_extra}",
            f"        {m.var}.busy_until = cycle + (d if d > 1 else 1)",
            "        cpu.v_mem_units += 1",
            "        load.mem_delay = delay",
            "        load.result = value",
            "        load.sver += 1",
            "        cpu.v_rob += 1",
        ]

    return [
        "sb = cpu.store_buffer",
        "if sb:",
        "    drained = False",
        "    for e in sb:",
        "        if e.committed and 0 <= e.drain_until <= cycle:",
        "            drained = True",
        "            break",
        "    if drained:",
        "        kept = []",
        "        sbid = cpu._store_by_id",
        "        for e in sb:",
        "            if e.committed and 0 <= e.drain_until <= cycle:",
        "                sbid.pop(e.simcode.id, None)",
        "            else:",
        "                kept.append(e)",
        "        cpu.store_buffer = kept",
        "        cpu.v_storeb += 1",
        *em.units("memory_units", "m", finish),
        *em.units("memory_units", "m", start),
    ]


def _emit_execute(em: _Emit) -> List[str]:
    """Units finish instructions whose latency elapsed (sub-step 1 of
    Sec. III-A): a store publishes address and data to the store buffer,
    a load queues for a memory unit, everything else writes back."""
    def finish(u: _Unit) -> List[str]:
        done = [
            "cpu.v_fus += 1",
            "xs.timestamps['execute'] = cycle",
            "xs.sver += 1",
            "cpu.v_rob += 1",
            *_if(u.is_ls, [
                "if xs.dop.is_store:",
                "    entry = cpu._store_by_id.get(xs.id)",
                "    if entry is not None:",
                "        entry.address = xs.address",
                "        entry.data = xs.store_data",
                "    cpu.v_storeb += 1",
                "    xs.timestamps['writeback'] = cycle",
                "else:",
                "    insort(load_queue, xs, key=_skey)",
                "    cpu.v_loadq += 1",
            ], _writeback(em, "xs")),
        ]
        return _if(u.pipelined, [
            f"if {u.var}.inflight:",
            "    still = []",
            f"    for xs, fin in {u.var}.inflight:",
            "        if cycle >= fin:",
            *_indent(done, 3),
            "        else:",
            "            still.append((xs, fin))",
            f"    {u.var}.inflight = still",
        ], [
            f"if {u.var}.simcode is not None and cycle >= {u.var}.busy_until:",
            f"    xs = {u.var}.simcode",
            f"    {u.var}.simcode = None",
            *_indent(done),
        ])

    return em.units("fus", "u", finish)


class _Selection(NamedTuple):
    """How an issue window finds a unit for a ready instruction."""

    free: List[str]     # which units accept an instruction this cycle
    any_free: str       # some unit is free
    pick: List[str]     # bind `unit` for `sc`, or `continue`
    stamp: List[str]    # latency lookup and unit name before the stamp
    latency: str        # the instruction's latency on `unit`
    unit: _Unit         # the `unit` variable
    all_busy: str       # no unit is left this cycle
    batched: bool       # version bumps once per window (else per issue)


def _scan(units: str, unit: _Unit) -> _Selection:
    """Each ready instruction takes the first free unit (in configuration
    order) that supports its operation class."""
    return _Selection(
        free=[f"free = [u for u in {units} "
              f"if {_accepts(_Unit('u', unit.units))}]"],
        any_free="free",
        pick=[
            "op_class = sc.dop.op_class",
            "unit = None",
            "for fu in free:",
            "    ops = fu.ops_set",
            "    if ops is None or op_class in ops:",
            "        unit = fu",
            "        break",
            "if unit is None:",
            "    continue",
            "free.remove(unit)",
        ],
        stamp=[
            "lat = unit.flat_latency",
            "if lat is None:",
            "    lat = unit.ops_lat.get(op_class, 1)",
            "sc.fu_name = unit.name",
        ],
        latency="lat", unit=unit, all_busy="not free", batched=False)


def _cascade(kind: str, indices: List[int], units) -> _Selection:
    """:func:`_scan` folded for a window whose units share one spec:
    op set and latency fold per kind, and selection becomes an unrolled
    first-free flag cascade."""
    first = units[0]
    flags = [f"f{j}" for j in range(len(indices))]
    pick: List[str] = []
    if first.ops_set is not None:
        pick += ["op_class = sc.dop.op_class",
                 f"if op_class not in ops_{kind}:", "    continue"]
    for j, i in enumerate(indices):
        pick += [f"{'if' if j == 0 else 'elif'} f{j}:", f"    unit = u{i}",
                 f"    f{j} = False", f"    sc.fu_name = {units[j].name!r}"]
    return _Selection(
        free=[f"f{j} = {_accepts(_Unit(f'u{i}', [units[j]]))}"
              for j, i in enumerate(indices)],
        any_free=" or ".join(flags),
        pick=pick, stamp=[],
        latency=(str(first.flat_latency) if first.flat_latency is not None
                 else f"opslat_{kind}(op_class, 1)"),
        unit=_Unit("unit", units),
        all_busy=" and ".join(f"not {flag}" for flag in flags),
        batched=True)


def _issue_window(w: str, sel: _Selection) -> List[str]:
    """Issue from window *w*: its oldest ready instructions go to free
    units (windows are id-ordered, so list order is issue order), and
    each computes its result now, visible at finish time."""
    return [
        f"if {w}:",
        *_indent(sel.free),
        f"    if {sel.any_free}:",
        "        issued = None",
        f"        for sc in {w}:",
        "            if sc.pending_tags:",
        "                continue",
        *_indent(sel.pick, 3),
        "            if issued is None:",
        "                issued = [sc]",
        "            else:",
        "                issued.append(sc)",
        *_indent(sel.stamp, 3),
        "            sc.timestamps['issue'] = cycle",
        f"            finish = cycle + {sel.latency}",
        "            unit.last_issue_cycle = cycle",
        *_indent(_if(sel.unit.pipelined,
                     ["unit.inflight.append((sc, finish))"],
                     ["unit.simcode = sc", "unit.busy_until = finish"]), 3),
        *([] if sel.batched else
          ["            cpu.v_fus += 1", "            cpu.v_rob += 1"]),
        "            sc.finish_cycle = finish",
        "            sc.sver += 1",
        "            try:",
        "                evaluate(sc)",
        "            except SimulationException as exc:",
        "                sc.exception = exc",
        f"            if {sel.all_busy}:",
        "                break",
        "        if issued is not None:",
        *(["            n = len(issued)", "            cpu.v_fus += n",
           "            cpu.v_rob += n"] if sel.batched else []),
        "            cpu.v_windows += 1",
        "            for sc in issued:",
        f"                {w}.remove(sc)",
    ]


def _emit_issue(em: _Emit) -> List[str]:
    """Issue windows send ready instructions to free units (sub-step 2
    of Sec. III-A)."""
    if not em.folded:
        return ["for kind, window in cpu._window_items:",
                *_indent(_issue_window(
                    "window", _scan("cpu._fus_by_kind[kind]", _Unit("unit"))))]
    lines: List[str] = []
    for kind, indices in _unit_indices(em.cpu).items():
        units = [em.cpu.fus[i] for i in indices]
        if _uniform(units):
            sel = _cascade(kind, indices, units)
        else:
            names = ", ".join(f"u{i}" for i in indices)
            sel = _scan(f"({names},)" if len(indices) == 1 else f"({names})",
                        _Unit("unit", units))
        lines += _issue_window(f"w_{kind}", sel)
    return lines


def _unit_indices(cpu) -> Dict[str, List[int]]:
    """Window kind -> indices of its units in ``cpu.fus``; kinds without
    units are left out (dispatch legality rejects their ops)."""
    by_kind = {kind: [i for i, fu in enumerate(cpu.fus) if fu.kind == kind]
               for kind, _window in cpu._window_items}
    return {kind: indices for kind, indices in by_kind.items() if indices}


def _uniform(units) -> bool:
    """All *units* share one spec, so issue can take the flag cascade."""
    first = units[0]
    return all(unit.spec.latency == first.spec.latency
               and unit.spec.operations == first.spec.operations
               and unit.ops_set == first.ops_set
               and unit.pipelined == first.pipelined for unit in units)


def _emit_dispatch(em: _Emit) -> List[str]:
    """Decode, rename and allocate up to fetch-width instructions into
    the ROB and their issue window; the first structural hazard stalls
    the stage (and is counted)."""
    return [
        f"for _ in range({em.const('_fetch_width')}):",
        "    if not fetch_buffer:",
        "        break",
        "    sc = fetch_buffer[0]",
        "    dop = sc.dop",
        "    err = dispatch_error[dop.index]",
        "    if err is not None:",
        "        cpu.halted = err",
        "        log.append((cycle, err))",
        "        break",
        f"    if len(rob) >= {em.const('_rob_size')}:",
        "        stalls['robFull'] += 1",
        "        break",
        "    window = windows[dop.fu_kind]",
        f"    if len(window) >= {em.const('_issue_window_size')}:",
        "        stalls['windowFull'] += 1",
        "        break",
        "    if dop.is_load and len(load_buffer) >= "
        f"{em.const('_load_buffer_size')}:",
        "        stalls['loadBufferFull'] += 1",
        "        break",
        "    if dop.is_store and len(cpu.store_buffer) >= "
        f"{em.const('_store_buffer_size')}:",
        "        stalls['storeBufferFull'] += 1",
        "        break",
        "    needs_tag = dop.needs_tag",
        "    if needs_tag and not rename._free:",
        "        stalls['renameFull'] += 1",
        "        break",
        "    fetch_buffer.popleft()",
        "    cpu.v_front += 1",
        "    operands = sc.operands",
        "    op_values = sc.op_values",
        "    for name, skind, payload in dop.sources:",
        "        if skind == 1:",
        "            resolved = read_source(payload)",
        "            operands[name] = resolved",
        "            if resolved[0] == 'tag':",
        "                tag = resolved[1]",
        "                sc.renamed_sources[name] = 't%d' % tag",
        "                sc.pending_tags[name] = tag",
        "                waiters = tag_waiters.get(tag)",
        "                if waiters is None:",
        "                    tag_waiters[tag] = [(sc, name)]",
        "                else:",
        "                    waiters.append((sc, name))",
        "            else:",
        "                op_values[name] = resolved[1]",
        "        else:",
        "            operands[name] = ('val', payload)",
        "            op_values[name] = payload",
        "    if dop.has_dest:",
        "        sc.dest_arch = dop.dest_arch",
        "        if needs_tag:",
        "            sc.dest_tag = rename.allocate(dop.dest_arch)",
        "    if dop.is_load:",
        "        load_buffer.append(sc)",
        "    if dop.is_store:",
        "        entry = StoreBufferEntry(sc)",
        "        cpu.store_buffer.append(entry)",
        "        cpu._store_by_id[sc.id] = entry",
        "        cpu.v_storeb += 1",
        "    ts = sc.timestamps",
        "    ts['decode'] = cycle",
        "    ts['dispatch'] = cycle",
        "    sc.sver += 1",
        "    rob.append(sc)",
        "    window.append(sc)",
        "    cpu.v_rob += 1",
        "    cpu.v_windows += 1",
        "    if dop.is_branch:",
        "        if cpu._decode_redirect(sc):",
        "            break",
    ]


def _emit_fetch(em: _Emit) -> List[str]:
    """Fetch up to fetch-width instructions into the fetch buffer,
    following predicted-taken branches up to the per-cycle jump limit."""
    if em.folded:
        predict = _predict_lines(em.cpu.config)
    else:
        predict = ["taken, target, pht_index = predictor.predict_indexed(",
                   "    pc, dop.is_unconditional)"]
    return [
        "if cycle < cpu.fetch_stall_until:",
        "    cpu.fetch_stall_cycles += 1",
        "elif not cpu.fetch_past_end:",
        "    jumps = 0",
        f"    for _ in range({em.const('_fetch_width')}):",
        f"        if len(fetch_buffer) >= {em.const('_fetch_capacity')}:",
        "            break",
        "        pc = cpu.pc",
        "        index = pc >> 2",
        "        if pc & 3 or index < 0 or index >= instr_count:",
        "            cpu.fetch_past_end = True",
        "            break",
        "        dop = decoded[index]",
        "        sc = SimCode(cpu.next_id, dop.instruction, dop)",
        "        cpu.next_id += 1",
        "        sc.timestamps['fetch'] = cycle",
        "        fetch_buffer.append(sc)",
        "        cpu.v_front += 1",
        "        if dop.is_branch:",
        *_indent(predict, 3),
        "            sc.pht_index = pht_index",
        "            if taken and target is not None:",
        "                sc.predicted_taken = True",
        "                sc.predicted_target = target",
        "                cpu.pc = target",
        "                jumps += 1",
        "                if jumps >= "
        f"{em.const('_fetch_branch_limit')}:",
        "                    break",
        "                continue",
        # predicted taken without a known target behaves as a
        # fall-through fetch (resolved at decode or execute)
        "            sc.predicted_taken = False",
        "            sc.predicted_target = None",
        "        cpu.pc = pc + 4",
    ]


def _emit_busy(em: _Emit) -> List[str]:
    """Busy-cycle accounting: every occupied unit counts this cycle."""
    def count(u: _Unit, held: str, version: str) -> List[str]:
        return [f"if {held}:", f"    {u.var}.busy_cycles += 1",
                f"    {version} += 1"]

    return [*em.units("fus", "u", lambda u: count(u, _busy(u), "cpu.v_fus")),
            *em.units("memory_units", "m", lambda m: count(
                m, f"{m.var}.simcode is not None", "cpu.v_mem_units"))]


def _pipeline_empty(em: _Emit) -> str:
    """Nothing left in flight: buffers, ROB, load queue and every unit."""
    return " and ".join([
        "not fetch_buffer", "not rob", "not load_queue",
        em.all_units("fus", "u", _idle),
        em.all_units("memory_units", "m", lambda m: f"{m.var}.simcode is None"),
    ])


def _emit_end(em: _Emit) -> List[str]:
    """End of program: fetch ran past the code and the pipeline drained,
    or the configured cycle limit is reached."""
    limit = em.const("_max_cycles")
    message = (repr(f"cycle limit reached ({limit})") if em.folded
               else "f'cycle limit reached ({cpu._max_cycles})'")
    return [
        "if cpu.halted is None:",
        f"    if cpu.fetch_past_end and {_pipeline_empty(em)}:",
        "        cpu.halted = 'program finished (pipeline empty)'",
        "        log.append((cycle, cpu.halted))",
        f"    elif cycle + 1 >= {limit}:",
        f"        cpu.halted = {message}",
        "        log.append((cycle, cpu.halted))",
    ]


#: the stage methods of one clock cycle, in the order it runs them:
#: reverse pipeline order, which realizes the paper's "two sub-steps"
#: rule (a functional unit completes its current instruction and can
#: accept the next one within a single cycle, Sec. III-A)
_STAGES = (
    ("_commit", _emit_commit, "commit"),
    ("_memory_step", _emit_memory, "memory units"),
    ("_execute_fus", _emit_execute, "execute"),
    ("_issue", _emit_issue, "issue"),
    ("_dispatch", _emit_dispatch, "dispatch"),
    ("_fetch", _emit_fetch, "fetch"),
)

#: the interpreter's stage method names, in the order ``Cpu.step`` calls
STAGE_METHODS = tuple(name for name, _emit, _label in _STAGES)


def _cycle(em: _Emit, stages: List[List[str]], exit_stmt: str) -> List[str]:
    """One clock cycle: the stages in order (commit halting the machine
    ends the cycle early), then busy accounting and end detection.
    *stages* holds each stage's lines, or its call."""
    lines: List[str] = []
    for (name, _emit, label), stage in zip(_STAGES, stages):
        if em.folded:
            lines.append(f"# -- {label} ".ljust(52, "-"))
        lines += stage
        if name == "_commit":
            lines += ["if cpu.halted is not None:",
                      "    cpu.cycle = cycle + 1", f"    {exit_stmt}"]
    if em.folded:
        lines.append("# -- busy accounting / end detection ".ljust(52, "-"))
    return lines + _emit_busy(em) + _emit_end(em) + ["cpu.cycle = cycle + 1"]


#: locals the stage code reads, hoisted out of the per-cycle attribute
#: chains as (name, expression); an expression uses only earlier names.
#: The step loop hoists them all once per run, each interpreter method
#: those it reads (and ``cycle``) once per call.
_HOISTS = (
    ("fetch_buffer", "cpu.fetch_buffer"),
    ("rob", "cpu.rob"),
    ("load_queue", "cpu.load_queue"),
    ("load_buffer", "cpu.load_buffer"),
    ("windows", "cpu.windows"),
    ("rename", "cpu.rename"),
    ("entries", "rename.entries"),
    # rat and the register files are rebound by restore_state: safe
    # to hoist once per call, never across calls
    ("rat", "rename.rat"),
    ("arch_regs", "rename.arch"),
    ("arch_int", "arch_regs._int"),
    ("arch_fp", "arch_regs._fp"),
    ("read_source", "rename.read_source"),
    ("tag_waiters", "cpu._tag_waiters"),
    ("predictor", "cpu.predictor"),
    # PHT / BTB arrays are rebound only by between-run restores;
    # _spec_local is NOT hoistable (on_flush rebinds it mid-run)
    ("btb", "predictor.btb"),
    ("pht", "predictor._pht"),
    ("try_load", "cpu._try_load"),
    ("evaluate", "cpu._evaluate"),
    ("decoded", "cpu.decoded"),
    ("instr_count", "cpu._instr_count"),
    ("dispatch_error", "cpu._dispatch_error"),
    ("log", "cpu.log"),
    ("by_type", "cpu.committed_by_type"),
    ("by_mnemonic", "cpu.committed_by_mnemonic"),
    ("stalls", "cpu.dispatch_stalls"),
    ("int_index", "reg_int.get"),
)
_NAME = re.compile(r"[A-Za-z_]\w*")


# ----------------------------------------------------------------------
# output 1: the interpreter
# ----------------------------------------------------------------------
def _method(name: str, body: List[str]) -> str:
    """``def name(cpu)`` over *body*, hoisting the locals it reads."""
    used = set(_NAME.findall("\n".join(body)))
    table = _HOISTS + (("cycle", "cpu.cycle"),)
    for local, expr in reversed(table):
        if local in used:
            used.update(_NAME.findall(expr))
    hoists = [f"{local} = {expr}" for local, expr in table if local in used]
    return "\n".join([f"def {name}(cpu):", *_indent(hoists + body)]) + "\n"


def build_interpreter_source() -> str:
    """``step``, its stage methods and ``pipeline_empty``, unspecialized."""
    em = _Emit()
    methods = [_method(name, emit(em)) for name, emit, _label in _STAGES]
    step = _cycle(em, [[f"cpu.{name}()"] for name in STAGE_METHODS],
                  "return")
    methods.append(_method("step", ["if cpu.halted is not None:",
                                    "    return", *step]))
    methods.append(_method("pipeline_empty",
                           [f"return {_pipeline_empty(em)}"]))
    return "\n".join(methods)


def install_interpreter(cls) -> None:
    """Compile the interpreter once and install it on *cls* (``Cpu``),
    with its source in :mod:`linecache` so tracebacks show it."""
    source, filename = build_interpreter_source(), "<pipeline stages>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    ns = _namespace()
    exec(compile(source, filename, "exec"), ns)
    docs = {"step": "Execute one clock cycle (all blocks, reverse "
                    "pipeline order).",
            **{name: emit.__doc__ for name, emit, _label in _STAGES}}
    for name, doc in docs.items():
        function = ns[name]
        function.__qualname__ = f"{cls.__name__}.{name}"
        function.__module__ = cls.__module__
        function.__doc__ = doc
        setattr(cls, name, function)
    cls.pipeline_empty = property(ns["pipeline_empty"])


# ----------------------------------------------------------------------
# output 2: the step loop
# ----------------------------------------------------------------------
def step_key(cpu) -> str:
    """Deterministic cache key: everything the emitted source folds in."""
    config = cpu.config
    return json.dumps({
        **{attr: getattr(cpu, attr) for attr in _SCALARS},
        "haltOnException": config.halt_on_exception,
        "units": [fu.spec.to_json() for fu in cpu.fus],
        "memoryUnits": [fu.spec.to_json() for fu in cpu.memory_units],
        "windowKinds": [kind for kind, _ in cpu._window_items],
        "predictor": config.predictor.to_json(),
    }, sort_keys=True)


#: (attribute expression, loop-local accumulator) for every dirty-version
#: counter the loop bumps; see the flush note in build_step_source
_VERSION_LOCALS = (
    ("cpu.v_front", "nv_front"),
    ("cpu.v_rob", "nv_rob"),
    ("cpu.v_windows", "nv_windows"),
    ("cpu.v_fus", "nv_fus"),
    ("cpu.v_mem_units", "nv_mem"),
    ("cpu.v_loadq", "nv_loadq"),
    ("cpu.v_storeb", "nv_storeb"),
    ("rename.version", "nv_rename"),
    ("arch_regs.version", "nv_arch"),
)


def build_step_source(cpu) -> str:
    """Emit the whole specialized run loop for *cpu*'s configuration."""
    em = _Emit(cpu)
    hoists: List[str] = []
    for local, expr in _HOISTS:
        hoists.append(f"    {local} = {expr}")
        if local == "windows":
            hoists += [f"    w_{kind} = windows[{kind!r}]"
                       for kind, _ in cpu._window_items]
    if not cpu.config.predictor.use_global_history:
        hoists.append("    commit_local = predictor._commit_local")
    hoists += [f"    u{i} = cpu.fus[{i}]" for i in range(len(cpu.fus))]
    hoists += [f"    m{i} = cpu.memory_units[{i}]"
               for i in range(len(cpu.memory_units))]
    for kind, indices in _unit_indices(cpu).items():
        first = cpu.fus[indices[0]]
        if not _uniform([cpu.fus[i] for i in indices]):
            continue
        if first.ops_set is not None:
            hoists.append(f"    ops_{kind} = u{indices[0]}.ops_set")
        if first.flat_latency is None:
            hoists.append(f"    opslat_{kind} = u{indices[0]}.ops_lat.get")

    body = ["while cpu.halted is None and cpu.cycle < budget:",
            "    cycle = cpu.cycle",
            *_indent(_cycle(em, [emit(em) for _n, emit, _l in _STAGES],
                            "continue"))]

    # Version counters are monotonic change detectors read only *between*
    # runs (Cpu.state_versions): inside the loop they can accumulate in
    # plain locals and flush additively on exit.  The interpreter methods
    # the loop side-exits into keep direct `cpu.v_* += k` bumps — additive
    # flush composes with them in any order.  The try/finally keeps
    # counters honest even if a run dies mid-cycle (and costs nothing on
    # the happy path in CPython 3.11).
    subs = list(_VERSION_LOCALS)
    subs += [(f"u{i}.busy_cycles", f"nb_u{i}")
             for i in range(len(cpu.fus))]
    subs += [(f"m{i}.busy_cycles", f"nb_m{i}")
             for i in range(len(cpu.memory_units))]
    text = "\n".join(_indent(body, 2))
    for attr, local in subs:
        text = text.replace(f"{attr} +=", f"{local} +=")
    init = "\n".join([
        "    " + " = ".join(lv for _, lv in subs) + " = 0",
        "    commit_counts = [0] * instr_count",
        "    commit_order = []",
    ])
    flush = "\n".join([
        # expand the per-dop commit counts in first-commit order so new
        # by_type / by_mnemonic keys appear exactly where the interpreter
        # would have inserted them (dict order is serialized state)
        "        committed = 0",
        "        for di in commit_order:",
        "            c = commit_counts[di]",
        "            d = decoded[di]",
        "            committed += c",
        "            t = d.type_key",
        "            by_type[t] = by_type.get(t, 0) + c",
        "            m = d.mnemonic",
        "            by_mnemonic[m] = by_mnemonic.get(m, 0) + c",
        "            if d.flops:",
        "                cpu.flops += d.flops * c",
        "        cpu.committed += committed",
    ] + [f"        {attr} += {local}" for attr, local in subs])

    return ("def step_loop(cpu, budget):\n"
            + "\n".join(hoists) + "\n"
            + init + "\n"
            + "    try:\n"
            + text + "\n"
            + "    finally:\n"
            + flush + "\n")


def _namespace(predictor=None) -> dict:
    """Globals of the generated code (*predictor*: the step loop's)."""
    from repro.core.pipeline import StoreBufferEntry
    ns = {
        "SimCode": SimCode,
        "StoreBufferEntry": StoreBufferEntry,
        "insort": insort,
        "_skey": attrgetter("id"),
        "SimulationException": SimulationException,
        "reg_int": _REG_INT,
        "fp_idx": _FP_IDX,
        "f32r": float32_round,
    }
    if predictor is not None:
        ns["PredCls"] = type(make_bit_predictor(predictor.predictor_type,
                                                predictor.default_state))
    return ns


def compile_step(cpu) -> Callable:
    """The specialized run loop ``step_loop(cpu, budget)`` for *cpu*'s
    configuration (it reads every per-``Cpu`` structure through ``cpu``),
    compiled once while among the most recently used signatures."""
    key = step_key(cpu)
    with _STEP_CACHE_LOCK:
        loop = _STEP_CACHE.get(key)
        if loop is not None:
            _STEP_CACHE.move_to_end(key)
            return loop
        ns = _namespace(cpu.config.predictor)
        exec(compile(build_step_source(cpu),
                     f"<trace-step {cpu.config.name}>", "exec"), ns)
        loop = _STEP_CACHE[key] = ns["step_loop"]
        if len(_STEP_CACHE) > _STEP_CACHE_SIZE:
            _STEP_CACHE.popitem(last=False)
    return loop
