"""The trace tier: a config-specialized step loop for uninstrumented runs.

``compile_step(cpu)`` emits plain Python source for one function that
replaces ``Cpu.run``'s ``step()``-per-cycle interpretation; it is
``exec``-compiled once per configuration signature and then called for
every run-to-completion on that configuration.  Every pipeline stage
(commit, memory, execute, issue, dispatch, fetch, busy accounting, end
detection) is inlined into a single loop body with the configuration
constants (widths, buffer sizes, unit latencies, cycle limit) folded
into literals and the per-unit loops unrolled.  The emitted code is a
line-by-line transcription of ``repro.core.pipeline.Cpu.step`` —
bit-exactness is by construction, and the golden determinism suite and
the generated-program parity property pin it.  Rare control transfers
(mispredict flush, store drain, load resolution, decode redirect)
side-exit into the existing interpreter methods.

The loop specializes on the configuration only, never on the program:
instructions come from the static decode cache (the machine is
Harvard-style), so a store into the notional code region changes data
memory exactly as it does in the interpreter and nothing compiled can
go stale.  The whole tier is disabled with ``CpuConfig.trace = False``.

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

Determinism: sources are cached by a JSON signature of the relevant
configuration (never by object identity), generated code iterates no
sets, reads no clocks, and touches no environment.
"""

from __future__ import annotations

import json
from bisect import insort
from typing import Callable, Dict, List

from repro.core.pipeline import StoreBufferEntry, _simcode_id
from repro.core.simcode import SimCode
from repro.errors import SimulationException
from repro.isa.bits import float32_round
from repro.predictor.bits import make_bit_predictor

#: compiled step loops keyed by the config signature
_STEP_CACHE: Dict[str, Callable] = {}

#: canonical register name -> file index, pre-resolved so the generated
#: commit path never re-parses the index from the name string
_REG_INT: Dict[str, int] = {f"x{i}": i for i in range(32)}
_FP_IDX: Dict[str, int] = {f"f{i}": i for i in range(32)}


def trace_supported(cpu) -> bool:
    """Whether the specialized step loop models this configuration.

    Pipelined functional units (the ``FuSpec.pipelined`` future-work mode)
    take the interpreter path; everything else is supported.
    """
    return not any(fu.pipelined for fu in cpu._all_fus)


def step_key(cpu) -> str:
    """Deterministic cache key: everything the emitted source folds in."""
    config = cpu.config
    buffers = config.buffers
    return json.dumps({
        "fetchWidth": buffers.fetch_width,
        "commitWidth": buffers.commit_width,
        "robSize": buffers.rob_size,
        "windowSize": buffers.issue_window_size,
        "branchLimit": buffers.fetch_branch_limit,
        "loadBuffer": config.memory.load_buffer_size,
        "storeBuffer": config.memory.store_buffer_size,
        "maxCycles": config.max_cycles,
        "haltOnException": config.halt_on_exception,
        "units": [fu.spec.to_json() for fu in cpu.fus],
        "memoryUnits": [fu.spec.to_json() for fu in cpu.memory_units],
        "windowKinds": [kind for kind, _ in cpu._window_items],
        "predictor": config.predictor.to_json(),
    }, sort_keys=True)


def _predict_lines(config, indent: str) -> List[str]:
    """Inline transcription of ``BranchPredictor.predict_indexed`` for
    the fetch path (``pc``/``dop`` name the fetched branch); leaves the
    ``taken``/``target``/``pht_index`` locals set.

    ``predictor._spec_local`` is rebound mid-run by ``on_flush``, so it
    is read through the attribute at every use; ``_pht`` and the BTB
    arrays are hoisted in the prologue.
    """
    p = config.predictor
    hmask = (1 << p.history_bits) - 1
    direction = ("entry.state >= 2"
                 if p.predictor_type.lower() in ("two", "2bit")
                 else "entry.state == 1")
    lines = [
        f"{indent}btb.lookups += 1",
        f"{indent}bi = (pc >> 2) % {p.btb_size}",
        f"{indent}if btb._tags[bi] == pc:",
        f"{indent}    btb.hits += 1",
        f"{indent}    target = btb._targets[bi]",
        f"{indent}else:",
        f"{indent}    target = None",
    ]
    if p.use_global_history:
        lines.append(f"{indent}h = predictor._spec_global")
    else:
        lines += [
            f"{indent}sl = predictor._spec_local",
            f"{indent}h = sl.get(pc, 0)",
        ]
    lines += [
        f"{indent}pht_index = ((pc >> 2) ^ h) % {p.pht_size}",
        f"{indent}if dop.is_unconditional:",
        f"{indent}    taken = True",
        f"{indent}    pbit = 1",
        f"{indent}else:",
        f"{indent}    entry = pht[pht_index]",
        f"{indent}    if entry is None:",
        f"{indent}        entry = PredCls({p.default_state})",
        f"{indent}        pht[pht_index] = entry",
        f"{indent}    taken = {direction}",
        f"{indent}    pbit = 1 if taken else 0",
    ]
    if p.use_global_history:
        lines.append(f"{indent}predictor._spec_global = "
                     f"((h << 1) | pbit) & {hmask}")
    else:
        lines.append(f"{indent}sl[pc] = ((h << 1) | pbit) & {hmask}")
    return lines


def _train_lines(config, indent: str) -> List[str]:
    """Inline transcription of ``BranchPredictor.train`` for the commit
    path (``head`` is the resolving branch); leaves ``correct`` set."""
    p = config.predictor
    hmask = (1 << p.history_bits) - 1
    ptype = p.predictor_type.lower()
    lines = [
        f"{indent}predictor.predictions += 1",
        f"{indent}takenb = True if head.actual_taken else False",
        f"{indent}tkn = 1 if takenb else 0",
        f"{indent}pidx = head.pht_index",
        f"{indent}if pidx is None:",
    ]
    if p.use_global_history:
        lines.append(f"{indent}    pidx = ((head.pc >> 2)"
                     f" ^ predictor._commit_global) % {p.pht_size}")
    else:
        lines.append(f"{indent}    pidx = ((head.pc >> 2)"
                     f" ^ commit_local.get(head.pc, 0)) % {p.pht_size}")
    update = []
    if ptype in ("one", "1bit"):
        update = [f"{indent}    entry.state = tkn"]
    elif ptype in ("two", "2bit"):
        update = [
            f"{indent}    if tkn:",
            f"{indent}        s = entry.state + 1",
            f"{indent}        entry.state = 3 if s > 3 else s",
            f"{indent}    else:",
            f"{indent}        s = entry.state - 1",
            f"{indent}        entry.state = 0 if s < 0 else s",
        ]
    # zero-bit: static counters never learn, but the entry is still
    # allocated on first touch (state save/restore pins the sparse set)
    lines += [
        f"{indent}if not dop.is_unconditional:",
        f"{indent}    entry = pht[pidx]",
        f"{indent}    if entry is None:",
        f"{indent}        entry = PredCls({p.default_state})",
        f"{indent}        pht[pidx] = entry",
        *update,
    ]
    if p.use_global_history:
        lines.append(f"{indent}predictor._commit_global = "
                     f"((predictor._commit_global << 1) | tkn) & {hmask}")
    else:
        lines += [
            f"{indent}old = commit_local.get(head.pc, 0)",
            f"{indent}commit_local[head.pc] = ((old << 1) | tkn) & {hmask}",
        ]
    lines += [
        f"{indent}tgt = head.actual_target or 0",
        f"{indent}if takenb:",
        f"{indent}    bi = (head.pc >> 2) % {p.btb_size}",
        f"{indent}    btb._tags[bi] = head.pc",
        f"{indent}    btb._targets[bi] = tgt",
        f"{indent}correct = (head.predicted_taken == takenb) and ("
        "not takenb or head.predicted_target == tgt)",
    ]
    return lines


def _wake_lines(value_expr: str, indent: str) -> List[str]:
    """Inline wake-up broadcast (transcribes ``Cpu._wakeup_waiters``)."""
    return [
        f"{indent}waiters = tag_waiters.pop(tag, None)",
        f"{indent}if waiters:",
        f"{indent}    cpu.v_rob += 1",
        f"{indent}    cpu.v_windows += 1",
        f"{indent}    for wsc, wname in waiters:",
        f"{indent}        wsc.operands[wname] = ('val', {value_expr})",
        f"{indent}        wsc.op_values[wname] = {value_expr}",
        f"{indent}        wsc.pending_tags.pop(wname, None)",
        f"{indent}        wsc.sver += 1",
    ]


def _emit_commit(config) -> List[str]:
    width = config.buffers.commit_width
    lines = [
        # version counters are change-detectors (monotonic, never
        # restored): batch the per-commit bumps into one write per cycle
        "        nc = 0",
        "        nt = 0",
        f"        for _ in range({width}):",
        "            if not rob:",
        "                break",
        "            head = rob[0]",
        "            ts = head.timestamps",
        "            if 'writeback' not in ts:",
        "                break",
        "            rob.popleft()",
        "            nc += 1",
        "            ts['commit'] = cycle",
        "            head.sver += 1",
        "            dop = head.dop",
        # committed / by_type / by_mnemonic / flops are per-static-op
        # aggregates read only between runs: count commits per dop.index
        # here and expand in the run-exit flush.  commit_order remembers
        # first-commit order so the flush inserts dict keys in exactly
        # the order the interpreter would (key order is serialized).
        "            di = dop.index",
        "            c = commit_counts[di]",
        "            commit_counts[di] = c + 1",
        "            if not c:",
        "                commit_order.append(di)",
        "            if head.exception is not None:",
        "                log.append((cycle, f'exception at pc={head.pc:#x}'"
        " f' ({head.mnemonic}): {head.exception}'))",
    ]
    if config.halt_on_exception:
        lines += [
            "                cpu.committed_exception = head.exception",
            "                cpu.halted = f'exception: {head.exception}'",
            "                break",
        ]
    lines += [
        "            if dop.is_store:",
        "                entry = cpu._store_by_id.get(head.id)",
        "                if entry is not None:",
        "                    cpu._drain_store(entry)",
        "                if cpu.halted is not None:",
        "                    break",
        "            if dop.is_load:",
        "                if load_buffer and load_buffer[0] is head:",
        "                    load_buffer.pop(0)",
        "                else:",
        "                    try:",
        "                        load_buffer.remove(head)",
        "                    except ValueError:",
        "                        pass",
        # rename.commit + _release + RegisterFile.write, inlined.  The
        # register index is pre-resolved via reg_int/fp_idx (the method
        # re-parses it from the name on every call); x0 writes fall
        # through with no store and no version bump, exactly like the
        # method's early return.
        "            tag = head.dest_tag",
        "            if tag is not None:",
        "                e = entries[tag]",
        "                arch = e.arch",
        "                if arch is not None:",
        "                    ii = int_index(arch)",
        "                    if ii is None:",
        "                        arch_fp[fp_idx[arch]] = f32r(float(e.value))",
        "                        arch_regs.version += 1",
        "                    elif ii:",
        "                        v = int(e.value) & 0xFFFFFFFF",
        "                        arch_int[ii] = (v - 0x100000000",
        "                                        if v >= 0x80000000 else v)",
        "                        arch_regs.version += 1",
        "                    if rat.get(arch) == tag:",
        "                        del rat[arch]",
        "                e.busy = False",
        "                e.valid = False",
        "                e.arch = None",
        "                fr = rename._free",
        "                if tag not in fr:",
        "                    fr.append(tag)",
        "                nt += 1",
        "            if dop.is_halt:",
        "                cpu.halted = (\"halt instruction '\" + dop.mnemonic"
        " + \"' committed\")",
        "                log.append((cycle, cpu.halted))",
        "                break",
        # BranchPredictor.train inlined with the configuration folded
        "            if dop.is_branch:",
        *_train_lines(config, "                "),
        "                if correct:",
        "                    predictor.correct += 1",
        "                else:",
        "                    predictor.mispredictions += 1",
        "                    cpu._flush_after_mispredict(head)",
        "                    break",
        "        if nc:",
        "            cpu.v_rob += nc",
        "        if nt:",
        "            rename.version += nt",
        "        if cpu.halted is not None:",
        "            cpu.cycle = cycle + 1",
        "            continue",
    ]
    return lines


def _emit_memory(cpu) -> List[str]:
    lines = [
        "        sb = cpu.store_buffer",
        "        if sb:",
        "            drained = False",
        "            for e in sb:",
        "                if e.committed and 0 <= e.drain_until <= cycle:",
        "                    drained = True",
        "                    break",
        "            if drained:",
        "                kept = []",
        "                sbid = cpu._store_by_id",
        "                for e in sb:",
        "                    if e.committed and 0 <= e.drain_until <= cycle:",
        "                        sbid.pop(e.simcode.id, None)",
        "                    else:",
        "                        kept.append(e)",
        "                cpu.store_buffer = kept",
        "                cpu.v_storeb += 1",
    ]
    for i, unit in enumerate(cpu.memory_units):
        u = f"m{i}"
        lines += [
            f"        if {u}.simcode is not None and cycle >= {u}.busy_until:",
            f"            load = {u}.simcode",
            f"            {u}.simcode = None",
            "            cpu.v_mem_units += 1",
            "            tag = load.dest_tag",
            "            if tag is not None:",
            "                e = entries[tag]",
            "                e.value = load.result",
            "                e.valid = True",
            "                rename.version += 1",
            *_wake_lines("load.result", "                "),
            "            load.timestamps['writeback'] = cycle",
            "            load.sver += 1",
            "            cpu.v_rob += 1",
        ]
    for i, unit in enumerate(cpu.memory_units):
        u = f"m{i}"
        extra = unit.spec.latency - 1
        lines += [
            f"        if load_queue and {u}.simcode is None:",
            "            load = load_queue[0]",
            "            status, value, delay = try_load(load)",
            "            if status != 'wait':",
            "                load_queue.pop(0)",
            "                cpu.v_loadq += 1",
            f"                {u}.simcode = load",
            f"                d = delay + {extra}",
            f"                {u}.busy_until = cycle + (d if d > 1 else 1)",
            "                cpu.v_mem_units += 1",
            "                load.mem_delay = delay",
            "                load.result = value",
            "                load.sver += 1",
            "                cpu.v_rob += 1",
        ]
    return lines


def _emit_execute(cpu) -> List[str]:
    lines: List[str] = []
    for i, fu in enumerate(cpu.fus):
        u = f"u{i}"
        lines += [
            f"        if {u}.simcode is not None and cycle >= {u}.busy_until:",
            f"            xs = {u}.simcode",
            f"            {u}.simcode = None",
            "            cpu.v_fus += 1",
            "            xs.timestamps['execute'] = cycle",
            "            xs.sver += 1",
            "            cpu.v_rob += 1",
        ]
        if fu.spec.kind == "LS":
            lines += [
                "            if xs.dop.is_store:",
                "                entry = cpu._store_by_id.get(xs.id)",
                "                if entry is not None:",
                "                    entry.address = xs.address",
                "                    entry.data = xs.store_data",
                "                cpu.v_storeb += 1",
                "                xs.timestamps['writeback'] = cycle",
                "            else:",
                "                insort(load_queue, xs, key=_skey)",
                "                cpu.v_loadq += 1",
            ]
        else:
            lines += [
                "            tag = xs.dest_tag",
                "            if tag is not None:",
                "                e = entries[tag]",
                "                e.value = xs.result",
                "                e.valid = True",
                "                rename.version += 1",
                *_wake_lines("xs.result", "                "),
                "            xs.timestamps['writeback'] = cycle",
            ]
    return lines


def _uniform_issue_kinds(cpu) -> Dict[str, List[int]]:
    """Window kinds whose units all share one spec -> their fu indices."""
    result: Dict[str, List[int]] = {}
    for kind, _window in cpu._window_items:
        indices = [i for i, fu in enumerate(cpu.fus)
                   if fu.spec.kind == kind]
        if not indices:
            continue
        first = cpu.fus[indices[0]]
        if all(fu.spec.latency == first.spec.latency
               and fu.spec.operations == first.spec.operations
               and fu.ops_set == first.ops_set
               for fu in (cpu.fus[i] for i in indices)):
            result[kind] = indices
    return result


def _emit_issue_uniform(cpu, kind, indices) -> List[str]:
    """Issue block for a window whose units all share one spec.

    No ``free`` list is materialized: unit selection is an unrolled
    flag cascade (same first-free-unit order as the interpreter), the
    accepted-op set and latency are folded per kind, and the unit name
    becomes a literal on each cascade arm.
    """
    w = f"w_{kind}"
    first = cpu.fus[indices[0]]
    lines = [f"        if {w}:"]
    for j, i in enumerate(indices):
        lines.append(f"            f{j} = u{i}.simcode is None")
    guard = " or ".join(f"f{j}" for j in range(len(indices)))
    all_busy = " and ".join(f"not f{j}" for j in range(len(indices)))
    lines += [
        f"            if {guard}:",
        "                issued = None",
        f"                for sc in {w}:",
        "                    if sc.pending_tags:",
        "                        continue",
    ]
    if first.ops_set is not None:
        lines += [
            "                    op_class = sc.dop.op_class",
            f"                    if op_class not in ops_{kind}:",
            "                        continue",
        ]
    for j, i in enumerate(indices):
        kw = "if" if j == 0 else "elif"
        lines += [
            f"                    {kw} f{j}:",
            f"                        unit = u{i}",
            f"                        f{j} = False",
            "                        sc.fu_name = "
            f"{cpu.fus[i].name!r}",
        ]
    if first.flat_latency is not None:
        lat_expr = str(first.flat_latency)
    else:
        lat_expr = f"opslat_{kind}(op_class, 1)"
    lines += [
        "                    if issued is None:",
        "                        issued = [sc]",
        "                    else:",
        "                        issued.append(sc)",
        "                    sc.timestamps['issue'] = cycle",
        f"                    finish = cycle + {lat_expr}",
        "                    unit.last_issue_cycle = cycle",
        "                    unit.simcode = sc",
        "                    unit.busy_until = finish",
        "                    sc.finish_cycle = finish",
        "                    sc.sver += 1",
        "                    try:",
        "                        evaluate(sc)",
        "                    except SimulationException as exc:",
        "                        sc.exception = exc",
        f"                    if {all_busy}:",
        "                        break",
        "                if issued is not None:",
        "                    n = len(issued)",
        "                    cpu.v_fus += n",
        "                    cpu.v_rob += n",
        "                    cpu.v_windows += 1",
        "                    for sc in issued:",
        f"                        {w}.remove(sc)",
    ]
    return lines


def _emit_issue(cpu) -> List[str]:
    lines: List[str] = []
    uniform = _uniform_issue_kinds(cpu)
    for kind, _window in cpu._window_items:
        indices = [i for i, fu in enumerate(cpu.fus)
                   if fu.spec.kind == kind]
        if not indices:
            continue  # unreachable window: dispatch legality rejects its ops
        if kind in uniform:
            lines += _emit_issue_uniform(cpu, kind, indices)
            continue
        unit_names = [f"u{i}" for i in indices]
        w = f"w_{kind}"
        units_tuple = (f"({unit_names[0]},)" if len(unit_names) == 1
                       else "(" + ", ".join(unit_names) + ")")
        lines += [
            f"        if {w}:",
            f"            free = [u for u in {units_tuple}"
            " if u.simcode is None]",
            "            if free:",
            "                issued = None",
            f"                for sc in {w}:",
            "                    if sc.pending_tags:",
            "                        continue",
            "                    op_class = sc.dop.op_class",
            "                    unit = None",
            "                    for fu in free:",
            "                        ops = fu.ops_set",
            "                        if ops is None or op_class in ops:",
            "                            unit = fu",
            "                            break",
            "                    if unit is None:",
            "                        continue",
            "                    free.remove(unit)",
            "                    if issued is None:",
            "                        issued = [sc]",
            "                    else:",
            "                        issued.append(sc)",
            "                    lat = unit.flat_latency",
            "                    if lat is None:",
            "                        lat = unit.ops_lat.get(op_class, 1)",
            "                    sc.fu_name = unit.name",
            "                    sc.timestamps['issue'] = cycle",
            "                    finish = cycle + lat",
            "                    unit.last_issue_cycle = cycle",
            "                    unit.simcode = sc",
            "                    unit.busy_until = finish",
            "                    cpu.v_fus += 1",
            "                    cpu.v_rob += 1",
            "                    sc.finish_cycle = finish",
            "                    sc.sver += 1",
            "                    try:",
            "                        evaluate(sc)",
            "                    except SimulationException as exc:",
            "                        sc.exception = exc",
            "                    if not free:",
            "                        break",
            "                if issued is not None:",
            "                    cpu.v_windows += 1",
            "                    for sc in issued:",
            f"                        {w}.remove(sc)",
        ]
    return lines


def _emit_dispatch(config) -> List[str]:
    buffers = config.buffers
    return [
        f"        for _ in range({buffers.fetch_width}):",
        "            if not fetch_buffer:",
        "                break",
        "            sc = fetch_buffer[0]",
        "            dop = sc.dop",
        "            err = dispatch_error[dop.index]",
        "            if err is not None:",
        "                cpu.halted = err",
        "                log.append((cycle, err))",
        "                break",
        f"            if len(rob) >= {buffers.rob_size}:",
        "                stalls['robFull'] += 1",
        "                break",
        "            window = windows[dop.fu_kind]",
        f"            if len(window) >= {buffers.issue_window_size}:",
        "                stalls['windowFull'] += 1",
        "                break",
        "            if dop.is_load and len(load_buffer) >= "
        f"{config.memory.load_buffer_size}:",
        "                stalls['loadBufferFull'] += 1",
        "                break",
        "            if dop.is_store and len(cpu.store_buffer) >= "
        f"{config.memory.store_buffer_size}:",
        "                stalls['storeBufferFull'] += 1",
        "                break",
        "            needs_tag = dop.needs_tag",
        "            if needs_tag and not rename._free:",
        "                stalls['renameFull'] += 1",
        "                break",
        "            fetch_buffer.popleft()",
        "            cpu.v_front += 1",
        "            operands = sc.operands",
        "            op_values = sc.op_values",
        "            for name, skind, payload in dop.sources:",
        "                if skind == 1:",
        "                    resolved = read_source(payload)",
        "                    operands[name] = resolved",
        "                    if resolved[0] == 'tag':",
        "                        tag = resolved[1]",
        "                        sc.renamed_sources[name] = 't%d' % tag",
        "                        sc.pending_tags[name] = tag",
        "                        waiters = tag_waiters.get(tag)",
        "                        if waiters is None:",
        "                            tag_waiters[tag] = [(sc, name)]",
        "                        else:",
        "                            waiters.append((sc, name))",
        "                    else:",
        "                        op_values[name] = resolved[1]",
        "                else:",
        "                    operands[name] = ('val', payload)",
        "                    op_values[name] = payload",
        "            if dop.has_dest:",
        "                sc.dest_arch = dop.dest_arch",
        "                if needs_tag:",
        "                    sc.dest_tag = rename.allocate(dop.dest_arch)",
        "            if dop.is_load:",
        "                load_buffer.append(sc)",
        "            if dop.is_store:",
        "                entry = StoreBufferEntry(sc)",
        "                cpu.store_buffer.append(entry)",
        "                cpu._store_by_id[sc.id] = entry",
        "                cpu.v_storeb += 1",
        "            ts = sc.timestamps",
        "            ts['decode'] = cycle",
        "            ts['dispatch'] = cycle",
        "            sc.sver += 1",
        "            rob.append(sc)",
        "            window.append(sc)",
        "            cpu.v_rob += 1",
        "            cpu.v_windows += 1",
        "            if dop.is_branch:",
        "                if cpu._decode_redirect(sc):",
        "                    break",
    ]


def _emit_fetch(config) -> List[str]:
    buffers = config.buffers
    capacity = 2 * buffers.fetch_width
    return [
        "        if cycle < cpu.fetch_stall_until:",
        "            cpu.fetch_stall_cycles += 1",
        "        elif not cpu.fetch_past_end:",
        "            jumps = 0",
        f"            for _ in range({buffers.fetch_width}):",
        f"                if len(fetch_buffer) >= {capacity}:",
        "                    break",
        "                pc = cpu.pc",
        "                index = pc >> 2",
        "                if pc & 3 or index < 0 or index >= instr_count:",
        "                    cpu.fetch_past_end = True",
        "                    break",
        "                dop = decoded[index]",
        "                sc = SimCode(cpu.next_id, dop.instruction, dop)",
        "                cpu.next_id += 1",
        "                sc.timestamps['fetch'] = cycle",
        "                fetch_buffer.append(sc)",
        "                cpu.v_front += 1",
        "                if dop.is_branch:",
        *_predict_lines(config, "                    "),
        "                    sc.pht_index = pht_index",
        "                    if taken and target is not None:",
        "                        sc.predicted_taken = True",
        "                        sc.predicted_target = target",
        "                        cpu.pc = target",
        "                        jumps += 1",
        f"                        if jumps >= {buffers.fetch_branch_limit}:",
        "                            break",
        "                        continue",
        "                    sc.predicted_taken = False",
        "                    sc.predicted_target = None",
        "                cpu.pc = pc + 4",
    ]


def _emit_epilogue(cpu) -> List[str]:
    config = cpu.config
    lines: List[str] = []
    for i, _fu in enumerate(cpu.fus):
        lines += [
            f"        if u{i}.simcode is not None:",
            f"            u{i}.busy_cycles += 1",
            "            cpu.v_fus += 1",
        ]
    for i, _fu in enumerate(cpu.memory_units):
        lines += [
            f"        if m{i}.simcode is not None:",
            f"            m{i}.busy_cycles += 1",
            "            cpu.v_mem_units += 1",
        ]
    empty = ["not fetch_buffer", "not rob", "not load_queue"]
    empty += [f"u{i}.simcode is None" for i in range(len(cpu.fus))]
    empty += [f"m{i}.simcode is None" for i in range(len(cpu.memory_units))]
    limit_msg = f"cycle limit reached ({config.max_cycles})"
    lines += [
        "        if cpu.halted is None:",
        "            if cpu.fetch_past_end and " + " and ".join(empty) + ":",
        "                cpu.halted = 'program finished (pipeline empty)'",
        "                log.append((cycle, cpu.halted))",
        f"            elif cycle + 1 >= {config.max_cycles}:",
        f"                cpu.halted = {limit_msg!r}",
        "                log.append((cycle, cpu.halted))",
        "        cpu.cycle = cycle + 1",
    ]
    return lines


#: (attribute expression, loop-local accumulator) for every dirty-version
#: counter the skeleton bumps; see the flush note in build_step_source
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
    hoists = [
        "    fetch_buffer = cpu.fetch_buffer",
        "    rob = cpu.rob",
        "    load_queue = cpu.load_queue",
        "    load_buffer = cpu.load_buffer",
        "    windows = cpu.windows",
    ]
    for kind, _ in cpu._window_items:
        hoists.append(f"    w_{kind} = windows[{kind!r}]")
    hoists += [
        "    rename = cpu.rename",
        "    entries = rename.entries",
        # rat and the register files are rebound by restore_state: safe
        # to hoist once per call, never across calls
        "    rat = rename.rat",
        "    arch_regs = rename.arch",
        "    arch_int = arch_regs._int",
        "    arch_fp = arch_regs._fp",
        "    read_source = rename.read_source",
        "    tag_waiters = cpu._tag_waiters",
        "    predictor = cpu.predictor",
        # PHT / BTB arrays are rebound only by between-run restores;
        # _spec_local is NOT hoistable (on_flush rebinds it mid-run)
        "    btb = predictor.btb",
        "    pht = predictor._pht",
        "    try_load = cpu._try_load",
        "    evaluate = cpu._evaluate",
        "    decoded = cpu.decoded",
        "    instr_count = cpu._instr_count",
        "    dispatch_error = cpu._dispatch_error",
        "    log = cpu.log",
        "    by_type = cpu.committed_by_type",
        "    by_mnemonic = cpu.committed_by_mnemonic",
        "    stalls = cpu.dispatch_stalls",
        "    int_index = reg_int.get",
    ]
    if not cpu.config.predictor.use_global_history:
        hoists.append("    commit_local = predictor._commit_local")
    for i in range(len(cpu.fus)):
        hoists.append(f"    u{i} = cpu.fus[{i}]")
    for i in range(len(cpu.memory_units)):
        hoists.append(f"    m{i} = cpu.memory_units[{i}]")
    for kind, indices in _uniform_issue_kinds(cpu).items():
        first = cpu.fus[indices[0]]
        if first.ops_set is not None:
            hoists.append(f"    ops_{kind} = u{indices[0]}.ops_set")
        if first.flat_latency is None:
            hoists.append(f"    opslat_{kind} = u{indices[0]}.ops_lat.get")

    body: List[str] = []
    body.append("    while cpu.halted is None and cpu.cycle < budget:")
    body.append("        cycle = cpu.cycle")
    body.append("        # -- commit " + "-" * 40)
    body += _emit_commit(cpu.config)
    body.append("        # -- memory units " + "-" * 34)
    body += _emit_memory(cpu)
    body.append("        # -- execute " + "-" * 39)
    body += _emit_execute(cpu)
    body.append("        # -- issue " + "-" * 41)
    body += _emit_issue(cpu)
    body.append("        # -- dispatch " + "-" * 38)
    body += _emit_dispatch(cpu.config)
    body.append("        # -- fetch " + "-" * 41)
    body += _emit_fetch(cpu.config)
    body.append("        # -- busy accounting / end detection " + "-" * 15)
    body += _emit_epilogue(cpu)

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
    text = "\n".join(body)
    for attr, local in subs:
        text = text.replace(f"{attr} +=", f"{local} +=")
    looped = "\n".join(
        "    " + ln if ln.strip() else ln for ln in text.split("\n"))
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
            + looped + "\n"
            + "    finally:\n"
            + flush + "\n")


def compile_step(cpu) -> Callable:
    """The specialized run loop ``step_loop(cpu, budget)`` for *cpu*'s
    configuration, compiled once per configuration signature (it reads
    every per-``Cpu`` structure through its ``cpu`` argument)."""
    key = step_key(cpu)
    loop = _STEP_CACHE.get(key)
    if loop is None:
        p = cpu.config.predictor
        ns = {
            "SimCode": SimCode,
            "StoreBufferEntry": StoreBufferEntry,
            "insort": insort,
            "_skey": _simcode_id,
            "SimulationException": SimulationException,
            "reg_int": _REG_INT,
            "fp_idx": _FP_IDX,
            "f32r": float32_round,
            "PredCls": type(make_bit_predictor(p.predictor_type,
                                               p.default_state)),
        }
        exec(compile(build_step_source(cpu),
                     f"<trace-step {cpu.config.name}>", "exec"), ns)
        loop = _STEP_CACHE[key] = ns["step_loop"]
    return loop
