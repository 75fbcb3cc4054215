"""Processor architecture configuration (the Architecture-settings window).

The tabs of Fig. 9 map to the nested dataclasses below:

* tab 1 — name, core and memory clock speeds;
* tab 2 *Buffers* — reorder-buffer size, instructions fetched/committed per
  cycle, flush penalty, jumps handled by fetch per cycle;
* tab 3 *Functional units* — FX / FP / LS / branch / memory units with
  supported operations and latencies;
* tab 4 *Cache* — :class:`repro.memory.cache.CacheConfig`;
* tab 5 *Memory* — load/store buffer sizes and latencies, call stack size,
  register rename file size;
* tab 6 *Branch prediction* — :class:`repro.predictor.unit.PredictorConfig`.

Configurations import/export as JSON, exactly like the web GUI's
export/share feature.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.memory.cache import CacheConfig
from repro.predictor.unit import PredictorConfig

#: default per-operation latencies for FX units
DEFAULT_FX_OPS: Dict[str, int] = {
    "addition": 1, "bitwise": 1, "shift": 1, "comparison": 1,
    "multiplication": 3, "division": 10, "special": 1,
}
#: default per-operation latencies for FP units
DEFAULT_FP_OPS: Dict[str, int] = {
    "fadd": 3, "fmul": 4, "fdiv": 12, "fsqrt": 15,
    "fma": 5, "fcmp": 2, "fcvt": 2,
}

_FU_KINDS = ("FX", "FP", "LS", "Branch", "Memory")


@dataclass
class FuSpec:
    """One functional unit: kind, supported operations, latencies.

    FX and FP units "can vary in supported instructions and associated
    latencies, while LS, memory and branch units allow for latency
    specification only" (Sec. II-C).
    """

    kind: str
    name: str = ""
    operations: Dict[str, int] = field(default_factory=dict)
    latency: int = 1
    #: internal pipelining (paper future work): when True the unit accepts a
    #: new instruction every cycle while earlier ones are still in flight
    pipelined: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _FU_KINDS:
            raise ConfigError(
                f"unknown functional unit kind '{self.kind}' "
                f"(expected one of {_FU_KINDS})")
        if not self.name:
            self.name = self.kind
        if self.kind in ("FX", "FP") and not self.operations:
            self.operations = dict(
                DEFAULT_FX_OPS if self.kind == "FX" else DEFAULT_FP_OPS)
        for op, lat in self.operations.items():
            if lat < 1:
                raise ConfigError(
                    f"unit '{self.name}': latency of '{op}' must be >= 1")
        if self.latency < 1:
            raise ConfigError(f"unit '{self.name}': latency must be >= 1")

    def supported_set(self):
        """Exact op-class capability set, or ``None`` for supports-all.

        Single source of truth for unit capabilities: FX units additionally
        accept ``special`` (fence/ecall/ebreak run on any FX unit); LS,
        Branch and Memory units execute everything routed to them.
        """
        if self.kind in ("FX", "FP"):
            ops = set(self.operations)
            if self.kind == "FX":
                ops.add("special")
            return frozenset(ops)
        return None

    def supports(self, op_class: str) -> bool:
        ops = self.supported_set()
        return ops is None or op_class in ops

    def latency_of(self, op_class: str) -> int:
        if self.kind in ("FX", "FP"):
            return self.operations.get(op_class, 1)
        return self.latency

    def to_json(self) -> dict:
        data = {"kind": self.kind, "name": self.name}
        if self.kind in ("FX", "FP"):
            data["operations"] = dict(self.operations)
        else:
            data["latency"] = self.latency
        if self.pipelined:
            data["pipelined"] = True
        return data

    @staticmethod
    def from_json(data: dict) -> "FuSpec":
        return FuSpec(
            kind=data["kind"],
            name=data.get("name", ""),
            operations=dict(data.get("operations", {})),
            latency=int(data.get("latency", 1)),
            pipelined=bool(data.get("pipelined", False)),
        )


@dataclass
class BufferConfig:
    """Buffers tab: the superscalar width controls."""

    rob_size: int = 32
    fetch_width: int = 2
    commit_width: int = 2
    flush_penalty: int = 3
    #: jumps the fetch unit can follow within a single cycle
    fetch_branch_limit: int = 1
    issue_window_size: int = 8

    def validate(self) -> None:
        for attr in ("rob_size", "fetch_width", "commit_width",
                     "issue_window_size"):
            if getattr(self, attr) <= 0:
                raise ConfigError(f"{attr} must be positive")
        if self.flush_penalty < 0 or self.fetch_branch_limit < 0:
            raise ConfigError("flush penalty and fetch branch limit must be >= 0")

    def to_json(self) -> dict:
        return {
            "robSize": self.rob_size,
            "fetchWidth": self.fetch_width,
            "commitWidth": self.commit_width,
            "flushPenalty": self.flush_penalty,
            "fetchBranchLimit": self.fetch_branch_limit,
            "issueWindowSize": self.issue_window_size,
        }

    @staticmethod
    def from_json(data: dict) -> "BufferConfig":
        return BufferConfig(
            rob_size=int(data.get("robSize", 32)),
            fetch_width=int(data.get("fetchWidth", 2)),
            commit_width=int(data.get("commitWidth", 2)),
            flush_penalty=int(data.get("flushPenalty", 3)),
            fetch_branch_limit=int(data.get("fetchBranchLimit", 1)),
            issue_window_size=int(data.get("issueWindowSize", 8)),
        )


@dataclass
class MemoryConfig:
    """Memory tab: buffers, latencies, call stack, rename file."""

    capacity: int = 64 * 1024
    load_buffer_size: int = 8
    store_buffer_size: int = 8
    load_latency: int = 10
    store_latency: int = 10
    call_stack_size: int = 512
    rename_file_size: int = 32

    def validate(self) -> None:
        if self.capacity <= 0:
            raise ConfigError("memory capacity must be positive")
        if self.call_stack_size < 0 or self.call_stack_size > self.capacity:
            raise ConfigError("call stack size must fit in memory")
        for attr in ("load_buffer_size", "store_buffer_size", "rename_file_size"):
            if getattr(self, attr) <= 0:
                raise ConfigError(f"{attr} must be positive")
        if self.load_latency < 0 or self.store_latency < 0:
            raise ConfigError("memory latencies must be >= 0")

    def to_json(self) -> dict:
        return {
            "capacity": self.capacity,
            "loadBufferSize": self.load_buffer_size,
            "storeBufferSize": self.store_buffer_size,
            "loadLatency": self.load_latency,
            "storeLatency": self.store_latency,
            "callStackSize": self.call_stack_size,
            "renameFileSize": self.rename_file_size,
        }

    @staticmethod
    def from_json(data: dict) -> "MemoryConfig":
        return MemoryConfig(
            capacity=int(data.get("capacity", 64 * 1024)),
            load_buffer_size=int(data.get("loadBufferSize", 8)),
            store_buffer_size=int(data.get("storeBufferSize", 8)),
            load_latency=int(data.get("loadLatency", 10)),
            store_latency=int(data.get("storeLatency", 10)),
            call_stack_size=int(data.get("callStackSize", 512)),
            rename_file_size=int(data.get("renameFileSize", 32)),
        )


@dataclass
class CpuConfig:
    """Complete architecture description (exportable as JSON)."""

    name: str = "default"
    core_clock_hz: float = 100e6
    memory_clock_hz: float = 100e6
    buffers: BufferConfig = field(default_factory=BufferConfig)
    fus: List[FuSpec] = field(default_factory=lambda: [
        FuSpec("FX", "FX1"), FuSpec("FX", "FX2"),
        FuSpec("FP", "FP1"),
        FuSpec("LS", "LS1", latency=1),
        FuSpec("Branch", "BR1", latency=1),
        FuSpec("Memory", "MEM", latency=1),
    ])
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: optional second-level cache (paper future work: deeper hierarchies)
    l2_cache: Optional[CacheConfig] = None
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    max_cycles: int = 1_000_000
    halt_on_exception: bool = True
    #: run uninstrumented simulations through the config-specialized step
    #: loop; it and the interpreter are both emitted from the stage
    #: definitions in repro.core.tracegen and are bit-exact — disable when
    #: bisecting whether a result depends on the execution tier
    trace: bool = True

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Configuration validation, run during simulation init (Sec. III-A)."""
        if self.core_clock_hz <= 0 or self.memory_clock_hz <= 0:
            raise ConfigError("clock speeds must be positive")
        self.buffers.validate()
        self.memory.validate()
        self.cache.validate()
        if self.l2_cache is not None:
            self.l2_cache.validate()
            if not self.cache.enabled and self.l2_cache.enabled:
                raise ConfigError("an L2 cache requires the L1 to be enabled")
        self.predictor.validate()
        if self.max_cycles <= 0:
            raise ConfigError("max_cycles must be positive")
        kinds = [fu.kind for fu in self.fus]
        for required in ("FX", "LS", "Branch"):
            if required not in kinds:
                raise ConfigError(f"at least one {required} unit is required")
        if "Memory" not in kinds:
            raise ConfigError("a Memory unit is required")
        names = [fu.name for fu in self.fus]
        if len(set(names)) != len(names):
            raise ConfigError(f"functional unit names must be unique: {names}")

    # ------------------------------------------------------------------
    def units(self, kind: str) -> List[FuSpec]:
        return [fu for fu in self.fus if fu.kind == kind]

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        data = {
            "name": self.name,
            "coreClockHz": self.core_clock_hz,
            "memoryClockHz": self.memory_clock_hz,
            "buffers": self.buffers.to_json(),
            "functionalUnits": [fu.to_json() for fu in self.fus],
            "cache": self.cache.to_json(),
            "l2Cache": None if self.l2_cache is None else self.l2_cache.to_json(),
            "memory": self.memory.to_json(),
            "branchPredictor": self.predictor.to_json(),
            "maxCycles": self.max_cycles,
            "haltOnException": self.halt_on_exception,
        }
        if not self.trace:  # emitted only when non-default (cf. pipelined)
            data["trace"] = False
        return data

    def to_json_str(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)

    @staticmethod
    def from_json(data: dict) -> "CpuConfig":
        cfg = CpuConfig(
            name=data.get("name", "imported"),
            core_clock_hz=float(data.get("coreClockHz", 100e6)),
            memory_clock_hz=float(data.get("memoryClockHz", 100e6)),
            buffers=BufferConfig.from_json(data.get("buffers", {})),
            cache=CacheConfig.from_json(data.get("cache", {})),
            l2_cache=(CacheConfig.from_json(data["l2Cache"])
                      if data.get("l2Cache") else None),
            memory=MemoryConfig.from_json(data.get("memory", {})),
            predictor=PredictorConfig.from_json(data.get("branchPredictor", {})),
            max_cycles=int(data.get("maxCycles", 1_000_000)),
            halt_on_exception=bool(data.get("haltOnException", True)),
            trace=bool(data.get("trace", True)),
        )
        if "functionalUnits" in data:
            cfg.fus = [FuSpec.from_json(d) for d in data["functionalUnits"]]
        return cfg

    @staticmethod
    def from_json_str(text: str) -> "CpuConfig":
        try:
            return CpuConfig.from_json(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid architecture JSON: {exc}") from exc

    # ------------------------------------------------------------------
    @staticmethod
    def preset(name: str) -> "CpuConfig":
        """Built-in architectures selectable in the settings window."""
        if name == "default":
            return CpuConfig()
        if name == "scalar":
            cfg = CpuConfig(name="scalar")
            cfg.buffers = BufferConfig(rob_size=8, fetch_width=1,
                                       commit_width=1, flush_penalty=2,
                                       issue_window_size=2)
            cfg.fus = [FuSpec("FX", "FX1"), FuSpec("FP", "FP1"),
                       FuSpec("LS", "LS1", latency=1),
                       FuSpec("Branch", "BR1", latency=1),
                       FuSpec("Memory", "MEM", latency=1)]
            cfg.cache.enabled = False
            cfg.predictor = PredictorConfig(predictor_type="zero",
                                            default_state=0)
            return cfg
        if name == "wide":
            cfg = CpuConfig(name="wide")
            cfg.buffers = BufferConfig(rob_size=64, fetch_width=4,
                                       commit_width=4, flush_penalty=4,
                                       fetch_branch_limit=2,
                                       issue_window_size=16)
            cfg.fus = [FuSpec("FX", f"FX{i}") for i in range(1, 4)] + [
                FuSpec("FP", "FP1"), FuSpec("FP", "FP2"),
                FuSpec("LS", "LS1", latency=1), FuSpec("LS", "LS2", latency=1),
                FuSpec("Branch", "BR1", latency=1),
                FuSpec("Memory", "MEM", latency=1),
            ]
            cfg.cache = CacheConfig(line_count=32, line_size=32,
                                    associativity=4)
            cfg.memory.rename_file_size = 64
            cfg.memory.load_buffer_size = 16
            cfg.memory.store_buffer_size = 16
            return cfg
        raise ConfigError(f"unknown preset architecture '{name}'")


def preset_names() -> List[str]:
    return ["default", "scalar", "wide"]
