"""Architecture configuration tests (Fig. 9 settings window)."""

import json

import pytest

from repro.core.config import (BufferConfig, CpuConfig, FuSpec, MemoryConfig,
                               preset_names)
from repro.errors import ConfigError
from repro.memory.main_memory import MAX_CAPACITY


class TestFuSpec:
    def test_fx_defaults(self):
        fu = FuSpec("FX")
        assert fu.supports("addition")
        assert fu.supports("division")
        assert fu.latency_of("multiplication") == 3

    def test_fp_defaults(self):
        fu = FuSpec("FP")
        assert fu.supports("fadd") and fu.supports("fsqrt")
        assert not fu.supports("addition")

    def test_custom_operations_restrict_support(self):
        fu = FuSpec("FX", "FXsimple", operations={"addition": 1, "bitwise": 1})
        assert fu.supports("addition")
        assert not fu.supports("multiplication")

    def test_ls_units_use_flat_latency(self):
        fu = FuSpec("LS", latency=3)
        assert fu.latency_of("load") == 3
        assert fu.supports("anything")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            FuSpec("VECTOR")

    def test_zero_latency_rejected(self):
        with pytest.raises(ConfigError):
            FuSpec("FX", operations={"addition": 0})
        with pytest.raises(ConfigError):
            FuSpec("LS", latency=0)

    def test_json_roundtrip(self):
        fu = FuSpec("FX", "myunit", operations={"addition": 2, "shift": 1})
        clone = FuSpec.from_json(fu.to_json())
        assert clone == fu


class TestValidation:
    def test_default_is_valid(self):
        CpuConfig().validate()

    def test_presets_are_valid(self):
        for name in preset_names():
            CpuConfig.preset(name).validate()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            CpuConfig.preset("gigantic")

    @pytest.mark.parametrize("mutate", [
        lambda c: setattr(c.buffers, "rob_size", 0),
        lambda c: setattr(c.buffers, "fetch_width", 0),
        lambda c: setattr(c.buffers, "flush_penalty", -1),
        lambda c: setattr(c.memory, "capacity", 0),
        lambda c: setattr(c.memory, "capacity", MAX_CAPACITY + 1),
        lambda c: setattr(c.memory, "rename_file_size", 0),
        lambda c: setattr(c.memory, "call_stack_size", 10**9),
        lambda c: setattr(c, "core_clock_hz", 0),
        lambda c: setattr(c, "max_cycles", 0),
    ])
    def test_invalid_fields(self, mutate):
        config = CpuConfig()
        mutate(config)
        with pytest.raises(ConfigError):
            config.validate()

    def test_requires_fx_ls_branch_memory_units(self):
        config = CpuConfig()
        config.fus = [FuSpec("FX"), FuSpec("LS"), FuSpec("Branch")]
        with pytest.raises(ConfigError):
            config.validate()

    def test_duplicate_unit_names_rejected(self):
        config = CpuConfig()
        config.fus = [FuSpec("FX", "U"), FuSpec("FX", "U"), FuSpec("LS", "L"),
                      FuSpec("Branch", "B"), FuSpec("Memory", "M")]
        with pytest.raises(ConfigError):
            config.validate()


class TestJson:
    def test_roundtrip_default(self):
        config = CpuConfig()
        clone = CpuConfig.from_json_str(config.to_json_str())
        assert clone == config

    def test_roundtrip_customized(self):
        config = CpuConfig.preset("wide")
        config.cache.replacement_policy = "Random"
        config.predictor.predictor_type = "one"
        config.memory.load_latency = 25
        clone = CpuConfig.from_json_str(config.to_json_str())
        assert clone == config

    def test_export_is_valid_json_with_all_tabs(self):
        data = json.loads(CpuConfig().to_json_str())
        for key in ("name", "coreClockHz", "memoryClockHz", "buffers",
                    "functionalUnits", "cache", "memory", "branchPredictor"):
            assert key in data

    def test_import_with_defaults(self):
        config = CpuConfig.from_json_str('{"name": "min"}')
        config.validate()
        assert config.name == "min"

    def test_invalid_json_raises(self):
        with pytest.raises(ConfigError):
            CpuConfig.from_json_str("{oops")


class TestPresets:
    def test_scalar_is_single_issue(self):
        config = CpuConfig.preset("scalar")
        assert config.buffers.fetch_width == 1
        assert config.buffers.commit_width == 1
        assert not config.cache.enabled

    def test_wide_is_wider_than_default(self):
        wide, default = CpuConfig.preset("wide"), CpuConfig()
        assert wide.buffers.fetch_width > default.buffers.fetch_width
        assert wide.buffers.rob_size > default.buffers.rob_size
        assert len(wide.units("FX")) > len(default.units("FX"))

    def test_units_accessor(self):
        config = CpuConfig()
        assert all(fu.kind == "FX" for fu in config.units("FX"))
        assert len(config.units("Memory")) == 1
