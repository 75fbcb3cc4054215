"""Sweep spec & planner tests: JSON round trip, grid/random expansion,
deterministic planning, dotted-path application, validation errors."""

import json

import pytest

from repro.explore import SweepSpec, SweepSpecError, plan_jobs
from repro.explore.plan import apply_assignment

ASM = "    li a0, 1\n    ebreak\n"


def minimal_spec(**overrides) -> dict:
    data = {
        "name": "t",
        "programs": [{"name": "p", "source": ASM}],
        "axes": [{"name": "w", "path": "config.buffers.fetchWidth",
                  "values": [1, 2]}],
    }
    data.update(overrides)
    return data


class TestSpecParsing:
    def test_json_round_trip(self):
        spec = SweepSpec.from_json(minimal_spec())
        again = SweepSpec.from_json(spec.to_json())
        assert again.to_json() == spec.to_json()

    def test_from_json_str_and_load(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(minimal_spec()))
        spec = SweepSpec.load(str(path))
        assert spec.name == "t"
        assert len(spec.axes) == 1

    def test_sampling_mode_object_form(self):
        spec = SweepSpec.from_json(minimal_spec(
            sampling={"mode": "random", "samples": 3, "seed": 9}))
        assert spec.sampling == "random"
        assert spec.samples == 3 and spec.seed == 9

    @pytest.mark.parametrize("mutation", [
        {"programs": []},
        {"programs": [{"name": "p"}]},                      # no source
        {"programs": [{"name": "p", "source": ASM, "c": "int main;"}]},
        {"programs": [{"name": "p", "source": ASM},
                      {"name": "p", "source": ASM}]},       # dup name
        {"axes": [{"name": "w", "values": []}]},
        {"axes": [{"name": "w", "values": [1]}]},           # scalar, no path
        {"axes": [{"name": "w", "path": "config.buffers.fetchWidth",
                   "values": [1], "labels": ["a", "b"]}]},
        {"sampling": "sometimes"},
        {"sampling": "random"},                             # no samples
        {"collect": "everything"},
        {"maxCycles": 0},
        {"config": "no-such-preset"},
        {"config": 17},
    ])
    def test_invalid_specs_rejected(self, mutation):
        with pytest.raises(SweepSpecError):
            SweepSpec.from_json(minimal_spec(**mutation))

    def test_bad_json_text(self):
        with pytest.raises(SweepSpecError, match="invalid sweep JSON"):
            SweepSpec.from_json_str("{nope")


class TestExpansion:
    def test_grid_order_last_axis_fastest(self):
        spec = SweepSpec.from_json(minimal_spec(axes=[
            {"name": "a", "path": "config.buffers.fetchWidth",
             "values": [1, 2]},
            {"name": "b", "path": "config.cache.lineCount",
             "values": [8, 16]},
        ]))
        labels = [job.label for job in plan_jobs(spec)]
        assert labels == [
            "program=p/a=1/b=8", "program=p/a=1/b=16",
            "program=p/a=2/b=8", "program=p/a=2/b=16",
        ]

    def test_programs_are_the_outermost_dimension(self):
        spec = SweepSpec.from_json(minimal_spec(
            programs=[{"name": "p1", "source": ASM},
                      {"name": "p2", "source": ASM}]))
        points = [job.point["program"] for job in plan_jobs(spec)]
        assert points == ["p1", "p1", "p2", "p2"]

    def test_random_sampling_is_seeded_and_stable(self):
        data = minimal_spec(sampling="random", samples=6, seed=42)
        first = [j.label for j in plan_jobs(SweepSpec.from_json(data))]
        second = [j.label for j in plan_jobs(SweepSpec.from_json(data))]
        assert first == second
        assert len(first) == 6
        other_seed = minimal_spec(sampling="random", samples=6, seed=43)
        third = [j.label for j in plan_jobs(SweepSpec.from_json(other_seed))]
        assert third != first        # astronomically unlikely to collide

    def test_grid_size(self):
        spec = SweepSpec.from_json(minimal_spec(
            programs=[{"name": "p1", "source": ASM},
                      {"name": "p2", "source": ASM}],
            axes=[{"name": "a", "path": "config.cache.lineCount",
                   "values": [1, 2, 3]}]))
        assert spec.grid_size() == 6
        assert len(plan_jobs(spec)) == 6


class TestPlanner:
    def test_payloads_are_self_contained_and_independent(self):
        spec = SweepSpec.from_json(minimal_spec())
        jobs, planned = plan_jobs(spec), plan_jobs(spec)
        assert jobs[0].payload["config"]["buffers"]["fetchWidth"] == 1
        assert jobs[1].payload["config"]["buffers"]["fetchWidth"] == 2

        # changing anything in one job's configuration must leave its
        # siblings as planned: no dict or list is shared between jobs
        def scribble(node):
            if isinstance(node, dict):
                for value in node.values():
                    scribble(value)
                node["scribbled"] = True
            elif isinstance(node, list):
                for value in node:
                    scribble(value)
                node.append("scribbled")

        scribble(jobs[0].payload["config"])
        assert jobs[1].payload == planned[1].payload
        assert jobs[0].payload != planned[0].payload

    def test_dict_axis_moves_coupled_parameters(self):
        spec = SweepSpec.from_json(minimal_spec(axes=[
            {"name": "width", "values": [
                {"config.buffers.fetchWidth": 4,
                 "config.buffers.commitWidth": 4}],
             "labels": ["w4"]}]))
        payload = plan_jobs(spec)[0].payload
        assert payload["config"]["buffers"]["fetchWidth"] == 4
        assert payload["config"]["buffers"]["commitWidth"] == 4

    def test_job_level_paths(self):
        payload = {"config": {}}
        apply_assignment(payload, "optimizeLevel", 3)
        apply_assignment(payload, "maxCycles", 500)
        assert payload["optimizeLevel"] == 3 and payload["maxCycles"] == 500

    def test_unknown_path_fails_planning(self):
        with pytest.raises(SweepSpecError, match="unsupported sweep path"):
            apply_assignment({"config": {}}, "turboBoost", True)
        with pytest.raises(SweepSpecError):
            apply_assignment({"config": {}}, "config", 1)

    def test_typoed_config_path_fails_planning(self):
        """CpuConfig.from_json ignores unknown keys, so a typo'd path must
        die at planning — not produce N identical runs labelled as a
        sweep."""
        spec = SweepSpec.from_json(minimal_spec(axes=[
            {"name": "w", "path": "config.buffers.fetchWdith",  # typo
             "values": [1, 2]}]))
        with pytest.raises(SweepSpecError, match="fetchWdith"):
            plan_jobs(spec)
        spec = SweepSpec.from_json(minimal_spec(axes=[
            {"name": "w", "path": "config.bufers.fetchWidth",   # typo
             "values": [1]}]))
        with pytest.raises(SweepSpecError, match="not a configuration"):
            plan_jobs(spec)

    def test_null_subtree_requires_whole_object_assignment(self):
        # descending into the null l2Cache is a spec error...
        spec = SweepSpec.from_json(minimal_spec(axes=[
            {"name": "l2", "path": "config.l2Cache.lineCount",
             "values": [64]}]))
        with pytest.raises(SweepSpecError):
            plan_jobs(spec)
        # ...assigning the whole object at its (existing) key works
        spec = SweepSpec.from_json(minimal_spec(axes=[
            {"name": "l2", "path": "config.l2Cache",
             "values": [{"lineCount": 64, "lineSize": 32}]}]))
        payload = plan_jobs(spec)[0].payload
        assert payload["config"]["l2Cache"]["lineCount"] == 64

    def test_optlevel_axis_requires_a_c_program(self):
        spec = SweepSpec.from_json(minimal_spec(axes=[
            {"name": "O", "path": "optimizeLevel", "values": [0, 2]}]))
        with pytest.raises(SweepSpecError, match="assembly"):
            plan_jobs(spec)

    def test_config_name_carries_the_label(self):
        job = plan_jobs(SweepSpec.from_json(minimal_spec()))[0]
        assert job.payload["config"]["name"] == job.label
