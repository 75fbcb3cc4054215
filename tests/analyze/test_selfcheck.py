"""Self-check: repro-lint over the real ``src/repro`` tree.

Tier-1 runs this, so a change that violates a machine-checked invariant
(or invalidates the committed baseline) fails locally — no waiting for
the CI lint job."""

from repro.analyze.baseline import Baseline
from repro.analyze.engine import LintEngine
from repro.analyze.project import Project, discover_root
from repro.analyze.rules.protocol import extract_protocol


def load_real_tree():
    root = discover_root()
    return root, Project.load(root)


class TestSelfCheck:
    def test_tree_is_clean_against_the_committed_baseline(self):
        root, project = load_real_tree()
        baseline = Baseline.load(root / "lint-baseline.json")
        findings = LintEngine(project, baseline=baseline).run()
        new, _baselined = baseline.split(findings)
        assert new == [], (
            "repro-lint found non-baselined violations:\n"
            + "\n".join(f.render() for f in new)
            + "\nFix them (preferred), or if verified harmless run "
              "`repro-sim lint --update-baseline` and add a "
              "justification.")

    def test_baseline_has_no_stale_entries(self):
        root, project = load_real_tree()
        baseline = Baseline.load(root / "lint-baseline.json")
        findings = LintEngine(project, baseline=baseline).run()
        assert baseline.stale_keys(findings) == [], (
            "baseline entries no longer fire; re-run "
            "`repro-sim lint --update-baseline` to prune them")

    def test_every_baseline_entry_is_justified(self):
        root, _project = load_real_tree()
        baseline = Baseline.load(root / "lint-baseline.json")
        unjustified = [key for key, justification
                       in baseline.entries.items()
                       if not justification.strip()]
        assert unjustified == [], (
            "baseline entries need a human justification: "
            f"{unjustified}")

    def test_baseline_pins_the_current_protocol_surface(self):
        # the PC003 guard only works if the pin is fresh: a PR that adds
        # a route must bump PROTOCOL_VERSION *and* refresh the pin
        root, project = load_real_tree()
        baseline = Baseline.load(root / "lint-baseline.json")
        version, routes = extract_protocol(project)
        assert baseline.protocol_version == version
        assert sorted(baseline.protocol_routes or []) == routes

    def test_determinism_scope_covers_the_simulator_core(self):
        # the import graph must actually reach the record-producing core;
        # if this shrinks, DT* rules silently stop covering it
        from repro.analyze.rules.determinism import DeterminismRule
        _root, project = load_real_tree()
        scope = DeterminismRule().scope(project)
        for expected in ("repro.explore.runner", "repro.sim.simulation",
                         "repro.core.pipeline", "repro.memory.main_memory",
                         "repro.sim.statistics", "repro.core.tracegen"):
            assert expected in scope, f"{expected} left determinism scope"

    def test_listed_scope_modules_exist(self):
        # both rules skip listed modules that are missing from the tree,
        # so a deleted or renamed module would shrink their scope silently
        from repro.analyze.rules.determinism import EXPLICIT_MODULES
        from repro.analyze.rules.lock_discipline import LOCK_MODULES
        _root, project = load_real_tree()
        missing = [name for name in EXPLICIT_MODULES
                   if name not in project.modules]
        missing += [rel for rel in LOCK_MODULES
                    if project.by_rel(rel) is None]
        assert missing == [], f"lint scopes name missing modules: {missing}"
