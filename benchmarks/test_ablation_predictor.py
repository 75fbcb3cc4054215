"""Ablation: branch predictor type (zero/one/two-bit) and history kind.

Regenerates the classic teaching result the Branch-prediction tab enables:
2-bit beats 1-bit on loop-heavy code; correlated branches need global
history; better prediction means fewer pipeline flushes and fewer cycles.

Since PR 3 the predictor-type sweep runs on the experiment engine
(:mod:`repro.explore`) as a declarative axis over
``config.branchPredictor``; the correlated-branch study keeps its own
two-point sweep over the history kind.
"""

import pytest

from repro.explore import SweepSpec, run_sweep
from repro.predictor.unit import PredictorConfig

#: nested loops: inner branch taken 9 of 10 times
LOOPY = """
    li s0, 0          # outer counter
    li s1, 20         # outer bound
outer:
    li t0, 0
inner:
    addi t0, t0, 1
    li   t1, 10
    blt  t0, t1, inner
    addi s0, s0, 1
    blt  s0, s1, outer
    ebreak
"""

_VARIANTS = {
    "zero-NT": PredictorConfig(predictor_type="zero", default_state=0),
    "zero-T": PredictorConfig(predictor_type="zero", default_state=1),
    "one": PredictorConfig(predictor_type="one", default_state=0),
    "two": PredictorConfig(predictor_type="two", default_state=1),
}

SPEC = {
    "name": "predictor-ablation",
    "programs": [{"name": "loopy", "source": LOOPY}],
    "axes": [{
        "name": "pred",
        "values": [{"config.branchPredictor": cfg.to_json()}
                   for cfg in _VARIANTS.values()],
        "labels": list(_VARIANTS),
    }],
}


@pytest.fixture(scope="module")
def predictor_run():
    run = run_sweep(SweepSpec.from_json(SPEC), workers=0)
    assert not run.failures, run.failures
    return run


@pytest.fixture(scope="module")
def predictor_sweep(predictor_run):
    results = {r["point"]["pred"]: r["stats"]
               for r in predictor_run.records}
    print("\npredictor sweep (nested loops, repro.explore engine):")
    for name, stats in results.items():
        print(f"  {name:<8} accuracy={stats['branchAccuracy']:.3f} "
              f"flushes={stats['robFlushes']:<4} cycles={stats['cycles']}")
    return results


class TestPredictorAblation:
    def test_two_bit_most_accurate(self, predictor_sweep):
        accuracy = {k: v["branchAccuracy"]
                    for k, v in predictor_sweep.items()}
        assert accuracy["two"] >= accuracy["one"]
        assert accuracy["two"] > accuracy["zero-NT"]

    def test_static_not_taken_is_terrible_on_loops(self, predictor_sweep):
        assert predictor_sweep["zero-NT"]["branchAccuracy"] < 0.25

    def test_accuracy_translates_to_cycles(self, predictor_sweep):
        assert predictor_sweep["two"]["cycles"] \
            < predictor_sweep["zero-NT"]["cycles"]

    def test_flushes_inverse_to_accuracy(self, predictor_sweep):
        assert predictor_sweep["two"]["robFlushes"] \
            < predictor_sweep["zero-NT"]["robFlushes"]

    def test_all_variants_compute_same_result(self, predictor_sweep):
        # s0 == x8 == 20 outer iterations, regardless of the predictor
        finals = {stats["intRegisters"][8]
                  for stats in predictor_sweep.values()}
        assert finals == {20}

    def test_ranking_by_branch_accuracy(self, predictor_run):
        labels = [entry["label"] for entry
                  in predictor_run.report(metric="branchAccuracy").ranking()]
        # dynamic 2-bit outranks 1-bit; static not-taken is dead last
        assert labels.index("program=loopy/pred=two") \
            < labels.index("program=loopy/pred=one")
        assert labels[-1] == "program=loopy/pred=zero-NT"


def test_correlated_branches_need_global_history():
    """Two perfectly correlated alternating branches: gshare learns the
    pattern via global history, per-branch local history cannot.  Swept as
    a two-point axis over the history kind."""
    source = """
    li s0, 0
    li s1, 0          # parity
    li s2, 200
loop:
    xori s1, s1, 1
    beqz s1, even     # alternates every iteration
    addi s0, s0, 1
even:
    bnez s1, odd      # mirror of the branch above
    addi s0, s0, 1
odd:
    addi s2, s2, -1
    bnez s2, loop
    ebreak
"""
    def predictor(use_global: bool) -> dict:
        return {"config.branchPredictor": PredictorConfig(
            predictor_type="two", default_state=1,
            use_global_history=use_global, history_bits=4,
            pht_size=256).to_json()}

    spec = {
        "name": "history-kind",
        "programs": [{"name": "corr", "source": source}],
        "axes": [{"name": "history",
                  "values": [predictor(True), predictor(False)],
                  "labels": ["global", "local"]}],
    }
    run = run_sweep(SweepSpec.from_json(spec), workers=0)
    accuracy = {r["point"]["history"]: r["stats"]["branchAccuracy"]
                for r in run.records}
    print(f"\ncorrelated branches: global={accuracy['global']:.3f} "
          f"local={accuracy['local']:.3f}")
    assert accuracy["global"] > accuracy["local"]
