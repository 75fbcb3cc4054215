"""The session path on generated programs and configurations.

A web client holds a full snapshot and patches it with the deltas the
server sends (``snapshot_delta_json`` applied with
``apply_snapshot_delta``), while the user steps forward, steps back and
seeks.  After every move the patched view and a fresh ``snapshot()``
must both equal ``snapshot_cold()`` of a plain from-zero replay to the
same cycle.  This pins, on generated input, everything the three paths
share: the dirty-version bumps the stage code makes, checkpoint restore
(with the default ring and under a tight byte budget), fast-forward
through the step loop, and entry-level delta encoding.

Tier-1 runs hypothesis' default example budget; the long run is
``pytest tests/integration/test_session_path.py --hypothesis-profile=ci``.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import Simulation
from repro.sim.state import apply_snapshot_delta
from tests.integration.test_differential import random_config, random_program

MOVES = st.lists(st.one_of(
    st.tuples(st.just("step"), st.integers(1, 40)),
    st.tuples(st.just("back"), st.integers(1, 40)),
    st.tuples(st.just("seek"), st.integers(0, 600)),
), min_size=1, max_size=8)

#: the default checkpoint ring, and a byte budget so tight that only the
#: pinned cycle-0 base and the newest checkpoint survive
RINGS = {
    "default": {},
    "tight": {"checkpoint_interval": 16, "checkpoint_max_bytes": 1},
}


def canonical(view):
    return json.dumps(view, sort_keys=True)


class ColdReplay:
    """``snapshot_cold()`` after plain forward stepping from cycle 0 (a
    fresh simulation whenever the target lies behind it)."""

    def __init__(self, source, config):
        self.source, self.config = source, config
        self.sim = None

    def at(self, cycle):
        if self.sim is None or self.sim.cycle > cycle:
            self.sim = Simulation.from_source(self.source, config=self.config)
        self.sim.step(cycle - self.sim.cycle)
        return canonical(self.sim.snapshot_cold())


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(deadline=None)
@given(source=random_program(), config=random_config(cycle_limit=True),
       moves=MOVES)
def test_delta_chain_and_snapshot_match_cold_replay(ring, source, config,
                                                    moves):
    sim = Simulation.from_source(source, config=config, **RINGS[ring])
    reference = ColdReplay(source, config)
    view = json.loads(sim.snapshot_json())
    assert canonical(view) == reference.at(0)
    for kind, amount in moves:
        if kind == "step":
            sim.step(amount)
        elif kind == "back":
            sim.step_back(amount)
        else:
            sim.seek(amount)
        delta = json.loads(sim.snapshot_delta_json(since_cycle=view["cycle"]))
        view = apply_snapshot_delta(view, delta)
        expected = reference.at(sim.cycle)
        assert canonical(view) == expected, (kind, amount, sim.cycle)
        assert canonical(sim.snapshot()) == expected, (kind, amount)
