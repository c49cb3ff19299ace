"""Golden checkpoint recording: every golden point's state, per quantum.

``tests/goldens/golden_checkpoints.json`` holds, for each point of the
golden matrix, all seven :mod:`repro.diverge` state components
fingerprinted at every quantum boundary of its run.  The one run of
each point (the ``golden_pass`` fixture, the run ``validate goldens``
makes) must reproduce its recording, so the simulator's whole state
is checked mid-run, not just its end result; a drift names the first
checkpoint and component that left the recording.  Regenerate
together with the goldens
(``python -m repro.experiments.cli validate goldens --update``).
"""

import pytest

from repro.diverge import COMPONENTS
from repro.validate import GOLDEN_CONFIG, load_golden_checkpoints
from repro.validate.goldens import golden_keys

pytestmark = pytest.mark.validate

#: Tier-1 sample: one point per intensity class, three policy families.
SAMPLE = (
    "mix-25pct-s7/stfm/s11",
    "mix-50pct-s7/atlas/s11",
    "mix-100pct-s7/tcm/s11",
)


@pytest.fixture(scope="module")
def recordings():
    return load_golden_checkpoints()


def _replay(recordings, golden_pass, key):
    _, fresh = golden_pass
    assert fresh[key] == recordings[key]


def test_recording_covers_the_golden_matrix(recordings):
    assert sorted(recordings) == sorted(golden_keys())
    for recording in recordings.values():
        assert recording["cadence"] == GOLDEN_CONFIG.quantum_cycles
        assert recording["horizon"] == GOLDEN_CONFIG.run_cycles
        assert recording["components"] == list(COMPONENTS)


@pytest.mark.parametrize("key", SAMPLE)
def test_sampled_points_replay(recordings, golden_pass, key):
    _replay(recordings, golden_pass, key)


@pytest.mark.slow
@pytest.mark.parametrize("key", golden_keys())
def test_every_point_replays(recordings, golden_pass, key):
    _replay(recordings, golden_pass, key)
