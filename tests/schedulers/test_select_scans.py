"""Each policy's one-pass ``select`` equals the base reference scan,
and TCM's ``demand_keys`` equals the base keys.

FCFS, FR-FCFS, TCM, ATLAS, PAR-BS and STFM compare their priority
slots in place instead of building a ``priority`` tuple per queued
request.  Every such scan must return exactly the request the base
``Scheduler.select`` returns — the first maximum of
``(demand, *priority)`` in queue order — on queues with equal
arrivals, demand/prefetch mixes and any open row.  FCFS and FR-FCFS
rely on queues being in arrival order (they are: controllers append);
the four thread-aware scans compare arrivals explicitly and are exact
on any queue order.  TCM builds its ``demand_keys`` in place too, and
explain records those keys: they must equal
``(not r.is_prefetch,) + priority(r, r.row == open_row, now)`` per
queued request, in queue order, slot for slot and type for type.
"""

import pytest
from hypothesis import given, strategies as st

from repro.config import SimConfig, TCMParams
from repro.core.tcm import TCMScheduler
from repro.dram.channel import Channel
from repro.dram.request import MemoryRequest
from repro.explain.shadow import ShadowPARBS
from repro.schedulers import make_scheduler
from repro.schedulers.base import Scheduler

pytestmark = pytest.mark.property

CFG = SimConfig()
THREADS = 4
ROWS = 3
#: ATLAS's default starvation threshold
THRESHOLD = make_scheduler("atlas").params.starvation_threshold


@st.composite
def entries(draw):
    """(thread, row, arrival, is_prefetch, marked) per queued request.

    Few threads, rows and arrival values, so slot ties are common; the
    queue is all demand, all prefetch or mixed."""
    mix = draw(st.sampled_from(["demand", "prefetch", "mixed"]))
    prefetch = {"demand": st.just(False), "prefetch": st.just(True),
                "mixed": st.booleans()}[mix]
    return draw(st.lists(
        st.tuples(
            st.integers(0, THREADS - 1),
            st.integers(0, ROWS - 1),
            st.integers(0, 6),
            prefetch,
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ))


open_rows = st.one_of(st.none(), st.integers(0, ROWS))
#: rank maps with ties and with threads left out (rank 0)
rank_maps = st.dictionaries(
    st.integers(0, THREADS - 1), st.integers(0, 3), max_size=THREADS
)


def bank(channel_id, rows, open_row, ordered=True):
    """A channel whose bank 0 queues ``rows`` (arrival-sorted if
    ``ordered``, stably, as controllers append them)."""
    if ordered:
        rows = sorted(rows, key=lambda entry: entry[2])
    channel = Channel(channel_id, CFG)
    for tid, row, arrival, prefetch, marked in rows:
        request = MemoryRequest(
            thread_id=tid, channel_id=channel_id, bank_id=0, row=row,
            arrival=arrival, is_prefetch=prefetch,
        )
        request.marked = marked
        channel.enqueue(request)
    channel.banks[0].open_row = open_row
    return channel


def assert_reference(policy, channel, now):
    expected = Scheduler.select(policy, channel, 0, now)
    assert policy.select(channel, 0, now) is expected


def assert_keys(policy, channel, now):
    """``policy.demand_keys`` equals the keys built on ``priority``,
    with the same types (True and 1 compare equal but record apart)."""
    open_row = channel.banks[0].open_row
    expected = [
        (not r.is_prefetch,) + policy.priority(r, r.row == open_row, now)
        for r in channel.queues[0]
    ]
    keys = policy.demand_keys(channel, 0, now)
    assert keys == expected
    assert ([[type(slot) for slot in key] for key in keys]
            == [[type(slot) for slot in key] for key in expected])


class TestArrivalOrderedQueues:
    @given(entries(), open_rows)
    def test_fcfs(self, rows, open_row):
        assert_reference(make_scheduler("fcfs"), bank(0, rows, open_row), 9)

    @given(entries(), open_rows)
    def test_frfcfs(self, rows, open_row):
        assert_reference(
            make_scheduler("frfcfs"), bank(0, rows, open_row), 9
        )

    @given(entries(), open_rows, rank_maps, rank_maps, st.booleans())
    def test_tcm(self, rows, open_row, ranks0, ranks1, synchronised):
        policy = TCMScheduler(TCMParams(sync_shuffle=synchronised))
        if synchronised:
            policy._ranks = [ranks0] * CFG.num_channels
        else:
            policy._ranks = [ranks0, ranks1] + [{}] * (CFG.num_channels - 2)
        for channel_id in (0, 1):
            assert_reference(policy, bank(channel_id, rows, open_row), 9)

    @given(entries(), open_rows)
    def test_tcm_before_first_quantum(self, rows, open_row):
        assert_reference(TCMScheduler(), bank(0, rows, open_row), 9)

    @given(entries(), open_rows, rank_maps)
    def test_parbs(self, rows, open_row, ranks):
        policy = make_scheduler("parbs")
        policy._rank = ranks
        assert_reference(policy, bank(0, rows, open_row), 9)

    @given(entries(), open_rows, rank_maps, st.data(),
           st.sampled_from([-1, 0, 1]))
    def test_atlas(self, rows, open_row, ranks, data, offset):
        """The starvation horizon lands on a queued arrival (``offset``
        0: that request arrived exactly ``threshold`` cycles ago and
        does not starve) or just beside it."""
        policy = make_scheduler("atlas")
        policy._rank = ranks
        edge = data.draw(st.sampled_from([entry[2] for entry in rows]))
        now = edge + THRESHOLD + offset
        assert_reference(policy, bank(0, rows, open_row), now)

    @given(entries(), open_rows,
           st.one_of(st.none(), st.integers(0, THREADS - 1)))
    def test_stfm(self, rows, open_row, victim):
        policy = make_scheduler("stfm")
        policy._victim = victim
        assert_reference(policy, bank(0, rows, open_row), 9)


class TestAnyQueueOrder:
    """The thread-aware scans compare arrivals, so queue order does
    not matter to their exactness."""

    @given(entries(), open_rows, rank_maps)
    def test_tcm(self, rows, open_row, ranks):
        policy = TCMScheduler()
        policy._ranks = [ranks] * CFG.num_channels
        assert_reference(policy, bank(0, rows, open_row, ordered=False), 9)

    @given(entries(), open_rows, rank_maps)
    def test_parbs(self, rows, open_row, ranks):
        policy = make_scheduler("parbs")
        policy._rank = ranks
        assert_reference(policy, bank(0, rows, open_row, ordered=False), 9)

    @given(entries(), open_rows, rank_maps, st.data())
    def test_atlas(self, rows, open_row, ranks, data):
        policy = make_scheduler("atlas")
        policy._rank = ranks
        edge = data.draw(st.sampled_from([entry[2] for entry in rows]))
        assert_reference(policy, bank(0, rows, open_row, ordered=False),
                         edge + THRESHOLD)

    @given(entries(), open_rows, st.integers(0, THREADS - 1))
    def test_stfm(self, rows, open_row, victim):
        policy = make_scheduler("stfm")
        policy._victim = victim
        assert_reference(policy, bank(0, rows, open_row, ordered=False), 9)


class TestDemandKeys:
    """TCM's in-place ``demand_keys`` against ``priority``."""

    @given(entries(), open_rows, rank_maps, rank_maps, st.booleans())
    def test_tcm(self, rows, open_row, ranks0, ranks1, synchronised):
        policy = TCMScheduler(TCMParams(sync_shuffle=synchronised))
        if synchronised:
            policy._ranks = [ranks0] * CFG.num_channels
        else:
            policy._ranks = [ranks0, ranks1] + [{}] * (CFG.num_channels - 2)
        for channel_id in (0, 1):
            assert_keys(policy, bank(channel_id, rows, open_row), 9)

    @given(entries(), open_rows)
    def test_tcm_before_first_quantum(self, rows, open_row):
        assert_keys(TCMScheduler(), bank(0, rows, open_row), 9)


def test_shadow_parbs_keeps_the_reference_scan():
    """A shadow's batch marks live in a side set that PAR-BS's scan
    (which reads ``request.marked``) cannot see."""
    assert ShadowPARBS.select is Scheduler.select


@pytest.mark.parametrize("name", ["fcfs", "frfcfs", "tcm", "atlas",
                                  "parbs", "stfm"])
def test_empty_queue_raises(name):
    with pytest.raises(RuntimeError, match="empty queue"):
        make_scheduler(name).select(Channel(0, CFG), 0, now=0)
