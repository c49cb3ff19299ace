"""Bit-exactness of the CPU model's buffered RNG streams.

:class:`repro.workloads.rng.BufferedPCG64` claims to reproduce the
exact bit stream of scalar ``numpy.random.Generator`` calls while
fetching raw words in blocks.  These tests hold it to that claim draw
by draw: any interleaving of ``random()`` / ``integers(n)`` /
``uniform()`` against a twin generator with the same seed must agree
with ``==`` (no tolerance — a single off-by-one-ulp draw cascades into
a golden fingerprint mismatch).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.cpu.thread import _PHASE_MULTIPLIERS  # noqa: E402
from repro.workloads.rng import BLOCK, FIRST_BLOCK, BufferedPCG64  # noqa: E402


def _twins(seed):
    """A buffered generator and an unbuffered numpy twin, same seed."""
    buffered = BufferedPCG64(np.random.Generator(np.random.PCG64(seed)))
    scalar = np.random.Generator(np.random.PCG64(seed))
    return buffered, scalar


@pytest.mark.parametrize("seed", [0, 1, 42, 2**31])
def test_random_stream_bit_exact(seed):
    buffered, scalar = _twins(seed)
    for _ in range(3 * BLOCK):  # cross several refill boundaries
        assert buffered.random() == scalar.random()


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("bound", [1, 2, 3, 16, 16_384, 2**31, 2**33])
def test_integers_bit_exact(seed, bound):
    """Lemire rejection matches numpy for 32- and 64-bit ranges.

    ``bound=1`` pins numpy's zero-range short circuit: no bits are
    consumed, so the streams must stay aligned afterwards.
    """
    buffered, scalar = _twins(seed)
    for _ in range(500):
        assert buffered.integers(bound) == int(scalar.integers(bound))
    # the same number of raw words was consumed
    assert buffered.random() == scalar.random()


@pytest.mark.parametrize("seed", [3, 99])
def test_uniform_bit_exact(seed):
    buffered, scalar = _twins(seed)
    for _ in range(200):
        assert buffered.uniform(0.9, 1.1) == scalar.uniform(0.9, 1.1)


def test_half_word_banking():
    """``next32`` hands out the low half first and banks the high half
    — numpy's ``pcg64_next32`` — so odd numbers of 32-bit draws leave
    the stream half-word aligned, exactly like numpy."""
    buffered, scalar = _twins(5)
    word = int(scalar.integers(0, 1 << 64, dtype=np.uint64))
    assert buffered.next32() == word & 0xFFFFFFFF
    assert buffered.next32() == word >> 32
    # an odd 32-bit draw then a 64-bit draw: the bank is *not* mixed
    # into next64 (numpy keeps the two paths separate)
    word2 = int(scalar.integers(0, 1 << 64, dtype=np.uint64))
    word3 = int(scalar.integers(0, 1 << 64, dtype=np.uint64))
    assert buffered.next32() == word2 & 0xFFFFFFFF
    assert buffered.next64() == word3


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ops=st.lists(
        st.one_of(
            st.just(("random",)),
            st.tuples(st.just("integers"),
                      st.integers(min_value=1, max_value=2**34)),
            st.tuples(st.just("uniform"),
                      st.floats(min_value=-8.0, max_value=8.0,
                                allow_nan=False)),
        ),
        min_size=1,
        max_size=200,
    ),
)
@settings(max_examples=40, deadline=None)
def test_interleaved_patterns_bit_exact(seed, ops):
    """Arbitrary interleavings of the three draw kinds stay aligned."""
    buffered, scalar = _twins(seed)
    for op in ops:
        if op[0] == "random":
            assert buffered.random() == scalar.random()
        elif op[0] == "integers":
            assert buffered.integers(op[1]) == int(scalar.integers(op[1]))
        else:
            low = op[1]
            assert buffered.uniform(low, low + 2.5) == \
                scalar.uniform(low, low + 2.5)


def test_buffered_uniform_matches_scalar_stream():
    """The issue-gap jitter stream, drawn through the buffer across its
    growing refills, equals sequential scalar ``uniform`` calls."""
    from repro.cpu.thread import JITTER

    rng = np.random.Generator(np.random.PCG64(17))
    jitter = BufferedPCG64(np.random.Generator(np.random.PCG64(17)))
    for _ in range(5 * BLOCK):
        assert jitter.uniform(*JITTER) == rng.uniform(*JITTER)


def test_block_size_does_not_change_stream():
    """Buffering is transparent: block size is a perf knob only."""
    small = BufferedPCG64(np.random.Generator(np.random.PCG64(9)), block=8)
    large = BufferedPCG64(np.random.Generator(np.random.PCG64(9)),
                          block=4096)
    for _ in range(1000):
        assert small.random() == large.random()


def test_refills_start_small_and_stay_compact():
    """The first refill fetches a few words; later ones double up to
    BLOCK, into an 8-byte-per-word array rather than a list."""
    from array import array

    stream = BufferedPCG64(np.random.Generator(np.random.PCG64(4)))
    sizes = []
    for _ in range(4 * BLOCK):
        refills = stream._i >= stream._n
        stream.random()
        if refills:
            sizes.append(stream._n)
    assert sizes[0] == FIRST_BLOCK
    assert all(b == min(2 * a, BLOCK) for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == BLOCK
    assert isinstance(stream._buf, array) and stream._buf.itemsize == 8


def test_peek_does_not_consume():
    """``peek64`` shows the next raw words, across a refill boundary,
    and the stream then draws exactly those words; ``peek_uniform``
    shows them as the draws ``uniform`` would make."""
    buffered, scalar = _twins(21)
    buffered.random()
    scalar.random()
    twin = np.random.Generator(np.random.PCG64(21))
    twin.random()
    assert buffered.peek_uniform(0.9, 1.1, 2 * BLOCK) == \
        twin.uniform(0.9, 1.1, size=2 * BLOCK).tolist()
    peeked = buffered.peek64(2 * BLOCK)
    expected = scalar.integers(0, 1 << 64, size=2 * BLOCK,
                               dtype=np.uint64).tolist()
    assert peeked == expected
    assert [buffered.next64() for _ in range(2 * BLOCK)] == expected


def test_phase_draw_matches_choice():
    """``ThreadModel`` draws a phase's miss-rate multiplier as
    ``_PHASE_MULTIPLIERS[rng.integers(0, 3)]``, in place of
    ``float(rng.choice((0.5, 1.0, 2.0)))``.  The two must agree draw for
    draw, interleaved with the ``exponential`` phase lengths, and leave
    the stream in the same state: a numpy whose ``choice`` draws
    differently fails here, not only as golden drift."""
    seed = (0, 5, 0xF5)  # a thread's phase stream: (seed, stream, 0xF5)
    fast = np.random.default_rng(seed)
    reference = np.random.default_rng(seed)
    for _ in range(20_000):
        drawn = _PHASE_MULTIPLIERS[fast.integers(0, 3)]
        assert type(drawn) is float
        assert drawn == float(reference.choice((0.5, 1.0, 2.0)))
        assert fast.exponential(40_000) == reference.exponential(40_000)
    assert fast.bit_generator.state == reference.bit_generator.state
