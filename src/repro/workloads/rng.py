"""Block-buffered, bit-exact reimplementation of the numpy draws the
simulator makes on its hot path.

The CPU model draws one value at a time from its generators
(``random()``, ``integers(n)``, ``uniform(a, b)``).  A scalar numpy
call costs ~0.5–1.5 µs of argument parsing and C dispatch, at ~2.5
draws per simulated miss.  :class:`BufferedPCG64` removes that cost
while producing the **same bit stream**:

* raw 64-bit words are pulled from the *same* PCG64 bit generator in
  blocks via ``random_raw(n)``, which consumes the stream exactly like
  ``n`` sequential ``next_uint64`` calls;
* ``random()`` is numpy's double conversion, ``(u64 >> 11) * 2**-53``;
* ``integers(n)`` is numpy's Lemire rejection sampler, including the
  32-bit fast path for ranges below ``2**32`` *and* PCG64's
  half-word buffering (``next_uint32`` hands out the low half of a
  fresh 64-bit word first and banks the high half);
* ``uniform(a, b)`` is ``a + (b - a) * random()`` — the same IEEE
  operations numpy's ``random_uniform`` performs.

Blocks are kept small and compact: the first refill fetches
:data:`FIRST_BLOCK` words and each later one doubles, up to
:data:`BLOCK` words, into an ``array('Q')``.  A system holds two
streams per thread, so a short run over-draws almost nothing and a
finished system keeps ~1 KB per stream alive rather than a large list
of boxed ints.

Bit-exactness against scalar numpy is asserted by
``tests/engine/test_rng.py`` over interleaved call patterns.
"""

from __future__ import annotations

from array import array

import numpy as np

#: Raw words fetched by the first refill.
FIRST_BLOCK = 4
#: Largest refill, in raw words; refills double from FIRST_BLOCK.
BLOCK = 128

_U32_MASK = 0xFFFFFFFF
_U64_MASK = 0xFFFFFFFFFFFFFFFF
#: numpy's uint64 -> double conversion constant (53-bit mantissa).
_INV_2_53 = 1.0 / (1 << 53)


class BufferedPCG64:
    """Bit-exact buffered façade over one ``numpy.random.Generator``.

    The wrapped generator must not be used directly once buffering
    starts — the buffer *is* its stream position, pre-fetched.
    ``block`` caps the refill size; it changes nothing but speed.
    """

    __slots__ = ("_rng", "_buf", "_i", "_n", "_has32", "_half", "_block",
                 "_max_block")

    def __init__(self, rng: np.random.Generator, block: int = BLOCK):
        self._rng = rng
        self._max_block = block
        self._block = min(FIRST_BLOCK, block)
        self._buf = array("Q")
        self._i = 0
        self._n = 0
        # PCG64's next_uint32 half-word bank (numpy pcg64_next32).
        self._has32 = False
        self._half = 0

    def _refill(self) -> None:
        block = self._block
        self._buf = array(
            "Q", self._rng.bit_generator.random_raw(block).tobytes()
        )
        self._i = 0
        self._n = block
        if block < self._max_block:
            self._block = min(2 * block, self._max_block)

    # -- raw words ------------------------------------------------------

    def next64(self) -> int:
        """The next raw 64-bit word of the stream."""
        i = self._i
        if i >= self._n:
            self._refill()
            i = 0
        self._i = i + 1
        return self._buf[i]

    def next32(self) -> int:
        """numpy ``next_uint32``: low half first, high half banked."""
        if self._has32:
            self._has32 = False
            return self._half
        word = self.next64()
        self._has32 = True
        self._half = word >> 32
        return word & _U32_MASK

    def peek64(self, count: int) -> list:
        """The next ``count`` raw words, without consuming them."""
        words = self._buf[self._i:self._n].tolist()[:count]
        missing = count - len(words)
        if missing > 0:
            # the wrapped generator sits exactly at the buffer's end
            bit_gen = type(self._rng.bit_generator)()
            bit_gen.state = self._rng.bit_generator.state
            words.extend(bit_gen.random_raw(missing).tolist())
        return words

    def peek_uniform(self, low: float, high: float, count: int) -> list:
        """The next ``count`` ``uniform(low, high)`` draws, without
        consuming them."""
        return [
            low + (high - low) * ((word >> 11) * _INV_2_53)
            for word in self.peek64(count)
        ]

    # -- distributions --------------------------------------------------

    def random(self) -> float:
        """``Generator.random()``: a double in [0, 1)."""
        i = self._i
        if i >= self._n:
            self._refill()
            i = 0
        self._i = i + 1
        return (self._buf[i] >> 11) * _INV_2_53

    def uniform(self, low: float, high: float) -> float:
        """``Generator.uniform(low, high)`` (scalar)."""
        return low + (high - low) * self.random()

    def integers(self, n: int) -> int:
        """``Generator.integers(n)``: uniform int in [0, n).

        Follows numpy's ``random_bounded_uint64_fill``: Lemire
        rejection on 32-bit words when the range fits (the simulator's
        ranges — rows, banks — always do), 64-bit words otherwise.
        """
        rng = n - 1  # numpy parameterises by the inclusive range
        if rng <= 0:
            return 0  # numpy short-circuits a zero range without a draw
        if rng <= _U32_MASK:
            rng_excl = rng + 1
            m = self.next32() * rng_excl
            leftover = m & _U32_MASK
            if leftover < rng_excl:
                threshold = (_U32_MASK - rng) % rng_excl
                while leftover < threshold:
                    m = self.next32() * rng_excl
                    leftover = m & _U32_MASK
            return m >> 32
        rng_excl = rng + 1
        m = self.next64() * rng_excl
        leftover = m & _U64_MASK
        if leftover < rng_excl:
            threshold = (_U64_MASK - rng) % rng_excl
            while leftover < threshold:
                m = self.next64() * rng_excl
                leftover = m & _U64_MASK
        return m >> 64
