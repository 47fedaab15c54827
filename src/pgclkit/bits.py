"""Fair-bit sources: the only randomness the samplers ever consume.

The seeded stream of a seed is the sequence whose bit i is the top bit of
the i-th 32-bit output of random.Random(seed).  It has two readers, which
agree bit for bit: RandomBitSource, one bit per call, and
random_bit_blocks, which hands out the same bits BLOCK_BITS at a time.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, Iterator

from .errors import BitsExhaustedError, DistError


def check_seed(seed) -> None:
    """Refuse a seed that random.Random would read as another one: it
    seeds with the absolute value of an int, so -1 would replay 1, and
    True and 2.0 would replay 1 and 2.  A seed is a non-negative int."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise DistError(f"seed must be an int, got {seed!r}")
    if seed < 0:
        raise DistError("seed must be non-negative")


BLOCK_BITS = 4096
_TOP = bytes(128) + b"\x01" * 128  # a byte to its top bit


def random_bit_blocks(seed: int) -> Iterator[bytes]:
    """The seeded stream of `seed` as bytes objects of BLOCK_BITS bytes,
    each 0 or 1.  getrandbits(32*k) lays its k outputs out lowest first,
    so byte 4*i + 3 of its little-endian bytes is the top byte of output i.
    The seed is checked here, not at the first block."""
    check_seed(seed)
    getrandbits = random.Random(seed).getrandbits
    return (getrandbits(32 * BLOCK_BITS).to_bytes(4 * BLOCK_BITS, "little")[3::4]
            .translate(_TOP) for _ in itertools.count())


class RandomBitSource:
    """Seeded PRNG bit stream; identical seeds give identical streams,
    and distinct seeds distinct ones (see check_seed)."""

    def __init__(self, seed: int):
        check_seed(seed)
        self.seed = seed
        self._rng = random.Random(seed)
        # next_bit() is getrandbits(1) bound once: the same stream, and
        # about half the cost of a method call on the hot sampling paths
        self.next_bit = functools.partial(self._rng.getrandbits, 1)


class ScriptedBitSource:
    """Replays a fixed bit sequence, for hand-traced tests and replay.

    Running past the end raises BitsExhaustedError; a sampler must never
    silently invent entropy.
    """

    def __init__(self, bits: Iterable[int]):
        bits = tuple(bits)
        if any(b not in (0, 1) for b in bits):
            raise DistError(f"bits must be 0 or 1, got {bits!r}")
        self._bits = bits
        self._pos = 0

    def next_bit(self) -> int:
        if self._pos >= len(self._bits):
            raise BitsExhaustedError(
                f"scripted bit source exhausted after {self._pos} bits"
            )
        b = self._bits[self._pos]
        self._pos += 1
        return b

    @property
    def consumed(self) -> int:
        return self._pos
