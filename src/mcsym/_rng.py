"""The random draws of :func:`mcsym.bench.generate`, bit for bit as numpy makes them.

``spawn(seed, n)[i]`` draws what numpy's
``Generator(Philox(SeedSequence(seed).spawn(n)[i]))`` draws:

* the child's Philox key is ``generate_state(2, uint64)`` of a pool of four
  32-bit words hashed from the seed and the child's spawn key; the seed's
  words are hashed into the pool once per spawn, and then every child mixes
  in its index at once, each child a 128-bit lane of one int;
* Philox 4x64-10 (Salmon, Moraes, Dror & Shaw, SC 2011) bumps its 256-bit
  counter before each block of four 64-bit words; the children's blocks
  are made together too, lane by lane;
* ``random()`` is ``(next64 >> 11) * 2**-53``;
* ``integers(lo, hi)`` is Lemire's bounded method (ACM TOMACS 2019) on
  32-bit draws: the low half of a 64-bit word, whose high half is the next,
  read inline with no call per draw;
* ``choice(n, size)`` without replacement is Floyd's algorithm, then a
  Fisher-Yates pass over the picks; for ``n > 10000`` and ``size > n // 50``
  it is a Fisher-Yates pass over the tail of ``range(n)``.

Ranges of more than ``2**32`` values are not ported.
"""

from __future__ import annotations

import struct
from itertools import chain, count
from operator import itemgetter
from typing import Iterator

M32 = 0xFFFFFFFF
M64 = (1 << 64) - 1
M256 = (1 << 256) - 1

# SeedSequence's hash constants
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4

# Philox 4x64's multipliers and Weyl key increments
PHILOX_M0, PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
PHILOX_W0, PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
ROUNDS = 10


def _words(x: int) -> list[int]:
    """``x`` as 32-bit words, least significant first; ``[0]`` for 0."""
    return [x >> s & M32 for s in range(0, max(x.bit_length(), 1), 32)]


def spawn(seed: int, n: int) -> list[Philox]:
    """The generators of ``SeedSequence(seed).spawn(n)``'s children, in order.

    A child's entropy is the seed's words, padded to the pool size, then its
    index: one word, as no list holds ``2**32`` children.  So the seed's words
    are hashed into the pool once, and then every child mixes in its index at
    once, each child a 128-bit lane of one int (see :func:`_streams`).
    """
    h = INIT_A  # the word hash's constant, which steps by MULT_A on each word hashed

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * MULT_A & M32
        v = v * h & M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = MIX_MULT_L * x - MIX_MULT_R * y & M32
        return r ^ r >> 16

    entropy = _words(seed)
    entropy += [0] * (POOL_SIZE - len(entropy))  # a spawned child pads the seed's words to the pool size
    pool = [hashmix(word) for word in entropy[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # the last word, then generate_state's hash, lane by lane: no lane passes 2**65
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * n, "little")  # 1 in each lane
    low = M32 * ones
    index = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(n)), "little")
    state, hb = [], INIT_B
    for x in pool:
        v = index ^ h * ones
        h = h * MULT_A & M32
        v = v * h & low
        v = (v ^ v >> 16) & low
        r = (MIX_MULT_L * x & M32) * ones + (-MIX_MULT_R & M32) * v & low  # mix(x, v), kept positive
        r = (r ^ r >> 16) & low ^ hb * ones
        hb = hb * MULT_B & M32
        r = r * hb & low
        state.append((r ^ r >> 16) & low)
    return list(map(Philox, _streams(state[0] | state[1] << 32, state[2] | state[3] << 32, n)))


def _streams(k0: int, k1: int, n: int) -> list[Iterator[int]]:
    """The 64-bit words of Philox 4x64-10 under each of ``n`` keys, in order.

    Key ``i`` is lane ``i`` of ``k0`` and ``k1``: their bits ``128 i`` up to
    ``128 i + 64``.  The counter starts at 0 and is bumped before each block
    of four words.  The keys run side by side, so a round is a few int
    operations for every key at once; the next block of every key is made
    when the first of them reaches it, and kept.
    """
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * n, "little")  # 1 in each lane
    low = M64 * ones  # the low 64 bits of each lane
    schedule = [(k0 + r * PHILOX_W0 * ones & low, k1 + r * PHILOX_W1 * ones & low) for r in range(ROUNDS)]
    lanes = struct.Struct(f"<{2 * n}Q")  # a lane's 64-bit words are at the even places
    blocks: list[list[tuple[int, ...]]] = []  # per block, each key's four words

    def block(j: int) -> list[tuple[int, ...]]:
        if j == len(blocks):
            counter = j + 1 & M256
            c0, c1, c2, c3 = ((counter >> s & M64) * ones for s in (0, 64, 128, 192))
            for r0, r1 in schedule:
                p0, p1 = PHILOX_M0 * c0, PHILOX_M1 * c2
                c0, c1, c2, c3 = p1 >> 64 & low ^ c1 ^ r0, p1 & low, p0 >> 64 & low ^ c3 ^ r1, p0 & low
            words = [lanes.unpack(c.to_bytes(16 * n, "little"))[::2] for c in (c0, c1, c2, c3)]
            blocks.append(list(zip(*words)))
        return blocks[j]

    return [chain.from_iterable(map(itemgetter(i), map(block, count()))) for i in range(n)]


class Philox:
    """numpy's ``Generator(Philox(child))``, drawing on the child's words from :func:`_streams`."""

    __slots__ = ("_next64", "_half")

    def __init__(self, words: Iterator[int]) -> None:
        self._next64 = words.__next__
        self._half: int | None = None  # the high half of the last word split for 32 bits

    def random(self) -> float:
        """Uniform on ``[0, 1)``, from the top 53 bits of one 64-bit word."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, lo: int, hi: int) -> int:
        """Uniform on ``[lo, hi)``; a range of one value draws nothing."""
        rng = hi - lo - 1
        if rng <= 0:
            if rng < 0:
                raise ValueError(f"low >= high: {lo} >= {hi}")
            return lo
        if rng > M32:
            raise ValueError(f"range {rng + 1} needs 64-bit draws, which are not ported")
        excl = rng + 1
        threshold = (M32 - rng) % excl  # Lemire: a low half below it is drawn again
        while True:
            x = self._half
            if x is None:  # a fresh word: its low half now, its high half next
                x = self._next64()
                self._half = x >> 32
                x &= M32
            else:
                self._half = None
            m = x * excl
            if m & M32 >= threshold:
                return lo + (m >> 32)

    def choice(self, n: int, size: int) -> list[int]:
        """``size`` distinct draws from ``range(n)``: ``choice(n, size, replace=False)``."""
        if not 0 <= size <= n:
            raise ValueError(f"cannot take {size} distinct values from {n}")
        if n > 10000 and size > n // 50:
            idx = list(range(n))
            self._shuffle(idx, max(n - size, 1))
            return idx[n - size:]
        picks: list[int] = []
        seen: set[int] = set()
        for j in range(n - size, n):
            v = self.integers(0, j + 1)
            if v in seen:
                v = j
            seen.add(v)
            picks.append(v)
        if size > 1:
            self._shuffle(picks, 1)
        return picks

    def _shuffle(self, data: list[int], first: int) -> None:
        """Swap each place from the last down to ``first`` with a uniform earlier one."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self.integers(0, i + 1)
            data[i], data[j] = data[j], data[i]
