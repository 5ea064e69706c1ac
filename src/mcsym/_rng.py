"""The random draws of :func:`mcsym.bench.generate`, bit for bit as numpy makes them.

``spawn(seed, n)[i]`` draws what numpy's
``Generator(Philox(SeedSequence(seed).spawn(n)[i]))`` draws:

* the child's Philox key is ``generate_state(2, uint64)`` of a pool of four
  32-bit words hashed from the seed and the child's spawn key;
* Philox 4x64-10 (Salmon, Moraes, Dror & Shaw, SC 2011) bumps its 256-bit
  counter before each block of four 64-bit words;
* ``random()`` is ``(next64 >> 11) * 2**-53``;
* ``integers(lo, hi)`` is Lemire's bounded method (ACM TOMACS 2019) on
  32-bit draws: the low half of a 64-bit word, whose high half is the next;
* ``choice(n, size)`` without replacement is Floyd's algorithm, then a
  Fisher-Yates pass over the picks; for ``n > 10000`` and ``size > n // 50``
  it is a Fisher-Yates pass over the tail of ``range(n)``.

Ranges of more than ``2**32`` values are not ported.
"""

from __future__ import annotations

from typing import Callable

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


def _hasher(h: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's word hash, whose constant steps by ``mult`` on each call."""

    def hash32(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * mult & M32
        v = v * h & M32
        return v ^ v >> 16

    return hash32


def _key(entropy: list[int]) -> tuple[int, int]:
    """The first two 64-bit state words of SeedSequence's pool for ``entropy``.

    A spawned child's ``entropy`` has at least ``POOL_SIZE`` words.
    """
    hashmix = _hasher(INIT_A, MULT_A)

    def mix(x: int, y: int) -> int:
        r = MIX_MULT_L * x - MIX_MULT_R * y & M32
        return r ^ r >> 16

    pool = [hashmix(word) for word in entropy[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = list(map(_hasher(INIT_B, MULT_B), pool))
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def spawn(seed: int, n: int) -> list[Philox]:
    """The generators of ``SeedSequence(seed).spawn(n)``'s children, in order."""
    run = _words(seed)
    # a spawned child pads the seed's words to the pool size
    run += [0] * (POOL_SIZE - len(run))
    return [Philox(_key(run + _words(i))) for i in range(n)]


class Philox:
    """numpy's ``Generator(Philox(child))`` for one spawned child's key."""

    __slots__ = ("_keys", "_counter", "_block", "_half")

    def __init__(self, key: tuple[int, int]) -> None:
        k0, k1 = key
        keys = []
        for _ in range(ROUNDS):
            keys.append((k0, k1))
            k0, k1 = k0 + PHILOX_W0 & M64, k1 + PHILOX_W1 & M64
        self._keys = tuple(keys)
        self._counter = 0
        self._block: list[int] = []  # the current block's unread words, last first
        self._half: int | None = None  # the high half of the last word split for 32 bits

    def _next64(self) -> int:
        if not self._block:
            self._counter = c = self._counter + 1 & M256
            c0, c1, c2, c3 = c & M64, c >> 64 & M64, c >> 128 & M64, c >> 192
            for k0, k1 in self._keys:
                p0, p1 = PHILOX_M0 * c0, PHILOX_M1 * c2
                c0, c1, c2, c3 = p1 >> 64 ^ c1 ^ k0, p1 & M64, p0 >> 64 ^ c3 ^ k1, p0 & M64
            self._block = [c3, c2, c1, c0]
        return self._block.pop()

    def _next32(self) -> int:
        if self._half is not None:
            x, self._half = self._half, None
            return x
        x = self._next64()
        self._half = x >> 32
        return x & M32

    def _bounded(self, rng: int) -> int:
        """Uniform on ``[0, rng]``; a range of one value draws nothing."""
        if rng == 0:
            return 0
        if rng > M32:
            raise ValueError(f"range {rng + 1} needs 64-bit draws, which are not ported")
        excl = rng + 1
        m = self._next32() * excl
        if m & M32 < excl:
            threshold = (M32 - rng) % excl
            while m & M32 < threshold:
                m = self._next32() * excl
        return m >> 32

    def random(self) -> float:
        """Uniform on ``[0, 1)``, from the top 53 bits of one 64-bit word."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, lo: int, hi: int) -> int:
        """Uniform on ``[lo, hi)``."""
        if hi <= lo:
            raise ValueError(f"low >= high: {lo} >= {hi}")
        return lo + self._bounded(hi - lo - 1)

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
            v = self._bounded(j)
            if v in seen:
                v = j
            seen.add(v)
            picks.append(v)
        self._shuffle(picks, 1)
        return picks

    def _shuffle(self, data: list[int], first: int) -> None:
        """Swap each place from the last down to ``first`` with a uniform earlier one."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self._bounded(i)
            data[i], data[j] = data[j], data[i]
