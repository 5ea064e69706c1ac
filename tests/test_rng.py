"""``mcsym._rng`` draws exactly what numpy draws, and nothing imports numpy.

The cross-checks need numpy and skip without it; the import check blocks
numpy in a fresh interpreter, so it runs whether numpy is installed or not.
"""

from __future__ import annotations

import random
import subprocess
import sys
import textwrap

import pytest

from mcsym import _rng


def twins(seed: int, n: int, i: int):
    np = pytest.importorskip("numpy")
    child = np.random.SeedSequence(seed).spawn(n)[i]
    return _rng.spawn(seed, n)[i], np.random.Generator(np.random.Philox(child))


def draw(rng, op: str, args: tuple):
    if op == "random":
        return rng.random()
    if op == "integers":
        return int(rng.integers(*args))
    if isinstance(rng, _rng.Philox):
        return rng.choice(*args)
    return [int(x) for x in rng.choice(args[0], size=args[1], replace=False)]


def random_op(r: random.Random) -> tuple[str, tuple]:
    op = r.choice(["random", "integers", "choice"])
    if op == "random":
        return op, ()
    if op == "integers":
        lo = r.randrange(-5, 5)
        return "integers", (lo, lo + r.choice([1, 2, 3, r.randrange(1, 100), r.randrange(1, 2**32)]))
    n = r.choice([r.randrange(10), r.randrange(1, 200)])
    return "choice", (n, r.randrange(n + 1))


@pytest.mark.parametrize("trial", range(20))
def test_mixed_draws_match_numpy(trial):
    r = random.Random(trial)
    for _ in range(25):
        seed = r.choice([r.randrange(100), r.randrange(2**32), r.randrange(2**70), r.randrange(2**140)])
        n = r.randrange(1, 8)
        ours, theirs = twins(seed, n, r.randrange(n))
        for _ in range(r.randrange(1, 60)):
            op, args = random_op(r)
            assert draw(ours, op, args) == draw(theirs, op, args), (seed, n, op, args)


@pytest.mark.parametrize("args", [(10001, 200), (10001, 201), (10001, 0), (20000, 20000), (20000, 3)])
def test_both_choice_branches_match_numpy(args):
    # numpy shuffles the tail of range(n) only when n > 10000 and size > n // 50
    ours, theirs = twins(2**64 + 3, 2, 1)
    for _ in range(2):
        assert draw(ours, "choice", args) == draw(theirs, "choice", args)
        assert draw(ours, "random", ()) == draw(theirs, "random", ())


def test_ranges_of_one_value_draw_nothing():
    # a draw taken here would shift every later one
    a, b = _rng.spawn(9, 1)[0], _rng.spawn(9, 1)[0]
    assert (a.integers(7, 8), a.choice(1, 1), a.choice(5, 0), a.random()) == (7, [0], [], b.random())
    ours, theirs = twins(5, 3, 2)
    for op, args in [("integers", (7, 8)), ("choice", (1, 1)), ("choice", (0, 0)), ("choice", (4, 0)),
                     ("integers", (0, 3)), ("integers", (-2, -1)), ("integers", (0, 2**32)),
                     ("integers", (0, 3))]:
        assert draw(ours, op, args) == draw(theirs, op, args), (op, args)


def test_empty_or_oversize_requests_raise():
    rng = _rng.spawn(0, 1)[0]
    with pytest.raises(ValueError):
        rng.integers(3, 3)
    with pytest.raises(ValueError):
        rng.choice(2, 3)
    with pytest.raises(ValueError):
        rng.integers(0, 2**32 + 1)


def reference_key(seed: int, i: int) -> tuple[int, int]:
    """Child ``i``'s Philox key, derived as SeedSequence derives it: the whole pool per child."""
    h = _rng.INIT_A

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * _rng.MULT_A & _rng.M32
        v = v * h & _rng.M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = _rng.MIX_MULT_L * x - _rng.MIX_MULT_R * y & _rng.M32
        return r ^ r >> 16

    def words(x: int) -> list[int]:
        return [x >> s & _rng.M32 for s in range(0, max(x.bit_length(), 1), 32)]

    entropy = words(seed)
    entropy += [0] * (4 - len(entropy)) + words(i)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state, hb = [], _rng.INIT_B
    for v in pool:
        v ^= hb
        hb = hb * _rng.MULT_B & _rng.M32
        v = v * hb & _rng.M32
        state.append(v ^ v >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def reference_words(key: tuple[int, int]):
    """Philox 4x64-10's words under ``key``, one block at a time, as numpy's loop makes them."""
    keys = []
    k0, k1 = key
    for _ in range(10):
        keys.append((k0, k1))
        k0, k1 = k0 + _rng.PHILOX_W0 & _rng.M64, k1 + _rng.PHILOX_W1 & _rng.M64
    counter = 0
    while True:
        counter += 1
        c0, c1, c2, c3 = counter & _rng.M64, counter >> 64 & _rng.M64, counter >> 128 & _rng.M64, counter >> 192
        for k0, k1 in keys:
            p0, p1 = _rng.PHILOX_M0 * c0, _rng.PHILOX_M1 * c2
            c0, c1, c2, c3 = p1 >> 64 ^ c1 ^ k0, p1 & _rng.M64, p0 >> 64 ^ c3 ^ k1, p0 & _rng.M64
        yield from (c0, c1, c2, c3)


def test_spawned_keys_match_the_per_child_derivation():
    # runs without numpy: each child's draws against the reference key's words, block by block
    r = random.Random(3)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 9, 2**128 - 1, 2**128, 2**40 + 5, 2**200 + 7]
    seeds += [r.randrange(2**bits) for bits in (16, 32, 33, 64, 96, 128, 129, 160, 256) for _ in range(3)]
    for seed in seeds:
        n = r.randrange(1, 41)
        for i, ours in enumerate(_rng.spawn(seed, n)):
            ref = _rng.Philox(reference_words(reference_key(seed, i)))
            for k in range(64):
                if k % 3 == 2:
                    assert ours.integers(0, 2**32) == ref.integers(0, 2**32), (seed, n, i, k)
                else:
                    assert ours.random() == ref.random(), (seed, n, i, k)


def test_mcsym_never_imports_numpy():
    script = textwrap.dedent(
        """
        import sys
        sys.modules["numpy"] = None  # any import of numpy now fails
        import mcsym, mcsym.cli
        from mcsym import TopologySpec, emit_system, generate
        emit_system(generate(TopologySpec("house", 9, 3)))
        mcsym.cli.main(["gen", "--topology", "ring", "--n", "3", "--seed", "1"])
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
        assert loaded == ["numpy"] and sys.modules["numpy"] is None, loaded
        """
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("mcs 3\n")
