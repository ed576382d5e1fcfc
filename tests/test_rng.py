"""Counter-mode PRNG: frozen vectors, scalar/vector agreement, exact draws."""

from __future__ import annotations

import numpy as np
import pytest

from robinhood.rng import (
    RNG_VERSION,
    CounterRNG,
    child_bases_vec,
    child_key,
    child_keys_many,
    child_keys_vec,
    mix64,
    stream_key,
    word,
    words_vec,
)

# Frozen reference outputs for the finalizer in counter mode with key 0 and
# key 1234567. Computed once from the published finalizer constants; any
# change to the mixing breaks every stored digest, so these must never move.
_KEY0_WORDS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
_KEY1234567_WORDS = [0x599ED017FB08FC85, 0x2C73F08458540FA5]


def test_version_string() -> None:
    assert RNG_VERSION == "rhrng-v1"


def test_frozen_vectors_key0() -> None:
    assert [word(0, n) for n in range(3)] == _KEY0_WORDS


def test_frozen_vectors_key1234567() -> None:
    assert [word(1234567, n) for n in range(2)] == _KEY1234567_WORDS


def test_counterrng_matches_word_function() -> None:
    rng = CounterRNG(0)
    assert [rng.next64() for _ in range(3)] == _KEY0_WORDS


def test_vectorized_mix_matches_scalar() -> None:
    # word(k, 0) = mix64(k + PHI): keys k = x - PHI put the finalizer's input at x, edges included.
    xs = [0, 1, 2**64 - 1, 0x123456789ABCDEF0, 987654321]
    keys = [(x - 0x9E3779B97F4A7C15) % 2**64 for x in xs]
    vec = words_vec(np.array(keys, dtype=np.uint64), 0)
    assert [int(v) for v in vec] == [word(k, 0) for k in keys] == [mix64(x) for x in xs]


def test_vectorized_words_match_scalar() -> None:
    keys = [0, 1, 42, 2**64 - 1]
    for n in (0, 1, 7):
        vec = words_vec(np.array(keys, dtype=np.uint64), n)
        assert [int(v) for v in vec] == [word(k, n) for k in keys]


def test_vectorized_children_match_scalar() -> None:
    key = 0xDEADBEEF
    ps = list(range(10))
    vec = child_keys_vec(key, np.array(ps, dtype=np.uint64))
    assert [int(v) for v in vec] == [child_key(key, p) for p in ps]


def test_child_bases_match_scalar() -> None:
    # child_key(k, p) = mix64(mix64(k ^ STREAM_DOMAIN) + (p + 1) * PHI): the base is the inner mix.
    keys = [0, 1, 2**63, 2**64 - 1]
    bases = child_bases_vec(np.array(keys, dtype=np.uint64))
    assert [int(v) for v in bases] == [mix64(k ^ 0xD1B54A32D192ED03) for k in keys]


def test_child_key_grid_matches_scalar() -> None:
    # Row p, column key; keys and indices near 2**64 wrap in uint64.
    keys = [0, 1, 3, 2**63, 2**64 - 2, 2**64 - 1]
    ps = [0, 5, 2**32 + 7, 2**63 + 1, 2**64 - 2, 2**64 - 1]
    grid = child_keys_many(child_bases_vec(np.array(keys, dtype=np.uint64)), np.array(ps, dtype=np.uint64))
    assert grid.shape == (len(ps), len(keys))
    assert [[int(v) for v in row] for row in grid] == [[child_key(k, p) for k in keys] for p in ps]


def test_vectorized_maps_leave_their_inputs_unchanged() -> None:
    # The finalizer runs in place, on a fresh array: never on the caller's.
    keys = np.array([0, 1, 42, 2**63, 2**64 - 1], dtype=np.uint64)
    ps = np.array([0, 3, 2**64 - 1], dtype=np.uint64)
    bases = child_bases_vec(keys)
    saved = [keys.copy(), ps.copy(), bases.copy()]
    words_vec(keys, 3)
    child_keys_vec(7, ps)
    child_bases_vec(keys)
    child_keys_many(bases, ps)
    assert all(np.array_equal(a, b) for a, b in zip([keys, ps, bases], saved))


def test_stream_keys_are_distinct_across_path_components() -> None:
    seen = set()
    for seed in range(3):
        for trial in range(4):
            for night in range(4):
                seen.add(stream_key(seed, trial, night))
    assert len(seen) == 3 * 4 * 4


def test_below_is_exact_and_in_range() -> None:
    rng = CounterRNG(99)
    for n in (1, 2, 3, 10, 97, 2**70 + 1):
        for _ in range(50):
            assert 0 <= rng.below(n) < n


def test_below_covers_all_residues() -> None:
    rng = CounterRNG(5)
    seen = {rng.below(6) for _ in range(600)}
    assert seen == set(range(6))


def test_below_uniformity_chi_square() -> None:
    # 6000 draws over 6 bins: chi-square with 5 dof; 32 is far past any
    # plausible statistic for a correct generator (p ~ 6e-6).
    rng = CounterRNG(stream_key(2024, 0, 3))
    counts = [0] * 6
    n = 6000
    for _ in range(n):
        counts[rng.below(6)] += 1
    expected = n / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 32.0


def test_bits_bounds() -> None:
    rng = CounterRNG(0)
    for nbits in (1, 8, 53, 64, 65, 130):
        for _ in range(10):
            assert 0 <= rng.bits(nbits) < 1 << nbits


@pytest.mark.parametrize("nbits", [1, 63, 64, 65, 128, 4097])
@pytest.mark.parametrize("key", [0, 1234567, 2**64 - 1])
def test_bits_reads_the_next_words_first_highest(key, nbits) -> None:
    rng = CounterRNG(key)
    rng.next64()
    rng.bits(130)  # counter 4
    k = (nbits + 63) // 64
    want = 0
    for n in range(4, 4 + k):
        want = (want << 64) | word(key, n)
    assert rng.bits(nbits) == want & ((1 << nbits) - 1)
    assert rng.counter == 4 + k
    assert rng.next64() == word(key, 4 + k)


def test_below_rejects_nonpositive() -> None:
    rng = CounterRNG(0)
    with pytest.raises(ValueError):
        rng.below(0)
