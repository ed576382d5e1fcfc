"""Counter-mode PRNG: frozen vectors, scalar/vector agreement, exact draws."""

from __future__ import annotations

import numpy as np
import pytest

from robinhood.rng import (
    RNG_VERSION,
    CounterRNG,
    child_key,
    child_keys_many,
    child_keys_vec,
    mix64,
    mix64_vec,
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
    xs = [0, 1, 2**64 - 1, 0x123456789ABCDEF0, 987654321]
    vec = mix64_vec(np.array(xs, dtype=np.uint64))
    assert [int(v) for v in vec] == [mix64(x) for x in xs]


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
    # ... and the transposed variant: many keys, one child index.
    keys = [1, 2, 3, 2**63]
    many = child_keys_many(np.array(keys, dtype=np.uint64), 5)
    assert [int(v) for v in many] == [child_key(k, 5) for k in keys]


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


def test_below_rejects_nonpositive() -> None:
    rng = CounterRNG(0)
    with pytest.raises(ValueError):
        rng.below(0)
