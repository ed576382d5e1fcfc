"""Counter-based pseudorandom streams (generator id: "rhrng-v1").

The generator is the SplitMix64 output function used in counter mode: the
n-th word of a stream with key k is

    word(k, n) = mix64((k + (n + 1) * PHI) mod 2**64)

where mix64 is the SplitMix64 finalizer and PHI is the 64-bit golden-ratio
constant. Child streams are derived, not sliced:

    child(k, p) = mix64((mix64(k ^ STREAM_DOMAIN) + (p + 1) * PHI) mod 2**64)

Both maps are pure integer functions of (key, index), so any draw is
addressable by its path from the master seed, e.g. trial t / night i uses
key child(child(master, t), i). Everything here is plain modular arithmetic
on 64-bit words: results are identical across platforms and identical
between the scalar and the numpy-vectorized paths (asserted in tests). Only
the vectorized mirrors import numpy, when called, so other code never loads it.

Exact sampling: `CounterRNG.below(n)` draws a uniform integer in [0, n) for
arbitrary-precision n by rejection on blocks of 64-bit words, so rational
probabilities with huge denominators can be realized exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

RNG_VERSION = "rhrng-v1"

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
# Domain separator keeping child-key derivation off the output stream.
_STREAM_DOMAIN = 0xD1B54A32D192ED03


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def word(key: int, n: int) -> int:
    """n-th 64-bit output word of the stream keyed by `key` (n >= 0)."""
    return mix64((key + ((n + 1) * _PHI)) & _MASK)


def child_key(key: int, p: int) -> int:
    """Key of child stream p of the stream keyed by `key`."""
    return mix64((mix64((key ^ _STREAM_DOMAIN) & _MASK) + ((p + 1) * _PHI)) & _MASK)


def stream_key(master: int, *path: int) -> int:
    """Key for the stream at `path` under `master` (repeated child_key)."""
    k = master & _MASK
    for p in path:
        k = child_key(k, p)
    return k


# numpy mirrors of word and child_key, bit-identical to the scalar versions. Each
# finalizes a fresh array in place, with one scratch buffer, and imports numpy when
# called. Constants stay np.uint64, so numpy 1.24's value-based casting keeps uint64.


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """mix64 of every word of the uint64 array z, written into z."""
    import numpy as np
    t = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


def words_vec(keys: np.ndarray, n: int) -> np.ndarray:
    """word(key, n) for an array of keys."""
    import numpy as np
    inc = np.uint64(((n + 1) * _PHI) & _MASK)
    return _mix64_inplace(keys.astype(np.uint64, copy=False) + inc)


def child_keys_vec(key: int, ps: np.ndarray) -> np.ndarray:
    """child_key(key, p) for an array of child indices p."""
    import numpy as np
    return child_keys_many(np.uint64(mix64((key ^ _STREAM_DOMAIN) & _MASK)), ps)


def child_bases_vec(keys: np.ndarray) -> np.ndarray:
    """mix64(key ^ STREAM_DOMAIN), the part of child_key(key, p) that p leaves alone."""
    import numpy as np
    return _mix64_inplace(keys.astype(np.uint64, copy=False) ^ np.uint64(_STREAM_DOMAIN))


def child_keys_many(bases: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """child_key(key, p) for child indices p (rows) and the keys whose
    ``child_bases_vec`` are ``bases`` (columns)."""
    import numpy as np
    incs = (ps.astype(np.uint64) + np.uint64(1)) * np.uint64(_PHI)
    return _mix64_inplace(np.add.outer(incs, bases.astype(np.uint64, copy=False)))


class CounterRNG:
    """Sequential reader over one counter-based stream."""

    __slots__ = ("key", "counter")

    def __init__(self, key: int):
        self.key = key & _MASK
        self.counter = 0

    def next64(self) -> int:
        w = word(self.key, self.counter)
        self.counter += 1
        return w

    def bits(self, nbits: int) -> int:
        """Uniform integer with exactly `nbits` random bits (0 for nbits=0)."""
        if nbits <= 0:
            return 0
        v = 0
        for _ in range((nbits + 63) // 64):
            v = (v << 64) | self.next64()
        return v & ((1 << nbits) - 1)

    def below(self, n: int) -> int:
        """Exact uniform integer in [0, n) for any positive integer n.

        Rejection sampling on bit blocks: draw bit_length(n) bits, retry on
        values >= n. Acceptance probability is > 1/2 per round.
        """
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        if n == 1:
            return 0
        nbits = n.bit_length()
        while True:
            v = self.bits(nbits)
            if v < n:
                return v
