"""Deterministic 64-bit seed derivation.

A dataset is a pure function of (config, master seed): every pair, and every
randomized stage within a pair, draws from its own RNG stream whose seed is
derived here. The derivation is the splitmix64 finalizer applied to
``master + (index + 1) * GOLDEN`` (all arithmetic mod 2**64), so streams are
order-independent and an implementation in any language can reproduce them:

    GOLDEN = 0x9E3779B97F4A7C15
    z = (master + (index + 1) * GOLDEN) mod 2**64
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9   (mod 2**64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB   (mod 2**64)
    z ^= z >> 31
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# fixed sub-stream indices within one pair
STREAM_SPEC = 1
STREAM_LAYOUT_A = 2
STREAM_LAYOUT_B = 3
STREAM_OCCLUDE_A = 4
STREAM_OCCLUDE_B = 5
STREAM_SEEDS_A = 6
STREAM_SEEDS_B = 7
STREAM_MATCH_A = 8
STREAM_MATCH_B = 9
STREAM_TARGETS_A = 10
STREAM_TARGETS_B = 11


def mix64(master: int, index: int) -> int:
    """splitmix64 finalizer of master advanced by (index + 1) steps."""
    z = (int(master) + (int(index) + 1) * GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)
