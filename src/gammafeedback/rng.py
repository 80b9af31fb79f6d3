"""
Deterministic pseudo-random generator with a pinned, portable algorithm.

The generator is specified bit-exactly so that seeded runs reproduce across
machines and builds, independent of any library's RNG internals:

- State seeding: SplitMix64. Starting from the 64-bit seed, state advances
  by the golden-gamma constant 0x9E3779B97F4A7C15 and each output is the
  finalizer ``z ^= z>>30, z *= 0xBF58476D1CE4E5B9, z ^= z>>27,
  z *= 0x94D049BB133111EB, z ^= z>>31`` (all mod 2^64). Four successive
  outputs form the xoshiro state; an all-zero state cannot occur.
- Stream: xoshiro256**. Output is ``rotl(s1 * 5, 7) * 9``; the state update
  is ``t = s1 << 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t;
  s3 = rotl(s3, 45)``.
- Uniforms in [0, 1): the top 53 bits, ``(u64 >> 11) * 2^-53``.
- Normals: basic Box-Muller on uniform pairs (u1, u2):
  ``r = sqrt(-2 ln(1 - u1))``, ``z1 = r cos(2 pi u2)``,
  ``z2 = r sin(2 pi u2)``; z2 is cached and returned by the next call.
  ``Rng.normal`` takes u1 and u2 from two stream steps that it writes out
  itself, the same steps as ``next_u64``.
- Bounded integers: rejection sampling on ``u64 % n`` (draws above the
  largest multiple of n below 2^64 are discarded), so there is no modulo
  bias. ``sample_indices`` is a partial Fisher-Yates shuffle that stores
  only the pool entries it has moved, one ``randbelow`` per pick.

Bulk draws need numpy (the ``bulk`` extra); nothing else in the package
imports it. ``u64_array()`` and ``uniforms()`` are bit-identical to the
scalar stream and leave the generator in the same state. The update is
linear over GF(2)^256, so n draws run as about sqrt(n) lanes of about sqrt(n)
steps (twice the steps over half the lanes just past a power of four), each
started by GF(2) jump-ahead (Haramoto et al., INFORMS J. Computing 2008);
numpy advances all lanes together in place, a band of steps at a time, and
applies the output function to each band while it is still in cache.
``normals()`` applies the Box-Muller transform vectorized, in chunks, over
the uniforms' own buffer. numpy's ``log`` may differ from ``math.log`` in the
last ulp (its ``sqrt``, ``cos`` and ``sin`` agree with ``math``), so a bulk
normal may differ from the scalar path's in the last bits: bulk normals are
for statistics, not for replaying a scalar-path simulation.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi

# Identifies this algorithm stack in run manifests, for reproducibility audits.
PRNG_ID = "splitmix64-seeded xoshiro256** + box-muller"


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (next_state, output)."""
    state = (state + _GOLDEN) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


# The lanes' s1 words are collected _BAND steps at a time (512 KiB at 10^6 draws),
# output-transformed in place and copied out; normals() works _CHUNK values at a time.
_BAND = 64
_CHUNK = 1 << 16


def _advance(s0: np.ndarray, s1: np.ndarray, s2: np.ndarray, s3: np.ndarray,
             t: np.ndarray) -> None:
    """One xoshiro256** state update of the uint64 words s0..s3 of every lane,
    in place; t is a temporary of their shape."""
    import numpy as np

    np.left_shift(s1, 17, out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, 45, out=t)
    s3 >>= 19
    s3 |= t


def _apply(jump: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Apply a GF(2)-linear state map to each column of states, shape (4, m).

    The map is given by the images of the 256 unit states, shape (4, 256);
    the image of a state is the XOR of the images of its set bits.
    """
    import numpy as np

    bits = (states[:, None, :] >> np.arange(64, dtype=np.uint64)[:, None]) & np.uint64(1)
    masks = bits.reshape(256, -1) * np.uint64(_MASK)
    return np.bitwise_xor.reduce(masks[:, None, :] & jump.T[:, :, None], axis=0)


@functools.lru_cache(maxsize=None)
def _jump(j: int) -> np.ndarray:
    """T^(2^j), the state map that skips 2^j draws, as the images of the
    256 unit states (read-only). T itself is built from ``_advance``."""
    import numpy as np

    if j == 0:
        bit = np.arange(256)
        jump = np.zeros((4, 256), dtype=np.uint64)
        jump[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
        _advance(*jump, np.empty(256, dtype=np.uint64))
    else:
        half = _jump(j - 1)
        jump = _apply(half, half)
    jump.flags.writeable = False
    return jump


def _lane_starts(state: np.ndarray, lanes: int, stride_log2: int) -> np.ndarray:
    """States at positions 0, stride, 2*stride, ... from state, shape (4, lanes),
    where stride = 2^stride_log2: every jump is a cached squaring of T."""
    import numpy as np

    starts = np.empty((4, lanes), dtype=np.uint64)
    starts[:, :1] = state
    have, j = 1, stride_log2
    while have < lanes:
        take = min(have, lanes - have)
        starts[:, have:have + take] = _apply(_jump(j), starts[:, :take])
        have += take
        j += 1
    return starts


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0 (got {n})")


def _check_seed(seed: int, name: str = "seed") -> None:
    """Raise ValueError unless seed, called name, fits 64 unsigned bits."""
    if not 0 <= seed < (1 << 64):
        raise ValueError(f"{name} must be a 64-bit unsigned integer (got {seed})")


class Rng:
    """Seeded xoshiro256** stream with Box-Muller normal draws."""

    __slots__ = ("seed", "_s0", "_s1", "_s2", "_s3", "_cached_normal")

    def __init__(self, seed: int):
        _check_seed(seed)
        self.seed = seed
        state = seed
        state, self._s0 = splitmix64(state)
        state, self._s1 = splitmix64(state)
        state, self._s2 = splitmix64(state)
        state, self._s3 = splitmix64(state)
        self._cached_normal: float | None = None

    def next_u64(self) -> int:
        # normal() writes this step out twice: change both together
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & _MASK
        result = ((((x << 7) | (x >> 57)) & _MASK) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _U53

    def normal(self) -> float:
        """Standard normal draw; Box-Muller pairs, second value cached."""
        z = self._cached_normal
        if z is not None:
            self._cached_normal = None
            return z
        # two next_u64 steps on locals: the state is read and written once per pair
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & _MASK
        u1 = ((((((x << 7) | (x >> 57)) & _MASK) * 9) & _MASK) >> 11) * _U53
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        x = (s1 * 5) & _MASK
        u2 = ((((((x << 7) | (x >> 57)) & _MASK) * 9) & _MASK) >> 11) * _U53
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        angle = _TWO_PI * u2
        self._cached_normal = r * math.sin(angle)
        return r * math.cos(angle)

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError(f"n must be positive (got {n})")
        if n > 1 << 64:
            # the rejection limit below would be 0, so no draw could pass
            raise ValueError(f"n must be at most 2**64 (got {n})")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def sample_indices(self, population: int, k: int) -> list[int]:
        """k distinct indices from range(population), partial Fisher-Yates.

        Index i swaps with a uniform position in [i, population); the first
        k pool entries are returned in draw order. The pool is sparse: only
        entries that have moved are stored, so k picks cost O(k) time and
        memory whatever the population.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0 (got {k})")
        if k > population:
            raise ValueError(f"cannot sample {k} distinct indices from {population}")
        population = operator.index(population)  # a float raises TypeError, as range did
        moved, picks = {}, []  # moved: pool position -> entry, for moved entries only
        for i in range(k):
            j = i + self.randbelow(population - i)
            picks.append(moved.get(j, j))
            moved[j] = moved.pop(i, i)  # position i is never drawn again
        return picks

    # Bulk paths: the same u64 stream, generated by jump-ahead lanes.

    def u64_array(self, n: int) -> np.ndarray:
        """Next n raw outputs as a uint64 array (advances the stream).

        Bit-identical to n calls of ``next_u64`` and leaves the same state.
        ceil(n/stride) lanes, a stride of 2^ceil(log2(n)/2) apart and each
        started by GF(2) jump-ahead, advance together: about sqrt(n) numpy
        steps over about sqrt(n) lanes. The stride doubles just past a power
        of four, so 4^k + 1 draws take twice the steps of 4^k. Row i of the
        (lanes, stride) result is lane i, finished in place ``_BAND`` steps at
        a time; its first n words are returned.
        """
        import numpy as np

        _check_count(n)
        if n == 0:  # no lane to run: the stream does not move
            return np.empty(0, dtype=np.uint64)
        stride_log2 = ((n - 1).bit_length() + 1) // 2
        stride = 1 << stride_log2  # never more than n
        lanes = -(-n // stride)
        last = n - (lanes - 1) * stride  # steps the last lane needs
        state = np.array([[self._s0], [self._s1], [self._s2], [self._s3]], dtype=np.uint64)
        lane_states = _lane_starts(state, lanes, stride_log2)
        out = np.empty((lanes, stride), dtype=np.uint64)  # after the set-up: peaks do not add
        s0, s1, s2, s3 = lane_states
        t = np.empty(lanes, dtype=np.uint64)
        band, spare = np.empty((2, min(_BAND, stride), lanes), dtype=np.uint64)
        for i0 in range(0, stride, _BAND):
            rows = min(_BAND, stride - i0)
            for i in range(rows):
                band[i] = s1
                _advance(s0, s1, s2, s3, t)
                if i0 + i + 1 == last:
                    state = lane_states[:, -1:].copy()
            x, w = band[:rows], spare[:rows]
            x *= 5
            np.left_shift(x, 7, out=w)
            x >>= 57
            x |= w
            x *= 9
            out[:, i0:i0 + rows] = x.T
        self._s0, self._s1, self._s2, self._s3 = (int(w) for w in state[:, 0])
        return out.reshape(-1)[:n]

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1) as a float64 array."""
        import numpy as np

        u = self.u64_array(n)
        u >>= 11
        f = u.view(np.float64)  # converted in place; chunks bound numpy's overlap copy
        for begin in range(0, n, _CHUNK):
            np.multiply(u[begin:begin + _CHUNK], _U53, out=f[begin:begin + _CHUNK])
        return f

    def normals(self, n: int) -> np.ndarray:
        """n standard normals; consumes ceil(n/2)*2 uniforms pairwise."""
        import numpy as np

        _check_count(n)
        pairs = (n + 1) // 2
        z = self.uniforms(2 * pairs)  # each chunk's pairs become its normals
        r, angle = np.empty((2, min(pairs, _CHUNK // 2)))
        for begin in range(0, 2 * pairs, _CHUNK):
            u = z[begin:begin + _CHUNK]
            k = len(u) // 2
            rk, ak, u1, u2 = r[:k], angle[:k], u[0::2], u[1::2]
            np.subtract(1.0, u1, out=rk)
            np.log(rk, out=rk)
            rk *= -2.0
            np.sqrt(rk, out=rk)
            np.multiply(u2, _TWO_PI, out=ak)
            # cos and sin go straight into the pair's slots; cos * r == r * cos
            np.multiply(np.cos(ak, out=u1), rk, out=u1)
            np.multiply(np.sin(ak, out=u2), rk, out=u2)
        return z[:n]
