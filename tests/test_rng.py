"""The pinned generator: SplitMix64 seeding, xoshiro256** stream, Box-Muller.

The oracle is an independent transcription of each algorithm inside this
file; the implementation must match it draw for draw.
"""

import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammafeedback import Rng
from gammafeedback.rng import _BAND, _CHUNK, _TWO_PI
from step_reference import sample_indices

# the bulk draws call numpy directly: a deprecation in their path fails
# here, on each Python the suite runs on, before it becomes an error
pytestmark = pytest.mark.filterwarnings("error")

MASK = (1 << 64) - 1


def oracle_splitmix64_stream(seed, n):
    """Reference SplitMix64, written out independently of the package."""
    out = []
    state = seed
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def oracle_xoshiro_stream(seed, n):
    """Reference xoshiro256** seeded from the SplitMix64 stream."""
    s = oracle_splitmix64_stream(seed, 4)

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & MASK

    out = []
    for _ in range(n):
        out.append((rotl((s[1] * 5) & MASK, 7) * 9) & MASK)
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out


class TestStream:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
    def test_matches_reference_algorithm(self, seed):
        rng = Rng(seed)
        expected = oracle_xoshiro_stream(seed, 200)
        assert [rng.next_u64() for _ in range(200)] == expected

    def test_same_seed_same_sequence(self):
        a = Rng(123456789)
        b = Rng(123456789)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_different_seeds_differ(self):
        assert Rng(1).next_u64() != Rng(2).next_u64()

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(1 << 64)

    def test_bulk_matches_scalar_u64(self):
        a, b = Rng(77), Rng(77)
        bulk = a.u64_array(500)
        scalar = [b.next_u64() for _ in range(500)]
        assert bulk.tolist() == scalar
        # and the stream continues identically after a bulk draw
        assert a.next_u64() == b.next_u64()


# Lane, stride and band boundaries of the bulk path. n draws run lanes
# 2^ceil(log2(n)/2) apart: the stride doubles at n = 4^a + 1 (2, 5, 17, 65,
# ..., 4097), every lane is full at n = 4^a, and 24/25 put the last of three
# 8-apart lanes exactly full and one past it. Lanes are advanced _BAND steps
# at a time: one band, one band +- 1, 1024 x band +- 1 (256 full lanes of 256,
# then 129 lanes of 512), and 128-apart lanes whose short last one ends one
# step into its second band. BLOCK = 2^20 draws run 1024 full lanes of 1024.
LANES = STRIDE = 1024
LANE_SIZES = [0, 1, 2, 3, 4, 5, 16, 17, 24, 25, _BAND - 1, _BAND, _BAND + 1, 1000,
              STRIDE - 1, STRIDE, STRIDE + 1, 3 * STRIDE + 7, 4096, 4097,
              100 * 2 * _BAND + _BAND + 1, LANES * _BAND - 1, LANES * _BAND,
              LANES * _BAND + 1, 200_003]
BLOCK = LANES * STRIDE
# every lane full at 4^k draws, and the stride doubled one draw later
POWER_OF_FOUR_SIZES = [4**k + extra for k in range(1, 11) for extra in (0, 1)]
SEEDS = [0, 1, 2**64 - 1, 20240811]


@functools.lru_cache(maxsize=None)
def oracle_prefix(seed, n):
    return oracle_xoshiro_stream(seed, n)


class TestBulkLanes:
    """The jump-ahead lane path against the serial oracle, draw for draw."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", LANE_SIZES)
    def test_matches_oracle_and_leaves_state(self, seed, n):
        expected = oracle_prefix(seed, max(LANE_SIZES) + 1)
        rng = Rng(seed)
        bulk = rng.u64_array(n)
        assert bulk.dtype == np.uint64
        assert bulk.tolist() == expected[:n]
        assert rng.next_u64() == expected[n]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_consecutive_draws_equal_one_long_draw(self, seed):
        a, b = Rng(seed), Rng(seed)
        first = a.u64_array(STRIDE + 3)
        second = a.u64_array(2 * STRIDE - 1)
        whole = b.u64_array(3 * STRIDE + 2)
        assert np.concatenate([first, second]).tolist() == whole.tolist()
        assert a.next_u64() == b.next_u64()

    def test_past_2_to_the_20_a_last_lane_stops_mid_band(self):
        # 513 lanes of 2048; the last one stops 1029 steps in, 5 into its 17th band
        seed = 20240811
        n = BLOCK + STRIDE + 5
        expected = oracle_prefix(seed, n + 1)
        rng = Rng(seed)
        assert rng.u64_array(n).tolist() == expected[:n]
        assert rng.next_u64() == expected[n]

    # 1024 full lanes of 1024, then 513 lanes of 2048 whose last one is 1 or 17 long
    @pytest.mark.parametrize("n", [BLOCK, BLOCK + 1, BLOCK + 17])
    def test_at_and_just_past_2_to_the_20(self, n):
        seed = 20240811
        expected = oracle_prefix(seed, BLOCK + STRIDE + 6)
        rng = Rng(seed)
        assert rng.u64_array(n).tolist() == expected[:n]
        assert rng.next_u64() == expected[n]

    @pytest.mark.parametrize("n", POWER_OF_FOUR_SIZES)
    def test_powers_of_four_and_one_past(self, n):
        seed = 20240811
        expected = oracle_prefix(seed, BLOCK + STRIDE + 6)
        rng = Rng(seed)
        assert rng.u64_array(n).tolist() == expected[:n]
        assert rng.next_u64() == expected[n]

    def test_a_padded_size_is_one_contiguous_run(self):
        # 1000 draws fill 32 lanes of 32 but the last 24 words: the result is
        # the first 1000, contiguous, and the next draw starts at draw 1000
        seed = 20240811
        expected = oracle_prefix(seed, 1006)
        rng = Rng(seed)
        bulk = rng.u64_array(1000)
        assert bulk.dtype == np.uint64
        assert bulk.flags.c_contiguous
        assert bulk.shape == (1000,)
        assert bulk.tolist() == expected[:1000]
        assert rng.u64_array(5).tolist() == expected[1000:1005]
        assert rng.next_u64() == expected[1005]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 4 * STRIDE))
    def test_random_seed_and_length(self, seed, n):
        expected = oracle_xoshiro_stream(seed, n + 1)
        rng = Rng(seed)
        assert rng.u64_array(n).tolist() == expected[:n]
        assert rng.next_u64() == expected[n]

    @pytest.mark.parametrize("draw", ["u64_array", "uniforms", "normals"])
    @pytest.mark.parametrize("n", [-1, -2, -3])
    def test_negative_count_rejected(self, draw, n):
        rng = Rng(5)
        with pytest.raises(ValueError, match=rf"^n must be >= 0 \(got {n}\)$"):
            getattr(rng, draw)(n)
        assert rng.next_u64() == Rng(5).next_u64()  # the stream did not move


class TestUniform:
    def test_unit_interval_and_determinism(self):
        rng = Rng(9)
        values = [rng.uniform() for _ in range(2000)]
        assert all(0.0 <= v < 1.0 for v in values)
        replay = Rng(9)
        assert values == [replay.uniform() for _ in range(2000)]

    def test_top_53_bits_construction(self):
        seed = 31337
        raw = oracle_xoshiro_stream(seed, 10)
        rng = Rng(seed)
        for r in raw:
            assert rng.uniform() == (r >> 11) * 2.0**-53

    def test_bulk_matches_scalar(self):
        a, b = Rng(5), Rng(5)
        assert a.uniforms(301).tolist() == [b.uniform() for _ in range(301)]


class TestNormal:
    def test_box_muller_first_pair_against_mpmath(self):
        seed = 2718
        raw = oracle_xoshiro_stream(seed, 2)
        u1 = mpmath.mpf((raw[0] >> 11)) / mpmath.mpf(2**53)
        u2 = mpmath.mpf((raw[1] >> 11)) / mpmath.mpf(2**53)
        r = mpmath.sqrt(-2 * mpmath.log(1 - u1))
        z1 = float(r * mpmath.cos(2 * mpmath.pi * u2))
        z2 = float(r * mpmath.sin(2 * mpmath.pi * u2))
        rng = Rng(seed)
        assert rng.normal() == pytest.approx(z1, rel=1e-12, abs=1e-12)
        assert rng.normal() == pytest.approx(z2, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_pairs_match_box_muller_on_next_u64(self, seed):
        # the reference draws each pair's two uniforms through next_u64 and
        # applies the module docstring's transform; the values must be equal
        ref = Rng(seed)

        def reference_pairs():
            while True:
                u1 = (ref.next_u64() >> 11) * 2.0 ** -53
                u2 = (ref.next_u64() >> 11) * 2.0 ** -53
                r = math.sqrt(-2.0 * math.log(1.0 - u1))
                yield r * math.cos(_TWO_PI * u2)
                yield r * math.sin(_TWO_PI * u2)

        rng, expected = Rng(seed), reference_pairs()
        draws = [rng.normal() for _ in range(10_000)]
        assert [z.hex() for z in draws] == [next(expected).hex() for _ in range(10_000)]

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize("odd", [1, 3, 999])
    def test_next_u64_after_an_odd_number_of_draws(self, seed, odd):
        # an odd count leaves one normal cached and both uniforms of its pair
        # consumed: the stream resumes after them
        rng = Rng(seed)
        for _ in range(odd):
            rng.normal()
        assert rng.next_u64() == oracle_xoshiro_stream(seed, odd + 2)[-1]

    def test_moments(self):
        n = 200_000
        z = Rng(20240811).normals(n)
        # mean within 3 standard errors, std within 1%
        assert abs(z.mean()) < 3.0 / math.sqrt(n)
        assert abs(z.std() - 1.0) < 0.01

    @pytest.mark.parametrize("n", [1, 3, 1001, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_bulk_matches_whole_array_transform(self, n):
        # the transform as one expression over all the uniforms, bit for bit
        seed = 20240811
        a, b = Rng(seed), Rng(seed)
        pairs = (n + 1) // 2
        u = b.uniforms(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        r = np.sqrt(-2.0 * np.log(1.0 - u1))
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(_TWO_PI * u2)
        z[1::2] = r * np.sin(_TWO_PI * u2)
        bulk = a.normals(n)
        assert bulk.shape == (n,)
        assert bulk.tobytes() == z[:n].tobytes()
        assert a.next_u64() == b.next_u64()

    def test_bulk_peak_memory(self):
        Rng(1).normals(10**6)  # fills the jump tables, which stay cached
        tracemalloc.start()
        try:
            Rng(2).normals(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 7.6 MiB of result, the lane set-up and one band; no whole-array temporaries
        assert peak < 24 * 2**20

    def test_bulk_matches_scalar_closely(self):
        # same uniform stream; numpy's log may differ from math.log in the last ulp
        a, b = Rng(99), Rng(99)
        bulk = a.normals(200)
        scalar = np.array([b.normal() for _ in range(200)])
        assert np.allclose(bulk, scalar, rtol=1e-9, atol=1e-12)


class TestIntegers:
    def test_randbelow_range_and_determinism(self):
        rng = Rng(4)
        draws = [rng.randbelow(7) for _ in range(5000)]
        assert set(draws) == set(range(7))
        replay = Rng(4)
        assert draws == [replay.randbelow(7) for _ in range(5000)]

    def test_randbelow_roughly_uniform(self):
        rng = Rng(8)
        counts = np.bincount([rng.randbelow(10) for _ in range(50_000)], minlength=10)
        assert counts.min() > 4500
        assert counts.max() < 5500

    def test_randbelow_validation(self):
        with pytest.raises(ValueError):
            Rng(0).randbelow(0)

    def test_randbelow_beyond_64_bits_raises(self):
        # the rejection limit would be 0 and no draw could ever pass
        with pytest.raises(ValueError, match=str(2**64 + 1)):
            Rng(1).randbelow(2**64 + 1)

    def test_randbelow_full_64_bits_is_the_raw_draw(self):
        rng, raw = Rng(1), Rng(1)
        assert [rng.randbelow(2**64) for _ in range(8)] == [raw.next_u64() for _ in range(8)]

    def test_sample_indices_distinct_and_deterministic(self):
        rng = Rng(11)
        picks = rng.sample_indices(500, 70)
        assert len(picks) == 70
        assert len(set(picks)) == 70
        assert all(0 <= p < 500 for p in picks)
        assert picks == Rng(11).sample_indices(500, 70)

    def test_sample_indices_full_population(self):
        assert sorted(Rng(3).sample_indices(10, 10)) == list(range(10))

    def test_sample_indices_validation(self):
        with pytest.raises(ValueError, match=r"^cannot sample 6 distinct indices from 5$"):
            Rng(0).sample_indices(5, 6)

    def test_sample_indices_negative_k_rejected(self):
        with pytest.raises(ValueError, match=r"k must be >= 0 \(got -1\)"):
            Rng(1).sample_indices(5, -1)
        assert Rng(1).sample_indices(5, 0) == []

    @pytest.mark.parametrize("k", [0, 3])
    def test_sample_indices_float_population_rejected(self, k):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            Rng(0).sample_indices(10.0, k)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
           st.integers(0, MASK))
    def test_sample_indices_match_the_list_pool(self, sizes, seed):
        # the sparse pool makes the same randbelow calls and picks as the
        # whole list, and leaves the generator at the same draw
        population, k = sizes
        rng, oracle = Rng(seed), Rng(seed)
        assert rng.sample_indices(population, k) == sample_indices(oracle, population, k)
        assert rng.next_u64() == oracle.next_u64()

    def test_sample_indices_memory_is_o_k(self):
        # 8 picks of a million hold 8 moved entries, not a million-entry pool
        tracemalloc.start()
        try:
            picks = Rng(5).sample_indices(10**6, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(set(picks)) == 8
        assert peak < 64 * 2**10
