"""Reference computations written from the project README, not from its code.

Everything here is plain Python (ints, floats, ``fractions.Fraction``) so
that the benchmark's checks never reuse the program they check:

- the pinned generator: SplitMix64 seeding, xoshiro256** stream, uniforms
  from the top 53 bits, Box-Muller normals with the second value cached,
  rejection-sampled bounded integers and a partial Fisher-Yates spike pick;
- the closed forms D = 1 - lam*G*(1 + k*x), x = shock / (beta*sigma_m),
  G* = 1 / (lam*(1 + k*x)) as exact fractions of the doubles involved;
- one step of the recursion, for replaying a trajectory row by row.
"""

from __future__ import annotations

import math
from fractions import Fraction

MASK = (1 << 64) - 1
ULP = 2.0 ** -52  # relative spacing of doubles at 1.0 (twice the unit roundoff)
EPS_SINGULAR = 1e-9  # README: singular cells have D at or below 1e-9


class Xoshiro:
    """xoshiro256** seeded by SplitMix64, as the README specifies."""

    def __init__(self, seed: int):
        state = seed
        words = []
        for _ in range(4):
            state = (state + 0x9E3779B97F4A7C15) & MASK
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
            words.append(z ^ (z >> 31))
        self.s = words
        self.spare = None

    def u64(self) -> int:
        s0, s1, s2, s3 = self.s
        x = (s1 * 5) & MASK
        out = ((((x << 7) | (x >> 57)) & MASK) * 9) & MASK
        t = (s1 << 17) & MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK
        self.s = [s0, s1, s2, s3]
        return out

    def uniform(self) -> float:
        return (self.u64() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        if self.spare is not None:
            z, self.spare = self.spare, None
            return z
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        self.spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def below(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.u64()
            if u < limit:
                return u % n


def spike_schedule(seed: int, horizon: int, n_spikes: int, max_fraction: float,
                   n0: float) -> dict[int, float]:
    """Step -> spike size: distinct times by partial Fisher-Yates, then sizes
    uniform on [0, max_fraction*n0] in selection order."""
    g = Xoshiro(seed)
    pool = list(range(horizon))
    for i in range(n_spikes):
        j = i + g.below(horizon - i)
        pool[i], pool[j] = pool[j], pool[i]
    bound = max_fraction * n0
    return {t: g.uniform() * bound for t in pool[:n_spikes]}


def exposure_cap(n0: float, sigma_n: float, rho: float, kappa: float) -> float:
    return n0 * (1.0 + kappa * sigma_n / math.sqrt(1.0 - rho * rho))


# Exact closed forms over the doubles they are given.

def exact_load(lam, g, k, shock, beta, sigma_m) -> Fraction:
    """lam * G * (1 + k*x), exactly; D = 1 - this."""
    F = Fraction
    x = F(shock) / (F(beta) * F(sigma_m))
    return F(lam) * F(g) * (1 + F(k) * x)


def exact_g_star(lam, k, shock, beta, sigma_m) -> Fraction:
    F = Fraction
    x = F(shock) / (F(beta) * F(sigma_m))
    return 1 / (F(lam) * (1 + F(k) * x))


def g_star(lam, k, shock, beta, sigma_m) -> float:
    return 1.0 / (lam * (1.0 + k * shock / (beta * sigma_m)))


def within(got: float, want: float, scale: float, rel: float = 1e-12) -> bool:
    """|got - want| <= rel * scale, for replay comparisons whose terms may cancel."""
    return abs(got - want) <= rel * scale + 1e-300


def impact(y: float, kind: str, c: float, i_max: float) -> float:
    if kind == "linear":
        return y
    if kind == "clamp":
        return min(i_max, max(-i_max, y))
    return math.tanh(c * y)
