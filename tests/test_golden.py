"""Golden outputs: the exact bytes of every CLI artifact, pinned across versions.

Each case runs one subcommand in-process on a fixed config, with or without
``--svg``, and compares its exit code and the SHA-256 of every file it
writes with the values recorded below. ``manifest.json`` is left out
because it records a wall-clock duration; its digests of the other files
are covered by them. The generator's first draws are pinned the same way,
so are the bytes of its bulk draws (with the draw that follows them), its
spike-time picks and the spike schedules built on them, and so
are the states of the library-only paths (``simulate_one_shot``,
linear ``simulate_recursive``, repeated ``feedback_step``) and of runs that
reach the censor's floor and cap and both clamp bounds, as the SHA-256 of
every state field written with ``float.hex``.

When a change is meant to alter an output, print the new tables with
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change.
"""

import dataclasses
import hashlib
import math
import sys
import tempfile
from pathlib import Path

import pytest

from gammafeedback import (
    EventSpec,
    ImpactSpec,
    ModelParams,
    Rng,
    SimState,
    StochasticSpec,
    exposure_cap,
    feedback_step,
    generate_event_spikes,
    simulate_event_driven,
    simulate_one_shot,
    simulate_recursive,
    simulate_stochastic,
)
from gammafeedback.cli import main

# The README's configuration example.
README = """
[model]
lambda = 0.05
beta = 1.0
mu0 = 0.025
n0 = 200
gamma0 = 1.0
sigma_m = 0.03
k = 2
eta = 2
xi = 5
s0 = 100

[impact]
kind = tanh
c = 1.0
i_max = 1.0

[stochastic]
rho = 0.9
sigma_n = 0.2
kappa = 8
seed = 0

[events]
n_spikes = 70
max_fraction = 0.3
seed = 0

[grid]
beta_min = 0.2
beta_max = 3.0
g_min = 0
g_max = 300
n_beta = 200
n_g = 200
shock_ratio = 0.05
lambda = 0.003
sigma_m = 0.03
k = 2

[run]
horizon = 200
out = results/run1
emit_svg = false
"""

# A path run in the style of the benchmark's ``paths`` workload; only the
# impact differs between the three configs below.
PATHS = """
[model]
lambda = 0.03
beta = 0.4
mu0 = 0.02
n0 = 180
gamma0 = 1.2
sigma_m = 0.025
k = 1.5
eta = 2.5
xi = 4
s0 = 80

[impact]
{impact}

[stochastic]
rho = 0.8
sigma_n = 0.15
kappa = 6
seed = 20240811

[events]
n_spikes = 40
max_fraction = 0.25
seed = 18446744073709551615

[run]
horizon = 600
"""

# A non-square map that starts above G = 0, with a third of its cells past
# D = 0 (singular in the amplification map): a slip between the beta and G
# axes, or an offset on either, changes its bytes where the square README
# grid from G = 0 might not.
SKEW = """
[grid]
beta_min = 0.25
beta_max = 2.75
g_min = 40
g_max = 260
n_beta = 61
n_g = 47
shock_ratio = 0.04
lambda = 0.002
sigma_m = 0.025
k = 1.5
"""

CONFIGS = {
    "readme": README,
    # D = -25.7 on the README model, so static-response exits 3 there; this
    # softer impact coefficient (as in test_cli) lets its file be pinned.
    "readme-soft": README.replace("lambda = 0.05", "lambda = 0.001"),
    "tanh": PATHS.format(impact="kind = tanh\nc = 1.0"),
    "tanh-c0.03": PATHS.format(impact="kind = tanh\nc = 0.03"),
    # Without [stochastic]: events run on their default cap, and
    # simulate-stochastic is refused.
    "clamp": PATHS.format(impact="kind = clamp\ni_max = 0.7").replace(
        "[stochastic]\nrho = 0.8\nsigma_n = 0.15\nkappa = 6\nseed = 20240811\n", ""
    ),
    "skew": SKEW,
}

PATH_SUBCOMMANDS = ("simulate", "simulate-stochastic", "simulate-events", "fixed-point")
SUBCOMMANDS = {
    "readme": ("stability-map", "amplification-map", "static-response", *PATH_SUBCOMMANDS,
               "bifurcation-scan"),
    "readme-soft": ("static-response",),
    "tanh": PATH_SUBCOMMANDS,
    "tanh-c0.03": PATH_SUBCOMMANDS,
    "clamp": PATH_SUBCOMMANDS,
    "skew": ("stability-map", "amplification-map"),
}

CASES = [
    f"{name} {sub}{flag}"
    for name, subs in SUBCOMMANDS.items()
    for sub in subs
    for flag in ("", " --svg")
]


def run_case(case: str, root: Path) -> tuple[int, dict[str, str]]:
    """Exit code and {file: sha256} of every output but the manifest."""
    name, sub, *flags = case.split()
    path = root / "run.cfg"
    path.write_text(CONFIGS[name], encoding="utf-8")
    out = root / "out"
    rc = main([sub, "--config", str(path), "--out", str(out), "--quiet", *flags])
    files = sorted(out.iterdir()) if out.exists() else []
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in files if f.name != "manifest.json"
    }
    if rc == 0:
        assert (out / "manifest.json").exists()
    return rc, digests


RNG_SEEDS = (0, 1, 2**64 - 1)


def first_u64(seed: int) -> list[int]:
    rng = Rng(seed)
    return [rng.next_u64() for _ in range(16)]


def first_normals_hex(seed: int) -> list[str]:
    rng = Rng(seed)
    return [rng.normal().hex() for _ in range(16)]


# The bulk draws, each followed by one next_u64(): one value, 1000 draws (32
# lanes of 32, the last one 8 long), and two counts above 2^20: 2^20 + 3, just
# past a power of four, and 3 * 2^20 + 5.
BULK_DRAWS = ("u64_array", "uniforms", "normals")
BULK_SIZES = (1, 1000, 2**20 + 3, 3 * 2**20 + 5)
BULK_CASES = [f"{draw} {seed} {n}" for draw in BULK_DRAWS for seed in RNG_SEEDS
              for n in BULK_SIZES]


def bulk_digest(case: str) -> tuple[str, int]:
    """SHA-256 of the little-endian bytes of a bulk draw, and the next u64."""
    draw, seed, n = case.split()
    rng = Rng(int(seed))
    values = getattr(rng, draw)(int(n))
    data = values.astype(values.dtype.newbyteorder("<")).tobytes()
    return hashlib.sha256(data).hexdigest(), rng.next_u64()


# Spike times drawn by sample_indices, each followed by one next_u64(): the
# empty and the one-item draw, full populations, the bench's event horizons,
# and a large population with few picks.
SAMPLE_SIZES = ((0, 0), (1, 1), (10, 10), (131, 76), (500, 70), (29587, 200), (10**6, 5))
SAMPLE_CASES = [f"{seed} {n} {k}" for seed in RNG_SEEDS for n, k in SAMPLE_SIZES]


def sample_digest(case: str) -> tuple[str, int]:
    """SHA-256 of the picks of a sample_indices draw, in draw order, and the next u64."""
    seed, population, k = map(int, case.split())
    rng = Rng(seed)
    picks = rng.sample_indices(population, k)
    return hashlib.sha256(",".join(map(str, picks)).encode()).hexdigest(), rng.next_u64()


# Spike schedules at the largest bench horizon and at a million steps.
SPIKE_CASES = [f"{seed} {horizon} {n_spikes}" for seed in RNG_SEEDS
               for horizon, n_spikes in ((29587, 200), (10**6, 70))]


def spikes_digest(case: str) -> str:
    """SHA-256 of one ``step float.hex(size)`` line per spike of a schedule."""
    seed, horizon, n_spikes = map(int, case.split())
    spec = EventSpec(horizon=horizon, n_spikes=n_spikes, max_fraction=0.3, seed=seed)
    schedule = generate_event_spikes(spec, PATHS_MODEL.n0)
    lines = "\n".join(f"{t} {float.hex(v)}" for t, v in schedule.items())
    return hashlib.sha256(lines.encode()).hexdigest()


def states_digest(states) -> str:
    """SHA-256 of one line per state: t, then every float field as float.hex."""
    lines = "\n".join(
        " ".join([str(st.t), *(float.hex(v) for v in
                               (st.s, st.ds_obs, st.m_cum, st.n_t, st.mu_t, st.nu_t))])
        for st in states
    )
    return hashlib.sha256(lines.encode()).hexdigest()


def iterate_feedback_step(params: ModelParams, impact: ImpactSpec, steps: int = 200):
    """``steps`` iterates of feedback_step from acceptance criterion 3's start state."""
    state = SimState(t=0, s=100.0, ds_obs=1.0, m_cum=0.0, n_t=200.0, mu_t=0.0)
    states = [state]
    for _ in range(steps):
        state = feedback_step(state, params, impact)
        states.append(state)
    return states


# The [model] of PATHS, for the library calls.
PATHS_MODEL = ModelParams(lam=0.03, beta=0.4, mu0=0.02, n0=180.0, gamma0=1.2,
                          sigma_m=0.025, k=1.5, eta=2.5, xi=4.0, s0=80.0)
IMPACTS = {
    "linear": ImpactSpec.linear(),
    "clamp": ImpactSpec.clamp(0.7),
    "tanh": ImpactSpec.tanh(1.0),
    "tanh-c0.03": ImpactSpec.tanh(0.03),
}


def _frozen(feedback: float) -> ModelParams:
    """Criterion 3's frozen model: eta = k = mu0 = 0, linear gain ``feedback``."""
    return ModelParams(lam=feedback / 200.0, beta=1.0, mu0=0.0, n0=200.0,
                       gamma0=1.0, k=0.0, eta=0.0)


# A small kappa puts the AR(1) exposure's cap within reach of its noise, so
# the censor fires at the cap as well as at the floor. Spikes up to half of
# n0 pass a cap of 1.1 * n0 while the position is undecayed, and a negative
# lam clamps the response at -i_max.
CENSORED = StochasticSpec(rho=0.5, sigma_n=0.5, kappa=0.5, seed=7)
SPIKES = EventSpec(horizon=300, n_spikes=40, max_fraction=0.5, seed=3)
SPIKE_CAP = StochasticSpec(rho=0.0, sigma_n=0.1, kappa=1.0)
CLAMP_LAMS = {"+i_max": 0.03, "-i_max": -0.03}


def censored_stochastic():
    return simulate_stochastic(PATHS_MODEL, IMPACTS["tanh"], CENSORED, 300)


def capped_events():
    return simulate_event_driven(PATHS_MODEL, IMPACTS["tanh"], SPIKES, SPIKE_CAP)


def clamped_recursive(bound: str):
    params = dataclasses.replace(PATHS_MODEL, lam=CLAMP_LAMS[bound])
    return simulate_recursive(params, IMPACTS["clamp"], 400)


LIBRARY_CASES = {
    **{f"one_shot {name}": (lambda i=impact: simulate_one_shot(PATHS_MODEL, i, 50).states)
       for name, impact in IMPACTS.items()},
    # the shortest plateaus, and one a block of 1,024 rows plus one long
    **{f"one_shot {name} T={horizon}":
       (lambda i=impact, h=horizon: simulate_one_shot(PATHS_MODEL, i, h).states)
       for name, impact in IMPACTS.items() for horizon in (1, 2, 1025)},
    "stochastic censored at floor and cap": lambda: censored_stochastic().states,
    "events censored at cap": lambda: capped_events().states,
    **{f"recursive clamp at {bound}": (lambda b=bound: clamped_recursive(b).states)
       for bound in CLAMP_LAMS},
    # lambda * G = 0.4 keeps the linear recursion bounded over the horizon
    "recursive linear": lambda: simulate_recursive(
        ModelParams(lam=0.002, beta=0.8, mu0=0.01, n0=200.0), ImpactSpec.linear(), 600
    ).states,
    **{f"feedback_step f={f}": (lambda f=f: iterate_feedback_step(_frozen(f), ImpactSpec.linear()))
       for f in (-0.9, -0.3, 0.5, 0.99, 1.01, 1.1)},
    # the same start state with decay and surprise amplification switched on
    "feedback_step tanh": lambda: iterate_feedback_step(
        ModelParams(lam=0.05, beta=1.0, mu0=0.025), ImpactSpec.tanh(1.0)
    ),
}


# The recorded tables, as printed by running this file.
GOLDEN: dict[str, tuple[int, dict[str, str]]] = {
    'readme stability-map': (0, {
        'config.resolved.cfg':
            'f4fe3483c9e8249a44d84c8111a14f3c2bcf1fb57566010a83817119b509f246',
        'stability_contour.csv':
            '5d9018730fb8dc3d1c4bf541e494df18ea32d6852ce8e2fde01f078cf01e58b1',
        'stability_grid.csv':
            '3b3934ca9c4432a6223e35a49920bb20851e8a1690aef244bc0163272d46ec3a',
    }),
    'readme stability-map --svg': (0, {
        'config.resolved.cfg':
            '6f2bab76fadc56a6888ade021b082e87da7ef73d83937309d99c43964b3c665c',
        'stability_contour.csv':
            '5d9018730fb8dc3d1c4bf541e494df18ea32d6852ce8e2fde01f078cf01e58b1',
        'stability_grid.csv':
            '3b3934ca9c4432a6223e35a49920bb20851e8a1690aef244bc0163272d46ec3a',
        'stability_map.svg':
            'e1ffb66f774adc08376a7cb244cc6470817a08445393199b55ccd5a03a280b7d',
    }),
    'readme amplification-map': (0, {
        'amplification_contour.csv':
            '2a2876aaa293ace86ad20952a86219f3d861a7a0bd1dcd9c716d24e55d815972',
        'amplification_grid.csv':
            '682d205f0bdea0a1957b05eabb21bc2f122f71bd9082dde0b49e2dec5fa3bbf0',
        'config.resolved.cfg':
            'f4fe3483c9e8249a44d84c8111a14f3c2bcf1fb57566010a83817119b509f246',
        'stability_contour.csv':
            '5d9018730fb8dc3d1c4bf541e494df18ea32d6852ce8e2fde01f078cf01e58b1',
    }),
    'readme amplification-map --svg': (0, {
        'amplification_contour.csv':
            '2a2876aaa293ace86ad20952a86219f3d861a7a0bd1dcd9c716d24e55d815972',
        'amplification_grid.csv':
            '682d205f0bdea0a1957b05eabb21bc2f122f71bd9082dde0b49e2dec5fa3bbf0',
        'amplification_map.svg':
            '96f59be91d6158a64fc39a6842ef0b54e72962401a6c5896baef893dfa511bb9',
        'config.resolved.cfg':
            '6f2bab76fadc56a6888ade021b082e87da7ef73d83937309d99c43964b3c665c',
        'stability_contour.csv':
            '5d9018730fb8dc3d1c4bf541e494df18ea32d6852ce8e2fde01f078cf01e58b1',
    }),
    'readme static-response': (3, {}),
    'readme static-response --svg': (3, {}),
    'readme simulate': (0, {
        'config.resolved.cfg':
            'f4fe3483c9e8249a44d84c8111a14f3c2bcf1fb57566010a83817119b509f246',
        'trajectory.csv':
            '930cfcdd1a6ddfdf24a22ecc54861cac9ce1cb95da356316ea43afa0a6fb1b70',
    }),
    'readme simulate --svg': (0, {
        'config.resolved.cfg':
            '6f2bab76fadc56a6888ade021b082e87da7ef73d83937309d99c43964b3c665c',
        'trajectory.csv':
            '930cfcdd1a6ddfdf24a22ecc54861cac9ce1cb95da356316ea43afa0a6fb1b70',
        'trajectory.svg':
            'ccf9d655e2a80cccb317590d5d1d16ffd82f07af75a070171a97f72ca0ac6885',
    }),
    'readme simulate-stochastic': (0, {
        'config.resolved.cfg':
            'f4fe3483c9e8249a44d84c8111a14f3c2bcf1fb57566010a83817119b509f246',
        'trajectory.csv':
            '50006a2fd76a0be8c605ebc4bd6f3de5caf7cd8c17bd28b5131efd0a1e40a449',
    }),
    'readme simulate-stochastic --svg': (0, {
        'config.resolved.cfg':
            '6f2bab76fadc56a6888ade021b082e87da7ef73d83937309d99c43964b3c665c',
        'trajectory.csv':
            '50006a2fd76a0be8c605ebc4bd6f3de5caf7cd8c17bd28b5131efd0a1e40a449',
        'trajectory.svg':
            '613c95c41993bb145261bf4d6d6c52b1b22523f84788340d20f54c33b0e43466',
    }),
    'readme simulate-events': (0, {
        'config.resolved.cfg':
            'f4fe3483c9e8249a44d84c8111a14f3c2bcf1fb57566010a83817119b509f246',
        'trajectory.csv':
            '5322d483497f515985fc7e5badcc7865cefe494ef1ecb5a9985320e048f97823',
    }),
    'readme simulate-events --svg': (0, {
        'config.resolved.cfg':
            '6f2bab76fadc56a6888ade021b082e87da7ef73d83937309d99c43964b3c665c',
        'trajectory.csv':
            '5322d483497f515985fc7e5badcc7865cefe494ef1ecb5a9985320e048f97823',
        'trajectory.svg':
            'e5d8c0cbf1baa88bcf709f9507c453e422a4a1aae2d2c51c019f20fce432eec3',
    }),
    'readme fixed-point': (0, {
        'config.resolved.cfg':
            'f4fe3483c9e8249a44d84c8111a14f3c2bcf1fb57566010a83817119b509f246',
        'fixed_point.csv':
            '804cb4f0cae2e05658970906ee50cea4e765bb3744e1b51732e9b2d56b702e28',
    }),
    'readme fixed-point --svg': (0, {
        'config.resolved.cfg':
            '6f2bab76fadc56a6888ade021b082e87da7ef73d83937309d99c43964b3c665c',
        'fixed_point.csv':
            '804cb4f0cae2e05658970906ee50cea4e765bb3744e1b51732e9b2d56b702e28',
    }),
    'readme bifurcation-scan': (0, {
        'bifurcation.csv':
            'e1726041b10fa5edf27d647104663b466c7512dfed0887e711271b5a53ad6d71',
        'config.resolved.cfg':
            'f4fe3483c9e8249a44d84c8111a14f3c2bcf1fb57566010a83817119b509f246',
    }),
    'readme bifurcation-scan --svg': (0, {
        'bifurcation.csv':
            'e1726041b10fa5edf27d647104663b466c7512dfed0887e711271b5a53ad6d71',
        'bifurcation.svg':
            '690880133b807c06ecd77a713d6c609eddff90661b6d3330bf4691534c6df1ed',
        'config.resolved.cfg':
            '6f2bab76fadc56a6888ade021b082e87da7ef73d83937309d99c43964b3c665c',
    }),
    'readme-soft static-response': (0, {
        'config.resolved.cfg':
            '202b86af52badfec83090c0e0ce6b0fd8b28343f4083a1345c3adeae39cdff32',
        'static_response.csv':
            '05d5afaaa5d202cf7faeccf4b667079acc79672a9392e0e160308f8a25c149e4',
    }),
    'readme-soft static-response --svg': (0, {
        'config.resolved.cfg':
            '5a9e0b1a206ee567d0906ef190db45ed440154a19c3215137049941615a7e145',
        'static_response.csv':
            '05d5afaaa5d202cf7faeccf4b667079acc79672a9392e0e160308f8a25c149e4',
    }),
    'tanh simulate': (0, {
        'config.resolved.cfg':
            'aa194599650a805797b7878bf24a827327c6a186fc80d1c6cc3b355b7bbbb04c',
        'trajectory.csv':
            '1619e83d10aca551e875048754db08d10f34f9fa7e1d93d6ef7a66cfc44007ee',
    }),
    'tanh simulate --svg': (0, {
        'config.resolved.cfg':
            'ab7f3d488b1bccfa33ba34117884e65fd4203c4d252099e20258b9c449b4d5e2',
        'trajectory.csv':
            '1619e83d10aca551e875048754db08d10f34f9fa7e1d93d6ef7a66cfc44007ee',
        'trajectory.svg':
            '196520a4dc000dfe8cdfc5d5040e540a987a06bef0a11177e6ab6dedb19a0a56',
    }),
    'tanh simulate-stochastic': (0, {
        'config.resolved.cfg':
            'aa194599650a805797b7878bf24a827327c6a186fc80d1c6cc3b355b7bbbb04c',
        'trajectory.csv':
            'a9264b394bd5358368e09e83d25b6d806599f7d6ef40d2e68e2d62a008d439a2',
    }),
    'tanh simulate-stochastic --svg': (0, {
        'config.resolved.cfg':
            'ab7f3d488b1bccfa33ba34117884e65fd4203c4d252099e20258b9c449b4d5e2',
        'trajectory.csv':
            'a9264b394bd5358368e09e83d25b6d806599f7d6ef40d2e68e2d62a008d439a2',
        'trajectory.svg':
            'f046e6a5738b83f7b3f9d83978ae568cebfa1cebd40b8e5f06b3b13206324c3a',
    }),
    'tanh simulate-events': (0, {
        'config.resolved.cfg':
            'aa194599650a805797b7878bf24a827327c6a186fc80d1c6cc3b355b7bbbb04c',
        'trajectory.csv':
            '03a2bd6a0ccffb969db4d8cf83346007c96a2217044239d237b260137ceb5939',
    }),
    'tanh simulate-events --svg': (0, {
        'config.resolved.cfg':
            'ab7f3d488b1bccfa33ba34117884e65fd4203c4d252099e20258b9c449b4d5e2',
        'trajectory.csv':
            '03a2bd6a0ccffb969db4d8cf83346007c96a2217044239d237b260137ceb5939',
        'trajectory.svg':
            '5d58b884d893649928fd377ccb6913c2ae6e5e91c3d7caaf3a22d32f6175bb36',
    }),
    'tanh fixed-point': (0, {
        'config.resolved.cfg':
            'aa194599650a805797b7878bf24a827327c6a186fc80d1c6cc3b355b7bbbb04c',
        'fixed_point.csv':
            'ee48cba412cb1db941dc39587fb78844abf8a9994161f869d4d0d47bd89454ff',
    }),
    'tanh fixed-point --svg': (0, {
        'config.resolved.cfg':
            'ab7f3d488b1bccfa33ba34117884e65fd4203c4d252099e20258b9c449b4d5e2',
        'fixed_point.csv':
            'ee48cba412cb1db941dc39587fb78844abf8a9994161f869d4d0d47bd89454ff',
    }),
    'tanh-c0.03 simulate': (0, {
        'config.resolved.cfg':
            '1d5338f575838993b5b737ee5677488e49c788a63aa69e2cf222057f04bd5161',
        'trajectory.csv':
            '379a84823124d9fcabd6658d9199811f31109584863636e0bd7e970376a76c22',
    }),
    'tanh-c0.03 simulate --svg': (0, {
        'config.resolved.cfg':
            '8ee28eb35ccdbb2e49d98a9ee2a0d7f35a1cec7ad9c38490aa0abc78eb4f3748',
        'trajectory.csv':
            '379a84823124d9fcabd6658d9199811f31109584863636e0bd7e970376a76c22',
        'trajectory.svg':
            '800c7f069b0c1c60958bba8f0f0eafd9d69498ce8f2314bd599f966698126d67',
    }),
    'tanh-c0.03 simulate-stochastic': (0, {
        'config.resolved.cfg':
            '1d5338f575838993b5b737ee5677488e49c788a63aa69e2cf222057f04bd5161',
        'trajectory.csv':
            '186243fb147d941de0c60fd6d442780c65dcd36f6e6ca92143268190cd6497a1',
    }),
    'tanh-c0.03 simulate-stochastic --svg': (0, {
        'config.resolved.cfg':
            '8ee28eb35ccdbb2e49d98a9ee2a0d7f35a1cec7ad9c38490aa0abc78eb4f3748',
        'trajectory.csv':
            '186243fb147d941de0c60fd6d442780c65dcd36f6e6ca92143268190cd6497a1',
        'trajectory.svg':
            'a2f75b11e3debd2ee50b02ef94e4204e1915e039ea4aff89aaad52d086dbc705',
    }),
    'tanh-c0.03 simulate-events': (0, {
        'config.resolved.cfg':
            '1d5338f575838993b5b737ee5677488e49c788a63aa69e2cf222057f04bd5161',
        'trajectory.csv':
            '98570189be8dae9e9f0755f1c0bc07f26d80e56ac3328133e1336a96d94d0306',
    }),
    'tanh-c0.03 simulate-events --svg': (0, {
        'config.resolved.cfg':
            '8ee28eb35ccdbb2e49d98a9ee2a0d7f35a1cec7ad9c38490aa0abc78eb4f3748',
        'trajectory.csv':
            '98570189be8dae9e9f0755f1c0bc07f26d80e56ac3328133e1336a96d94d0306',
        'trajectory.svg':
            '790efdd3c76c23241ec57168fd46356baad064f63d85f2b3a6e3a9a261fcbe40',
    }),
    'tanh-c0.03 fixed-point': (0, {
        'config.resolved.cfg':
            '1d5338f575838993b5b737ee5677488e49c788a63aa69e2cf222057f04bd5161',
        'fixed_point.csv':
            '0c52674e89b09d4d1f64aede7ad9577b9db58a815998f9d958d32aca64817b46',
    }),
    'tanh-c0.03 fixed-point --svg': (0, {
        'config.resolved.cfg':
            '8ee28eb35ccdbb2e49d98a9ee2a0d7f35a1cec7ad9c38490aa0abc78eb4f3748',
        'fixed_point.csv':
            '0c52674e89b09d4d1f64aede7ad9577b9db58a815998f9d958d32aca64817b46',
    }),
    'clamp simulate': (0, {
        'config.resolved.cfg':
            '3758b3e41e955d4d955de1ae618f88b077cd871e2d8f9dd2d8200b349fa2cf04',
        'trajectory.csv':
            '802fcbb494686d7cc7a195c4ec359f7c57f9877a8a9cd97f50878dbd37823f56',
    }),
    'clamp simulate --svg': (0, {
        'config.resolved.cfg':
            '9bd1177c8c0160a5cabd818343fdfeefd1847f151d8e4e64e8207f3bf2358e14',
        'trajectory.csv':
            '802fcbb494686d7cc7a195c4ec359f7c57f9877a8a9cd97f50878dbd37823f56',
        'trajectory.svg':
            '1de3e61fe83dd773ffe9bdef39a4e7275f20f05425f2d42d89fde6858984b930',
    }),
    'clamp simulate-stochastic': (2, {}),
    'clamp simulate-stochastic --svg': (2, {}),
    'clamp simulate-events': (0, {
        'config.resolved.cfg':
            '3758b3e41e955d4d955de1ae618f88b077cd871e2d8f9dd2d8200b349fa2cf04',
        'trajectory.csv':
            'ba94b454db7cccd09eb1d407ec8e1af2c463ae6b225c0057fda6beddc7e348a9',
    }),
    'clamp simulate-events --svg': (0, {
        'config.resolved.cfg':
            '9bd1177c8c0160a5cabd818343fdfeefd1847f151d8e4e64e8207f3bf2358e14',
        'trajectory.csv':
            'ba94b454db7cccd09eb1d407ec8e1af2c463ae6b225c0057fda6beddc7e348a9',
        'trajectory.svg':
            '4c6fb0bb3b280f9378ce7c0434612d05a0ee36733a8d0691a26f02f63a6e632a',
    }),
    'clamp fixed-point': (0, {
        'config.resolved.cfg':
            '3758b3e41e955d4d955de1ae618f88b077cd871e2d8f9dd2d8200b349fa2cf04',
        'fixed_point.csv':
            '6c509aed1d8c29560b5efb4808e0463e5e55b1525cc077a75dac7f9cb4447469',
    }),
    'clamp fixed-point --svg': (0, {
        'config.resolved.cfg':
            '9bd1177c8c0160a5cabd818343fdfeefd1847f151d8e4e64e8207f3bf2358e14',
        'fixed_point.csv':
            '6c509aed1d8c29560b5efb4808e0463e5e55b1525cc077a75dac7f9cb4447469',
    }),
    'skew stability-map': (0, {
        'config.resolved.cfg':
            '3af7ac32afd6b20b7900d2c05438af390c01ac5ce5907a9c7be24ef6f481e457',
        'stability_contour.csv':
            'a7961239e59c8ac6a946a7c89d3792982e5b76101c4897f9fe46cdc3f99983c7',
        'stability_grid.csv':
            '6474fb76d33e6aad8d7d1e6e66ba5cecaba13bcb8510a92559a268c85d4225a3',
    }),
    'skew stability-map --svg': (0, {
        'config.resolved.cfg':
            'f6448ccb95247354f61d34a12cb27a2c47efe79003c4bd86996500c75e977155',
        'stability_contour.csv':
            'a7961239e59c8ac6a946a7c89d3792982e5b76101c4897f9fe46cdc3f99983c7',
        'stability_grid.csv':
            '6474fb76d33e6aad8d7d1e6e66ba5cecaba13bcb8510a92559a268c85d4225a3',
        'stability_map.svg':
            '4345ebc1289dc5fe2854fd7b2a0136b98a5acd894022b200dbd4242dfa28694b',
    }),
    'skew amplification-map': (0, {
        'amplification_contour.csv':
            '8495fdf125880c29280b76adc8ba9f9060949a7665469be46b8be851afda30d2',
        'amplification_grid.csv':
            '198ac16bead620ea49c7523fbeae84f47b69c6b62e7669db488ff19d0ebd5d21',
        'config.resolved.cfg':
            '3af7ac32afd6b20b7900d2c05438af390c01ac5ce5907a9c7be24ef6f481e457',
        'stability_contour.csv':
            'a7961239e59c8ac6a946a7c89d3792982e5b76101c4897f9fe46cdc3f99983c7',
    }),
    'skew amplification-map --svg': (0, {
        'amplification_contour.csv':
            '8495fdf125880c29280b76adc8ba9f9060949a7665469be46b8be851afda30d2',
        'amplification_grid.csv':
            '198ac16bead620ea49c7523fbeae84f47b69c6b62e7669db488ff19d0ebd5d21',
        'amplification_map.svg':
            'de46ef2f1b3a323b4692d5778ca440eb1b38a8fa307c88d4f50f0b92ae370773',
        'config.resolved.cfg':
            'f6448ccb95247354f61d34a12cb27a2c47efe79003c4bd86996500c75e977155',
        'stability_contour.csv':
            'a7961239e59c8ac6a946a7c89d3792982e5b76101c4897f9fe46cdc3f99983c7',
    }),
}
U64: dict[int, list[int]] = {
    0: [
        11091344671253066420, 13793997310169335082, 1900383378846508768,
        7684712102626143532, 13521403990117723737, 18442103541295991498,
        7788427924976520344, 9881088229871127103, 15781505947799885617,
        16949938600482740797, 2108416074180405844, 1240209487116192693,
        1967799970308132508, 12079539854699322239, 9150657576430337180,
        5466973851375020728,
    ],
    1: [
        12966619160104079557, 9600361134598540522, 10590380919521690900,
        7218738570589545383, 12860671823995680371, 2648436617965840162,
        1310552918490157286, 7031611932980406429, 15996139959407692321,
        10177250653276320208, 17202925169076741841, 17657558547222227110,
        17206619296382044401, 12342657103067243573, 11066818095355039191,
        16427605434558419749,
    ],
    18446744073709551615: [
        10328197420357168392, 14156678507024973869, 9357971779955476126,
        13791585006304312367, 10463432026814718762, 13498236496097551653,
        6831296623176769502, 14161350843019729634, 11558284878126271842,
        11331410254202166410, 4742038592102647401, 809304973552138745,
        8839074049581579390, 8873532491084022193, 3525529801700352095,
        14324370401275619504,
    ],
}
NORMAL_HEX: dict[int, list[str]] = {
    0: [
        '-0x1.36b8ef9b1343ep-6', '-0x1.5b1e3e4d1d349p+0', '-0x1.9d69103227bc6p-2',
        '0x1.dde71e47bc85ap-3', '0x1.a0073583e17ffp+0', '-0x1.50aecfe5d502cp-9',
        '-0x1.0570903b6c740p+0', '-0x1.dc8dc4ac79a98p-3', '0x1.b78508f2ca9d2p+0',
        '-0x1.eb8096fd09e01p-1', '0x1.cc2b7cdb461f4p-2', '0x1.9daf2d8c80301p-3',
        '-0x1.11cf21d289332p-2', '-0x1.91fda58e595d1p-2', '-0x1.5852969df2093p-2',
        '0x1.1f13a1f1616d8p+0',
    ],
    1: [
        '-0x1.8b93b94e8cc62p+0', '-0x1.989b7b0416aa5p-3', '-0x1.037e69664d113p+0',
        '0x1.a618a72b38c74p-1', '0x1.eaa5ec6ca9a27p-1', '0x1.367a36fea06a5p+0',
        '-0x1.2092bdfed5791p-2', '0x1.0af98f1b239e5p-2', '-0x1.e7755e0a9a28ap+0',
        '-0x1.4863f1119c38cp-1', '0x1.1e9697034c792p+1', '-0x1.3bca25dc1b15fp-1',
        '-0x1.2186e9e4facc7p+0', '-0x1.03d1f4fa2c78ap+1', '0x1.0bc06cb7b029ep+0',
        '-0x1.b7f13588eba3cp-1',
    ],
    18446744073709551615: [
        '0x1.1ede239db844fp-3', '-0x1.46056886924fcp+0', '-0x1.20a60539b9e1cp-6',
        '-0x1.30902b283ef0cp+0', '-0x1.2f6d220d703edp-3', '-0x1.492607722effcp+0',
        '0x1.b4f2578e69cb1p-4', '-0x1.e96a4e82d7e66p-1', '-0x1.0e9b63991d9f5p+0',
        '-0x1.d8cac38ca59d0p-1', '0x1.7bcd7843735b2p-1', '0x1.adb970bee6f97p-3',
        '-0x1.22554eefa3d98p+0', '0x1.1615dada27ec9p-3', '0x1.ba92390cd9008p-4',
        '-0x1.48d9e49686264p-1',
    ],
}

BULK_GOLDEN: dict[str, tuple[str, int]] = {
    'u64_array 0 1':
        ('9243e970826c69deedb361fd07e6336324a68b72ffa667d993557dcd93a930b1', 13793997310169335082),
    'u64_array 0 1000':
        ('757a9e48923a354721296928208b4b560405fe747783239ae416510007f6e81b', 3215403766075632002),
    'u64_array 0 1048579':
        ('bc1b6a44e067c61fa540f4d8ec8ae4c3551a3c49b684c4fbff503c3120bb0ad9', 9136155371078206559),
    'u64_array 0 3145733':
        ('7e48e3154648c6ca0f29d27fa6bc8f0b49c02c8edd5b65b22e926955f5099d23', 10556908781519554203),
    'u64_array 1 1':
        ('8260800ceae3ecbcb402bf0c681bf229209c80d837b08865cf630074c6d75ed8', 9600361134598540522),
    'u64_array 1 1000':
        ('65b711aa4c8e36e4f76bd762ed4c7e58b310f8fd741ad41b7188cb7b62008bc2', 14841950361884779394),
    'u64_array 1 1048579':
        ('62ff11f588452908b6ff4294ce38f5d1c573ff4384aaecbacb1618eb08da30f5', 9301029272898691974),
    'u64_array 1 3145733':
        ('98e05bc83cd04469eaa77acae610d1fdf196c0bf94df0fc35cf009cd03fe3873', 15508361597191213545),
    'u64_array 18446744073709551615 1':
        ('e2d40c4c427217f98f3100addc29e860efaa8a6fdb79a74d99cb59233f05ce83', 14156678507024973869),
    'u64_array 18446744073709551615 1000':
        ('1d890f305739e9fbdf693878214aa1f6269fdeca0f8ed6cb1a50cd055689795c', 1855756785506932879),
    'u64_array 18446744073709551615 1048579':
        ('bafa99ee651946edb9812f235297f9485be2babd8ca1c861556a91df23495efb', 15213908714786957687),
    'u64_array 18446744073709551615 3145733':
        ('564a1d57e846d16f371d6d6bfd7fd745e551efdd527f182c168a0e76a3ee1bee', 6094328207976892360),
    'uniforms 0 1':
        ('59946f2b897e093062f4f637e8ffcf95d68fcc2c62a36f3bc7e153c03372929a', 13793997310169335082),
    'uniforms 0 1000':
        ('cf3ee6379f80ff2a827ca55f0275b51171a11a5f9f42cb92db99daf4a826b9f3', 3215403766075632002),
    'uniforms 0 1048579':
        ('4538bc1992c8b9b3aaaad4e570c5529e4ba2d094f8276e2fef32a514b5690729', 9136155371078206559),
    'uniforms 0 3145733':
        ('634a7433cf76e58beb9f5fdd3ddf50c53f291fa75b14fc950e036e74e4ebdbbd', 10556908781519554203),
    'uniforms 1 1':
        ('c58d1dfd6287dc5548c6d7622e9c5d10696ce0c1cbe4ff6c3b29501b85e33f91', 9600361134598540522),
    'uniforms 1 1000':
        ('1850c5cce6033b5c2abccd38cb42c1cc5769a3089c1e329bc31f7813a9b8f1aa', 14841950361884779394),
    'uniforms 1 1048579':
        ('9ef81da8dbed093a671ba74470c3fb9a29827ee7ef16cceb2eb29da432a1e845', 9301029272898691974),
    'uniforms 1 3145733':
        ('f71b3b979a049b56adf5115483c61f179efc3380110a3af85c87c0ee185e7a73', 15508361597191213545),
    'uniforms 18446744073709551615 1':
        ('16909bb57c9811bb0ae899164f33387306c2825b59056e3d3c018c4d421b5411', 14156678507024973869),
    'uniforms 18446744073709551615 1000':
        ('42f8110b0ee03bb3eb263cb6141fb65c50c9315b277a406a4d0b7dacf9d7f0a7', 1855756785506932879),
    'uniforms 18446744073709551615 1048579':
        ('6c4d4c3b4cd62624e645d7c7c913695c485b514ee87707cb005ced05f894dffb', 15213908714786957687),
    'uniforms 18446744073709551615 3145733':
        ('5ff6db0b01d22e15c4852ac2c16a7f62f402e72a5a7c94fba8cb3fb8a3c9a4fd', 6094328207976892360),
    'normals 0 1':
        ('5e4a1682232da02a11a8e917aae2c99d8ea7cfee64be81f992558bc744ed55ba', 1900383378846508768),
    'normals 0 1000':
        ('49e716746b12fd28d8eb2ad4d6ba608bb841bd4d144ff73aff64ee4a2f07405e', 3215403766075632002),
    'normals 0 1048579':
        ('9367c8505b51335da9b49ff2dd7216468225b36867b32717f1af2f06788549ac', 13273239511053938289),
    'normals 0 3145733':
        ('c9b495f5ae8e07eda354907837d757b654f8f944a112e53d2a5452758b243f3e', 9715278777977880745),
    'normals 1 1':
        ('8657d7904123fdb0f478523b2c0b57608b3de4c4760ecec7723bacb1360b1a31', 10590380919521690900),
    'normals 1 1000':
        ('8b516a8376087b8ab2b063d96856adc39d3e5ceb56b6da0ebf6decee6a155fc3', 14841950361884779394),
    'normals 1 1048579':
        ('cf2704f814067de045a1b0f449f4d54f3b6ef6ce6ae19eca7f30055d253bb7cc', 4035706738607622234),
    'normals 1 3145733':
        ('c5a7d9b8c77a840e0650b473223121de07025c62dabe3d4e75ba7e9653f9e421', 17338767743649845100),
    'normals 18446744073709551615 1':
        ('984ca191243f2c511bca6b6fd831d1695f59eb2f806f5a28e6472deb649c8045', 9357971779955476126),
    'normals 18446744073709551615 1000':
        ('fc6d443f1fba44b83c36bc42abf2706fabcb33a7f195e6188cef9e936ebc223d', 1855756785506932879),
    'normals 18446744073709551615 1048579':
        ('cf3690e3d35f2ae76177bcb3cdcd51ff3bb5b4ae78d90c25439ce19135ba70b4', 6659809837573033559),
    'normals 18446744073709551615 3145733':
        ('54e3ee44e768f298b59e0de6e5490e9f527a8417326da86eb3113487fe8745ca', 17100791813577228950),
}

SAMPLE_GOLDEN: dict[str, tuple[str, int]] = {
    '0 0 0':
        ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 11091344671253066420),
    '0 1 1':
        ('5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9', 13793997310169335082),
    '0 10 10':
        ('94932ed6823ae09d2f061cf086866a929b804cad244e18bc9f16ef73796d392d', 2108416074180405844),
    '0 131 76':
        ('d5494c06904ea54cc9adcb578d63ea99ffa8742c748d7833063f6d7239515bd4', 13136723021230855642),
    '0 500 70':
        ('aa310592fa944a5ebf44288189ae67f6f0a699b653e9d16c5b2ae5c95cada1e7', 197538868047695706),
    '0 29587 200':
        ('1cf0d4549a94a2b73af2a08ae0d8b8948523289095e445e21612f65d8ba4331d', 12484669803094204725),
    '0 1000000 5':
        ('6ab47e2468b4fc90fb633f25a8eb63ae288cfb08443b0be652c32a1d71822d35', 18442103541295991498),
    '1 0 0':
        ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 12966619160104079557),
    '1 1 1':
        ('5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9', 9600361134598540522),
    '1 10 10':
        ('8a2411e1e2945523b4fee0c9b707deb8f616bc7ede9409f59e73a4265159ba0e', 17202925169076741841),
    '1 131 76':
        ('aabef8cdead5cafe4b392c272ca34fbf3b663a962b7408c34e41e7a019c382aa', 5080962596265011358),
    '1 500 70':
        ('e2cb855682cbcea23bcafe5dc32d9b6ebcbde838ded0ac6137af73f4af3f8ca2', 2993040952029564184),
    '1 29587 200':
        ('3e17d656669fdc5ed8032c58639ea44237d50367c301ea4a3503b31f63ae5e07', 8406197547008748429),
    '1 1000000 5':
        ('d56daf87b18bf0b10528242dc06c17cd01552d543973419b120db3c1e73e3f8b', 2648436617965840162),
    '18446744073709551615 0 0':
        ('e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 10328197420357168392),
    '18446744073709551615 1 1':
        ('5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9', 14156678507024973869),
    '18446744073709551615 10 10':
        ('a37164a3ee721582fc1907b8420e0045a37ea097d4005e8c66488eec5cba5955', 4742038592102647401),
    '18446744073709551615 131 76':
        ('8e812e2fcb38c5751027d26529b80ddcf0c20c9e4dd0a4fa90372d5ff80be90a', 7208232795285723122),
    '18446744073709551615 500 70':
        ('e87aca8d6047d9e64c28213735c063a0d353a6c2f4b63b0488bbc195d17d0bd3', 3828563762495902883),
    '18446744073709551615 29587 200':
        ('6bcf422ee20ae199318fd2840850d2333b20e13700bd7d76859a7ee0613ac797', 12513362320542735687),
    '18446744073709551615 1000000 5':
        ('a8d4b31420d989f58d61becb5f227ba1a7b3bc962ed4df11eb2eb0fe13f5ceb9', 13498236496097551653),
}

SPIKES_GOLDEN: dict[str, str] = {
    '0 29587 200':
        '3952f37b4117ae365141bcc9b5ca59f1cfd49673862ec52b98b6432c2261ec37',
    '0 1000000 70':
        '11b5b3d5a91057ee56695aaa2b875b7ed625dc31bbef1d2a21401d96c08e95b2',
    '1 29587 200':
        'eb7226c6f6a1eebbba62c002f44fac78d7b07f90d20597ffc13d469644d179fc',
    '1 1000000 70':
        '42e3c18b8a09bf8b530ca8a9d8d9f9b141fdbd1257e63b05f8b9ef25314eac32',
    '18446744073709551615 29587 200':
        'a3df8d08d6e1265749c15f6f7555425704a0959e05e31252e81f830332c45cc9',
    '18446744073709551615 1000000 70':
        '2aed1b159ce411fcf22ff67afd7cc28eceff898a897f4623e657e1b2eaeb4ec6',
}

LIBRARY_GOLDEN: dict[str, str] = {
    'one_shot linear':
        'e8062e29536d4680da4e25f67a5ba7227e3e41744a277492c99c82412d86fce8',
    'one_shot clamp':
        '65d3ad3d93164a5d6a6233b9205c6375a56020aa1423432254828f0af04c929d',
    'one_shot tanh':
        '156d79e7c90cbd0ab7bc713bef69e0b5d708d297d64cbfb440d190187d43481f',
    'one_shot tanh-c0.03':
        '8f9677e2076f9d7a0249bbf11266ca4d106dd2ebe51bf2ead3af6c5bd7bb131a',
    'one_shot linear T=1':
        '67759a60f8eaf60e37b73d1f48bfdda13d474a0ec7b121ca6ed7ed432c52ff78',
    'one_shot linear T=2':
        '8580ea8de14b2c4b0953519e03c4682d57d46758ef5751d6b757c97104344ee8',
    'one_shot linear T=1025':
        'fec2f0917dec0e07a2c0dfbd976c45a6093c1795e452bed6681196b9898d13ce',
    'one_shot clamp T=1':
        '25404faa65e90e0c0b68f0b4f49efddae7f56d7709b3607d4bbc195fa8947b9a',
    'one_shot clamp T=2':
        'd1ad78b41c86cfbafe42d494288fabf3181832e9841f1973ce5af77632b7e5fe',
    'one_shot clamp T=1025':
        'f72845c6937520c11bb953a61dc8addb5e6c0f6ddbdb259add8363370702eee3',
    'one_shot tanh T=1':
        'ce1d5ac4a6220409aa793d33010546943806a45d61b6b916324eba46b67d13e6',
    'one_shot tanh T=2':
        '68fe2448fb84b758d900142a92c8a727f4186071b1b793fdd6a6284b207c95f9',
    'one_shot tanh T=1025':
        '082e5cad8adc8f1354d47f01dacee9d249e5aa08907dfaf60ab6210e97ffa69d',
    'one_shot tanh-c0.03 T=1':
        '32288734d9732da0a1136313f4f4d047df81e0a58b9600c327999a7bb5b9782a',
    'one_shot tanh-c0.03 T=2':
        'f63fb4515fd2eb18f5297ae599ecf60a1e1a65749c020ece676adf3988c2d75e',
    'one_shot tanh-c0.03 T=1025':
        '1f6d7532f5b171bdec8844dd2449ea6d504bbd402dc4b996596d8cbdf19ade67',
    'stochastic censored at floor and cap':
        '18194e29fbb4c81bd730361a09f84513ecfd4cfa6f0c32eaa576e915fe62969d',
    'events censored at cap':
        'a68db4ca6e0549b3a34881221496506ba7ee3a158fc89b0e6f85e0055a533bbe',
    'recursive clamp at +i_max':
        '06bffd53a6926d795f6a3fe9a1c310588e8f8e7967fdb3d4c09dd562adb1f0e6',
    'recursive clamp at -i_max':
        '56b3f3f7e91996cb5a5b75a70b01d6557f7ec38d34aa3805d20ec47bb003c314',
    'recursive linear':
        'dbeef10a05e68d8b4f4ec2fb9badad9b2c50285ffcab0dd2c0aa2e471b8bf688',
    'feedback_step f=-0.9':
        'df4efa7d3b7fbfb22ede5cd54cb6d1468a9097711999be2d7543b40297902f1a',
    'feedback_step f=-0.3':
        '17608d67a8a265634fc9f916c93cd055580202d4669b7e24338188138240b9ed',
    'feedback_step f=0.5':
        '1c3a171947bfcc1b4b8e5adc1d45f486660b70db1979c80daa617fd73ec4caf6',
    'feedback_step f=0.99':
        '1c41de8a2b5cf2c08bb78e6ba80a5b24d84ca908561e019c3bb0061a831852ae',
    'feedback_step f=1.01':
        '1689cb49ca2c5cbf5974bbb117ea908ad42bb7364102956d256e3f49752350af',
    'feedback_step f=1.1':
        '765917cb227dde4f9a308947d8829e5a58d8d76d8717aa451fa9f66d42047f8d',
    'feedback_step tanh':
        '3f88b5bd856892b1e092c1460f5c3a0ea09328a25e8e6c47729576700f2ff2b8',
}


@pytest.mark.parametrize("case", CASES)
def test_cli_outputs(case, tmp_path):
    assert run_case(case, tmp_path) == GOLDEN[case]


def test_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_first_u64_draws(seed):
    assert first_u64(seed) == U64[seed]


@pytest.mark.parametrize("seed", RNG_SEEDS)
def test_first_normals(seed):
    assert first_normals_hex(seed) == NORMAL_HEX[seed]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BULK_CASES)
def test_bulk_draws(case):
    assert bulk_digest(case) == BULK_GOLDEN[case]


def test_bulk_table_covers_every_case():
    assert sorted(BULK_GOLDEN) == sorted(BULK_CASES)


@pytest.mark.parametrize("case", SAMPLE_CASES)
def test_sample_indices(case):
    assert sample_digest(case) == SAMPLE_GOLDEN[case]


def test_sample_table_covers_every_case():
    assert sorted(SAMPLE_GOLDEN) == sorted(SAMPLE_CASES)


@pytest.mark.parametrize("case", SPIKE_CASES)
def test_event_spikes(case):
    assert spikes_digest(case) == SPIKES_GOLDEN[case]


def test_spike_table_covers_every_case():
    assert sorted(SPIKES_GOLDEN) == sorted(SPIKE_CASES)


@pytest.mark.parametrize("case", LIBRARY_CASES)
def test_library_states(case):
    assert states_digest(LIBRARY_CASES[case]()) == LIBRARY_GOLDEN[case]


def test_library_table_covers_every_case():
    assert sorted(LIBRARY_GOLDEN) == sorted(LIBRARY_CASES)


def test_censored_stochastic_case_reaches_floor_and_cap():
    # the hook censors n_t + nu, and records that nu on the next state
    n, nu = censored_stochastic().arrays("n_t", "nu_t")
    cap = exposure_cap(PATHS_MODEL.n0, CENSORED.sigma_n, CENSORED.rho, CENSORED.kappa)
    raw = [n[t] + nu[t + 1] for t in range(len(n) - 1)]
    assert min(raw) < 0.0
    assert max(raw) > cap


def test_capped_events_case_passes_the_cap():
    # spikes can pass the cap only when max_fraction exceeds its margin
    assert SPIKES.max_fraction > SPIKE_CAP.kappa * SPIKE_CAP.sigma_n / math.sqrt(
        1.0 - SPIKE_CAP.rho ** 2)
    n, nu = capped_events().arrays("n_t", "nu_t")
    cap = exposure_cap(PATHS_MODEL.n0, SPIKE_CAP.sigma_n, SPIKE_CAP.rho, SPIKE_CAP.kappa)
    assert max(n[t] + nu[t] for t in range(len(n) - 1)) > cap


@pytest.mark.parametrize("bound", CLAMP_LAMS)
def test_clamped_recursive_case_binds(bound):
    # the pressure lam * N * gamma0 * (1 + k*x) that each step clamps
    p = dataclasses.replace(PATHS_MODEL, lam=CLAMP_LAMS[bound])
    s, ds, n = clamped_recursive(bound).arrays("s", "ds_obs", "n_t")
    pressure = [p.lam * n[t] * p.gamma0 * (1.0 + p.k * (abs(ds[t] / s[t]) / (p.beta * p.sigma_m)))
                for t in range(len(s) - 1)]
    i_max = IMPACTS["clamp"].i_max
    if bound == "+i_max":
        assert max(pressure) > i_max
    else:
        assert min(pressure) < -i_max


def _print_tables() -> None:
    print("GOLDEN: dict[str, tuple[int, dict[str, str]]] = {")
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            rc, digests = run_case(case, Path(tmp))
        if not digests:
            print(f"    {case!r}: ({rc}, {{}}),")
            continue
        print(f"    {case!r}: ({rc}, {{")
        for name, digest in digests.items():
            print(f"        {name!r}:\n            {digest!r},")
        print("    }),")
    print("}")
    for title, draws in (("U64: dict[int, list[int]]", first_u64),
                         ("NORMAL_HEX: dict[int, list[str]]", first_normals_hex)):
        print(f"{title} = {{")
        for seed in RNG_SEEDS:
            values = draws(seed)
            print(f"    {seed}: [")
            for i in range(0, len(values), 3):
                print("        " + " ".join(f"{v!r}," for v in values[i:i + 3]))
            print("    ],")
        print("}")
    print("BULK_GOLDEN: dict[str, tuple[str, int]] = {")
    for case in BULK_CASES:
        print(f"    {case!r}:\n        {bulk_digest(case)!r},")
    print("}")
    print("SAMPLE_GOLDEN: dict[str, tuple[str, int]] = {")
    for case in SAMPLE_CASES:
        print(f"    {case!r}:\n        {sample_digest(case)!r},")
    print("}")
    print("SPIKES_GOLDEN: dict[str, str] = {")
    for case in SPIKE_CASES:
        print(f"    {case!r}:\n        {spikes_digest(case)!r},")
    print("}")
    print("LIBRARY_GOLDEN: dict[str, str] = {")
    for case, states in LIBRARY_CASES.items():
        print(f"    {case!r}:\n        {states_digest(states())!r},")
    print("}")


if __name__ == "__main__":
    sys.exit(_print_tables())
