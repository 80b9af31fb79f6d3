"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
execute. Every expected value is recomputed by an independent oracle
(Fraction / mpmath / brute-force iteration) before comparison; tolerances
are fixed here, not calibrated.
"""

import json
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
from scipy.signal import lfilter

from gammafeedback import (
    EventSpec,
    GridSpec,
    ImpactSpec,
    ModelParams,
    Rng,
    SimState,
    StochasticSpec,
    critical_exposure,
    exposure_cap,
    extract_contour,
    feedback_step,
    generate_event_spikes,
    parse_config,
    simulate_event_driven,
    simulate_one_shot,
    simulate_recursive,
    simulate_stochastic,
    stability_denominator,
)
from gammafeedback.cli import main as cli_main
from gammafeedback.svgplot import timeseries_svg
from step_reference import censor_exposure

TANH = ImpactSpec.tanh(1.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def params(lam, beta, mu0=0.0, g=200.0, **kw):
    return ModelParams(lam=lam, beta=beta, mu0=mu0, n0=g, gamma0=1.0, **kw)


def test_criterion_1_closed_form_suite():
    start = time.perf_counter()
    checks = []

    def close(got, oracle, rel=1e-9):
        oracle = float(oracle)
        checks.append(abs(got - oracle) <= rel * max(abs(oracle), 1e-300))

    # x: |dS/S| / (beta * sigma_m)
    from gammafeedback import relative_surprise, surprise_amplification

    close(relative_surprise(5.0, 100.0, 1.0, 0.03), Fraction(5, 3))
    close(relative_surprise(5.0, 100.0, 2.0, 0.03), Fraction(5, 6))
    # phi = 1 + k x
    close(surprise_amplification(5.0 / 3.0, 2.0), Fraction(13, 3))
    close(surprise_amplification(5.0 / 6.0, 2.0), Fraction(8, 3))
    # D = 1 - lam G phi
    close(stability_denominator(params(0.003, 1.0, g=100.0), 0.05),
          1 - Fraction(3, 1000) * 100 * Fraction(13, 3))
    close(stability_denominator(params(0.003, 2.0, g=50.0), 0.05),
          1 - Fraction(3, 1000) * 50 * Fraction(8, 3))
    # G* = 1/(lam phi)
    close(critical_exposure(0.003, 1.0, 0.05), 1 / (Fraction(3, 1000) * Fraction(13, 3)))
    close(critical_exposure(0.01, 1.0, 0.0), 100)
    # exposure cap (high-precision sqrt)
    close(exposure_cap(200.0, 0.2, 0.9, 8.0),
          200 + 320 / mpmath.sqrt(1 - mpmath.mpf("0.81")))
    close(exposure_cap(200.0, 0.2, 0.0, 8.0), 520)
    # position and shock decay on the driver's first step: a shock of
    # mu0 * s0 moves m to mu0, N = n0 / (1 + 2 m^5), mu = mu0 * N / n0
    half = simulate_recursive(params(0.05, 1.0, mu0=0.5), TANH, 1).states[1]
    close(half.m_cum, Fraction(1, 2))
    close(half.n_t, Fraction(3200, 17))
    close(half.mu_t, Fraction(8, 17))
    one = simulate_recursive(params(0.05, 1.0, mu0=1.0), TANH, 1).states[1]
    close(one.n_t, Fraction(200, 3))
    close(one.mu_t, Fraction(1, 3))
    elapsed = time.perf_counter() - start
    report(1, all(checks) and elapsed < 1.0,
           f"{len(checks)} closed-form values within 1e-9 relative of "
           f"exact-arithmetic oracles in {elapsed:.3f}s (< 1s)")


def test_criterion_2_threshold_equivalence():
    start = time.perf_counter()

    def max_deviation(n):
        spec = GridSpec(beta_min=0.2, beta_max=3.0, g_min=0.0, g_max=300.0,
                        n_beta=n, n_g=n, shock_ratio=0.05, lam=0.003)
        contour = extract_contour(spec, 0.0)
        dev = 0.0
        for line in contour.polylines:
            for beta, g in line:
                dev = max(dev, abs(g - critical_exposure(0.003, beta, 0.05)))
        return dev, spec.cell_width_g

    dev200, cell200 = max_deviation(200)
    # 199 cells -> 398 cells halves the cell width
    dev399, _ = max_deviation(399)
    elapsed = time.perf_counter() - start
    report(2, dev200 <= cell200 and dev399 <= dev200 / 2 and elapsed < 2.0,
           f"contour vs analytic root: max dev {dev200:.4f} <= cell width "
           f"{cell200:.4f}; halved cells give {dev399:.4f} <= {dev200 / 2:.4f}; "
           f"{elapsed:.2f}s (< 2s)")


def test_criterion_3_affine_map_oracle():
    rng = np.random.default_rng(20240811)
    ok_converge = True
    for _ in range(50):
        a = rng.uniform(-2.0, 2.0)
        f = rng.uniform(-0.99, 0.99)
        d = 0.0
        for _ in range(10_000):
            d = a + f * d
        ok_converge &= abs(d - a / (1 - f)) <= 1e-9

    ok_diverge = True
    for f in (1.01, 1.1):
        a, d = 1.0, 0.0
        for _ in range(10_000):
            d = a + f * d
            if abs(d) > 1e6 * abs(a):
                break
        ok_diverge &= abs(d) > 1e6 * abs(a)

    # frozen-exposure simulator equivalence: k=0, eta=0, mu0=0, seeded unit
    # displacement makes the recursion exactly the affine map with a=0
    ok_sim = True
    for f in (-0.9, -0.3, 0.5, 0.99, 1.01, 1.1):
        p = ModelParams(lam=f / 200.0, beta=1.0, mu0=0.0, n0=200.0,
                        gamma0=1.0, k=0.0, eta=0.0)
        state = SimState(t=0, s=100.0, ds_obs=1.0, m_cum=0.0, n_t=200.0, mu_t=0.0)
        oracle = 1.0
        for _ in range(200):
            state = feedback_step(state, p, ImpactSpec.linear())
            oracle = f * oracle
            ok_sim &= abs(state.ds_obs - oracle) <= 1e-12 * max(1.0, abs(oracle))

    report(3, ok_converge and ok_diverge and ok_sim,
           "50 random (a,f) reach a/(1-f) within 1e-9 in 10k iterates; "
           "f in {1.01,1.1} exceeds 1e6*|a|; frozen-exposure simulator "
           "matches affine iterates to 1e-12/step")


def test_criterion_4_boundedness_under_saturation():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    ok = True
    for _ in range(1000):
        p = ModelParams(
            lam=rng.uniform(0.001, 0.1),
            beta=rng.uniform(0.2, 3.0),
            mu0=rng.uniform(0.0, 0.05),
            n0=rng.uniform(1.0, 500.0),
            gamma0=1.0,
        )
        traj = simulate_recursive(p, TANH, 500)
        m = traj.column("m_cum")
        n = traj.column("n_t")
        ok &= all(math.isfinite(st.s) for st in traj.states)
        ok &= all(a <= b for a, b in zip(m, m[1:]))
        ok &= all(a >= b for a, b in zip(n, n[1:]))
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(4, ok and elapsed < 5.0,
           f"1000 tanh-saturated runs (T=500, lam<=0.1, G<=500, mu0<=0.05, "
           f"beta in [0.2,3]): all finite, N non-increasing, movement "
           f"non-decreasing in {elapsed:.2f}s (< 5s)")


def test_criterion_5_figure_shape_properties():
    # (a) one-shot plateau strictly increasing in the shock size
    mus = (0.005, 0.01, 0.015, 0.02, 0.025)
    plateaus_mu = [
        simulate_one_shot(params(0.05, 1.0, mu0=m), TANH, 10).prices[-1]
        for m in mus
    ]
    ok_a = all(x < y for x, y in zip(plateaus_mu, plateaus_mu[1:]))

    # (b) one-shot plateau strictly decreasing in beta; exposure kept at
    # lam*G=4 so the saturation gap stays representable across all betas
    betas = (0.5, 1.0, 1.5, 2.0, 3.0)
    plateaus_beta = [
        simulate_one_shot(params(0.05, b, mu0=0.025, g=80.0), TANH, 10).prices[-1]
        for b in betas
    ]
    ok_b = all(x > y for x, y in zip(plateaus_beta, plateaus_beta[1:]))
    # at the paper-scale exposure the ordering still holds weakly with a
    # strict gap between the extremes
    plateaus_paper = [
        simulate_one_shot(params(0.05, b, mu0=0.025), TANH, 10).prices[-1]
        for b in betas
    ]
    ok_b &= all(x >= y for x, y in zip(plateaus_paper, plateaus_paper[1:]))
    ok_b &= plateaus_paper[0] > plateaus_paper[-1]

    # (c) recursive cross-beta spread: early divergence exceeds late spread
    # (unsaturated gain regime; see docs for the saturation caveat)
    soft = ImpactSpec.tanh(0.03)
    trajs = {
        b: simulate_recursive(params(0.03, b, mu0=0.025), soft, 375)
        for b in betas
    }

    def spread(t):
        vals = [trajs[b].prices[t] for b in betas]
        return max(vals) - min(vals)

    ok_c = spread(3) > spread(375)

    # (d) recursive trajectories with larger shocks dominate pointwise
    runs = [simulate_recursive(params(0.05, 1.0, mu0=m), TANH, 200) for m in mus]
    ok_d = True
    for lo, hi in zip(runs, runs[1:]):
        ok_d &= all(h > l for l, h in zip(lo.prices[1:], hi.prices[1:]))

    report(5, ok_a and ok_b and ok_c and ok_d,
           f"plateaus increase in mu0 {[round(p, 3) for p in plateaus_mu]}; "
           f"decrease in beta; spread(3)={spread(3):.3f} > "
           f"spread(T)={spread(375):.3f}; larger-shock runs dominate pointwise")


def test_criterion_6_stochastic_statistics():
    # 1e6-step constant-scale AR(1) harness, vectorized: bulk normals from
    # the pinned generator, recursion as an IIR filter
    start = time.perf_counter()
    eps = Rng(20240811).normals(1_000_000)
    nu = lfilter([1.0], [1.0, -0.9], 0.2 * 100.0 * eps)
    target = 20.0 / math.sqrt(1 - 0.81)
    std_err = abs(nu.std() - target) / target
    # standard error of the mean for AR(1): sigma*sqrt((1+rho)/(1-rho))/sqrt(N)
    mean_se = target * math.sqrt(1.9 / 0.1) / math.sqrt(nu.size)
    elapsed = time.perf_counter() - start
    ok_std = std_err < 0.02 and abs(nu.mean()) < 3 * mean_se and elapsed < 1.0

    # the filter computes exactly the driver's AR(1) recursion: at eta = 0
    # and mu0 = 0 the position stays n0 = 100, and the filter is fed the
    # driver's own scalar draws (bulk normals may differ in the last ulp)
    draws = Rng(20240811)
    scalar_eps = np.array([draws.normal() for _ in range(1000)])
    frozen = simulate_stochastic(params(0.05, 1.0, g=100.0, eta=0.0), TANH,
                                 StochasticSpec(rho=0.9, sigma_n=0.2, seed=20240811), 1000)
    filtered = lfilter([1.0], [1.0, -0.9], 0.2 * 100.0 * scalar_eps)
    ok_filter = frozen.column("nu_t")[1:] == list(filtered)

    # upper-cap hits over 100 seeded runs
    p = params(0.05, 1.0, mu0=0.025)
    cap_hits = 0
    total = 0
    for seed in range(100):
        stoch = StochasticSpec(seed=seed)
        cap = exposure_cap(p.n0, stoch.sigma_n, stoch.rho, stoch.kappa)
        traj = simulate_stochastic(p, TANH, stoch, 500)
        for prev, cur in zip(traj.states, traj.states[1:]):
            cap_hits += prev.n_t + cur.nu_t > cap
            total += 1
    ok_slack = cap_hits / total < 0.001

    # degenerate noise collapses bit-exactly
    silent = StochasticSpec(sigma_n=0.0, seed=5)
    ok_collapse = (simulate_stochastic(p, TANH, silent, 200).states
                   == simulate_recursive(p, TANH, 200).states)

    report(6, ok_std and ok_filter and ok_slack and ok_collapse,
           f"AR(1) stationary std within {std_err * 100:.3f}% of "
           f"{target:.6f} over 1e6 steps in {elapsed:.2f}s (< 1s); the filter "
           f"equals the driver's nu over 1000 steps; {cap_hits}/{total} cap "
           f"hits over 100 runs; sigma_n=0 collapses bit-exactly")


def test_criterion_7_event_driven_run():
    events = EventSpec(horizon=500, n_spikes=70, max_fraction=0.3, seed=2024)
    p = params(0.05, 1.0, mu0=0.025)
    schedule = generate_event_spikes(events, p.n0)
    traj = simulate_event_driven(p, TANH, events)

    ok_count = len(schedule) == 70
    ok_count &= sum(1 for st in traj.states if st.nu_t > 0) == 70
    ok_bounds = all(0.0 <= v <= 0.3 * p.n0 for v in schedule.values())

    # single-spike comparison against the spike-free baseline at the same
    # state: the next step's move must not decrease
    baseline = simulate_recursive(p, TANH, 500)
    stoch = StochasticSpec()
    cap = exposure_cap(p.n0, stoch.sigma_n, stoch.rho, stoch.kappa)
    ok_spikes = True
    compared = 0
    for tau, spike in schedule.items():
        st = baseline.states[tau]
        if spike <= 0 or st.ds_obs <= 0:
            continue
        bumped = feedback_step(
            st, p, TANH,
            exposure_override=censor_exposure(st.n_t + spike, cap),
        )
        ok_spikes &= bumped.ds_obs >= baseline.states[tau + 1].ds_obs
        compared += 1

    report(7, ok_count and ok_bounds and ok_spikes and compared > 0,
           f"exactly 70 spikes, magnitudes within [0, {0.3 * p.n0:g}]; "
           f"{compared} positive mid-squeeze spikes all weakly increase the "
           f"next-step move")


def test_criterion_8_reproducibility(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[model]\nlambda = 0.05\nbeta = 1.0\nmu0 = 0.025\nn0 = 200\n"
        "gamma0 = 1.0\n\n[impact]\nkind = tanh\n\n[stochastic]\nseed = 777\n\n"
        "[run]\nhorizon = 300\n"
    )
    rc1 = cli_main(["simulate-stochastic", "--config", str(cfg),
                    "--out", str(tmp_path / "r1"), "--quiet"])
    rc2 = cli_main(["simulate-stochastic", "--config", str(cfg),
                    "--out", str(tmp_path / "r2"), "--quiet"])
    m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    identical = ((tmp_path / "r1" / "trajectory.csv").read_bytes()
                 == (tmp_path / "r2" / "trajectory.csv").read_bytes())
    report(8, rc1 == 0 and rc2 == 0 and identical and m1["outputs"] == m2["outputs"],
           "identical config + seed: byte-identical trajectory CSV and "
           "matching manifest digests across two invocations")


def test_criterion_9_end_to_end_desk_scale(tmp_path):
    start = time.perf_counter()
    # stability map at full figure resolution, via the run orchestrator
    from gammafeedback.runner import run_subcommand

    grid_cfg = parse_config(
        "[grid]\nbeta_min = 0.2\nbeta_max = 3.0\ng_min = 0\ng_max = 300\n"
        "n_beta = 200\nn_g = 200\nshock_ratio = 0.05\nlambda = 0.003\n\n"
        "[run]\nemit_svg = true\n"
    )
    run_subcommand("stability-map", grid_cfg, tmp_path / "map")

    # five-trajectory recursive sweep plus its figure
    mus = (0.005, 0.01, 0.015, 0.02, 0.025)
    trajs = [simulate_recursive(params(0.05, 1.0, mu0=m), TANH, 200) for m in mus]
    svg = "".join(timeseries_svg(trajs, labels=[f"mu0={m}" for m in mus]))

    # stochastic run
    simulate_stochastic(params(0.05, 1.0, mu0=0.025), TANH,
                        StochasticSpec(seed=6), 500)

    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    ok &= (tmp_path / "map" / "stability_map.svg").exists()
    ok &= svg.count("<polyline") >= 5
    report(9, ok,
           f"200x200 map + contour + SVG, five-run sweep + SVG, and a "
           f"T=500 stochastic run in {elapsed:.2f}s (< 10s)")
