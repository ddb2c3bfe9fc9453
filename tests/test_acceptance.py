"""Acceptance gate: the quantitative claims checked at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The reference configuration is rho=2e3, c=5e2, tau_q=8e-3,
mu2=2.8e-3, k=2e3, l=0.1, dx=2e-4, dt=1.2e-2, T_b=15, T_f=30,
t_final=30 s (2500 steps, J=499).
"""

import dataclasses
import time

import numpy as np
import pytest

from gkheat import (State, build_grid, checks, cosine_initial, decay_constants,
                    mode_decay_oracle, run, scheme)
from gkheat.cli import parse_config
from gkheat.model import MaterialParams, SimulationConfig
from oracles import fit_energy_decay_rate, oracle_draws, zero_mean_decay

REF_PARAMS = MaterialParams(rho=2e3, c=5e2, tau_q=8e-3, mu2=2.8e-3, k=2e3, l=0.1)
REF_CONFIG = SimulationConfig(dx=2e-4, dt=1.2e-2, t_final=30.0, T_b=15.0, T_f=30.0)

CLOSED_FORM_EQUILIBRIUM = 0.5 * REF_PARAMS.rho_c * REF_PARAMS.l * 15.0**2  # 1.125e7
REPORTED_EQUILIBRIUM = 1.24e7


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def reference_run():
    grid = build_grid(REF_PARAMS, REF_CONFIG)
    init = cosine_initial(grid, REF_CONFIG.T_b, REF_CONFIG.T_f)
    t0 = time.perf_counter()
    traj = run(REF_PARAMS, REF_CONFIG, init, keep=[grid.N + 1])
    elapsed = time.perf_counter() - t0
    return traj, elapsed


@pytest.fixture(scope="module")
def zero_mean():
    grid = build_grid(REF_PARAMS, REF_CONFIG)
    init = cosine_initial(grid, 0.0, REF_CONFIG.T_f)
    cfg = dataclasses.replace(REF_CONFIG, T_b=0.0)
    return run(REF_PARAMS, cfg, init, keep=[grid.N + 1])


def test_criterion_1_discrete_dissipation(reference_run):
    traj, elapsed = reference_run
    res = checks.dissipation_inequality(traj.trace)
    report("C1 discrete dissipation", res.ok and elapsed < 5.0,
           f"{len(traj.trace) - 1} steps, {res.detail}, "
           f"runtime {elapsed:.2f} s < 5 s")


def test_criterion_2_energy_monotonicity_and_equilibrium(reference_run):
    traj, _ = reference_run
    E = traj.trace.E
    monotone = checks.energy_monotone(traj.trace)
    nonnegative = bool(np.all(E >= 0.0))
    rel = abs(E[-1] / CLOSED_FORM_EQUILIBRIUM - 1.0)
    ok = monotone.ok and nonnegative and rel <= 5e-3
    report("C2 energy monotonicity and equilibrium",
           ok, f"{monotone.detail}; final E {E[-1]:.6e} vs closed form "
               f"{CLOSED_FORM_EQUILIBRIUM:.6e} ({100 * rel:.3f}% <= 0.5%); "
               f"reported reference level {REPORTED_EQUILIBRIUM:.3e} differs "
               f"from the closed form by "
               f"{100 * (REPORTED_EQUILIBRIUM / CLOSED_FORM_EQUILIBRIUM - 1):.1f}%")


def test_criterion_3_heat_conservation(reference_run, zero_mean):
    results = [checks.heat_conservation(traj.trace)
               for traj in (reference_run[0], zero_mean)]
    report("C3 heat conservation", all(r.ok for r in results),
           "reference " + "; zero-mean ".join(r.detail for r in results)
           + " <= 1e-12")


def test_criterion_4_oracle_equivalence():
    # the step backward error of consecutive levels of 10 steps from
    # random states at J = 2..8, and verify's oracle on the reference run:
    # its levels either side of its seams and 10 steps from oracle_state
    t0 = time.perf_counter()
    worst = 0.0
    for row in oracle_draws(np.random.default_rng(2718)):
        J = (row.size - 1) // 2
        cfg = dataclasses.replace(REF_CONFIG, dx=REF_PARAMS.l / (J + 1),
                                  t_final=10 * REF_CONFIG.dt)
        traj = run(REF_PARAMS, cfg, State(T=row[J:], q=np.pad(row[:J], 1)),
                   levels_only=True)
        worst = max(worst, checks.step_backward_error(
            REF_PARAMS, traj.grid, (traj.T[:-1], traj.q[:-1]), (traj.T[1:], traj.q[1:])))
    elapsed = time.perf_counter() - t0
    grid = build_grid(REF_PARAMS, REF_CONFIG)
    traj = run(REF_PARAMS, REF_CONFIG, cosine_initial(grid, 15.0, 30.0),
               keep=scheme.seam_steps(grid))
    res = checks.oracle_equivalence(REF_PARAMS, REF_CONFIG, traj)
    bound = checks.STEP_BACKWARD_ERROR_BOUND
    report("C4 oracle equivalence (J=2..8)", worst <= bound and res.ok and elapsed < 1.0,
           f"worst step backward error {worst:.3e} <= {bound:g}, runtime {elapsed:.2f} s "
           f"< 1 s; reference run {res.detail}")


def test_criterion_5_decay_envelope(reference_run, zero_mean):
    dc = decay_constants(REF_PARAMS)
    # the constants themselves, at their derived values
    assert dc.beta == pytest.approx(4e-3, rel=1e-12)
    assert dc.omega == pytest.approx(0.1041, rel=1e-3)
    assert dc.M == pytest.approx(3.0025, rel=1e-4)
    assert dc.gamma0 == pytest.approx(78.125, rel=1e-12)
    rep_i = checks.decay_envelope(reference_run[0].trace, REF_PARAMS)
    rep_ii = checks.decay_envelope(zero_mean.trace, REF_PARAMS)
    # (ii) also under the pure bound E_n <= M*E_0*exp(-omega t_n), without
    # the shared check's offset M1*sup|C_T|, which the zero-mean profile's
    # small discrete heat dx*T_f/2 makes nonzero
    t, E = zero_mean.trace.t, zero_mean.trace.E
    pure = float(np.max(E / (dc.M * E[0] * np.exp(-dc.omega * t))))
    report("C5 decay envelope", rep_i.ok and rep_ii.ok and pure <= 1.0 + 1e-12,
           f"{rep_i.detail}; {rep_ii.detail}; pure bound, max E/bound {pure:.4f}")


def test_criterion_6_spectral_rates():
    # zero-mean runs at dt/8 = 1.5e-3 over 6 s, fitted on [0.5, 5] s, against
    # the continuum slow rate within 2%; r_d is the semi-discrete rate
    # that verify's mode_rate_fit holds to the same rate
    slow, _ = mode_decay_oracle(REF_PARAMS, 1)
    assert 2.0 * abs(slow.real) == pytest.approx(1.05, rel=1e-3)
    fourier = dataclasses.replace(REF_PARAMS, tau_q=0.0, mu2=0.0)
    f_slow, f_fast = mode_decay_oracle(fourier, 1)
    assert f_fast is None
    assert 2.0 * abs(f_slow.real) == pytest.approx(3.948, rel=1e-3)
    fit_config = dataclasses.replace(REF_CONFIG, dt=REF_CONFIG.dt / 8.0, t_final=6.0)
    details, ok = [], True
    for name, params in (("gk", REF_PARAMS), ("fourier", fourier)):
        trace = zero_mean_decay(params, fit_config)
        fitted = fit_energy_decay_rate(trace, params)
        target = 2.0 * abs(mode_decay_oracle(params, 1)[0].real)
        r_d = checks.discrete_mode_rate(params, REF_CONFIG)
        ok = ok and abs(fitted / target - 1.0) <= 0.02
        details.append(f"{name} fitted {fitted:.6g} 1/s vs spectral {target:.6g} 1/s "
                       f"({100 * abs(fitted / target - 1.0):.3f}% off), r_d {r_d:.6g} 1/s")
    report("C6 spectral rates at dt=1.5e-3", ok, "; ".join(details))


def test_criterion_7_fourier_limit_consistency():
    # the config spelling fourier_limit against the coupled stepper
    params = dataclasses.replace(REF_PARAMS, tau_q=0.0, mu2=0.0)
    cfg = dataclasses.replace(REF_CONFIG, t_final=0.6)  # 50 steps
    spelled = parse_config("stepper = fourier_limit\ntau_q = 0\nmu2 = 0\nt_final = 0.6\n")
    grid = build_grid(params, cfg)
    init = cosine_initial(grid, cfg.T_b, cfg.T_f)
    traj_f = run(spelled.params, spelled.config, init)
    traj_c = run(params, cfg, init)
    assert traj_f.T.shape == traj_c.T.shape
    worst = checks.state_gap((traj_f.T, traj_f.q), (traj_c.T, traj_c.q))
    report("C7 fourier-limit consistency", worst <= 1e-12,
           f"max relative gap over {len(traj_f.T)} levels {worst:.3e}")


def test_criterion_8_lyapunov_sandwich(reference_run, zero_mean):
    rep_i = checks.lyapunov_sandwich(reference_run[0].trace, REF_PARAMS)
    rep_z = checks.lyapunov_sandwich(zero_mean.trace, REF_PARAMS)
    report("C8 lyapunov sandwich", rep_i.ok and rep_z.ok,
           f"case I {rep_i.detail}; zero-mean {rep_z.detail}, within 1% slack")


def test_criterion_9_as_printed_gap_characterization():
    # per-step gap between the verbatim vectorial update and the coupled
    # solve, under dt halving from 1e-4; the exact contraction order is
    # 1 - O(dt/(tau_q + dt)), so the halving ratio is pinned at <= 0.56
    # (ideal linear halving would give 0.5)
    gaps = [gap for _, gap in checks.printed_gaps(
        REF_PARAMS, dataclasses.replace(REF_CONFIG, dt=1e-4))]
    r1, r2 = gaps[1] / gaps[0], gaps[2] / gaps[1]
    order = np.log(gaps[0] / gaps[2]) / np.log(4.0)
    ok = r1 <= 0.56 and r2 <= 0.56
    report("C9 as-printed gap characterization",
           ok, f"gaps {gaps[0]:.4e} -> {gaps[1]:.4e} -> {gaps[2]:.4e}, "
               f"halving ratios {r1:.3f}, {r2:.3f} (measured order "
               f"{order:.2f}, informational)")
