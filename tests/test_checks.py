import dataclasses

import numpy as np
import pytest

from gkheat import checks, diagnostics, discretization, scheme
from gkheat.cli import main, parse_config
from gkheat.diagnostics import EnergyTrace
from gkheat.errors import NonFiniteState
from gkheat.model import MaterialParams, SimulationConfig
from gkheat.linalg import dct, dst
from oracles import (discrete_decay_rate, fit_energy_decay_rate, pointwise_residual,
                     semi_discrete_rate, zero_mean_decay)
from test_campaign import draw_configs

PARAMS = MaterialParams(rho=2e3, c=5e2, tau_q=8e-3, mu2=2.8e-3, k=2e3, l=0.1)
CONFIG = SimulationConfig(dx=2e-3, dt=1.2e-2, t_final=1.2, T_b=15.0, T_f=30.0)
#: the benchmark's three meshes at the README material, dt 1.2e-2: J = 499
#: over 2,500 steps, J = 63 over 20,000 and J = 7999 over 2,500
WORKLOADS = {"reference": "dx = 2e-4\nt_final = 30\n",
             "long_horizon": "dx = 1.5625e-3\nt_final = 240\n",
             "fine_mesh": "dx = 1.25e-5\nt_final = 30\n"}


def main_run(params=PARAMS, config=CONFIG):
    """verify's main run: from the cosine state, keeping the levels either
    side of the run plan's seams."""
    grid = discretization.build_grid(params, config)
    return scheme.run(params, config,
                      discretization.cosine_initial(grid, config.T_b, config.T_f),
                      keep=scheme.seam_steps(grid))


def make_trace(E=(4.0, 3.0, 2.0), heat=(1.0, 1.0, 1.0), lhs=(0.0, -1.0, -1.0),
               rhs=(0.0, -2.0, -1.0), lyap=None):
    n = len(E)
    z = np.zeros(n)
    return EnergyTrace(t=np.arange(n, dtype=float), E=np.asarray(E, float),
                       diss_lhs=np.asarray(lhs, float), diss_rhs=np.asarray(rhs, float),
                       heat=np.asarray(heat, float), C_T=z.copy(),
                       lyapunov=z.copy() if lyap is None else np.asarray(lyap, float))


class TestTraceChecks:
    def test_monotone(self):
        assert checks.energy_monotone(make_trace()).ok
        # the jump allowance is 1e-12 * max(E0, 1)
        res = checks.energy_monotone(make_trace(E=(0.5, 0.5 + 2e-12, 0.1)))
        assert not res.ok and res.name == "energy_monotone"
        assert res.detail == "max energy increase 2.000e-12"
        assert checks.energy_monotone(make_trace(E=(0.5, 0.5 + 0.9e-12, 0.1))).ok

    def test_dissipation(self):
        # lhs <= rhs + 1e-12 * max(1, |lhs|); row 0 is not a step
        ok = checks.dissipation_inequality(make_trace(lhs=(9.0, -2.0, -1.0)))
        assert ok.ok and ok.detail == "min margin 1.000e-12"
        bad = checks.dissipation_inequality(make_trace(lhs=(0.0, -1.0, -1.0 + 2e-12)))
        assert not bad.ok
        assert checks.dissipation_inequality(make_trace(E=(1.0,), heat=(1.0,),
                                                        lhs=(0.0,), rhs=(0.0,))).detail \
            == "no steps"

    def test_heat(self):
        assert checks.heat_conservation(make_trace(heat=(2.0, 2.0, 2.0 + 1e-12))).ok
        res = checks.heat_conservation(make_trace(heat=(2.0, 2.0, 2.0 + 1e-11)))
        assert not res.ok
        assert checks.heat_drift(make_trace(heat=(2.0, 1.5, 2.25))) == 0.5
        # zero total heat must stay exactly zero
        assert checks.heat_conservation(make_trace(heat=(0.0, 0.0, 0.0))).ok
        assert not checks.heat_conservation(make_trace(heat=(0.0, 1e-30, 0.0))).ok


class TestStateGap:
    def test_relative_to_second_state(self):
        # the larger of max|dT|/max|T_b| and max|dq|/max|q_b|
        a = (np.array([1.0, 2.0]), np.array([0.0, 10.0, 0.0]))
        b = (np.array([1.0, 4.0]), np.array([0.0, 11.0, 0.0]))
        assert checks.state_gap(a, b) == pytest.approx(0.5, rel=1e-15)
        c = (np.array([1.0, 4.0]), np.array([0.0, 1.0, 0.0]))
        assert checks.state_gap(c, b) == pytest.approx(10.0 / 11.0, rel=1e-15)
        assert checks.state_gap(b, b) == 0.0

    def test_zero_flux_reference(self):
        a = (np.array([1.0, 2.0]), np.zeros(3))
        assert checks.state_gap(a, a) == 0.0

    def test_stacked_levels_give_the_worst_level(self):
        # each level is relative to its own max|.|, not to the stack's
        a = (np.array([[1.0, 2.0], [1.0, 2.0]]), np.zeros((2, 3)))
        b = (np.array([[1.0, 4.0], [100.0, 4.0]]), np.zeros((2, 3)))
        assert checks.state_gap(a, b) == pytest.approx(0.99, rel=1e-15)
        assert checks.state_gap(a, b) == max(checks.state_gap((a[0][i], a[1][i]),
                                                              (b[0][i], b[1][i]))
                                             for i in range(2))


class TestStepBackwardError:
    def test_is_formed_from_the_pointwise_residuals(self):
        # a random pair of levels, far from a step: the error is the
        # residuals of the step equations times dt, each over its row's
        # largest sum of |terms|
        rng = np.random.default_rng(11)
        grid = discretization.build_grid(PARAMS, CONFIG)
        J, dt, dx = grid.J, grid.dt, grid.dx
        before, after = (discretization.State(T=rng.normal(15.0, 10.0, J + 1),
                                              q=np.pad(rng.normal(0.0, 1e4, J), 1))
                         for _ in range(2))
        r1, r2 = pointwise_residual(PARAMS, grid, before, after)
        rc, mu2, k, tau_q = PARAMS.rho_c, PARAMS.mu2, PARAMS.k, PARAMS.tau_q
        T0, q0, T1, q1 = before.T, before.q, after.T, after.q
        scale1 = rc * (np.abs(T1) + np.abs(T0)) + (dt / dx) * (np.abs(q1[1:])
                                                                + np.abs(q1[:-1]))
        scale2 = ((tau_q + dt + 2.0 * mu2 * dt / dx**2) * np.abs(q1[1:-1])
                  + tau_q * np.abs(q0[1:-1])
                  + (mu2 * dt / dx**2) * (np.abs(q1[2:]) + np.abs(q1[:-2]))
                  + (k * dt / dx) * (np.abs(T1[1:]) + np.abs(T1[:-1])))
        expected = max(np.max(np.abs(dt * r1)) / np.max(scale1),
                       np.max(np.abs(dt * r2)) / np.max(scale2))
        value = checks.step_backward_error(PARAMS, grid, (T0, q0), (T1, q1))
        assert value == pytest.approx(expected, rel=1e-12)
        # stacked pairs give the worst pair
        stacked = checks.step_backward_error(
            PARAMS, grid, (np.stack((T0, T1)), np.stack((q0, q1))),
            (np.stack((T1, T1)), np.stack((q1, q1))))
        assert stacked == value

    def test_two_steps_read_as_one_fail(self):
        # consecutive levels of a run read a few eps, the first level and
        # the one two steps on 1.4e-3
        traj = scheme.run(PARAMS, dataclasses.replace(CONFIG, t_final=2 * CONFIG.dt),
                          discretization.cosine_initial(
                              discretization.build_grid(PARAMS, CONFIG), 15.0, 30.0))
        level = [(traj.T[i], traj.q[i]) for i in range(3)]
        bound = checks.STEP_BACKWARD_ERROR_BOUND
        for i in range(2):
            assert checks.step_backward_error(PARAMS, traj.grid, level[i],
                                              level[i + 1]) <= 1e-15
        gap = checks.step_backward_error(PARAMS, traj.grid, level[0], level[2])
        assert gap == pytest.approx(1.4e-3, rel=0.05) and gap > bound

    def test_zero_levels_read_zero(self):
        grid = discretization.build_grid(PARAMS, CONFIG)
        zero = (np.zeros(grid.J + 1), np.zeros(grid.J + 2))
        assert checks.step_backward_error(PARAMS, grid, zero, zero) == 0.0
        # and so does a run with no consecutive kept levels
        none = (np.zeros((0, grid.J + 1)), np.zeros((0, grid.J + 2)))
        assert checks.step_backward_error(PARAMS, grid, none, none) == 0.0


class TestRunChecks:
    def test_oracle_is_deterministic(self):
        traj = main_run()
        a = checks.oracle_equivalence(PARAMS, CONFIG, traj)
        assert a == checks.oracle_equivalence(PARAMS, CONFIG, traj) and a.ok

    @pytest.mark.parametrize("J", [2, 49, 499])
    def test_oracle_state_reaches_every_mode_equally(self, J):
        # cosine amplitudes of modes 1..J and sine amplitudes of modes 1..J
        # all equal, with T within 15 +- 10 and |q| <= 1e4
        config = dataclasses.replace(CONFIG, dx=PARAMS.l / (J + 1))
        grid = discretization.build_grid(PARAMS, config)
        state = checks.oracle_state(grid)
        a, b = dct(state.T - 15.0)[1:], dst(state.q_interior)
        assert a.size == b.size == J and np.all(a > 0.0) and np.all(b > 0.0)
        assert np.ptp(a) <= 1e-13 * a[0] and np.ptp(b) <= 1e-13 * b[0]
        assert 5.0 <= state.T.min() and state.T.max() <= 25.0
        assert np.max(np.abs(state.T - 15.0)) == pytest.approx(10.0, rel=1e-15)
        assert np.max(np.abs(state.q)) == pytest.approx(1e4, rel=1e-15)

    def test_oracle_reads_the_main_runs_seams(self):
        # J = 49 over 100 steps: chunks of K = 10 levels in one group, so
        # the pairs (10, 11) and (99, 100); a slip of 1e-9 in level 11
        # fails the check
        traj = main_run()
        assert traj.stored_steps == [0, 10, 11, 99, 100]
        res = checks.oracle_equivalence(PARAMS, CONFIG, traj)
        assert res.ok and 0.0 < res.value <= 1e-15
        T = traj.T.copy()
        T[2] *= 1.0 + 1e-9
        res = checks.oracle_equivalence(PARAMS, CONFIG, dataclasses.replace(traj, T=T))
        assert not res.ok and res.value > 1e-11

    def test_oracle_runs_once_on_the_main_runs_mesh(self, monkeypatch):
        # ORACLE_STEPS steps of config.dt from oracle_state, a levels-only
        # run keeping every level
        traj, calls, original = main_run(), [], scheme.run

        def recorded(params, config, init, **kwargs):
            calls.append((config, init, kwargs))
            return original(params, config, init, **kwargs)

        monkeypatch.setattr(scheme, "run", recorded)
        assert checks.oracle_equivalence(PARAMS, CONFIG, traj).ok
        [(config, init, kwargs)] = calls
        assert config == dataclasses.replace(CONFIG, t_final=10 * CONFIG.dt)
        assert kwargs == {"levels_only": True}
        state = checks.oracle_state(traj.grid)
        assert np.array_equal(init.T, state.T) and np.array_equal(init.q, state.q)

    def test_verify_makes_no_dense_solve(self, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        assert main(["verify"]) == 0, capsys.readouterr().out

    def test_lagging_kept_levels_fail_the_oracle(self, monkeypatch, capsys):
        # every kept level written from the step before it: the trace is
        # untouched, so only the oracle, which reads run's levels, sees it
        trace_block = scheme._trace_block

        def lagging(G, D, w, modes, m, x, plan, sums, kept, work):
            trace_block(G, D, w, modes, m, x, dataclasses.replace(plan, keep=plan.keep - 1),
                        sums, kept, work)

        monkeypatch.setattr(scheme, "_trace_block", lagging)
        res = checks.oracle_equivalence(PARAMS, CONFIG, main_run())
        assert not res.ok and res.value > 0.1
        assert main(["verify"]) == 3
        out = capsys.readouterr().out
        assert out.count("PASS") == 6 and "FAIL oracle_equivalence" in out

    def test_printed_gaps_halve_dt(self):
        gaps = checks.printed_gaps(PARAMS, CONFIG)
        assert [dt for dt, _ in gaps] == [1.2e-2, 6e-3, 3e-3]
        assert all(gap > 0.0 for _, gap in gaps)

    def test_rate_fit_zero_data(self):
        # the rate is the step matrix's, whatever the initial data
        res = checks.mode_rate_fit(PARAMS, dataclasses.replace(CONFIG, T_b=0.0, T_f=0.0))
        assert res.ok and res == checks.mode_rate_fit(PARAMS, CONFIG)

    def test_rate_is_the_generators_without_a_run(self, monkeypatch):
        # dt = 5, where a step's own rate at dt/8 is 0.865 of the continuum
        # one: one assemble at the user's dt and no run give the
        # semi-discrete rate
        def no_run(*args, **kwargs):
            raise AssertionError("scheme.run called")

        steps, assemble = [], scheme.assemble

        def recorded(params, grid, *args):
            steps.append(grid.dt)
            return assemble(params, grid, *args)

        monkeypatch.setattr(scheme, "run", no_run)
        monkeypatch.setattr(scheme, "assemble", recorded)
        config = dataclasses.replace(CONFIG, dt=5.0, t_final=5.0)
        r_d = checks.discrete_mode_rate(PARAMS, config)
        assert steps == [5.0]
        grid = discretization.build_grid(PARAMS, config)
        assert r_d == pytest.approx(semi_discrete_rate(PARAMS, grid), rel=1e-12)
        target = 2.0 * abs(diagnostics.mode_decay_oracle(PARAMS, 1)[0].real)
        assert abs(r_d / target - 1.0) < 1e-3 and checks.mode_rate_fit(PARAMS, config).ok


def sweep_pairs(texts):
    """(params, config) of sweep's default pairs on each config text: the
    configured pair, its half and (0, 0)."""
    for text in texts:
        m = parse_config(text)
        p = m.params
        for tau_q, mu2 in ((p.tau_q, p.mu2), (p.tau_q / 2.0, p.mu2 / 2.0), (0.0, 0.0)):
            yield dataclasses.replace(p, tau_q=tau_q, mu2=mu2), m.config


def zero_mean_forecast(params, config):
    """scheme.forecast of sweep's run: from the cosine profile at T_b = 0."""
    grid = discretization.build_grid(params, config)
    return scheme.forecast(params, grid, discretization.cosine_initial(grid, 0.0, config.T_f))


class TestForecast:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_reads_the_runs_last_energy_and_rate(self, workload):
        # E_final against the last E of the run it replaces (bit-identical
        # on all 9 pairs, measured), and the rate against
        # numpy's eigenvalues of G_1 (at most 1.5e-14 relative, measured)
        # and against the least-squares fit to that run, which other modes
        # still reach on its window [0.5, 5] s (1.4e-5 relative on
        # long_horizon at most, measured; 2.4e-7 on reference, 9e-10 on
        # fine_mesh)
        for params, config in sweep_pairs([WORKLOADS[workload]]):
            rate, energy, gain = zero_mean_forecast(params, config)
            trace = zero_mean_decay(params, config)
            assert energy == trace.E[-1]
            grid = discretization.build_grid(params, config)
            assert rate == pytest.approx(discrete_decay_rate(params, grid), rel=1e-13)
            assert rate == pytest.approx(fit_energy_decay_rate(trace, params), rel=3e-5)
            assert checks.stability_certificate(gain).ok and gain < 0.991

    def test_agrees_with_the_runs_on_the_mild_draw(self):
        # the 120 pairs of the mild campaign: E_final within 6.6e-15 of the
        # run's last E (measured), and the certificate's verdict, which
        # holds for every initial state, that of energy_monotone on the
        # run from the cosine profile
        pairs = list(sweep_pairs(draw_configs()))
        assert len(pairs) == 120
        for params, config in pairs:
            _, energy, gain = zero_mean_forecast(params, config)
            trace = zero_mean_decay(params, config)
            assert energy == pytest.approx(trace.E[-1], rel=2e-14, abs=0.0)
            assert checks.stability_certificate(gain).ok == checks.energy_monotone(trace).ok

    def test_an_expansive_mode_fails_the_certificate(self, monkeypatch):
        # mode 1's G times 1.01 lets a step raise its energy by 2%
        assemble = scheme.assemble

        def expansive(*args):
            G, D = assemble(*args)
            G[..., 0] *= 1.01
            return G, D

        assert checks.stability_certificate(zero_mean_forecast(PARAMS, CONFIG)[2]).ok
        monkeypatch.setattr(scheme, "assemble", expansive)
        certificate = checks.stability_certificate(zero_mean_forecast(PARAMS, CONFIG)[2])
        assert not certificate.ok and certificate.value > 1.01
        assert certificate.detail == f"max energy gain {certificate.value:.6g}"

    def test_a_non_finite_energy_names_the_pair(self, monkeypatch):
        monkeypatch.setattr(scheme, "_advance", lambda G, x, steps: np.full_like(x, np.inf))
        with pytest.raises(NonFiniteState,
                           match=r"E_final is not finite at tau_q = 0.008, mu2 = 0.0028$"):
            zero_mean_forecast(PARAMS, CONFIG)


class TestMargins:
    @pytest.mark.parametrize("T_b,T_f", [(15.0, 30.0), (0.0, 0.0)])
    def test_ok_is_value_within_bound(self, T_b, T_f):
        # the seven verify checks on the reference config, and on zero data,
        # where each holds trivially
        manifest = parse_config(f"T_b = {T_b}\nT_f = {T_f}\n")
        params, config = manifest.params, manifest.config
        traj = main_run(params, config)
        trace = traj.trace
        results = [
            checks.energy_monotone(trace),
            checks.dissipation_inequality(trace),
            checks.heat_conservation(trace),
            checks.lyapunov_sandwich(trace, params),
            checks.decay_envelope(trace, params),
            checks.oracle_equivalence(params, config, traj),
            checks.mode_rate_fit(params, config)]
        for r in results:
            assert np.isfinite(r.value) and np.isfinite(r.bound), r.name
            assert r.ok == (r.value <= r.bound), r.name
        assert all(r.ok for r in results)

    def test_failures_exceed_their_bound(self):
        # the sandwich trace's last level has E = L = 0, a lower ratio of 0
        low, _ = diagnostics.sandwich_bounds(PARAMS)
        two = dict(heat=(1.0, 1.0), lhs=(0.0, 0.0), rhs=(0.0, 0.0))
        for res in (checks.energy_monotone(make_trace(E=(0.5, 0.5 + 2e-12, 0.1))),
                    checks.dissipation_inequality(make_trace(lhs=(0.0, -1.0, -1.0),
                                                             rhs=(0.0, -2.0, -2.0))),
                    checks.heat_conservation(make_trace(heat=(0.0, 1e-30, 0.0))),
                    checks.lyapunov_sandwich(
                        make_trace(E=(1.0, 0.0), lyap=(1.5 * low, 0.0), **two), PARAMS)):
            assert not res.ok and res.value > res.bound, res.name
