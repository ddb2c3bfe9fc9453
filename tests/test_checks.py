import dataclasses

import numpy as np
import pytest

from gkheat import checks, diagnostics, discretization, scheme
from gkheat.cli import main, parse_config
from gkheat.diagnostics import EnergyTrace
from gkheat.model import MaterialParams, SimulationConfig
from oracles import oracle_draws

PARAMS = MaterialParams(rho=2e3, c=5e2, tau_q=8e-3, mu2=2.8e-3, k=2e3, l=0.1)
CONFIG = SimulationConfig(dx=2e-3, dt=1.2e-2, t_final=1.2, T_b=15.0, T_f=30.0)


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


class TestRunChecks:
    def test_oracle_is_deterministic_per_seed(self):
        a = checks.oracle_equivalence(PARAMS, CONFIG, oracle_draws(np.random.default_rng(5)))
        b = checks.oracle_equivalence(PARAMS, CONFIG, oracle_draws(np.random.default_rng(5)))
        assert a == b and a.ok

    def test_stored_draws_are_default_rng_1729s(self):
        # the table holds what default_rng(1729) draws, bit for bit
        drawn = oracle_draws(np.random.default_rng(1729))
        assert [row.tobytes() for row in drawn] == [
            np.array(row, dtype=float).tobytes() for row in checks.ORACLE_DRAWS]
        assert checks.oracle_equivalence(PARAMS, CONFIG) \
            == checks.oracle_equivalence(PARAMS, CONFIG, drawn)

    def test_oracle_assembles_once_per_mesh_and_solves_once_per_level(self, monkeypatch):
        # 7 meshes, J = 2..8, of 10 steps each
        calls = {"step_coupled_reference": 0, "dense_solve": 0}

        def counted(name):
            original = getattr(scheme, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(scheme, name, counted(name))
        assert checks.oracle_equivalence(PARAMS, CONFIG).ok
        assert calls == {"step_coupled_reference": 7, "dense_solve": 70}

    def test_lagging_kept_levels_fail_the_oracle(self, monkeypatch, capsys):
        # every kept level written from the step before it: the trace is
        # untouched, so only the oracle, which reads run's levels, sees it
        trace_block = scheme._trace_block

        def lagging(G, D, w, modes, m, x, plan, sums, kept):
            trace_block(G, D, w, modes, m, x, dataclasses.replace(plan, keep=plan.keep - 1),
                        sums, kept)

        monkeypatch.setattr(scheme, "_trace_block", lagging)
        assert not checks.oracle_equivalence(PARAMS, CONFIG,
                                             oracle_draws(np.random.default_rng(5))).ok
        assert main(["verify"]) == 3
        out = capsys.readouterr().out
        assert out.count("PASS") == 6 and "FAIL oracle_equivalence" in out

    def test_printed_gaps_halve_dt(self):
        gaps = checks.printed_gaps(PARAMS, CONFIG)
        assert [dt for dt, _ in gaps] == [1.2e-2, 6e-3, 3e-3]
        assert all(gap > 0.0 for _, gap in gaps)

    def test_rate_fit_zero_data(self):
        res = checks.mode_rate_fit(PARAMS, dataclasses.replace(CONFIG, T_f=0.0))
        assert res.ok and res.detail == "zero initial data, nothing to fit"


class TestMargins:
    @pytest.mark.parametrize("T_b,T_f", [(15.0, 30.0), (0.0, 0.0)])
    def test_ok_is_value_within_bound(self, T_b, T_f):
        # the seven verify checks on the reference config, and on zero data,
        # where each holds trivially
        manifest = parse_config(f"T_b = {T_b}\nT_f = {T_f}\n")
        params, config = manifest.params, manifest.config
        grid = discretization.build_grid(params, config)
        trace = scheme.run(params, config,
                           discretization.cosine_initial(grid, T_b, T_f),
                           stride=grid.N + 1).trace
        results = [
            checks.energy_monotone(trace),
            checks.dissipation_inequality(trace),
            checks.heat_conservation(trace),
            checks.lyapunov_sandwich(trace, params),
            checks.decay_envelope(trace, params),
            checks.oracle_equivalence(params, config,
                                      oracle_draws(np.random.default_rng(1729))),
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
