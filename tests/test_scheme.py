import dataclasses

import numpy as np
import pytest

from gkheat import scheme
from gkheat import (GridMismatch, InvalidLimit, State, StepperKind, aq_matrix,
                    assemble, at_matrix, build_grid, cosine_initial, matvec,
                    run, step_coupled, step_coupled_reference,
                    step_vectorial_as_printed, total_heat)
from gkheat.model import MaterialParams, SimulationConfig


def small_setup(J=9, tau_q=8e-3, mu2=2.8e-3, dt=1.2e-2, t_final=None):
    p = MaterialParams(rho=2e3, c=5e2, tau_q=tau_q, mu2=mu2, k=2e3, l=0.1)
    cfg = SimulationConfig(dx=p.l / (J + 1), dt=dt,
                           t_final=t_final if t_final is not None else dt,
                           T_b=15.0, T_f=30.0)
    grid = build_grid(p, cfg)
    return p, cfg, grid, assemble(p, grid)


def random_state(rng, J, t_scale=10.0, q_scale=1e4):
    q = np.zeros(J + 2)
    q[1:-1] = rng.normal(0.0, q_scale, J)
    return State(T=rng.normal(15.0, t_scale, J + 1), q=q)


def rel_gap(a: State, b: State) -> float:
    gT = np.max(np.abs(a.T - b.T)) / max(np.max(np.abs(b.T)), 1e-300)
    gq = np.max(np.abs(a.q - b.q)) / max(np.max(np.abs(b.q)), 1e-300)
    return max(gT, gq)


class TestAssemble:
    def test_mass_matrix_small_example(self):
        # pick steps so the Laplacian weight is exactly 0.1:
        # mu2*dt/((tau_q+dt)*dx^2) with tau_q=0, dt=1, dx=1, mu2=0.1
        p = MaterialParams(rho=1.0, c=1.0, tau_q=0.0, mu2=0.1, k=1.0, l=3.0)
        cfg = SimulationConfig(dx=1.0, dt=1.0, t_final=1.0, T_b=0.0, T_f=1.0)
        grid = build_grid(p, cfg)
        ops = assemble(p, grid)
        assert ops.c_B == pytest.approx(0.1, rel=1e-15)
        np.testing.assert_allclose(ops.B.to_dense().a,
                                   [[1.2, -0.1], [-0.1, 1.2]], rtol=1e-15)

    def test_fourier_limit_kills_factors(self):
        p, cfg, grid, ops = small_setup(tau_q=0.0, mu2=0.0)
        np.testing.assert_array_equal(ops.B.to_dense().a, np.eye(grid.J))
        assert ops.c_r == 0.0
        assert ops.c_B == 0.0
        assert ops.c_q == 0.0

    def test_reference_laplacian_weight(self, ref_params, ref_config):
        grid = build_grid(ref_params, ref_config)
        ops = assemble(ref_params, grid)
        assert ops.c_B == pytest.approx(42000.0, rel=1e-12)

    def test_stencils(self):
        p, cfg, grid, ops = small_setup(J=5)
        assert np.all(ops.L.diag == -2.0)
        assert np.all(ops.L.lower == 1.0) and np.all(ops.L.upper == 1.0)
        # B = I - c_B * L
        x = np.arange(1.0, 6.0)
        np.testing.assert_allclose(matvec(ops.B, x), x - ops.c_B * matvec(ops.L, x),
                                   rtol=1e-13)
        # B is strictly diagonally dominant
        assert np.all(np.abs(ops.B.diag) > np.abs(ops.B.lower).max() * 2)

    def test_trapezoidal_maps(self):
        J = 6
        aq, at = aq_matrix(J).a, at_matrix(J).a
        assert aq.shape == (J + 1, J) and at.shape == (J, J + 1)
        assert np.all(aq[np.arange(J), np.arange(J)] == 1.0)
        assert np.all(aq[-1] == np.r_[np.zeros(J - 1), -1.0])
        # A_T annihilates constants, rows are first differences
        np.testing.assert_array_equal(at @ np.ones(J + 1), np.zeros(J))
        # composite A_T @ A_q is the zero-flux second-difference stencil
        p, cfg, grid, ops = small_setup(J=J)
        np.testing.assert_array_equal(at @ aq, ops.L.to_dense().a)
        # actions equal the np.diff realizations used by the steppers
        q = np.arange(1.0, J + 1.0)
        np.testing.assert_array_equal(aq @ q,
                                      np.diff(np.concatenate(([0.0], q, [0.0]))))
        T = np.arange(J + 1.0) ** 2
        np.testing.assert_array_equal(at @ T, np.diff(T))


class TestSteppers:
    @pytest.mark.parametrize("tau_q,mu2", [(8e-3, 2.8e-3), (0.0, 0.0)])
    def test_uniform_fixed_point_coupled(self, tau_q, mu2):
        p, cfg, grid, ops = small_setup(tau_q=tau_q, mu2=mu2)
        s = cosine_initial(grid, T_b=15.0, T_f=0.0)
        out = step_coupled(ops, p, grid, s)
        np.testing.assert_allclose(out.T, s.T, rtol=1e-13)
        assert np.all(out.q == 0.0)

    def test_uniform_fixed_point_as_printed(self):
        p, cfg, grid, ops = small_setup()
        s = cosine_initial(grid, T_b=15.0, T_f=0.0)
        out = step_vectorial_as_printed(ops, p, grid, s)
        np.testing.assert_allclose(out.T, s.T, rtol=1e-13)
        np.testing.assert_allclose(out.q, 0.0, atol=1e-20)

    def test_matches_dense_reference(self):
        # brute-force oracle: dense solve of the verbatim interleaved system
        rng = np.random.default_rng(42)
        worst = 0.0
        for J in range(2, 9):
            p, cfg, grid, ops = small_setup(J=J)
            for _ in range(10):
                prev = random_state(rng, J)
                worst = max(worst, rel_gap(step_coupled(ops, p, grid, prev),
                                           step_coupled_reference(p, grid, prev)))
        assert worst <= 1e-10

    def test_heat_conserved_per_step(self):
        rng = np.random.default_rng(9)
        p, cfg, grid, ops = small_setup(J=49)
        s = random_state(rng, 49)
        h0 = total_heat(s, grid.dx)
        for _ in range(20):
            s = step_coupled(ops, p, grid, s)
            assert total_heat(s, grid.dx) == pytest.approx(h0, rel=1e-12)

    def test_boundary_fluxes_stay_zero(self):
        rng = np.random.default_rng(10)
        p, cfg, grid, ops = small_setup(J=12)
        s = random_state(rng, 12)
        for stepper in (step_coupled, step_vectorial_as_printed):
            out = stepper(ops, p, grid, s)
            assert out.q[0] == 0.0 and out.q[-1] == 0.0

    @pytest.mark.parametrize("stepper", [step_coupled, step_vectorial_as_printed])
    def test_linearity(self, stepper):
        rng = np.random.default_rng(11)
        p, cfg, grid, ops = small_setup(J=15)
        s1, s2 = random_state(rng, 15), random_state(rng, 15)
        a, b = 0.6, -1.4
        combo = State(T=a * s1.T + b * s2.T, q=a * s1.q + b * s2.q)
        out_combo = stepper(ops, p, grid, combo)
        out_sum_T = a * stepper(ops, p, grid, s1).T + b * stepper(ops, p, grid, s2).T
        out_sum_q = a * stepper(ops, p, grid, s1).q + b * stepper(ops, p, grid, s2).q
        np.testing.assert_allclose(out_combo.T, out_sum_T, rtol=1e-11, atol=1e-11)
        np.testing.assert_allclose(out_combo.q, out_sum_q, rtol=1e-11, atol=1e-7)

    def test_zero_state_maps_to_zero(self):
        p, cfg, grid, ops = small_setup(J=7)
        z = State(T=np.zeros(8), q=np.zeros(9))
        out = step_coupled(ops, p, grid, z)
        assert np.all(out.T == 0.0) and np.all(out.q == 0.0)


class TestFourierStepper:
    # the fourier_limit stepper is step_coupled, with run() checking that
    # the parameters are in the limit
    def test_requires_fourier_params(self):
        # both parameters must vanish, not just one of them
        for tau_q, mu2 in ((8e-3, 2.8e-3), (0.0, 2.8e-3), (8e-3, 0.0)):
            p, cfg, grid, ops = small_setup(tau_q=tau_q, mu2=mu2)
            cfg_f = dataclasses.replace(cfg, stepper_kind=StepperKind.FOURIER_LIMIT)
            with pytest.raises(InvalidLimit):
                run(p, cfg_f, cosine_initial(grid, 15.0, 30.0))

    def test_identical_to_coupled_in_the_limit(self):
        p, cfg, grid, ops = small_setup(tau_q=0.0, mu2=0.0, J=49,
                                        t_final=5 * 1.2e-2)
        s = cosine_initial(grid, 15.0, 30.0)
        a = run(p, dataclasses.replace(cfg, stepper_kind=StepperKind.FOURIER_LIMIT), s)
        b = run(p, cfg, s)
        for sa, sb in zip(a.states, b.states, strict=True):
            np.testing.assert_array_equal(sa.T, sb.T)
            np.testing.assert_array_equal(sa.q, sb.q)
        np.testing.assert_array_equal(a.trace.E, b.trace.E)
        assert rel_gap(a.states[1], step_coupled(ops, p, grid, s)) <= 1e-14

    def test_cosine_mode_amplification(self, ref_params, ref_config):
        # implicit Euler damps the fundamental mode by 1/(1 + (k/rho c) kappa^2 dt);
        # the exact discrete eigenmode in the temperature slot is the cosine
        # sampled at x_j + dx/2 (the forward/backward difference staggering)
        p = dataclasses.replace(ref_params, tau_q=0.0, mu2=0.0)
        grid = build_grid(p, dataclasses.replace(ref_config, t_final=ref_config.dt))
        ops = assemble(p, grid)
        kappa = np.pi / p.l
        mode = np.cos(kappa * (grid.x[:grid.J + 1] + grid.dx / 2.0))
        s = State(T=15.0 * mode, q=np.zeros(grid.J + 2))
        out = step_coupled(ops, p, grid, s)
        g = float((out.T @ s.T) / (s.T @ s.T))
        # eigenvector to solver precision
        assert np.max(np.abs(out.T - g * s.T)) <= 1e-12 * np.max(np.abs(s.T))
        expected = 1.0 / (1.0 + (p.k / p.rho_c) * kappa**2 * grid.dt)
        assert g == pytest.approx(expected, rel=1e-6)


class TestAsPrintedCharacterization:
    def test_fourier_limit_formula(self):
        # with tau_q = mu2 = 0 the printed update degenerates to
        # T^n = T^{n-1} + (k/(rho c dx^2)) AqAt T^{n-1},  q^n = -(k/dx) At T^{n-1}
        p, cfg, grid, ops = small_setup(J=9, tau_q=0.0, mu2=0.0)
        s = cosine_initial(grid, 15.0, 30.0)
        out = step_vectorial_as_printed(ops, p, grid, s)
        aq, at = aq_matrix(grid.J).a, at_matrix(grid.J).a
        factor = p.k / (p.rho_c * grid.dx**2)
        np.testing.assert_allclose(out.T, s.T + factor * (aq @ (at @ s.T)),
                                   rtol=1e-12)
        np.testing.assert_allclose(out.q[1:-1], -(p.k / grid.dx) * (at @ s.T),
                                   rtol=1e-12)

    def test_gap_shrinks_with_dt(self):
        # per-step distance to the coupled solve decreases as dt halves
        gaps = []
        for dt in (1e-4, 5e-5, 2.5e-5):
            p, cfg, grid, ops = small_setup(J=499, dt=dt)
            init = cosine_initial(grid, 15.0, 30.0)
            gaps.append(rel_gap(step_vectorial_as_printed(ops, p, grid, init),
                                step_coupled(ops, p, grid, init)))
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
        assert gaps[1] / gaps[0] <= 0.56
        assert gaps[2] / gaps[1] <= 0.56


class TestRun:
    def test_single_step_horizon(self):
        p, cfg, grid, ops = small_setup(J=9)  # t_final == dt, so N = 0
        traj = run(p, cfg, cosine_initial(grid, 15.0, 30.0))
        assert len(traj.states) == 2
        assert len(traj.trace) == 2
        assert traj.stored_steps == [0, 1]

    def test_states_follow_the_stepper(self):
        p, cfg, grid, ops = small_setup(J=19, t_final=10 * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        traj = run(p, cfg, init)
        assert len(traj.states) == grid.N + 2
        manual = init
        for n in range(1, grid.N + 2):
            manual = step_coupled(ops, p, grid, manual)
            assert rel_gap(traj.states[n], manual) <= 1e-12

    def test_zero_initial_data(self):
        p, cfg, grid, ops = small_setup(J=9, t_final=5 * 1.2e-2)
        traj = run(p, cfg, State(T=np.zeros(10), q=np.zeros(11)))
        for s in traj.states:
            assert np.all(s.T == 0.0) and np.all(s.q == 0.0)
        assert np.all(traj.trace.E == 0.0)
        assert np.all(np.isnan(traj.trace.Z))

    def test_stride_keeps_endpoints_and_all_diagnostics(self):
        p, cfg, grid, ops = small_setup(J=9, t_final=10 * 1.2e-2)
        traj = run(p, cfg, cosine_initial(grid, 15.0, 30.0), stride=4)
        assert traj.stored_steps == [0, 4, 8, grid.N + 1]
        assert len(traj.trace) == grid.N + 2   # energy recorded every step

    def test_run_respects_stepper_kind(self):
        p, cfg, grid, ops = small_setup(J=9, t_final=3 * 1.2e-2)
        cfg_printed = dataclasses.replace(
            cfg, stepper_kind=StepperKind.VECTORIAL_AS_PRINTED)
        init = cosine_initial(grid, 15.0, 30.0)
        traj = run(p, cfg_printed, init)
        manual = step_vectorial_as_printed(ops, p, grid, init)
        assert rel_gap(traj.states[1], manual) == 0.0

    def test_fourier_kind_needs_fourier_params(self):
        p, cfg, grid, ops = small_setup(J=9)
        cfg_f = dataclasses.replace(cfg, stepper_kind=StepperKind.FOURIER_LIMIT)
        with pytest.raises(InvalidLimit):
            run(p, cfg_f, cosine_initial(grid, 15.0, 30.0))

    def test_mismatched_initial_state(self):
        p, cfg, grid, ops = small_setup(J=9)
        with pytest.raises(GridMismatch):
            run(p, cfg, State(T=np.zeros(4), q=np.zeros(5)))

    def test_zero_mean_run_decays_four_orders(self, ref_params, ref_config):
        # slow-mode rate ~1.05/s: by t = 30 s only the tiny discrete-mean
        # equilibrium floor remains
        from gkheat import zero_mean_initial
        cfg = dataclasses.replace(ref_config, T_b=0.0)
        grid = build_grid(ref_params, cfg)
        traj = run(ref_params, cfg, zero_mean_initial(grid, cfg.T_f),
                   stride=grid.N + 1)
        assert traj.trace.E[-1] <= 1e-4 * traj.trace.E[0]


class TestReducedSolve:
    @pytest.mark.parametrize("J", [2, 63, 499])
    @pytest.mark.parametrize("tau_q,mu2", [(8e-3, 2.8e-3), (0.0, 0.0)])
    def test_factored_solve_matches_dense(self, J, tau_q, mu2):
        # the dpttrf factor made once in assemble against a dense LU solve
        # of I - (c_B + c_T dt) L
        p, cfg, grid, ops = small_setup(J=J, tau_q=tau_q, mu2=mu2)
        dense = np.eye(J) - (ops.c_B + ops.c_T * grid.dt) * ops.L.to_dense().a
        rng = np.random.default_rng(J)
        for _ in range(5):
            rhs = rng.normal(0.0, 1e4, J)
            expected = np.linalg.solve(dense, rhs)
            got = scheme._solve_reduced(ops, rhs)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_single_flux_unknown(self):
        p, cfg, grid, ops = small_setup(J=1)
        w = ops.c_B + ops.c_T * grid.dt
        assert scheme._solve_reduced(ops, np.array([3.0]))[0] == pytest.approx(
            3.0 / (1.0 + 2.0 * w), rel=1e-15)


TRACE_FIELDS = ("E", "diss_lhs", "diss_rhs", "heat", "C_T", "F", "lyapunov", "Z")


class TestTraceChunks:
    # J=9999 gives one level per chunk at the default budget
    @pytest.mark.parametrize("J,steps", [(2, 6000), (63, 600), (9999, 5)])
    def test_trace_independent_of_chunk_budget(self, monkeypatch, J, steps):
        p, cfg, grid, ops = small_setup(J=J, t_final=steps * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        budgets = (1, scheme.TRACE_CHUNK_ELEMENTS, (grid.N + 3) * (J + 1))
        assert max(1, scheme.TRACE_CHUNK_ELEMENTS // (J + 1)) < grid.N + 1
        trajs = []
        for budget in budgets:
            monkeypatch.setattr(scheme, "TRACE_CHUNK_ELEMENTS", budget)
            trajs.append(run(p, cfg, init, stride=7))
        base = trajs[0]
        for traj in trajs[1:]:
            assert traj.stored_steps == base.stored_steps
            for a, b in zip(traj.states, base.states, strict=True):
                np.testing.assert_array_equal(a.T, b.T)
                np.testing.assert_array_equal(a.q, b.q)
            for name in TRACE_FIELDS:
                got, ref = getattr(traj.trace, name), getattr(base.trace, name)
                assert got.shape == ref.shape == (grid.N + 2,)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), name

    def test_as_printed_trace_independent_of_chunk_budget(self, monkeypatch):
        p, cfg, grid, ops = small_setup(J=9, t_final=20 * 1.2e-2)
        cfg = dataclasses.replace(cfg, stepper_kind=StepperKind.VECTORIAL_AS_PRINTED)
        init = cosine_initial(grid, 15.0, 30.0)
        traces = []
        for budget in (1, 30, 10**6):
            monkeypatch.setattr(scheme, "TRACE_CHUNK_ELEMENTS", budget)
            traces.append(run(p, cfg, init).trace)
        for trace in traces[1:]:
            for name in TRACE_FIELDS:
                np.testing.assert_array_equal(getattr(trace, name),
                                              getattr(traces[0], name))
