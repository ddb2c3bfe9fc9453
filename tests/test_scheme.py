import dataclasses

import numpy as np
import pytest

from gkheat import scheme
from gkheat import (GridMismatch, InvalidLimit, MeshTooLarge, NonFiniteState,
                    State, StepperKind, assemble, build_grid, cosine_initial,
                    run, step_coupled, step_coupled_reference,
                    step_vectorial_as_printed, total_heat)
from gkheat.checks import state_gap
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


def second_difference(J):
    """J x J zero-flux second-difference stencil L: -2 diagonal, 1 off."""
    return -2.0 * np.eye(J) + np.eye(J, k=1) + np.eye(J, k=-1)


def aq_matrix(J):
    """(J+1) x J flux-divergence map: unit diagonal, -1 subdiagonal."""
    return np.eye(J + 1, J) - np.eye(J + 1, J, k=-1)


def at_matrix(J):
    """J x (J+1) temperature-difference map: -1 diagonal, +1 superdiagonal."""
    return np.eye(J, J + 1, k=1) - np.eye(J, J + 1)


def sine_matrix(J):
    """Dense orthonormal DST-I matrix, columns the sine vectors m = 1..J."""
    n = J + 1
    jm = np.outer(np.arange(1, n), np.arange(1, n)) % (2 * n)  # exact angle index
    return np.sqrt(2.0 / n) * np.sin(np.pi * jm / n)


def from_modes(ops, w):
    """The matrix I - w L rebuilt from its sine eigenvectors and 1 + w s_m^2."""
    S = sine_matrix(ops.J)
    return S @ np.diag(1.0 + w * ops.s**2) @ S.T


class TestAssemble:
    def test_mass_matrix_small_example(self):
        # pick steps so the Laplacian weight is exactly 0.1:
        # mu2*dt/((tau_q+dt)*dx^2) with tau_q=0, dt=1, dx=1, mu2=0.1
        p = MaterialParams(rho=1.0, c=1.0, tau_q=0.0, mu2=0.1, k=1.0, l=3.0)
        cfg = SimulationConfig(dx=1.0, dt=1.0, t_final=1.0, T_b=0.0, T_f=1.0)
        grid = build_grid(p, cfg)
        ops = assemble(p, grid)
        assert ops.c_B == pytest.approx(0.1, rel=1e-15)
        # B = I - c_B L from its eigenpairs: s_m^2 = 2 -/+ 1 at J = 2
        np.testing.assert_allclose(ops.s**2, [1.0, 3.0], rtol=1e-15)
        np.testing.assert_allclose(from_modes(ops, ops.c_B),
                                   [[1.2, -0.1], [-0.1, 1.2]], rtol=0.0, atol=1e-15)

    def test_fourier_limit_kills_factors(self):
        # B = I: the printed flux weights lose beta; no step keeps flux history
        p, cfg, grid, ops = small_setup(tau_q=0.0, mu2=0.0)
        assert ops.c_r == 0.0
        assert ops.c_B == 0.0
        assert ops.c_q == 0.0
        # I + D has a zero flux column
        for D in (ops.coupled, ops.printed):
            assert np.all(D[0, 1] == 0.0) and np.all(D[1, 1] == -1.0)
        np.testing.assert_array_equal(ops.printed[1, 0], ops.c_Q * ops.s)
        np.testing.assert_allclose(ops.printed[0, 0], -ops.c_T * ops.s**2, rtol=1e-15)

    def test_reference_laplacian_weight(self, ref_params, ref_config):
        grid = build_grid(ref_params, ref_config)
        ops = assemble(ref_params, grid)
        assert ops.c_B == pytest.approx(42000.0, rel=1e-12)

    def test_stencils(self):
        p, cfg, grid, ops = small_setup(J=5)
        L = second_difference(5)
        # the sine vectors with 1 + w s_m^2 rebuild B = I - c_B L and the
        # reduced matrix I - (c_B + c_T dt) L
        for w in (ops.c_B, ops.c_B + ops.c_T * grid.dt):
            dense = np.eye(5) - w * L
            assert np.max(np.abs(from_modes(ops, w) - dense)) <= 1e-14 * np.max(dense)
        # B is strictly diagonally dominant
        B = from_modes(ops, ops.c_B)
        assert np.all(np.abs(np.diag(B)) > 2.0 * np.max(np.abs(np.diag(B, k=-1))))

    @pytest.mark.parametrize("tau_q,mu2", [(8e-3, 2.8e-3), (0.0, 0.0)])
    def test_step_matrices(self, tau_q, mu2):
        # the per-mode 2x2 updates written out: coupled b' first, then a';
        # as-printed both from the old level, beta = 1/(1 + c_B s^2); the
        # operators hold the increments D with (a', b') = (a, b) + D (a, b)
        p, cfg, grid, ops = small_setup(J=31, tau_q=tau_q, mu2=mu2)
        s, dt = ops.s, grid.dt
        a, b = np.random.default_rng(5).normal(size=(2, 31))
        b_new = (ops.c_r * b + ops.c_Q * s * a) / (1.0 + (ops.c_B + ops.c_T * dt) * s**2)
        beta = 1.0 / (1.0 + ops.c_B * s**2)
        expected = {"coupled": (a - ops.c_flux * s * b_new, b_new),
                    "printed": ((1.0 - ops.c_T * s**2 * beta) * a - ops.c_q * s * beta * b,
                                ops.c_r * beta * b + ops.c_Q * s * beta * a)}
        for name, (a_new, b_new) in expected.items():
            D = getattr(ops, name)
            assert D.shape == (2, 2, 31)
            # the increments themselves, not just the new amplitudes
            np.testing.assert_allclose(D[0, 0] * a + D[0, 1] * b, a_new - a,
                                       rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(D[1, 0] * a + D[1, 1] * b, b_new - b,
                                       rtol=1e-13, atol=1e-15)

    def test_trapezoidal_maps(self):
        J = 6
        aq, at = aq_matrix(J), at_matrix(J)
        assert aq.shape == (J + 1, J) and at.shape == (J, J + 1)
        assert np.all(aq[np.arange(J), np.arange(J)] == 1.0)
        assert np.all(aq[-1] == np.r_[np.zeros(J - 1), -1.0])
        # A_T annihilates constants, rows are first differences
        np.testing.assert_array_equal(at @ np.ones(J + 1), np.zeros(J))
        # composite A_T @ A_q is the zero-flux second-difference stencil
        np.testing.assert_array_equal(at @ aq, second_difference(J))
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
                worst = max(worst, state_gap(step_coupled(ops, p, grid, prev),
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
        assert state_gap(a.states[1], step_coupled(ops, p, grid, s)) <= 1e-14

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
        aq, at = aq_matrix(grid.J), at_matrix(grid.J)
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
            gaps.append(state_gap(step_vectorial_as_printed(ops, p, grid, init),
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
            assert state_gap(traj.states[n], manual) <= 1e-12

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
        assert state_gap(traj.states[1], manual) == 0.0

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
    # the coupled step solves I - (c_B + c_T dt) L in the sine basis, where
    # it is diagonal (1 + (c_B + c_T dt) s_m^2)
    @pytest.mark.parametrize("J", [2, 63, 499])
    @pytest.mark.parametrize("tau_q,mu2", [(8e-3, 2.8e-3), (0.0, 0.0)])
    def test_factored_solve_matches_dense(self, J, tau_q, mu2):
        # one modal step against a dense LU solve of the reduced system and
        # the explicit temperature update
        p, cfg, grid, ops = small_setup(J=J, tau_q=tau_q, mu2=mu2)
        dense = np.eye(J) - (ops.c_B + ops.c_T * grid.dt) * second_difference(J)
        rng = np.random.default_rng(J)
        for _ in range(5):
            prev = random_state(rng, J)
            q = np.linalg.solve(dense, ops.c_r * prev.q_interior - ops.c_Q * np.diff(prev.T))
            T = prev.T - ops.c_flux * (aq_matrix(J) @ q)
            got = step_coupled(ops, p, grid, prev)
            assert np.max(np.abs(got.q_interior - q)) <= 1e-13 * np.max(np.abs(q))
            assert np.max(np.abs(got.T - T)) <= 1e-13 * np.max(np.abs(T))

    def test_single_flux_unknown(self):
        # J = 1: s_1^2 = 2, so the reduced "matrix" is 1 + 2w
        p, cfg, grid, ops = small_setup(J=1)
        w = ops.c_B + ops.c_T * grid.dt
        out = step_coupled(ops, p, grid, State(T=np.zeros(2), q=[0.0, 3.0, 0.0]))
        assert out.q[1] == pytest.approx(3.0 * ops.c_r / (1.0 + 2.0 * w), rel=1e-15)


class TestBFactor:
    # the as-printed step applies B^-1 = (I - c_B L)^-1 in the sine basis,
    # where it is diagonal 1/(1 + c_B s_m^2)
    @pytest.mark.parametrize("J", [1, 2, 63, 499])
    @pytest.mark.parametrize("tau_q,mu2", [(8e-3, 2.8e-3), (0.0, 0.0)])
    def test_factored_solve_matches_dense(self, J, tau_q, mu2):
        # q^n = B^-1 (c_r q - c_Q A_T T) of one as-printed step against a
        # dense LU solve with B; in the Fourier limit B = I.  Two
        # backward-stable solves can differ by ~eps*cond(B) (6.3e4 at
        # J = 499), so the tolerance grows with cond(B) beyond 1e-13
        p, cfg, grid, ops = small_setup(J=J, tau_q=tau_q, mu2=mu2)
        B = np.eye(J) - ops.c_B * second_difference(J)
        if mu2 == 0.0:
            np.testing.assert_array_equal(B, np.eye(J))
        eps = np.finfo(float).eps
        tol = max(1e-13, 4.0 * eps * np.linalg.cond(B))
        norm = np.max(np.sum(np.abs(B), axis=1))
        rng = np.random.default_rng(J)
        for _ in range(5):
            prev = random_state(rng, J)
            rhs = ops.c_r * prev.q_interior - ops.c_Q * np.diff(prev.T)
            expected = np.linalg.solve(B, rhs)
            got = step_vectorial_as_printed(ops, p, grid, prev).q_interior
            assert np.max(np.abs(got - expected)) <= tol * np.max(np.abs(expected))
            # and the backward error is held to 2 eps at every J
            residual = np.max(np.abs(B @ got - rhs))
            assert residual <= 2.0 * eps * (norm * np.max(np.abs(got)) + np.max(np.abs(rhs)))

    @pytest.mark.parametrize("tau_q,mu2", [(8e-3, 2.8e-3), (0.0, 0.0)])
    def test_as_printed_run_matches_dense_update(self, tau_q, mu2):
        # the closed-form update with dense matrices and dense solves:
        # T^n = T + c_T A_q B^-1 A_T T - c_q A_q B^-1 q,
        # q^n = c_r B^-1 q - c_Q B^-1 A_T T
        J, steps = 9, 40
        p, cfg, grid, ops = small_setup(J=J, tau_q=tau_q, mu2=mu2, dt=1.2e-3,
                                        t_final=steps * 1.2e-3)
        cfg = dataclasses.replace(cfg, stepper_kind=StepperKind.VECTORIAL_AS_PRINTED)
        init = cosine_initial(grid, 15.0, 30.0)
        traj = run(p, cfg, init)
        B = np.eye(J) - ops.c_B * second_difference(J)
        aq, at = aq_matrix(J), at_matrix(J)
        T, q = init.T, init.q_interior
        Ts, qs = [T], [q]
        for _ in range(steps):
            binv_at_T, binv_q = np.linalg.solve(B, at @ T), np.linalg.solve(B, q)
            T, q = (T + ops.c_T * (aq @ binv_at_T) - ops.c_q * (aq @ binv_q),
                    ops.c_r * binv_q - ops.c_Q * binv_at_T)
            Ts.append(T)
            qs.append(q)
        T_got = np.array([s.T for s in traj.states])
        q_got = np.array([s.q_interior for s in traj.states])
        Ts, qs = np.array(Ts), np.array(qs)
        assert np.max(np.abs(T_got - Ts)) <= 1e-13 * np.max(np.abs(Ts))
        assert np.max(np.abs(q_got - qs)) <= 1e-13 * np.max(np.abs(qs))


TRACE_FIELDS = ("E", "diss_lhs", "diss_rhs", "heat", "C_T", "lyapunov", "Z")


class TestTraceChunks:
    # J=9999 gives one level per chunk at the default budget
    @pytest.mark.parametrize("J,steps", [(2, 6000), (63, 600), (9999, 5)])
    def test_trace_independent_of_chunk_budget(self, monkeypatch, J, steps):
        p, cfg, grid, ops = small_setup(J=J, t_final=steps * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        budgets = (1, scheme.TRACE_CHUNK_ELEMENTS, (grid.N + 3) * 2 * J)
        assert max(1, scheme.TRACE_CHUNK_ELEMENTS // (2 * J)) < grid.N + 1
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
        trajs = []
        for budget in (1, 30, 10**6):
            monkeypatch.setattr(scheme, "TRACE_CHUNK_ELEMENTS", budget)
            trajs.append(run(p, cfg, init))
        # the steps are elementwise, so states match bit for bit; the trace
        # sums go through BLAS, whose rounding depends on the chunk's rows
        for traj in trajs[1:]:
            for a, b in zip(traj.states, trajs[0].states, strict=True):
                np.testing.assert_array_equal(a.T, b.T)
                np.testing.assert_array_equal(a.q, b.q)
            for name in TRACE_FIELDS:
                got, ref = getattr(traj.trace, name), getattr(trajs[0].trace, name)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), name


def longdouble_coupled_run(p, grid, init, steps):
    """Coupled steps in np.longdouble: a Thomas loop for the reduced
    tridiagonal solve, then the explicit temperature update."""
    ld = np.longdouble
    J = grid.J
    dx, dt = ld(grid.dx), ld(grid.dt)
    tau_q, mu2, k, rc = ld(p.tau_q), ld(p.mu2), ld(p.k), ld(p.rho) * ld(p.c)
    s = tau_q + dt
    c_B, c_T = mu2 * dt / (s * dx * dx), k * dt / (rc * s * dx * dx)
    c_Q, c_r, c_flux = k * dt / (s * dx), tau_q / s, dt / (rc * dx)
    w = c_B + c_T * dt
    # elimination of tridiag(-w, 1 + 2w, -w): multipliers and pivots
    pivots, multipliers = [1 + 2 * w], [ld(0)]
    for _ in range(1, J):
        multipliers.append(-w / pivots[-1])
        pivots.append(1 + 2 * w + multipliers[-1] * w)
    T, q = init.T.astype(ld), init.q_interior.astype(ld)
    Ts, qs = [T], [q]
    for _ in range(steps):
        r = list(c_r * q - c_Q * np.diff(T))
        for j in range(1, J):
            r[j] -= multipliers[j] * r[j - 1]
        x = [ld(0)] * J
        x[-1] = r[-1] / pivots[-1]
        for j in range(J - 2, -1, -1):
            x[j] = (r[j] + w * x[j + 1]) / pivots[j]
        q = np.array(x, dtype=ld)
        T = T - c_flux * np.diff(np.concatenate(([ld(0)], q, [ld(0)])))
        Ts.append(T)
        qs.append(q)
    return np.array(Ts), np.array(qs)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="longdouble is plain float64 here")
class TestExtendedPrecision:
    @pytest.mark.parametrize("J,steps", [(63, 2000), (499, 200)])
    def test_run_matches_longdouble_reference(self, ref_params, J, steps):
        cfg = SimulationConfig(dx=ref_params.l / (J + 1), dt=1.2e-2,
                               t_final=steps * 1.2e-2, T_b=15.0, T_f=30.0)
        grid = build_grid(ref_params, cfg)
        init = cosine_initial(grid, 15.0, 30.0)
        traj = run(ref_params, cfg, init)
        T_ref, q_ref = longdouble_coupled_run(ref_params, grid, init, steps)
        T = np.array([s.T for s in traj.states])
        q = np.array([s.q_interior for s in traj.states])
        assert np.max(np.abs(T - T_ref)) <= 1e-14 * np.max(np.abs(T_ref))
        assert np.max(np.abs(q - q_ref)) <= 1e-14 * np.max(np.abs(q_ref))


class TestRunMemory:
    def test_estimate_counts_trace_and_kept_states(self):
        p, cfg, grid, ops = small_setup(J=99, t_final=1000 * 1.2e-2)
        one, all_levels = scheme.run_memory_bytes(grid, grid.N + 1), scheme.run_memory_bytes(grid, 1)
        # stride 1 keeps N+2 states of 2J+3 values and writes them again
        assert all_levels - one == 8 * grid.N * ((2 * 99 + 3) + 2 * 100)
        longer = build_grid(p, dataclasses.replace(cfg, t_final=2000 * 1.2e-2))
        per_level = (scheme.run_memory_bytes(longer, longer.N + 1) - one) / 1000
        assert per_level == 8 * 23

    def test_fine_mesh_estimate_is_far_under_the_cap(self, ref_params, ref_config):
        # J = 7999, 2500 steps, every 25th level kept: about 26 MB
        grid = build_grid(ref_params, dataclasses.replace(ref_config, dx=1.25e-5))
        need = scheme.run_memory_bytes(grid, 25)
        assert 25e6 < need < 28e6
        assert scheme.MAX_RUN_BYTES >= 20 * need

    def test_run_refuses_before_assembling(self, monkeypatch):
        p, cfg, grid, ops = small_setup(J=99, t_final=100 * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        monkeypatch.setattr(scheme, "MAX_RUN_BYTES", scheme.run_memory_bytes(grid, 1) - 1)

        def fail(*args):
            raise AssertionError("assembled past the memory check")

        monkeypatch.setattr(scheme, "assemble", fail)
        with pytest.raises(MeshTooLarge, match="MAX_RUN_BYTES"):
            run(p, cfg, init)
        with pytest.raises(AssertionError):
            run(p, cfg, init, stride=2)


class TestNonFinite:
    def test_unstable_as_printed_run_raises_at_first_bad_step(self):
        # the explicit correction blows up in the Fourier limit at this mesh
        p, cfg, grid, ops = small_setup(J=49, tau_q=0.0, mu2=0.0,
                                        t_final=200 * 1.2e-2)
        cfg = dataclasses.replace(cfg, stepper_kind=StepperKind.VECTORIAL_AS_PRINTED)
        with pytest.raises(NonFiniteState, match=r"step \d+ produced"):
            run(p, cfg, cosine_initial(grid, 15.0, 30.0))

    def test_single_step_overflow(self):
        # the transforms of this state stay finite; its high modes grow by
        # about c_T s_m^2 ~ 8000 in one as-printed step and overflow
        p, cfg, grid, ops = small_setup(J=99, tau_q=0.0, mu2=0.0)
        huge = State(T=np.where(np.arange(100) % 2, 1e305, -1e305), q=np.zeros(101))
        with pytest.raises(NonFiniteState):
            step_vectorial_as_printed(ops, p, grid, huge)
