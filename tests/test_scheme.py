import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from gkheat import checks, csvtext, diagnostics, linalg, scheme
from gkheat import (GridMismatch, MeshTooLarge, NonFiniteInput, NonFiniteState, State,
                    StepperKind, assemble, build_grid, cosine_initial, run)
from gkheat.checks import state_gap
from gkheat.cli import parse_config, write_profiles_csv, write_trace_csv
from gkheat.model import MaterialParams, SimulationConfig
from gkheat.scheme import strided_steps
from oracles import (boundary_term, discrete_energy, dissipation_check,
                     longdouble_coupled_run, lyapunov, one_step, step_coupled_reference,
                     step_factors, table_sums, total_heat)

PRINTED = StepperKind.VECTORIAL_AS_PRINTED


def small_setup(J=9, tau_q=8e-3, mu2=2.8e-3, dt=1.2e-2, t_final=None):
    p = MaterialParams(rho=2e3, c=5e2, tau_q=tau_q, mu2=mu2, k=2e3, l=0.1)
    cfg = SimulationConfig(dx=p.l / (J + 1), dt=dt,
                           t_final=t_final if t_final is not None else dt,
                           T_b=15.0, T_f=30.0)
    grid = build_grid(p, cfg)
    return p, cfg, grid, {"coupled": assemble(p, grid), "printed": assemble(p, grid, PRINTED)}


def fixed_tile(monkeypatch, K, n, M):
    """Make every run's plan the tile (K, n, M), cut to its mesh and steps."""
    plan = scheme._plan

    def fixed(grid, keep, levels_only=False):
        last = grid.N + 1
        k = min(K, last)
        return dataclasses.replace(plan(grid, keep, levels_only), K=k, n=min(n, grid.J),
                                   M=min(M, -(-last // k)))

    monkeypatch.setattr(scheme, "_plan", fixed)


def step_powers(G, K):
    """_power_table of the step matrices G: [i, j, k] entry (i, j) of G^k,
    in buffers of its own."""
    n = G.shape[2]
    return scheme._power_table(G, K, np.empty((2, 2, K + 1, n)), np.empty(5 * (K + 1) * n))


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


def from_modes(f, w):
    """The matrix I - w L rebuilt from its sine eigenvectors and 1 + w s_m^2."""
    S = sine_matrix(f.s.size)
    return S @ np.diag(1.0 + w * f.s**2) @ S.T


class TestAssemble:
    def test_mass_matrix_small_example(self):
        # pick steps so the Laplacian weight is exactly 0.1:
        # mu2*dt/((tau_q+dt)*dx^2) with tau_q=0, dt=1, dx=1, mu2=0.1
        p = MaterialParams(rho=1.0, c=1.0, tau_q=0.0, mu2=0.1, k=1.0, l=3.0)
        cfg = SimulationConfig(dx=1.0, dt=1.0, t_final=1.0, T_b=0.0, T_f=1.0)
        grid = build_grid(p, cfg)
        f = step_factors(p, grid)
        assert f.c_B == pytest.approx(0.1, rel=1e-15)
        # B = I - c_B L from its eigenpairs: s_m^2 = 2 -/+ 1 at J = 2
        np.testing.assert_allclose(f.s**2, [1.0, 3.0], rtol=1e-15)
        np.testing.assert_allclose(from_modes(f, f.c_B),
                                   [[1.2, -0.1], [-0.1, 1.2]], rtol=0.0, atol=1e-15)

    def test_fourier_limit_kills_factors(self):
        # B = I: the printed flux weights lose beta; no step keeps flux history
        p, cfg, grid, ops = small_setup(tau_q=0.0, mu2=0.0)
        f = step_factors(p, grid)
        assert f.c_r == 0.0
        assert f.c_B == 0.0
        assert f.c_q == 0.0
        # I + D has a zero flux column
        for _, D in ops.values():
            assert np.all(D[0, 1] == 0.0) and np.all(D[1, 1] == -1.0)
        _, printed = ops["printed"]
        np.testing.assert_array_equal(printed[1, 0], f.c_Q * f.s)
        np.testing.assert_allclose(printed[0, 0], -f.c_T * f.s**2, rtol=1e-15)

    @pytest.mark.parametrize("mu2", [2.8e-3, 1e10, 0.0])
    def test_step_matrices_are_identity_plus_increments(self, mu2):
        # G = I + D bit for bit but in the flux entry, which is its closed
        # form: c_r/(1 + (c_B + c_T dt) s^2) coupled, c_r beta as printed;
        # and in the coupled temperature entry where D_aa <= -0.5, a step
        # keeping half the temperature or less, which is its closed form
        # (1 + c_B s^2)/(1 + (c_B + c_T dt) s^2).  At mu2 = 0 the top 23 of
        # the 31 modes take that branch, at the other two none
        p, cfg, grid, ops = small_setup(J=31, mu2=mu2)
        f = step_factors(p, grid)
        reduced = 1.0 + (f.c_B + f.c_T * grid.dt) * f.s**2
        flux = {"coupled": f.c_r / reduced, "printed": f.c_r / (1.0 + f.c_B * f.s**2)}
        for name, (G, D) in ops.items():
            damped = (D[0, 0] <= -0.5) & (name == "coupled")
            assert np.count_nonzero(damped) == (23 if mu2 == 0.0 and name == "coupled" else 0)
            np.testing.assert_array_equal(G[0, 0, ~damped], 1.0 + D[0, 0, ~damped])
            np.testing.assert_allclose(G[0, 0, damped],
                                       ((1.0 + f.c_B * f.s**2) / reduced)[damped], rtol=1e-15)
            np.testing.assert_array_equal(G[[0, 1], [1, 0]], D[[0, 1], [1, 0]])
            np.testing.assert_allclose(G[1, 1], flux[name], rtol=1e-15)

    def test_reference_laplacian_weight(self, ref_params, ref_config):
        grid = build_grid(ref_params, ref_config)
        assert step_factors(ref_params, grid).c_B == pytest.approx(42000.0, rel=1e-12)

    def test_stencils(self):
        p, cfg, grid, ops = small_setup(J=5)
        f = step_factors(p, grid)
        L = second_difference(5)
        # the sine vectors with 1 + w s_m^2 rebuild B = I - c_B L and the
        # reduced matrix I - (c_B + c_T dt) L
        for w in (f.c_B, f.c_B + f.c_T * grid.dt):
            dense = np.eye(5) - w * L
            assert np.max(np.abs(from_modes(f, w) - dense)) <= 1e-14 * np.max(dense)
        # B is strictly diagonally dominant
        B = from_modes(f, f.c_B)
        assert np.all(np.abs(np.diag(B)) > 2.0 * np.max(np.abs(np.diag(B, k=-1))))

    @pytest.mark.parametrize("tau_q,mu2", [(8e-3, 2.8e-3), (0.0, 0.0)])
    def test_step_matrices(self, tau_q, mu2):
        # the per-mode 2x2 updates written out: coupled b' first, then a';
        # as-printed both from the old level, beta = 1/(1 + c_B s^2); the
        # operators hold the increments D with (a', b') = (a, b) + D (a, b)
        p, cfg, grid, ops = small_setup(J=31, tau_q=tau_q, mu2=mu2)
        f = step_factors(p, grid)
        s, dt = f.s, grid.dt
        a, b = np.random.default_rng(5).normal(size=(2, 31))
        b_new = (f.c_r * b + f.c_Q * s * a) / (1.0 + (f.c_B + f.c_T * dt) * s**2)
        beta = 1.0 / (1.0 + f.c_B * s**2)
        expected = {"coupled": (a - f.c_flux * s * b_new, b_new),
                    "printed": ((1.0 - f.c_T * s**2 * beta) * a - f.c_q * s * beta * b,
                                f.c_r * beta * b + f.c_Q * s * beta * a)}
        for name, (a_new, b_new) in expected.items():
            _, D = ops[name]
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
        out = one_step(p, grid, s)
        np.testing.assert_allclose(out.T, s.T, rtol=1e-13)
        assert np.all(out.q == 0.0)

    def test_uniform_fixed_point_as_printed(self):
        p, cfg, grid, ops = small_setup()
        s = cosine_initial(grid, T_b=15.0, T_f=0.0)
        out = one_step(p, grid, s, PRINTED)
        np.testing.assert_allclose(out.T, s.T, rtol=1e-13)
        np.testing.assert_allclose(out.q, 0.0, atol=1e-20)

    def test_matches_dense_reference(self):
        # brute-force oracle: dense solve of the verbatim interleaved system,
        # ten random levels stacked per mesh
        rng = np.random.default_rng(42)
        worst = 0.0
        for J in range(2, 9):
            p, cfg, grid, ops = small_setup(J=J)
            prev = [random_state(rng, J) for _ in range(10)]
            steps = [one_step(p, grid, s) for s in prev]
            reference = step_coupled_reference(p, grid, np.array([s.T for s in prev]),
                                               np.array([s.q for s in prev]))
            worst = max(worst, state_gap((np.array([s.T for s in steps]),
                                          np.array([s.q for s in steps])), reference))
        assert worst <= 1e-10

    def test_dense_reference_steps_each_level_alone(self):
        # a stack's rows are the levels' own steps, bit for bit, with
        # zero boundary fluxes
        rng = np.random.default_rng(43)
        p, cfg, grid, ops = small_setup(J=6)
        prev = [random_state(rng, 6) for _ in range(4)]
        T, q = step_coupled_reference(p, grid, np.array([s.T for s in prev]),
                                      np.array([s.q for s in prev]))
        assert T.shape == (4, 7) and q.shape == (4, 8)
        assert np.all(q[:, 0] == 0.0) and np.all(q[:, -1] == 0.0)
        for i, s in enumerate(prev):
            T1, q1 = step_coupled_reference(p, grid, s.T[None], s.q[None])
            assert T1[0].tobytes() == T[i].tobytes() and q1[0].tobytes() == q[i].tobytes()

    @pytest.mark.parametrize("T_shape,q_shape", [((7,), (8,)), ((2, 8), (2, 9)),
                                                 ((2, 7), (3, 8))])
    def test_dense_reference_refuses_levels_off_the_grid(self, T_shape, q_shape):
        p, cfg, grid, ops = small_setup(J=6)
        with pytest.raises(GridMismatch):
            step_coupled_reference(p, grid, np.zeros(T_shape), np.zeros(q_shape))

    def test_heat_conserved_per_step(self):
        rng = np.random.default_rng(9)
        p, cfg, grid, ops = small_setup(J=49)
        s = random_state(rng, 49)
        h0 = total_heat(s, grid.dx)
        for _ in range(20):
            s = one_step(p, grid, s)
            assert total_heat(s, grid.dx) == pytest.approx(h0, rel=1e-12)

    def test_boundary_fluxes_stay_zero(self):
        rng = np.random.default_rng(10)
        p, cfg, grid, ops = small_setup(J=12)
        s = random_state(rng, 12)
        for kind in (StepperKind.COUPLED_IMPLICIT, PRINTED):
            out = one_step(p, grid, s, kind)
            assert out.q[0] == 0.0 and out.q[-1] == 0.0

    @pytest.mark.parametrize("kind", [StepperKind.COUPLED_IMPLICIT, PRINTED])
    def test_linearity(self, kind):
        rng = np.random.default_rng(11)
        p, cfg, grid, ops = small_setup(J=15)
        s1, s2 = random_state(rng, 15), random_state(rng, 15)
        a, b = 0.6, -1.4
        combo = State(T=a * s1.T + b * s2.T, q=a * s1.q + b * s2.q)
        out_combo = one_step(p, grid, combo, kind)
        out_sum_T = a * one_step(p, grid, s1, kind).T + b * one_step(p, grid, s2, kind).T
        out_sum_q = a * one_step(p, grid, s1, kind).q + b * one_step(p, grid, s2, kind).q
        np.testing.assert_allclose(out_combo.T, out_sum_T, rtol=1e-11, atol=1e-11)
        np.testing.assert_allclose(out_combo.q, out_sum_q, rtol=1e-11, atol=1e-7)

    def test_zero_state_maps_to_zero(self):
        p, cfg, grid, ops = small_setup(J=7)
        z = State(T=np.zeros(8), q=np.zeros(9))
        out = one_step(p, grid, z)
        assert np.all(out.T == 0.0) and np.all(out.q == 0.0)


class TestFourierStepper:
    # Fourier conduction is the coupled stepper at tau_q = mu2 = 0, and the
    # config spelling fourier_limit selects that stepper
    def test_identical_to_coupled_in_the_limit(self):
        p, cfg, grid, ops = small_setup(tau_q=0.0, mu2=0.0, J=49,
                                        t_final=5 * 1.2e-2)
        s = cosine_initial(grid, 15.0, 30.0)
        spelled = parse_config(f"stepper = fourier_limit\ntau_q = 0\nmu2 = 0\n"
                               f"dx = {cfg.dx!r}\nt_final = {cfg.t_final!r}\n")
        a = run(spelled.params, spelled.config, s)
        b = run(p, cfg, s)
        np.testing.assert_array_equal(a.T, b.T)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.trace.E, b.trace.E)
        step = one_step(p, grid, s)
        assert state_gap((a.T[1], a.q[1]), (step.T, step.q)) <= 1e-14

    def test_cosine_mode_amplification(self, ref_params, ref_config):
        # implicit Euler damps the fundamental mode by 1/(1 + (k/rho c) kappa^2 dt);
        # the exact discrete eigenmode in the temperature slot is the cosine
        # sampled at x_j + dx/2 (the forward/backward difference staggering)
        p = dataclasses.replace(ref_params, tau_q=0.0, mu2=0.0)
        grid = build_grid(p, dataclasses.replace(ref_config, t_final=ref_config.dt))
        kappa = np.pi / p.l
        mode = np.cos(kappa * (grid.x[:grid.J + 1] + grid.dx / 2.0))
        s = State(T=15.0 * mode, q=np.zeros(grid.J + 2))
        out = one_step(p, grid, s)
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
        out = one_step(p, grid, s, PRINTED)
        aq, at = aq_matrix(grid.J), at_matrix(grid.J)
        factor = p.k / (p.rho_c * grid.dx**2)
        np.testing.assert_allclose(out.T, s.T + factor * (aq @ (at @ s.T)),
                                   rtol=1e-12)
        np.testing.assert_allclose(out.q[1:-1], -(p.k / grid.dx) * (at @ s.T),
                                   rtol=1e-12)


class TestRun:
    def test_single_step_horizon(self):
        p, cfg, grid, ops = small_setup(J=9)  # t_final == dt, so N = 0
        traj = run(p, cfg, cosine_initial(grid, 15.0, 30.0))
        assert traj.T.shape == (2, grid.J + 1) and traj.q.shape == (2, grid.J + 2)
        assert len(traj.trace) == 2
        assert traj.stored_steps == [0, 1]
        assert scheme.seam_steps(grid).tolist() == [1]

    def test_states_follow_the_stepper(self):
        p, cfg, grid, ops = small_setup(J=19, t_final=10 * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        traj = run(p, cfg, init)
        assert len(traj.T) == len(traj.q) == grid.N + 2
        manual = init
        for n in range(1, grid.N + 2):
            manual = one_step(p, grid, manual)
            assert state_gap((traj.T[n], traj.q[n]), (manual.T, manual.q)) <= 1e-12

    def test_zero_initial_data(self):
        p, cfg, grid, ops = small_setup(J=9, t_final=5 * 1.2e-2)
        traj = run(p, cfg, State(T=np.zeros(10), q=np.zeros(11)))
        assert np.all(traj.T == 0.0) and np.all(traj.q == 0.0)
        assert np.all(traj.trace.E == 0.0)

    def test_stride_keeps_endpoints_and_all_diagnostics(self):
        p, cfg, grid, ops = small_setup(J=9, t_final=10 * 1.2e-2)
        traj = run(p, cfg, cosine_initial(grid, 15.0, 30.0), keep=strided_steps(grid, 4))
        assert traj.stored_steps == [0, 4, 8, grid.N + 1]
        assert len(traj.trace) == grid.N + 2   # energy recorded every step

    def test_keeps_the_levels_it_is_given(self):
        p, cfg, grid, ops = small_setup(J=9, t_final=10 * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        every = run(p, cfg, init)
        traj = run(p, cfg, init, keep=[2, 3, 7])
        assert traj.stored_steps == [0, 2, 3, 7]
        assert np.array_equal(traj.T, every.T[[0, 2, 3, 7]])
        assert np.array_equal(traj.q, every.q[[0, 2, 3, 7]])

    @pytest.mark.parametrize("keep", [[], [0, 3], [3, 3], [4, 2], [12], [2.0],
                                      [[1, 2]]])
    def test_rejects_keep_that_is_not_increasing_steps_on_the_mesh(self, keep):
        # the mesh has N + 1 = 11 steps
        p, cfg, grid, ops = small_setup(J=9, t_final=11 * 1.2e-2)
        with pytest.raises(ValueError, match="keep must be increasing integer steps"):
            run(p, cfg, cosine_initial(grid, 15.0, 30.0), keep=keep)

    def test_run_respects_stepper_kind(self):
        p, cfg, grid, ops = small_setup(J=9, t_final=3 * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        traj = run(p, cfg, init, kind=PRINTED)
        level = (traj.T[1], traj.q[1])
        printed, coupled = one_step(p, grid, init, PRINTED), one_step(p, grid, init)
        assert state_gap(level, (printed.T, printed.q)) == 0.0
        # and not the coupled step
        assert state_gap(level, (coupled.T, coupled.q)) > 1e-2

    @pytest.mark.parametrize("stride", [0, -1, 2.0, 2.5])
    def test_rejects_a_stride_that_is_not_a_positive_integer(self, stride):
        p, cfg, grid, ops = small_setup(J=9, t_final=10 * 1.2e-2)
        with pytest.raises(ValueError, match="stride must be an integer >= 1"):
            strided_steps(grid, stride)

    def test_accepts_a_numpy_integer_stride(self):
        p, cfg, grid, ops = small_setup(J=9, t_final=10 * 1.2e-2)
        traj = run(p, cfg, cosine_initial(grid, 15.0, 30.0),
                   keep=strided_steps(grid, np.int64(4)))
        assert traj.stored_steps == [0, 4, 8, grid.N + 1]

    def test_mismatched_initial_state(self):
        p, cfg, grid, ops = small_setup(J=9)
        with pytest.raises(GridMismatch):
            run(p, cfg, State(T=np.zeros(4), q=np.zeros(5)))

    def test_levels_only_run_has_no_trace(self):
        p, cfg, grid, ops = small_setup(J=9, t_final=20 * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        full = run(p, cfg, init, keep=[3, 19, 20])
        levels = run(p, cfg, init, keep=[3, 19, 20], levels_only=True)
        assert levels.trace is None and levels.stored_steps == full.stored_steps
        assert np.array_equal(levels.T, full.T) and np.array_equal(levels.q, full.q)
        # a check of a trace the run did not form fails instead of passing
        with pytest.raises(AttributeError):
            checks.energy_monotone(levels.trace)

    @pytest.mark.parametrize("dx,t_final,kind", [
        (2e-4, 30.0, StepperKind.COUPLED_IMPLICIT),
        (1.5625e-3, 240.0, StepperKind.COUPLED_IMPLICIT),
        (1.25e-5, 30.0, StepperKind.COUPLED_IMPLICIT), (2e-4, 1.2e-2, PRINTED)],
        ids=["reference", "long_horizon", "fine_mesh", "printed-one-step"])
    def test_levels_only_levels_are_the_full_runs(self, ref_params, ref_config, dx, t_final,
                                                  kind):
        # the workload meshes keeping the seams verify keeps, and one
        # as-printed step: on its own wider blocks, a levels-only run forms
        # each kept level from the same powers and bases, bit for bit
        cfg = dataclasses.replace(ref_config, dx=dx, t_final=t_final)
        grid = build_grid(ref_params, cfg)
        init = cosine_initial(grid, 15.0, 30.0)
        keep = scheme.seam_steps(grid)
        full = run(ref_params, cfg, init, keep=keep, kind=kind)
        levels = run(ref_params, cfg, init, keep=keep, levels_only=True, kind=kind)
        assert levels.stored_steps == full.stored_steps
        assert np.array_equal(levels.T, full.T) and np.array_equal(levels.q, full.q)

    def test_levels_only_run_forms_no_table(self, monkeypatch):
        # no trace table and no matrix product: a levels-only run forms
        # the powers, the bases and the kept levels alone
        p, cfg, grid, ops = small_setup(J=99, t_final=200 * 1.2e-2)
        calls, matmul = [], np.matmul

        def no_table(*args, **kwargs):
            raise AssertionError("modal_trace_table called")

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(scheme, "modal_trace_table", no_table)
        monkeypatch.setattr(np, "matmul", counted)
        run(p, cfg, cosine_initial(grid, 15.0, 30.0), levels_only=True)
        assert calls == []
        monkeypatch.undo()
        monkeypatch.setattr(np, "matmul", counted)
        run(p, cfg, cosine_initial(grid, 15.0, 30.0))
        assert calls

    def test_one_chunk_run_forms_its_kept_levels_in_one_call(self, monkeypatch):
        # 10 steps at J = 8 are one chunk of K = 10 levels (M = 1): its 10
        # kept levels are written into the levels in one assignment, not
        # one each
        p, cfg, grid, ops = small_setup(J=8, t_final=10 * 1.2e-2)
        plan = scheme._plan(grid, np.arange(1, grid.N + 2), levels_only=True)
        assert (plan.K, plan.M) == (10, 1)
        writes, trace_block = [], scheme._trace_block

        class Recorded(np.ndarray):
            def __setitem__(self, key, value):
                writes.append(key)
                super().__setitem__(key, value)

        def recorded(G, D, w, modes, m, x, plan, sums, kept, work):
            trace_block(G, D, w, modes, m, x, plan, sums, kept.view(Recorded), work)

        monkeypatch.setattr(scheme, "_trace_block", recorded)
        traj = run(p, cfg, cosine_initial(grid, 15.0, 30.0), levels_only=True)
        assert writes == [slice(0, 10)]
        assert len(traj.stored_steps) - 1 == 10

    def test_zero_mean_run_decays_four_orders(self, ref_params, ref_config):
        # slow-mode rate ~1.05/s: by t = 30 s only the tiny discrete-mean
        # equilibrium floor remains
        cfg = dataclasses.replace(ref_config, T_b=0.0)
        grid = build_grid(ref_params, cfg)
        traj = run(ref_params, cfg, cosine_initial(grid, 0.0, cfg.T_f),
                   keep=[grid.N + 1])
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
        f = step_factors(p, grid)
        dense = np.eye(J) - (f.c_B + f.c_T * grid.dt) * second_difference(J)
        rng = np.random.default_rng(J)
        for _ in range(5):
            prev = random_state(rng, J)
            q = np.linalg.solve(dense, f.c_r * prev.q_interior - f.c_Q * np.diff(prev.T))
            T = prev.T - f.c_flux * (aq_matrix(J) @ q)
            got = one_step(p, grid, prev)
            assert np.max(np.abs(got.q_interior - q)) <= 1e-13 * np.max(np.abs(q))
            assert np.max(np.abs(got.T - T)) <= 1e-13 * np.max(np.abs(T))

    def test_single_flux_unknown(self):
        # J = 1: s_1^2 = 2, so the reduced "matrix" is 1 + 2w
        p, cfg, grid, ops = small_setup(J=1)
        f = step_factors(p, grid)
        w = f.c_B + f.c_T * grid.dt
        out = one_step(p, grid, State(T=np.zeros(2), q=[0.0, 3.0, 0.0]))
        assert out.q[1] == pytest.approx(3.0 * f.c_r / (1.0 + 2.0 * w), rel=1e-15)


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
        f = step_factors(p, grid)
        B = np.eye(J) - f.c_B * second_difference(J)
        if mu2 == 0.0:
            np.testing.assert_array_equal(B, np.eye(J))
        eps = np.finfo(float).eps
        tol = max(1e-13, 4.0 * eps * np.linalg.cond(B))
        norm = np.max(np.sum(np.abs(B), axis=1))
        rng = np.random.default_rng(J)
        for _ in range(5):
            prev = random_state(rng, J)
            rhs = f.c_r * prev.q_interior - f.c_Q * np.diff(prev.T)
            expected = np.linalg.solve(B, rhs)
            got = one_step(p, grid, prev, PRINTED).q_interior
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
        f = step_factors(p, grid)
        init = cosine_initial(grid, 15.0, 30.0)
        traj = run(p, cfg, init, kind=PRINTED)
        B = np.eye(J) - f.c_B * second_difference(J)
        aq, at = aq_matrix(J), at_matrix(J)
        T, q = init.T, init.q_interior
        Ts, qs = [T], [q]
        for _ in range(steps):
            binv_at_T, binv_q = np.linalg.solve(B, at @ T), np.linalg.solve(B, q)
            T, q = (T + f.c_T * (aq @ binv_at_T) - f.c_q * (aq @ binv_q),
                    f.c_r * binv_q - f.c_Q * binv_at_T)
            Ts.append(T)
            qs.append(q)
        T_got, q_got = traj.T, traj.q[:, 1:-1]
        Ts, qs = np.array(Ts), np.array(qs)
        assert np.max(np.abs(T_got - Ts)) <= 1e-13 * np.max(np.abs(Ts))
        assert np.max(np.abs(q_got - qs)) <= 1e-13 * np.max(np.abs(qs))


TRACE_FIELDS = ("E", "diss_lhs", "diss_rhs", "heat", "C_T", "lyapunov")
EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


def assert_levels_close(traj, T_ref, q_ref, rel=1e-14):
    """traj's kept T and interior q within rel of the reference field's
    maximum."""
    T, q = traj.T, traj.q[:, 1:-1]
    T_ref, q_ref = np.asarray(T_ref, dtype=float), np.asarray(q_ref, dtype=float)
    assert T.shape == T_ref.shape and q.shape == q_ref.shape
    assert np.max(np.abs(T - T_ref)) <= rel * np.max(np.abs(T_ref))
    assert np.max(np.abs(q - q_ref)) <= rel * np.max(np.abs(q_ref))


class TestTraceChunks:
    # budget 1 gives one-mode blocks of one-level chunks, 800 blocks of 32
    # modes (ragged unless 32 divides J) of one-level chunks, 2**17 blocks
    # four times the default's width; one-mode blocks at J = 9999 would
    # take 10^4 blocks, so that case skips them.  Last, the full tile of
    # before chunks grew with the run, (K, n, M) = (5, 192, 30), stays a
    # checked reference
    @pytest.mark.parametrize("J,steps", [(2, 6000), (63, 600), (9999, 5)])
    def test_trace_independent_of_chunk_budget(self, monkeypatch, J, steps):
        p, cfg, grid, ops = small_setup(J=J, t_final=steps * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        budgets = (1, 800, scheme.TRACE_CHUNK_ELEMENTS, 2**17)[J > 1000:]
        trajs, shapes, levels = [], [], []
        for budget in budgets + (None,):
            if budget is None:
                monkeypatch.undo()
                fixed_tile(monkeypatch, 5, 192, 30)
            else:
                monkeypatch.setattr(scheme, "TRACE_CHUNK_ELEMENTS", budget)
            plan = scheme._plan(grid, strided_steps(grid, 7))
            shapes.append((plan.K, plan.n))
            trajs.append(run(p, cfg, init, keep=plan.keep))
            levels.append((scheme._plan(grid, plan.keep, levels_only=True).K,
                           run(p, cfg, init, keep=plan.keep, levels_only=True)))
        K, width = zip(*shapes)
        # chunks shorter than the run; one-mode blocks of one-level chunks,
        # ragged and single blocks
        assert min(K) < grid.N + 1
        assert J == 2 or any(J % n for n in width)
        assert J > 1000 or ((1, 1) in shapes and J in width)
        base = trajs[0]
        if EXTENDED:
            T_ref, q_ref = longdouble_coupled_run(p, grid, init, grid.N + 1)
            for traj in trajs:
                assert_levels_close(traj, T_ref[traj.stored_steps],
                                    q_ref[traj.stored_steps])
        for traj in trajs[1:]:
            assert traj.stored_steps == base.stored_steps
            assert_levels_close(traj, base.T, base.q[:, 1:-1])
            for name in TRACE_FIELDS:
                got, ref = getattr(traj.trace, name), getattr(base.trace, name)
                assert got.shape == ref.shape == (grid.N + 2,)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), name
        # the levels alone, on their own (wider) blocks: on chunks of the
        # full run's K, which a budget may cap apart, the same levels
        for (k, traj), full, (k_full, _) in zip(levels, trajs, shapes):
            assert traj.stored_steps == base.stored_steps and traj.trace is None
            assert_levels_close(traj, base.T, base.q[:, 1:-1])
            if k == k_full:
                assert np.array_equal(traj.T, full.T) and np.array_equal(traj.q, full.q)

    def test_as_printed_trace_independent_of_chunk_budget(self, monkeypatch):
        p, cfg, grid, ops = small_setup(J=9, t_final=20 * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        trajs, shapes = [], []
        # one-mode blocks of one-level chunks; one block, chunks of 2 levels;
        # one block, chunks of 10 levels; one block, one chunk
        for budget in (1, 1200, scheme.TRACE_CHUNK_ELEMENTS, None):
            if budget is None:
                monkeypatch.undo()
                fixed_tile(monkeypatch, 20, 9, 1)
            else:
                monkeypatch.setattr(scheme, "TRACE_CHUNK_ELEMENTS", budget)
            plan = scheme._plan(grid, strided_steps(grid, 1))
            shapes.append((plan.K, plan.n))
            trajs.append(run(p, cfg, init, kind=PRINTED))
        assert shapes == [(1, 1), (2, 9), (10, 9), (20, 9)]
        # a level's rounding depends on its offset in its chunk (G^k is
        # applied to the level before the chunk), and the trace sums go
        # through BLAS, whose rounding depends on the block's shape
        for traj in trajs[1:]:
            assert_levels_close(traj, trajs[0].T, trajs[0].q[:, 1:-1])
            for name in TRACE_FIELDS:
                got, ref = getattr(traj.trace, name), getattr(trajs[0].trace, name)
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), name


class TestTraceTable:
    @pytest.mark.parametrize("tau_q,mu2", [(8e-3, 2.8e-3), (0.0, 0.0)])
    @pytest.mark.parametrize("which", ["coupled", "printed"])
    def test_columns_match_state_oracles(self, tau_q, mu2, which):
        # every column of the table's rows at every level k = 0..K of a
        # chunk against the physical-space functions on states stepped one
        # at a time; k = 20 keeps the as-printed Fourier-limit step stable
        # (its top mode grows by about 4k/(rho c dx^2) - 1 otherwise), so
        # that the oracles keep their precision
        J, K = 9, 12
        p, cfg, grid, ops = small_setup(J=J, tau_q=tau_q, mu2=mu2)
        p = dataclasses.replace(p, k=20.0)
        states = [random_state(np.random.default_rng(J), J)]
        kind = PRINTED if which == "printed" else StepperKind.COUPLED_IMPLICIT
        G, D = assemble(p, grid, kind)
        for _ in range(K):
            states.append(one_step(p, grid, states[-1], kind))
        weights = scheme.modal_trace_weights(p, grid)
        m = float(np.mean(states[0].T))
        tables = scheme.modal_trace_table(weights, m, step_powers(G, K), slice(None), D,
                                          np.empty(16 * (K + 1) * J),
                                          np.empty(15 * (K + 1) * J))
        sums = table_sums(tables, scheme._modes(states[0], m))
        tr = scheme.build_trace(weights, m, grid.dt * np.arange(K + 1), sums)
        rows = np.column_stack((tr.E, tr.diss_lhs, tr.diss_rhs, tr.heat, tr.C_T,
                                tr.lyapunov))
        dx = grid.dx
        lhs, rhs = np.array([dissipation_check(u, v, p, dx, grid.dt)
                             for u, v in zip(states, states[1:])]).T
        expected = np.array([
            [discrete_energy(s, p, dx) for s in states],
            [0.0, *lhs],
            [0.0, *rhs],
            [total_heat(s, dx) for s in states],
            [boundary_term(s, p, dx) for s in states],
            [lyapunov(s, p, dx)[1] for s in states]]).T
        scale = np.max(np.abs(expected), axis=0)
        # dissipation_check forms T^n - T^(n-1) from the rounded states,
        # which costs it about 1e-11 of these slow steps' changes
        tol = np.array([1e-13, 1e-11, 1e-13, 1e-13, 1e-13, 1e-13])
        assert np.all(np.max(np.abs(rows - expected), axis=0) <= tol * scale)


class TestChunkTable:
    @pytest.mark.parametrize("tau_q,mu2", [(8e-3, 2.8e-3), (0.0, 0.0)])
    @pytest.mark.parametrize("which", ["coupled", "printed"])
    def test_table_matches_matrix_powers(self, tau_q, mu2, which):
        J, K = 9, 40
        p, cfg, grid, ops = small_setup(J=J, tau_q=tau_q, mu2=mu2)
        G, _ = ops[which]
        full = step_powers(G, K)
        assert full.shape == (2, 2, K + 1, J)
        # entry 0 is I
        assert np.array_equal(full[:, :, 0], np.eye(2)[:, :, None].repeat(J, axis=2))
        table = full[:, :, 1:]
        eps = np.finfo(float).eps
        for m in range(J):
            for k in range(1, K + 1):
                # [i, j] is entry (i, j); each entry within the usual product
                # bound k eps (|G|^k)_ij
                got, want = table[:, :, k - 1, m], np.linalg.matrix_power(G[:, :, m], k)
                bound = np.linalg.matrix_power(np.abs(G[:, :, m]), k)
                assert np.all(np.abs(got - want) <= 4 * k * eps * bound), (m, k)

    def test_table_cut_at_first_non_finite_power(self):
        # the as-printed Fourier-limit step grows the top mode ~2000x per
        # step at this mesh, so its powers leave the float range near k = 93
        p, cfg, grid, ops = small_setup(J=49, tau_q=0.0, mu2=0.0)
        table = step_powers(ops["printed"][0], 200)[:, :, 1:]
        K = table.shape[2]
        assert 50 < K < 200
        assert np.all(np.isfinite(table))
        with np.errstate(over="ignore", invalid="ignore"):
            next_power = np.einsum("ijn,jkn->ikn", table[:, :, 0], table[:, :, K - 1])
        assert not np.all(np.isfinite(next_power))

    @pytest.mark.parametrize("kind", [StepperKind.COUPLED_IMPLICIT, PRINTED])
    def test_run_matches_single_steps(self, monkeypatch, kind):
        # one block of chunks of 4 levels, the budget's longest in a block
        # of 32 modes: boundaries after steps 4, 8, 12 and 16
        J = 9
        p, cfg, grid, ops = small_setup(J=J, t_final=18 * 1.2e-2)
        monkeypatch.setattr(scheme, "TRACE_CHUNK_ELEMENTS", 25 * 5 * 32 // 2)
        plan = scheme._plan(grid, strided_steps(grid, 1))
        assert (plan.K, plan.n, plan.M) == (4, J, 5)
        init = cosine_initial(grid, 15.0, 30.0)
        traj = run(p, cfg, init, kind=kind)
        states = [init]
        for _ in range(grid.N + 1):
            states.append(one_step(p, grid, states[-1], kind))
        assert traj.stored_steps == list(range(grid.N + 2))
        assert_levels_close(traj, [s.T for s in states],
                            [s.q_interior for s in states])


@pytest.mark.skipif(not EXTENDED, reason="longdouble is plain float64 here")
class TestExtendedPrecision:
    @pytest.mark.parametrize("J,steps", [(63, 2000), (499, 200)])
    def test_run_matches_longdouble_reference(self, ref_params, J, steps):
        cfg = SimulationConfig(dx=ref_params.l / (J + 1), dt=1.2e-2,
                               t_final=steps * 1.2e-2, T_b=15.0, T_f=30.0)
        grid = build_grid(ref_params, cfg)
        init = cosine_initial(grid, 15.0, 30.0)
        traj = run(ref_params, cfg, init)
        T_ref, q_ref = longdouble_coupled_run(ref_params, grid, init, steps)
        T, q = traj.T, traj.q[:, 1:-1]
        assert np.max(np.abs(T - T_ref)) <= 1e-14 * np.max(np.abs(T_ref))
        assert np.max(np.abs(q - q_ref)) <= 1e-14 * np.max(np.abs(q_ref))

    def test_run_matches_longdouble_reference_at_large_mu2(self, ref_params):
        # each step keeps at most about 1e-13 of a mode's flux here, so the
        # flux entry of G = I + D would cancel to a few digits in 1 + D_bb;
        # each level is held to its own size, as level 0's flux dwarfs the rest
        p = dataclasses.replace(ref_params, mu2=1e10)
        cfg = SimulationConfig(dx=2e-3, dt=1.2e-2, t_final=10 * 1.2e-2, T_b=15.0, T_f=30.0)
        grid = build_grid(p, cfg)
        init = random_state(np.random.default_rng(3), grid.J)
        traj = run(p, cfg, init)
        T_ref, q_ref = longdouble_coupled_run(p, grid, init, 10)
        for got, ref in ((traj.T, T_ref), (traj.q[:, 1:-1], q_ref)):
            gap = np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)
            assert np.all(gap <= 1e-14)


class TestRunMemory:
    def test_estimate_counts_trace_and_kept_states(self):
        p, cfg, grid, ops = small_setup(J=99, t_final=1000 * 1.2e-2)
        one = scheme.run_memory_bytes(grid, strided_steps(grid, grid.N + 1))
        longer = build_grid(p, dataclasses.replace(cfg, t_final=2000 * 1.2e-2))
        per_level = (scheme.run_memory_bytes(longer, strided_steps(longer, longer.N + 1))
                     - one) / 1000
        assert per_level == 8 * 11
        # over 4000 steps stride 1 keeps 2000 levels more than stride 2,
        # each of 2J+3 values (and 32 values' worth of Python objects),
        # rebuilt in place from the amplitudes written into them
        longest = build_grid(p, dataclasses.replace(cfg, t_final=4000 * 1.2e-2))
        all_levels, half = (scheme.run_memory_bytes(longest, strided_steps(longest, 1)),
                            scheme.run_memory_bytes(longest, strided_steps(longest, 2)))
        assert all_levels - half == 8 * 2000 * (2 * 99 + 3 + 32)

    # the fourth and fifth keep one state (stride N+1) of a fine mesh, and
    # every state of a short run on a finer one: there the blocks' phase,
    # operators and trace weights included, is the peak; the sixth, seventh
    # and last are levels-only runs (stride N+1, as forecast bounds sweep's
    # pairs, the last on sweep's reference mesh), each on its own tile; the
    # eighth keeps every 25th level of the finest benchmark mesh, where a
    # second copy of the kept levels would not fit under the estimate; the
    # ninth keeps every level of a levels-only run, where a mask of the kept
    # levels' finiteness would not fit either; the tenth is a case whose
    # blocks' phase is the largest of the estimate's three.  The ids'
    # energy_only marks the cases that were energy-only runs before
    # levels-only runs took their place
    @pytest.mark.parametrize("J,steps,stride,levels_only", [
        (499, 2500, 25, False), (63, 500, 1, False), (255, 1000, 1001, False),
        (7999, 2500, 2500, False), (9999, 5, 1, False),
        (7999, 2500, 2500, True), (499, 4000, 4000, True),
        (7999, 2500, 25, False), (9999, 250, 1, True), (19999, 10, 11, False),
        (499, 2500, 2500, True)], ids=[
        "499-2500-25", "63-500-1", "255-1000-1001", "7999-2500-2500", "9999-5-1",
        "7999-2500-2500-energy_only", "499-4000-4000-energy_only", "7999-2500-25",
        "9999-250-1-energy_only", "19999-10-11", "499-2500-2500-energy_only"])
    def test_estimate_bounds_traced_peak(self, tmp_path, J, steps, stride, levels_only):
        # everything run() and both writers allocate, traced, against the
        # estimate for the run's kind; the writers need the full trace, so
        # a levels-only run is traced alone.  The caches a fresh
        # process builds are cleared, so that each case traces them
        # whatever ran before it
        p, cfg, grid, ops = small_setup(J=J, t_final=steps * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        csvtext._tables.cache_clear()
        linalg._half_shift.cache_clear()
        tracemalloc.start()
        try:
            traj = run(p, cfg, init, keep=strided_steps(grid, stride),
                       levels_only=levels_only)
            if not levels_only:
                write_trace_csv(tmp_path / "trace.csv", traj.trace,
                                diagnostics.decay_constants(p),
                                diagnostics.supremum_boundary_term(traj.trace))
                write_profiles_csv(tmp_path / "profiles.csv", traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= scheme.run_memory_bytes(grid, strided_steps(grid, stride), levels_only)

    def test_fine_mesh_estimate_is_far_under_the_cap(self, ref_params, ref_config):
        # J = 7999, 2500 steps, every 25th level kept: 17.1 MB, mostly the
        # 101 kept levels; the traced peak is the run's, 16.9 MB with its
        # 1.7 MB workspace (the writers' is 15.3 MB)
        grid = build_grid(ref_params, dataclasses.replace(ref_config, dx=1.25e-5))
        need = scheme.run_memory_bytes(grid, strided_steps(grid, 25))
        assert 16.9e6 < need < 18.5e6
        assert scheme.MAX_RUN_BYTES >= 20 * need

    def test_run_refuses_before_assembling(self, monkeypatch):
        p, cfg, grid, ops = small_setup(J=99, t_final=100 * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        monkeypatch.setattr(scheme, "MAX_RUN_BYTES",
                            scheme.run_memory_bytes(grid, strided_steps(grid, 1)) - 1)

        def fail(*args):
            raise AssertionError("assembled past the memory check")

        monkeypatch.setattr(scheme, "assemble", fail)
        with pytest.raises(MeshTooLarge, match="MAX_RUN_BYTES"):
            run(p, cfg, init)
        with pytest.raises(AssertionError):
            run(p, cfg, init, keep=strided_steps(grid, 2))


def block_peak(params, grid, levels_only):
    """(workspace, block): the bytes traced while run's workspace for grid
    and the kind of run is allocated, and the peak traced by one block of
    the first modes on that workspace once it has served a block."""
    plan = scheme._plan(grid, strided_steps(grid, grid.N + 1), levels_only)
    n = plan.n
    G, D = (matrices[..., :n] for matrices in assemble(params, grid))
    weights = scheme.modal_trace_weights(params, grid)
    init = cosine_initial(grid, 15.0, 30.0)
    m = float(np.mean(init.T))
    x = scheme._modes(init, m)[:, :n]
    sums = None if levels_only else (np.zeros((grid.N + 2, 4)), np.zeros((grid.N + 2, 2)))
    kept = np.empty((1, 2, n))
    tracemalloc.start()
    try:
        work = scheme._Workspace(plan, levels_only)
        workspace = tracemalloc.get_traced_memory()[1]
        scheme._trace_block(G, D, weights, slice(0, n), m, x, plan, sums, kept, work)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        scheme._trace_block(G, D, weights, slice(0, n), m, x, plan, sums, kept, work)
        return workspace, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestBlockShape:
    # the benchmark meshes and a small one; the full trace's shape fixes
    # the order of its sums, and so the bytes of trace.csv
    MESHES = ["reference", "fine_mesh", "long_horizon", "small"]

    # seam_steps: either side of the full trace's first chunk (K) and group
    # (K M) and of the last step, those on the mesh
    @pytest.mark.parametrize("dx,t_final,full,levels_only,seams", [
        (2e-4, 30.0, (10, 238, 55), (10, 499, 55), [10, 11, 550, 551, 2499, 2500]),
        (1.25e-5, 30.0, (10, 238, 55), (10, 595, 55), [10, 11, 550, 551, 2499, 2500]),
        (1.5625e-3, 240.0, (28, 63, 145), (28, 63, 145), [28, 29, 4060, 4061, 19999, 20000]),
        (2e-3, 6.0, (10, 49, 50), (10, 49, 50), [10, 11, 499, 500])], ids=MESHES)
    def test_shapes(self, ref_params, ref_config, dx, t_final, full, levels_only, seams):
        grid = build_grid(ref_params, dataclasses.replace(ref_config, dx=dx,
                                                          t_final=t_final))
        keep = strided_steps(grid, 25)
        for plan, shape in ((scheme._plan(grid, keep), full),
                            (scheme._plan(grid, keep, levels_only=True), levels_only)):
            assert (plan.K, plan.n, plan.M) == shape
        assert scheme.seam_steps(grid).tolist() == seams

    # the id energy_only marks the levels-only run that took its place
    @pytest.mark.parametrize("levels_only", [False, True], ids=["full", "energy_only"])
    @pytest.mark.parametrize("dx,t_final", [(2e-4, 30.0), (1.25e-5, 30.0),
                                            (1.5625e-3, 240.0), (2e-3, 6.0)],
                             ids=MESHES)
    def test_block_reuses_its_workspace(
            self, ref_params, ref_config, dx, t_final, levels_only):
        # the workspace is the arrays _workspace_sizes counts; a block on it
        # takes no ufunc iterator buffer and allocates only a few small
        # arrays: 2,947-4,151 bytes measured, whatever the tile, against
        # 0.20-2.61 MB for the workspace itself (within the 1,024 values
        # run_memory_bytes counts beside it)
        grid = build_grid(ref_params, dataclasses.replace(ref_config, dx=dx,
                                                          t_final=t_final))
        plan = scheme._plan(grid, strided_steps(grid, grid.N + 1), levels_only)
        workspace, block = block_peak(ref_params, grid, levels_only)
        values = sum(scheme._workspace_sizes(plan, levels_only).values())
        assert 8 * values <= workspace <= 8 * values + 2048
        assert block <= 8 * 1024


class TestNonFinite:
    def test_unstable_as_printed_run_raises_at_first_bad_step(self):
        # the explicit correction blows up in the Fourier limit at this mesh
        p, cfg, grid, ops = small_setup(J=49, tau_q=0.0, mu2=0.0,
                                        t_final=200 * 1.2e-2)
        with pytest.raises(NonFiniteState, match=r"step \d+ produced"):
            run(p, cfg, cosine_initial(grid, 15.0, 30.0), kind=PRINTED)

    def test_first_bad_step_independent_of_chunk_budget(self, monkeypatch):
        # the energy of levels past ~1e154 overflows before the levels do;
        # either is caught, without a warning, at the same step for
        # one-mode blocks of one-level chunks, blocks of 32 modes (the last
        # ragged), the default's one block, and one block whose chunks of
        # 106 levels are cut where the table (k ~ 46) and the powers
        # (k ~ 92) overflow
        p, cfg, grid, ops = small_setup(J=49, tau_q=0.0, mu2=0.0,
                                        t_final=200 * 1.2e-2)
        messages, levels = [], []
        for budget in (1, 800, scheme.TRACE_CHUNK_ELEMENTS, None):
            if budget is None:
                monkeypatch.undo()
                fixed_tile(monkeypatch, 106, 49, 2)
            else:
                monkeypatch.setattr(scheme, "TRACE_CHUNK_ELEMENTS", budget)
            for found, levels_only in ((messages, False), (levels, True)):
                with pytest.raises(NonFiniteState, match=r"step \d+ produced") as err:
                    run(p, cfg, cosine_initial(grid, 15.0, 30.0), levels_only=levels_only,
                        kind=PRINTED)
                found.append(str(err.value))
        assert len(set(messages)) == 1
        # the levels alone, all of them kept, overflow no earlier than
        # their energy
        assert len(set(levels)) == 1
        step = re.compile(r"step (\d+)")
        assert int(step.search(levels[0])[1]) >= int(step.search(messages[0])[1])

    def test_overflowing_trace_weights_refused_unless_the_run_reads_e_alone(self):
        # F's weight (rho c/2) dx (dx^2/s^2 + mu2) overflows at J = 1 while
        # the step matrices and E's weights are finite: a levels-only run
        # is refused on E's weights alone, which forecast reads
        p, cfg, grid, ops = small_setup(J=1, mu2=1e305, t_final=10 * 1.2e-2)
        init = cosine_initial(grid, 15.0, 30.0)
        with pytest.raises(NonFiniteInput, match="trace weights overflow; mu2"):
            run(p, cfg, init)
        traj = run(p, cfg, init, levels_only=True)
        assert np.isfinite(traj.T).all() and np.isfinite(traj.q).all()

    def test_single_step_overflow(self):
        # this state's energy, 5.0e304, is finite; its high modes grow by
        # about c_T s_m^2 ~ 8000 in one as-printed step and overflow
        p, cfg, grid, ops = small_setup(J=99, tau_q=0.0, mu2=0.0)
        huge = State(T=np.where(np.arange(100) % 2, 1e150, -1e150), q=np.zeros(101))
        assert discrete_energy(huge, p, grid.dx) == pytest.approx(5.0e304, rel=1e-12)
        with pytest.raises(NonFiniteState, match="step 1 produced"):
            one_step(p, grid, huge, PRINTED)
