import dataclasses
import decimal
import math
import warnings

import numpy as np
import pytest

from gkheat import (State, build_grid, cosine_initial, decay_constants,
                    mode_decay_oracle, run)
from gkheat import checks, diagnostics, scheme
from gkheat.cli import write_trace_csv
from gkheat.checks import DISSIPATION_RTOL
from gkheat.diagnostics import EnergyTrace, sandwich_bounds
from gkheat.model import MaterialParams, SimulationConfig
from gkheat.scheme import build_trace, modal_trace_table, modal_trace_weights
from oracles import (boundary_term, discrete_energy, dissipation_check,
                     discrete_decay_rate, equilibrium_energy,
                     fit_energy_decay_rate, lyapunov,
                     semi_discrete_rate, table_sums, total_heat)


@pytest.fixture(scope="module")
def ref_grid(ref_params, ref_config):
    return build_grid(ref_params, ref_config)


def make_trace(t, E, C_T=None, heat=None, lyap=None):
    n = len(t)
    z = np.zeros(n)
    return EnergyTrace(t=np.asarray(t, float), E=np.asarray(E, float),
                       diss_lhs=z.copy(), diss_rhs=z.copy(),
                       heat=z.copy() if heat is None else np.asarray(heat, float),
                       C_T=z.copy() if C_T is None else np.asarray(C_T, float),
                       lyapunov=z.copy() if lyap is None else np.asarray(lyap, float))


class TestDiscreteEnergy:
    def test_zero_state(self, ref_params):
        s = State(T=np.zeros(500), q=np.zeros(501))
        assert discrete_energy(s, ref_params, 2e-4) == 0.0

    def test_uniform_closed_form(self, ref_params, ref_grid):
        # (rho c/2) * dx * (J+1) * T_b^2 = 100 * 500 * 225
        s = cosine_initial(ref_grid, T_b=15.0, T_f=0.0)
        assert discrete_energy(s, ref_params, ref_grid.dx) == pytest.approx(
            1.125e7, rel=1e-13)

    def test_reference_initial_energy(self, ref_params, ref_grid):
        # sum (15 + 15 cos)^2 = 500*225 + 450*1 + 225*250 exactly:
        # the cosine sample sum is 1 and the squared-cosine sum is 250
        s = cosine_initial(ref_grid, T_b=15.0, T_f=30.0)
        E0 = discrete_energy(s, ref_params, ref_grid.dx)
        assert E0 == pytest.approx(1.692e7, rel=1e-12)
        # within 0.3% of the continuum value (rho c/2) l (T_b^2 + T_f^2/8);
        # the 0.27% offset is the nonzero cosine sample sum
        assert abs(E0 / 1.6875e7 - 1.0) < 3e-3

    def test_flux_contribution(self, ref_params):
        q = np.zeros(6)
        q[1:-1] = 2.0
        s = State(T=np.zeros(5), q=q)
        expected = (ref_params.tau_q / ref_params.k) * (0.02 / 2.0) * 4 * 4.0
        assert discrete_energy(s, ref_params, 0.02) == pytest.approx(expected,
                                                                     rel=1e-14)


class TestTotalHeatAndBoundaryTerm:
    def test_zero(self, ref_params):
        s = State(T=np.zeros(10), q=np.zeros(11))
        assert total_heat(s, 0.01) == 0.0
        assert boundary_term(s, ref_params, 0.01) == 0.0

    def test_uniform_heat(self, ref_grid):
        s = cosine_initial(ref_grid, T_b=15.0, T_f=0.0)
        assert total_heat(s, ref_grid.dx) == pytest.approx(1.5, rel=1e-13)

    def test_uniform_boundary_term(self, ref_params, ref_grid):
        # (mu2*0 - k*T_0) * H = (-2000*15) * 1.5
        s = cosine_initial(ref_grid, T_b=15.0, T_f=0.0)
        assert boundary_term(s, ref_params, ref_grid.dx) == pytest.approx(
            -45000.0, rel=1e-12)

    def test_zero_mean_magnitude_bound(self, ref_params, ref_grid):
        s = cosine_initial(ref_grid, T_b=0.0, T_f=30.0)
        h = total_heat(s, ref_grid.dx)
        ct = boundary_term(s, ref_params, ref_grid.dx)
        qx0 = (s.q[1] - s.q[0]) / ref_grid.dx
        bound = abs(ref_params.mu2 * qx0 - ref_params.k * s.T[0]) * abs(h)
        assert abs(ct) <= bound * (1 + 1e-12)


class TestDecayConstants:
    def test_reference_values(self, ref_params):
        dc = decay_constants(ref_params)
        assert dc.beta == pytest.approx(4e-3, rel=1e-14)
        denom = 3 * 0.01 + 3 * 2.8e-3 + 2 * 8e-3 * 2e3 / 1e6
        assert dc.omega == pytest.approx(4e-3 / denom, rel=1e-13)
        assert dc.omega == pytest.approx(0.1041, rel=1e-3)
        assert dc.M == pytest.approx(denom / 0.0128, rel=1e-13)
        assert dc.M == pytest.approx(3.0025, rel=1e-4)
        assert dc.gamma0 == pytest.approx(78.125, rel=1e-13)
        assert dc.M1 == pytest.approx(2 * dc.gamma0 / dc.omega, rel=1e-13)

    def test_fourier_limit_forms(self):
        p = MaterialParams(rho=2e3, c=5e2, tau_q=0.0, mu2=0.0, k=2e3, l=0.1)
        dc = decay_constants(p)
        assert dc.beta == pytest.approx(2 * p.k / p.rho_c, rel=1e-14)
        assert dc.omega == pytest.approx(dc.beta / (3 * p.l**2), rel=1e-14)
        assert dc.M == pytest.approx(3.0, rel=1e-14)
        assert dc.gamma0 == pytest.approx(1 / p.l**2, rel=1e-14)

    def test_M_exceeds_one_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            rho, c, k, l = 10.0 ** rng.uniform(-3, 4, 4)
            tau_q, mu2 = rng.uniform(0, 10, 2)
            dc = decay_constants(MaterialParams(rho=rho, c=c, tau_q=tau_q,
                                                mu2=mu2, k=k, l=l))
            assert dc.M > 1.0
            assert dc.beta > 0.0 and dc.omega > 0.0 and dc.gamma0 > 0.0


class TestLyapunov:
    def test_zero_state(self, ref_params):
        s = State(T=np.zeros(10), q=np.zeros(11))
        assert lyapunov(s, ref_params, 0.01) == (0.0, 0.0)

    def test_uniform_closed_form(self, ref_params, ref_grid):
        # tail integral at node j is dx*(J+1-j)*T_b, so
        # F = (rho c/2) dx^3 T_b^2 sum_{r=1..J+1} r^2 + (rho c/2) mu2 l T_b^2
        s = cosine_initial(ref_grid, T_b=15.0, T_f=0.0)
        F, L = lyapunov(s, ref_params, ref_grid.dx)
        J = ref_grid.J
        sum_sq = (J + 1) * (J + 2) * (2 * J + 3) / 6.0
        rc = ref_params.rho_c
        expected_F = (rc / 2) * ref_grid.dx**3 * 225.0 * sum_sq \
            + (rc / 2) * ref_params.mu2 * ref_params.l * 225.0
        assert F == pytest.approx(expected_F, rel=1e-12)
        weight = 2 * 0.01 + 2 * 2.8e-3 + 8e-3 * 2e3 / 1e6
        E = discrete_energy(s, ref_params, ref_grid.dx)
        assert L == pytest.approx(weight * E + F, rel=1e-12)

    def test_sandwich_on_initial_states(self, ref_params, ref_grid):
        low, high = sandwich_bounds(ref_params)
        for s in (cosine_initial(ref_grid, 15.0, 30.0),
                  cosine_initial(ref_grid, 0.0, 30.0)):
            E = discrete_energy(s, ref_params, ref_grid.dx)
            _, L = lyapunov(s, ref_params, ref_grid.dx)
            assert low * E * 0.99 <= L <= high * E * 1.01


class TestDissipationCheck:
    def test_uniform_fixed_point(self, ref_params, ref_grid):
        s = cosine_initial(ref_grid, T_b=15.0, T_f=0.0)
        lhs, rhs = dissipation_check(s, s, ref_params, ref_grid.dx, 1.2e-2)
        assert lhs == 0.0 and rhs == 0.0

    def test_detects_corrupted_pair(self, ref_params, ref_grid):
        s = cosine_initial(ref_grid, T_b=15.0, T_f=0.0)
        hotter = State(T=s.T * 1.5, q=s.q)
        lhs, rhs = dissipation_check(s, hotter, ref_params, ref_grid.dx, 1.2e-2)
        assert lhs > rhs + DISSIPATION_RTOL * max(1.0, abs(lhs))


class TestModeDecayOracle:
    def test_fourier_rate(self):
        p = MaterialParams(rho=2e3, c=5e2, tau_q=0.0, mu2=0.0, k=2e3, l=0.1)
        slow, fast = mode_decay_oracle(p, 1)
        assert fast is None
        assert slow.real == pytest.approx(-(2e-3) * (np.pi / 0.1) ** 2, rel=1e-13)
        assert slow.real == pytest.approx(-1.9739, rel=1e-4)

    def test_reference_rates(self, ref_params):
        slow, fast = mode_decay_oracle(ref_params, 1)
        assert slow.real == pytest.approx(-0.525, rel=1e-3)
        assert fast.real == pytest.approx(-469.9, rel=1e-3)
        assert abs(slow.real) < abs(fast.real)

    def test_matches_eigenvalue_solver(self, ref_params):
        # independent route: numpy eigenvalues of the companion matrix
        for mode in (1, 2, 5):
            kappa = mode * np.pi / ref_params.l
            A = np.array(
                [[0.0, -kappa / ref_params.rho_c],
                 [ref_params.k * kappa / ref_params.tau_q,
                  -(1 + ref_params.mu2 * kappa**2) / ref_params.tau_q]])
            eig = sorted(np.linalg.eigvals(A), key=lambda z: abs(z.real))
            slow, fast = mode_decay_oracle(ref_params, mode)
            assert slow == pytest.approx(eig[0], rel=1e-12)
            assert fast == pytest.approx(eig[1], rel=1e-12)

    def test_determinant_identity(self, ref_params):
        # product of the rates equals k kappa^2/(rho c tau_q) exactly,
        # including in the underdamped (complex) regime
        for params, mode in ((ref_params, 1), (ref_params, 7),
                             (dataclasses.replace(ref_params, tau_q=1.0, mu2=0.0),
                              1)):
            slow, fast = mode_decay_oracle(params, mode)
            kappa = mode * math.pi / params.l
            det = params.k * kappa**2 / (params.rho_c * params.tau_q)
            assert slow * fast == pytest.approx(det, rel=1e-12)

    def test_complex_pair_is_conjugate(self, ref_params):
        p = dataclasses.replace(ref_params, tau_q=1.0, mu2=0.0)
        slow, fast = mode_decay_oracle(p, 1)
        assert slow.imag != 0.0
        assert slow == fast.conjugate()

    def test_rejects_nonpositive_mode(self, ref_params):
        with pytest.raises(ValueError):
            mode_decay_oracle(ref_params, 0)

    @pytest.mark.parametrize("tau_q,mu2", [
        pytest.param(1e-12, 2.8e-3, id="1e-12"), pytest.param(1e-15, 2.8e-3, id="1e-15"),
        pytest.param(8e-3, 1e160, id="mu2=1e160"), pytest.param(8e-3, 1e200, id="mu2=1e200"),
        pytest.param(8e-3, 1e300, id="mu2=1e300")])
    def test_far_apart_real_roots_keep_the_slow_one(self, ref_params, tau_q, mu2):
        # the roots (tr -/+ sqrt(tr^2 - 4 det))/2 are real and their ratio
        # is about 7e12, 7e15, 6e327, 6e407 and 6e607 here, so the slow one
        # must not come from tr + sqrt, and tr^2 is past the float range in
        # the last three; against the product form slow = det/fast evaluated
        # in 50 digits, with no absolute slack (the slow root is about
        # -k/(rho c mu2), 2e-163, 2e-203 and 2e-303, in the last three)
        p = dataclasses.replace(ref_params, tau_q=tau_q, mu2=mu2)
        kappa = decimal.Decimal(math.pi / p.l)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            tau, k2 = decimal.Decimal(tau_q), kappa * kappa
            tr = -(1 + decimal.Decimal(p.mu2) * k2) / tau
            det = decimal.Decimal(p.k) * k2 / (decimal.Decimal(p.rho_c) * tau)
            fast = (tr - (tr * tr - 4 * det).sqrt()) / 2
            expected = float(det / fast)
        slow, _ = mode_decay_oracle(p, 1)
        assert slow.imag == 0.0
        assert slow.real == pytest.approx(expected, rel=1e-12, abs=0.0)


def mode_one(params, dx, dt):
    """scheme.assemble's mode-1 G and D on a one-step mesh, and its grid."""
    grid = build_grid(params, SimulationConfig(dx=dx, dt=dt, t_final=dt, T_b=0.0, T_f=0.0))
    G, D = scheme.assemble(params, grid)
    return G[..., 0], D[..., 0], grid


class TestStepDecayRate:
    def test_eigenvalues_match_the_eigenvalue_solver(self):
        rng = np.random.default_rng(11)
        for A in rng.normal(size=(200, 2, 2)) * 10.0 ** rng.uniform(-5, 5, (200, 1, 1)):
            big, small = diagnostics.eigenvalues_2x2(A)
            eig = np.linalg.eigvals(A)
            assert abs(big) == pytest.approx(max(abs(eig)), rel=1e-12)
            assert abs(big) >= abs(small) * (1.0 - 1e-15)  # equal for a pair
            # each against the nearer of numpy's, a conjugate pair in either order
            for z in (big, small):
                assert z == pytest.approx(min(eig, key=lambda w: abs(w - z)),
                                          rel=1e-9, abs=1e-12 * abs(big))

    def test_far_apart_and_tiny_entries(self):
        # the off-diagonal product 1e-400 and tr^2 1e-340 underflow as written
        A = np.array([[-1e-170, -1e-200], [1e-200, -1e-175]])
        big, small = diagnostics.eigenvalues_2x2(A)
        assert big == pytest.approx(-1e-170, rel=1e-12)
        assert small == pytest.approx(-1e-175 - 1e-230 / 1e-170, rel=1e-12)
        assert diagnostics.eigenvalues_2x2(np.zeros((2, 2))) == (0j, 0j)

    @pytest.mark.parametrize("dx", [2e-4, 1.5625e-3, 1.25e-5, 2e-3],
                             ids=["reference", "long_horizon", "fine_mesh", "coarse"])
    def test_matches_the_eigenvalues_of_G(self, ref_params, dx):
        # the generator's rate read from G and D at dt = 1.2e-2 against
        # numpy's eigenvalues of the generator formed without them, with
        # and without relaxation: 7.7e-14 apart at most (coarse)
        for p in (ref_params, dataclasses.replace(ref_params, tau_q=0.0, mu2=0.0)):
            G, D, grid = mode_one(p, dx, 1.2e-2)
            assert diagnostics.generator_decay_rate(G, D, grid.dt) == pytest.approx(
                semi_discrete_rate(p, grid), rel=1e-12)

    def test_branch_where_a_step_nearly_annihilates_the_mode(self, ref_params):
        # dt = 30 and tau_q = 0: G_1's eigenvalues are 0 and about 0.017, so
        # D's small root is about -0.98
        p = dataclasses.replace(ref_params, tau_q=0.0, mu2=0.0)
        G, D, grid = mode_one(p, 2e-3, 30.0)
        assert abs(diagnostics.eigenvalues_2x2(D)[1]) > 0.5
        assert diagnostics.generator_decay_rate(G, D, grid.dt) == pytest.approx(
            semi_discrete_rate(p, grid), rel=1e-12)

    def test_rho_near_one_keeps_its_digits(self, ref_params):
        # at k = 1e-9 and dt/8, rho(G_1) = 1 - 3.9e-16: numpy's eigenvalues
        # of G read a rate 15% low, and those of the generator (the oracle
        # semi_discrete_rate) 13% low; mu alone keeps it 8.7e-7 below the
        # continuum rate, the mesh's own error
        p = dataclasses.replace(ref_params, k=1e-9)
        G, D, grid = mode_one(p, 2e-4, 1.2e-2 / 8)
        slow, _ = mode_decay_oracle(p, 1)
        assert diagnostics.generator_decay_rate(G, D, grid.dt) == pytest.approx(
            2.0 * abs(slow.real), rel=1e-5)

    def test_wide_draw_gives_finite_rates_without_warnings(self):
        # factors up to 10^+-100 around the defaults and dt up to 30 s: the
        # generator's rate read from the step at the drawn dt, as
        # mode_rate_fit reads it
        rng = np.random.default_rng(20261)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(150):
                J = int(rng.integers(3, 123))
                p = MaterialParams(**{name: value * 10.0 ** rng.uniform(-100, 100)
                                      for name, value in (("rho", 2e3), ("c", 5e2),
                                                          ("tau_q", 8e-3), ("mu2", 2.8e-3),
                                                          ("k", 2e3))}, l=0.1)
                dt = 30.0 * 10.0 ** -rng.uniform(0, 100)
                G, D, grid = mode_one(p, 0.1 / (J + 1), dt)
                config = SimulationConfig(dx=grid.dx, dt=dt, t_final=dt, T_b=0.0, T_f=0.0)
                r_d = checks.discrete_mode_rate(p, config)
                assert r_d == diagnostics.generator_decay_rate(G, D, dt), p
                assert math.isfinite(r_d), p


class TestStepRateAndEnergyGain:
    def test_step_rate_where_a_step_nearly_annihilates_the_mode(self, ref_params):
        # dt = 30 and tau_q = 0: |mu| is about 0.98, and the rate comes from g
        p = dataclasses.replace(ref_params, tau_q=0.0, mu2=0.0)
        G, D, grid = mode_one(p, 2e-3, 30.0)
        assert abs(diagnostics.eigenvalues_2x2(D)[1]) > 0.5
        assert diagnostics.step_decay_rate(G, D, grid.dt) == pytest.approx(
            discrete_decay_rate(p, grid), rel=1e-12)

    def test_step_rate_near_one_keeps_its_digits(self, ref_params):
        # rho(G_1) = 1 - 3.9e-16 at k = 1e-9 and dt/8 (numpy's eigenvalues
        # read the rate 15% low): within the mesh's 8.7e-7 of the continuum
        p = dataclasses.replace(ref_params, k=1e-9)
        G, D, grid = mode_one(p, 2e-4, 1.2e-2 / 8)
        slow, _ = mode_decay_oracle(p, 1)
        assert diagnostics.step_decay_rate(G, D, grid.dt) == pytest.approx(
            2.0 * abs(slow.real), rel=1e-5)

    def test_energy_gain_is_the_squared_weighted_norm(self):
        # against numpy's 2-norm of W^(1/2) G W^(-1/2), per mode
        rng = np.random.default_rng(3)
        for _ in range(50):
            G = rng.normal(size=(2, 2, 7)) * 10.0 ** rng.uniform(-3, 3)
            w_T, w_q = 10.0 ** rng.uniform(-20, 20, 2)
            root = np.sqrt([w_T, w_q])
            norms = [np.linalg.norm(root[:, None] * G[..., m] / root, 2) for m in range(7)]
            assert diagnostics.energy_norm_sq(G, w_T, w_q) == pytest.approx(
                max(norms) ** 2, rel=1e-12)

    def test_energy_gain_keeps_its_digits_where_the_singular_values_meet(self):
        # H = c R(theta), a scaled rotation, has two singular values c: the
        # gain reads c^2 to rounding, where the form with
        # sqrt(|H|_F^2 - 2|det H|) reads it 1.5e-8 high
        c, theta, w_T, w_q = 1.0 - 1e-12, 1.3, 5e5, 2e-9
        H = c * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        G = (H * np.sqrt([[1.0, w_q / w_T], [w_T / w_q, 1.0]]))[..., None]
        assert diagnostics.energy_norm_sq(G, w_T, w_q) == pytest.approx(c * c, rel=4e-16)

    def test_energy_gain_without_flux_weight(self):
        # tau_q = 0: the flux carries no energy, and a step that reads no
        # flux (G_ab = 0) has gain max G_aa^2; one that does is unbounded
        G = np.array([[[0.5, -0.9], [0.0, 0.0]], [[3.0, 1.0], [0.0, 0.0]]])
        assert diagnostics.energy_norm_sq(G, 1.0, 0.0) == pytest.approx(0.81, rel=1e-15)
        G[0, 1, 0] = 1e-300
        assert diagnostics.energy_norm_sq(G, 1.0, 0.0) == math.inf


def written_z(path, params, t, E, C_T):
    """The Z column write_trace_csv writes for energies E and boundary
    terms C_T at times t, from params' decay constants and sup|C_T|."""
    C_T = np.broadcast_to(np.asarray(C_T, float), len(t))
    trace = make_trace(t, E, C_T=C_T)
    write_trace_csv(path, trace, decay_constants(params),
                    diagnostics.supremum_boundary_term(trace))
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, -1]


class TestEnvelopeAndZ:
    def test_z_at_t0(self, tmp_path, ref_params):
        dc = decay_constants(ref_params)
        z = written_z(tmp_path / "trace.csv", ref_params, [0.0, 1.0], [4.0, 3.0],
                      [2.0, -5.0])
        assert z[0] == pytest.approx(1.0 + dc.M1 * 5.0 / (dc.M * 4.0), rel=1e-13)
        assert z[1] > z[0]  # monotone since omega > 0

    def test_z_is_one_when_boundary_term_vanishes(self, tmp_path, ref_params):
        z = written_z(tmp_path / "trace.csv", ref_params, [0.0, 1.0, 2.0],
                      [4.0, 3.0, 2.0], 0.0)
        np.testing.assert_array_equal(z, np.ones(3))

    def test_envelope_zero_trajectory(self, ref_params):
        res = checks.decay_envelope(make_trace([0.0, 1.0], [0.0, 0.0]), ref_params)
        assert res.ok

    def test_envelope_flags_violation(self, ref_params):
        dc = decay_constants(ref_params)
        # energy that grows above M*E0 must be caught by the pure bound
        trace = make_trace([0.0, 1.0], [1.0, 2.0 * dc.M])
        res = checks.decay_envelope(trace, ref_params)
        assert not res.ok and res.value > res.bound


class TestRateFit:
    def test_recovers_synthetic_rate(self, ref_params):
        t = np.linspace(0.0, 6.0, 400)
        rate = 1.05
        trace = make_trace(t, 5e6 * np.exp(-rate * t))
        fitted = fit_energy_decay_rate(trace, ref_params)
        assert fitted == pytest.approx(rate, rel=1e-10)

    def test_equilibrium_floor_is_subtracted(self, ref_params):
        t = np.linspace(0.0, 6.0, 400)
        heat = np.full_like(t, 1.5e-2)
        e_eq = equilibrium_energy(ref_params, 1.5e-2)
        trace = make_trace(t, e_eq + 3e5 * np.exp(-0.9 * t), heat=heat)
        assert fit_energy_decay_rate(trace, ref_params) == pytest.approx(
            0.9, rel=1e-9)

    def test_rejects_empty_window(self, ref_params):
        trace = make_trace([0.0, 10.0], [1.0, 0.5])
        with pytest.raises(ValueError, match="fewer than 2 usable points"):
            fit_energy_decay_rate(trace, ref_params)


class TestTraceChecksOnShortRun:
    def test_short_reference_run_properties(self, ref_params):
        cfg = SimulationConfig(dx=1e-3, dt=1.2e-2, t_final=1.2, T_b=15.0,
                               T_f=30.0)
        grid = build_grid(ref_params, cfg)
        traj = run(ref_params, cfg, cosine_initial(grid, 15.0, 30.0),
                   keep=[grid.N + 1])
        trace = traj.trace
        assert np.all(np.diff(trace.E) <= 1e-12 * trace.E[0])
        assert checks.lyapunov_sandwich(trace, ref_params).ok
        assert checks.decay_envelope(trace, ref_params).ok
        slack = 1e-12 * np.maximum(1.0, np.abs(trace.diss_lhs[1:]))
        assert np.all(trace.diss_lhs[1:] <= trace.diss_rhs[1:] + slack)
        assert np.all(np.abs(trace.heat - trace.heat[0])
                      <= 1e-12 * abs(trace.heat[0]))

    @pytest.mark.parametrize("T_b", [15.0, 0.0])
    def test_split_trace_matches_state_functions(self, ref_params, T_b):
        # the modal trace on the m + e split against the state-level
        # formulas evaluated on the stored states T = m + e
        cfg = SimulationConfig(dx=2e-3, dt=1.2e-2, t_final=0.6, T_b=T_b,
                               T_f=30.0)
        grid = build_grid(ref_params, cfg)
        traj = run(ref_params, cfg, cosine_initial(grid, T_b, 30.0))
        trace, dx = traj.trace, grid.dx
        assert traj.stored_steps == list(range(grid.N + 2))
        # lyapunov() returns (F, L); L = weight*E + F carries F
        states = [State(T=T, q=q) for T, q in zip(traj.T, traj.q)]
        by_state = np.array([
            (discrete_energy(s, ref_params, dx), total_heat(s, dx),
             boundary_term(s, ref_params, dx), lyapunov(s, ref_params, dx)[1])
            for s in states])
        for col, got in enumerate((trace.E, trace.heat, trace.C_T,
                                   trace.lyapunov)):
            ref = by_state[:, col]
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), col
        lhs, rhs = np.array([dissipation_check(a, b, ref_params, dx, grid.dt)
                             for a, b in zip(states, states[1:])]).T
        np.testing.assert_allclose(trace.diss_rhs[1:], rhs, rtol=1e-13)
        assert np.max(np.abs(trace.diss_lhs[1:] - lhs)) <= 1e-12 * np.max(np.abs(lhs))

    @pytest.mark.parametrize("J", [1, 49])
    def test_modal_trace_table_matches_per_level_loop(self, ref_params, J):
        # the table's rows for the levels G^k x, k = 0..20, of one base
        # level x, against one level at a time with plain dot products on
        # the physical e and q, from dense cosine/sine matrices
        cfg = SimulationConfig(dx=0.1 / (J + 1), dt=1.2e-2, t_final=0.24,
                               T_b=15.0, T_f=30.0)
        grid = build_grid(ref_params, cfg)
        init = cosine_initial(grid, 15.0, 30.0)
        p, n, K = ref_params, J + 1, grid.N + 1
        # the loop runs in longdouble (where available) so that its own
        # rounding, e.g. in the 2m sum(e' - e) term, stays below the check's
        # tolerance
        ld = np.longdouble
        modes = np.arange(1, n)
        # exact angle indices keep the dense matrices accurate
        cosine = np.sqrt(ld(2) / n) * np.cos(
            ld(np.pi) * (np.outer(2 * np.arange(n) + 1, modes) % (4 * n)) / (2 * n))
        sine = np.sqrt(ld(2) / n) * np.sin(ld(np.pi) * (np.outer(modes, modes) % (2 * n)) / n)
        m = float(np.mean(init.T))
        base = np.stack(((init.T - m) @ cosine, init.q_interior @ sine)).astype(float)
        G, D = scheme.assemble(p, grid)
        powers = scheme._power_table(G, K, np.empty((2, 2, K + 1, J)), np.empty(5 * (K + 1) * J))
        # levels as the table sees them, and their step increments D x from
        # assemble's D, formed apart from the table's
        x = np.einsum("ijkn,jn->kin", powers, base).astype(ld)
        d = np.zeros_like(x)
        d[1:] = np.einsum("irn,krn->kin", D.astype(ld), x[:-1])
        m = ld(m)
        e, q = x[:, 0] @ cosine.T, x[:, 1] @ sine.T
        de, dq = d[:, 0] @ cosine.T, d[:, 1] @ sine.T
        dx, dt, k, mu2, tau_q, rc = (ld(v) for v in (grid.dx, grid.dt, p.k, p.mu2,
                                                     p.tau_q, p.rho_c))
        w_T, w_q = rc * dx / 2, (tau_q / k) * (dx / 2)
        expected = []
        for i in range(len(e)):
            en, qn = e[i], q[i]
            lhs = rhs = ld(0)
            if i:
                lhs = (w_T * np.sum(de[i] * (2 * m + 2 * en - de[i]))
                       + w_q * np.sum(dq[i] * (2 * qn - dq[i]))) / dt
                grad = np.diff(np.concatenate(([ld(0)], qn, [ld(0)]))) / dx
                rhs = -(dx / k) * (qn @ qn) - (mu2 / k) * dx * (grad @ grad)
            T = m + en
            E = w_T * (T @ T) + w_q * (qn @ qn)
            heat = dx * np.sum(T)
            tail = dx * np.cumsum(T[::-1])[::-1]
            F = (rc / 2) * dx * (tail @ tail + mu2 * (T @ T)) + tau_q * dx * (tail[1:] @ qn)
            w_L = 2 * ld(p.l)**2 + 2 * mu2 + tau_q * k / rc
            expected.append((E, lhs, rhs, heat,
                             (mu2 * qn[0] / dx - k * T[0]) * heat, w_L * E + F))
        expected = np.array(expected, dtype=float)
        weights = modal_trace_weights(p, grid)
        tables = modal_trace_table(weights, float(m), powers, slice(None), D,
                                   np.empty(16 * (K + 1) * J),
                                   np.empty(15 * (K + 1) * J))
        assert [t.shape for t in tables] == [(K + 1, 4, 3, J), (K + 1, 2, 2, J)]
        tr = build_trace(weights, float(m), grid.t, table_sums(tables, base))
        got = np.column_stack((tr.E, tr.diss_lhs, tr.diss_rhs, tr.heat, tr.C_T,
                               tr.lyapunov))
        assert got.shape == expected.shape
        scale = np.maximum(np.max(np.abs(expected), axis=0), 1e-300)
        assert np.all(np.max(np.abs(got - expected), axis=0) <= 1e-13 * scale)

    def test_equilibrium_energy_helper(self, ref_params):
        assert equilibrium_energy(ref_params, 1.5) == pytest.approx(
            0.5 * 1e6 * 2.25 / 0.1, rel=1e-14)
