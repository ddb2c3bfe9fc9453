import dataclasses

import numpy as np
import pytest

from gkheat import (GridMismatch, MeshTooLarge, NonDivisibleMesh, State,
                    build_grid, cosine_initial)
from gkheat import discretization
from gkheat.model import MaterialParams, SimulationConfig
from oracles import one_step, pointwise_residual, residual_scales


class TestBuildGrid:
    def test_reference_mesh(self, ref_params, ref_config):
        grid = build_grid(ref_params, ref_config)
        assert grid.J == 499          # 500 temperature nodes, 501 flux nodes
        assert grid.N == 2499
        assert grid.x.size == 501
        assert grid.t.size == 2501
        assert grid.x[0] == 0.0
        assert grid.x[-1] == pytest.approx(ref_params.l, rel=1e-12)
        assert grid.t[-1] == pytest.approx(ref_config.t_final, rel=1e-12)

    def test_minimal_mesh(self):
        p = MaterialParams(rho=1.0, c=1.0, tau_q=0.0, mu2=0.0, k=1.0, l=1.0)
        cfg = SimulationConfig(dx=0.5, dt=1.0, t_final=1.0, T_b=0.0, T_f=1.0)
        assert build_grid(p, cfg).J == 1

    def test_non_divisible_space(self):
        p = MaterialParams(rho=1.0, c=1.0, tau_q=0.0, mu2=0.0, k=1.0, l=1.0)
        cfg = SimulationConfig(dx=0.3, dt=1.0, t_final=1.0, T_b=0.0, T_f=1.0)
        with pytest.raises(NonDivisibleMesh):
            build_grid(p, cfg)

    def test_non_divisible_time(self, ref_params):
        cfg = SimulationConfig(dx=2e-4, dt=0.7, t_final=30.0, T_b=0.0, T_f=1.0)
        with pytest.raises(NonDivisibleMesh):
            build_grid(ref_params, cfg)

    def test_single_node_mesh_rejected(self):
        p = MaterialParams(rho=1.0, c=1.0, tau_q=0.0, mu2=0.0, k=1.0, l=1.0)
        cfg = SimulationConfig(dx=1.0, dt=1.0, t_final=1.0, T_b=0.0, T_f=1.0)
        with pytest.raises(NonDivisibleMesh):
            build_grid(p, cfg)

    @pytest.mark.parametrize("field", ["dx", "t_final"])
    def test_mesh_size_cap(self, monkeypatch, field):
        # J+2 nodes and N+2 levels may reach the cap, not pass it
        monkeypatch.setattr(discretization, "MAX_MESH_POINTS", 12)
        p = MaterialParams(rho=1.0, c=1.0, tau_q=0.0, mu2=0.0, k=1.0, l=1.0)
        at_cap = {"dx": 1.0 / 11, "t_final": 11.0}[field]
        over = {"dx": 1.0 / 12, "t_final": 12.0}[field]
        cfg = SimulationConfig(dx=0.5, dt=1.0, t_final=1.0, T_b=0.0, T_f=1.0)
        grid = build_grid(p, dataclasses.replace(cfg, **{field: at_cap}))
        assert max(grid.x.size, grid.t.size) == 12
        with pytest.raises(MeshTooLarge):
            build_grid(p, dataclasses.replace(cfg, **{field: over}))

    @pytest.mark.parametrize("field,value", [("t_final", 1e300), ("dx", 1e-300),
                                             ("t_final", 1e308)])
    def test_huge_mesh_rejected_before_allocation(self, field, value):
        # 1e308 / 1e-3 overflows the step count to inf
        p = MaterialParams(rho=1.0, c=1.0, tau_q=0.0, mu2=0.0, k=1.0, l=1.0)
        cfg = SimulationConfig(dx=0.5, dt=1e-3, t_final=1.0, T_b=0.0, T_f=1.0)
        with pytest.raises(MeshTooLarge):
            build_grid(p, dataclasses.replace(cfg, **{field: value}))


class TestState:
    def test_boundary_flux_must_vanish(self):
        with pytest.raises(ValueError):
            State(T=np.zeros(3), q=np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            State(T=np.zeros(3), q=np.array([0.0, 0.0, 0.0, 1e-300]))

    def test_sizes_checked(self):
        with pytest.raises(GridMismatch):
            State(T=np.zeros(3), q=np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            State(T=np.array([0.0, np.inf]), q=np.zeros(3))

    def test_arrays_are_copied(self):
        T = np.zeros(3)
        s = State(T=T, q=np.zeros(4))
        T[0] = 99.0
        assert s.T[0] == 0.0


class TestInitialData:
    def test_case_one_endpoints(self, ref_params, ref_config):
        grid = build_grid(ref_params, ref_config)
        s = cosine_initial(grid, T_b=15.0, T_f=30.0)
        assert s.T[0] == pytest.approx(30.0, rel=1e-14)     # T_b + T_f/2 at x=0
        # last temperature node sits at l - dx, one step short of cos(pi) = -1
        expected_last = 15.0 + 15.0 * np.cos(np.pi * (grid.J * grid.dx) / ref_params.l)
        assert s.T[-1] == pytest.approx(expected_last, rel=1e-12)
        assert expected_last == pytest.approx(0.0, abs=1e-2)
        assert np.all(s.q == 0.0)

    def test_zero_fluctuation_is_uniform(self, ref_params, ref_config):
        grid = build_grid(ref_params, ref_config)
        s = cosine_initial(grid, T_b=7.5, T_f=0.0)
        assert np.all(s.T == 7.5)

    def test_cosine_sample_sum_is_exactly_one(self, ref_params, ref_config):
        # geometric-sum identity: sum_{j=0..J} cos(pi j/(J+1)) = 1, hence the
        # discrete heat of the zero-mean profile is dx*T_f/2, not zero
        grid = build_grid(ref_params, ref_config)
        s = cosine_initial(grid, T_b=0.0, T_f=30.0)
        direct = grid.dx * float(np.sum(s.T))
        assert float(np.sum(np.cos(np.pi * np.arange(500) / 500))) == pytest.approx(
            1.0, abs=1e-11)
        assert direct == pytest.approx(grid.dx * 15.0, rel=1e-10)

    def test_continuous_mean_vanishes(self, ref_params, ref_config):
        # analytic integral of cos(pi x/l) over [0, l] is zero; the trapezoid
        # quadrature (which sees both endpoints) reproduces that to O(dx^2)
        grid = build_grid(ref_params, ref_config)
        s = cosine_initial(grid, T_b=0.0, T_f=30.0)
        full = np.append(s.T, 0.0 + 15.0 * np.cos(np.pi))  # profile at x = l
        assert np.trapezoid(full, dx=grid.dx) == pytest.approx(0.0, abs=1e-12)


def _params_cfg_small():
    p = MaterialParams(rho=2e3, c=5e2, tau_q=8e-3, mu2=2.8e-3, k=2e3, l=0.1)
    cfg = SimulationConfig(dx=1e-2, dt=1.2e-2, t_final=1.2e-1, T_b=15.0, T_f=30.0)
    return p, cfg


class TestPointwiseResidual:
    def test_uniform_fixed_point(self):
        p, cfg = _params_cfg_small()
        grid = build_grid(p, cfg)
        s = cosine_initial(grid, T_b=15.0, T_f=0.0)
        r1, r2 = pointwise_residual(p, grid, s, s)
        assert np.all(r1 == 0.0)
        assert np.all(r2 == 0.0)
        assert r1.size == grid.J + 1 and r2.size == grid.J

    def test_coupled_step_annihilates_residual(self):
        p, cfg = _params_cfg_small()
        grid = build_grid(p, cfg)
        prev = cosine_initial(grid, 15.0, 30.0)
        next_ = one_step(p, grid, prev)
        r1, r2 = pointwise_residual(p, grid, prev, next_)
        s1, s2 = residual_scales(p, grid.dt, prev, next_)
        assert np.max(np.abs(r1)) <= 1e-9 * s1
        assert np.max(np.abs(r2)) <= 1e-9 * s2

    def test_linearity(self):
        p, cfg = _params_cfg_small()
        grid = build_grid(p, cfg)
        rng = np.random.default_rng(3)

        def rand_state():
            q = np.zeros(grid.J + 2)
            q[1:-1] = rng.normal(size=grid.J)
            return State(T=rng.normal(size=grid.J + 1), q=q)

        pa, na = rand_state(), rand_state()
        pb, nb = rand_state(), rand_state()
        a, b = 1.7, -0.3
        combo_prev = State(T=a * pa.T + b * pb.T, q=a * pa.q + b * pb.q)
        combo_next = State(T=a * na.T + b * nb.T, q=a * na.q + b * nb.q)
        r1c, r2c = pointwise_residual(p, grid, combo_prev, combo_next)
        r1a, r2a = pointwise_residual(p, grid, pa, na)
        r1b, r2b = pointwise_residual(p, grid, pb, nb)
        np.testing.assert_allclose(r1c, a * r1a + b * r1b, rtol=1e-12, atol=1e-6)
        np.testing.assert_allclose(r2c, a * r2a + b * r2b, rtol=1e-12, atol=1e-9)

    def test_single_entry_perturbation_gain(self):
        # residual response to one flux entry is the diagonal stencil weight;
        # on a zero background this is exact
        p, cfg = _params_cfg_small()
        grid = build_grid(p, cfg)
        delta = 0.125
        j = grid.J // 2
        gain = p.tau_q / grid.dt + 1.0 + 2.0 * p.mu2 / grid.dx**2
        zero = State(T=np.zeros(grid.J + 1), q=np.zeros(grid.J + 2))
        q = np.zeros(grid.J + 2)
        q[j] = delta
        _, r2 = pointwise_residual(p, grid, zero, State(T=zero.T, q=q))
        assert r2[j - 1] == pytest.approx(gain * delta, rel=1e-15)
        assert r2[j] == pytest.approx(-p.mu2 / grid.dx**2 * delta, rel=1e-15)
        assert r2[j - 2] == pytest.approx(-p.mu2 / grid.dx**2 * delta, rel=1e-15)

    def test_single_entry_perturbation_gain_on_step_background(self):
        # same response on a realistic pair; tolerance set by cancellation
        # against the k*dT/dx residual terms
        p, cfg = _params_cfg_small()
        grid = build_grid(p, cfg)
        prev = cosine_initial(grid, 15.0, 30.0)
        base = one_step(p, grid, prev)
        delta = 0.125
        j = grid.J // 2
        q = base.q.copy()
        q[j] += delta
        bumped = State(T=base.T, q=q)
        _, r2_base = pointwise_residual(p, grid, prev, base)
        _, r2_bump = pointwise_residual(p, grid, prev, bumped)
        gain = p.tau_q / grid.dt + 1.0 + 2.0 * p.mu2 / grid.dx**2
        assert r2_bump[j - 1] - r2_base[j - 1] == pytest.approx(gain * delta,
                                                                rel=1e-9)

    def test_grid_mismatch(self):
        p, cfg = _params_cfg_small()
        grid = build_grid(p, cfg)
        small = State(T=np.zeros(3), q=np.zeros(4))
        with pytest.raises(GridMismatch):
            pointwise_residual(p, grid, small, small)
