import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkheat import (MaterialParams, NonPositiveCoefficient, OnsagerCoefficients,
                    SimulationConfig, StepperKind, gk_to_onsager, onsager_to_gk)


class TestMaterialParams:
    def test_reference_values_valid(self, ref_params):
        assert ref_params.rho_c == 1e6

    def test_fourier_limit_admitted(self):
        p = MaterialParams(rho=2e3, c=5e2, tau_q=0.0, mu2=0.0, k=2e3, l=0.1)
        assert p.is_fourier

    def test_zero_conductivity_rejected(self):
        with pytest.raises(NonPositiveCoefficient) as exc:
            MaterialParams(rho=2e3, c=5e2, tau_q=8e-3, mu2=2.8e-3, k=0.0, l=0.1)
        assert exc.value.name == "k"

    @pytest.mark.parametrize("field,bad", [
        ("rho", 0.0), ("rho", -1.0), ("c", 0.0), ("k", -2.0), ("l", 0.0),
        ("tau_q", -1e-9), ("mu2", -1.0), ("k", float("nan")),
    ])
    def test_sign_violations(self, ref_params, field, bad):
        with pytest.raises(NonPositiveCoefficient) as exc:
            dataclasses.replace(ref_params, **{field: bad})
        assert exc.value.name == field

    def test_first_violation_reported_in_field_order(self):
        # both rho and k are bad; rho comes first
        with pytest.raises(NonPositiveCoefficient) as exc:
            MaterialParams(rho=-1.0, c=5e2, tau_q=8e-3, mu2=0.0, k=-1.0, l=0.1)
        assert exc.value.name == "rho"


class TestOnsagerMapping:
    def test_zeros_propagate(self):
        o = OnsagerCoefficients(l1=0.0, l2=1.0, m=0.0, T_ref=1.0)
        assert onsager_to_gk(o, rho=1.0) == (0.0, 1.0, 0.0)

    def test_direct_evaluation(self):
        o = OnsagerCoefficients(l1=2.0, l2=4.0, m=8.0, T_ref=2.0)
        tau_q, k, mu2 = onsager_to_gk(o, rho=1.0)
        assert tau_q == pytest.approx(2.0, rel=1e-15)
        assert k == pytest.approx(1.0 / 16.0, rel=1e-15)
        assert mu2 == pytest.approx(0.5, rel=1e-15)

    def test_inverse_evaluation(self):
        o = gk_to_onsager(tau_q=2.0, k=1.0 / 16.0, mu2=0.5, rho=1.0, T_ref=2.0)
        assert (o.l1, o.l2, o.m) == pytest.approx((2.0, 4.0, 8.0), rel=1e-15)

    def test_trivial_inverse(self):
        o = gk_to_onsager(tau_q=0.0, k=1.0, mu2=0.0, rho=1.0, T_ref=1.0)
        assert (o.l1, o.l2, o.m) == (0.0, 1.0, 0.0)

    def test_round_trip_1000_randomized(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            l1, l2, m, T_ref, rho = 10.0 ** rng.uniform(-6, 6, size=5)
            o = OnsagerCoefficients(l1=l1, l2=l2, m=m, T_ref=T_ref)
            tau_q, k, mu2 = onsager_to_gk(o, rho)
            back = gk_to_onsager(tau_q, k, mu2, rho, T_ref)
            for got, want in ((back.l1, l1), (back.l2, l2), (back.m, m)):
                assert got == pytest.approx(want, rel=1e-14)
            # and gk -> onsager -> gk
            again = onsager_to_gk(back, rho)
            assert again == pytest.approx((tau_q, k, mu2), rel=1e-14)

    @given(l1=st.floats(1e-6, 1e6), l2=st.floats(1e-6, 1e6),
           m=st.floats(1e-6, 1e6), T_ref=st.floats(1e-3, 1e4),
           rho=st.floats(1e-3, 1e5))
    @settings(deadline=None)
    def test_round_trip_property(self, l1, l2, m, T_ref, rho):
        o = OnsagerCoefficients(l1=l1, l2=l2, m=m, T_ref=T_ref)
        back = gk_to_onsager(*onsager_to_gk(o, rho), rho, T_ref)
        assert back.l1 == pytest.approx(l1, rel=1e-14)
        assert back.l2 == pytest.approx(l2, rel=1e-14)
        assert back.m == pytest.approx(m, rel=1e-14)

    def test_output_satisfies_material_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            l1, l2, m, T_ref, rho = 10.0 ** rng.uniform(-4, 4, size=5)
            tau_q, k, mu2 = onsager_to_gk(
                OnsagerCoefficients(l1=l1, l2=l2, m=m, T_ref=T_ref), rho)
            # strict positivity of k, non-negativity of tau_q and mu2
            MaterialParams(rho=rho, c=1.0, tau_q=tau_q, mu2=mu2, k=k, l=1.0)

    def test_invariant_violations(self):
        with pytest.raises(NonPositiveCoefficient):
            OnsagerCoefficients(l1=0.0, l2=0.0, m=0.0, T_ref=1.0)
        with pytest.raises(NonPositiveCoefficient):
            OnsagerCoefficients(l1=-1.0, l2=1.0, m=0.0, T_ref=1.0)
        with pytest.raises(NonPositiveCoefficient):
            gk_to_onsager(tau_q=1.0, k=0.0, mu2=0.0, rho=1.0, T_ref=1.0)


class TestSimulationConfig:
    def test_defaults_to_coupled(self, ref_config):
        assert ref_config.stepper_kind is StepperKind.COUPLED_IMPLICIT

    @pytest.mark.parametrize("field,bad", [("dx", 0.0), ("dt", -1.0)])
    def test_step_positivity(self, ref_config, field, bad):
        with pytest.raises(NonPositiveCoefficient):
            dataclasses.replace(ref_config, **{field: bad})

    def test_horizon_at_least_one_step(self):
        with pytest.raises(NonPositiveCoefficient):
            SimulationConfig(dx=0.1, dt=0.5, t_final=0.4, T_b=0.0, T_f=1.0)
        cfg = SimulationConfig(dx=0.1, dt=0.5, t_final=0.5, T_b=0.0, T_f=1.0)
        assert math.isclose(cfg.t_final, cfg.dt)
