import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capflow.acceptance import tc2_config
from capflow.config import phys_params
from capflow.fields import PhysParams
from capflow.observables import equilibrium_height, spherical_cap_offset, transient_time

TC1 = PhysParams(nu=1.87e-5, gamma=3.91e-8, chi=850.0, theta_s=math.pi / 2,
                 p_bar=9.81e-4, g=9.81)


@dataclass
class FakeHistory:
    t: list
    z_cl: list


class TestEquilibrium:
    def test_flat_angle_bernoulli(self):
        assert equilibrium_height(TC1, 5e-4, 0.0) == pytest.approx(1.0e-4, rel=1e-12)

    def test_control_cancels_pressure(self):
        assert equilibrium_height(TC1, 5e-4, -TC1.p_bar) == pytest.approx(0.0, abs=1e-18)

    def test_capillary_case_reference_value(self):
        phys = phys_params(tc2_config())
        assert equilibrium_height(phys, 5e-4, 0.0) == pytest.approx(1.57e-3, rel=1e-6)

    def test_cap_offset_vanishes_at_ninety_degrees(self):
        assert spherical_cap_offset(math.pi / 2, 5e-4) == 0.0

    def test_cap_offset_sign_flips_with_wetting(self):
        assert spherical_cap_offset(math.radians(60), 1e-3) > 0.0
        assert spherical_cap_offset(math.radians(120), 1e-3) < 0.0

    def test_rejects_bad_radius(self):
        for radius in (0.0, -1e-4, math.nan, math.inf):
            with pytest.raises(ValueError, match="^radius must be positive and finite$"):
                equilibrium_height(TC1, radius)


class TestTransientTime:
    def test_constant_history_at_level(self):
        hist = FakeHistory(t=[0.0, 0.1, 0.2], z_cl=[1e-4] * 3)
        assert transient_time(hist, 1e-4) == 0.0

    def test_not_attained(self):
        hist = FakeHistory(t=[0.0, 0.1], z_cl=[1e-4, 2e-4])
        assert transient_time(hist, 1e-4) is None

    def test_last_violation_time(self):
        z = [2e-4, 1.5e-4, 1.005e-4, 1.00001e-4, 1e-4]
        hist = FakeHistory(t=[0.0, 0.1, 0.2, 0.3, 0.4], z_cl=z)
        # tol band |z - 1e-4| < 1e-7: last violation at t = 0.2
        assert transient_time(hist, 1e-4) == pytest.approx(0.2)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            transient_time(FakeHistory(t=[], z_cl=[]), 1e-4)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.9e-4, 1.1e-4), min_size=2, max_size=40),
           st.floats(1e-4, 5e-2), st.floats(1.01, 20))
    def test_monotone_in_tolerance(self, zs, tol, factor):
        hist = FakeHistory(t=list(np.linspace(0, 1, len(zs))), z_cl=zs)
        tight = transient_time(hist, 1e-4, tol)
        loose = transient_time(hist, 1e-4, tol * factor)
        if tight is not None:
            assert loose is not None
            assert loose <= tight
