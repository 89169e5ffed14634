import math
import sys
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dirac2d import PhysicalParams, natural_params, to_dimensionless_z

PARAM_SWEEP = [
    natural_params(),
    PhysicalParams(rest_mass=2.0, omega=0.5),
    PhysicalParams(rest_mass=0.3, omega=7.0, hbar=2.0, c=4.0),
    PhysicalParams(rest_mass=9.1093837015e-31, omega=1.0e12, hbar=1.054571817e-34, c=299792458.0),
]


class TestPhysicalParams:
    def test_natural_params_is_all_ones(self):
        p = natural_params()
        assert (p.rest_mass, p.omega, p.hbar, p.c) == (1.0, 1.0, 1.0, 1.0)

    def test_natural_scales(self):
        p = natural_params()
        assert p.oscillator_length == 1.0
        assert p.rest_energy == 1.0
        assert p.energy_quantum == 1.0

    @pytest.mark.parametrize("field", ["rest_mass", "omega", "hbar", "c"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, "a"])
    def test_rejects_nonpositive_or_nonfinite(self, field, bad):
        kwargs = dict(rest_mass=1.0, omega=1.0, hbar=1.0, c=1.0)
        kwargs[field] = bad
        with pytest.raises(ValueError):
            PhysicalParams(**kwargs)

    def test_lambda_ratio(self):
        p = PhysicalParams(rest_mass=1.0, omega=1e-4)
        assert_allclose(p.lam, 1e-4, rtol=1e-15)

    @pytest.mark.parametrize(
        "kwargs, name, ratio",
        [
            # m0*omega underflows to 0 or overflows to inf
            (dict(rest_mass=1e-200, omega=1e-200), "m0*omega/hbar", "0.0"),
            (dict(rest_mass=1e200, omega=1e200), "m0*omega/hbar", "inf"),
            # gamma is subnormal, so b**2 = hbar/(m0*omega) overflows
            (dict(rest_mass=1e-300, omega=1e-10, hbar=1e10, c=1e4), "hbar/(m0*omega)", "inf"),
            # m0*c**2 underflows to 0, so lam overflows
            (dict(rest_mass=1e-300, omega=1.0, c=1e-100), "hbar*omega/(m0*c^2)", "inf"),
        ],
    )
    def test_rejects_a_ratio_that_leaves_float64(self, kwargs, name, ratio):
        with pytest.raises(ValueError, match=re.escape(f"{name} = {ratio} is not")):
            PhysicalParams(**kwargs)

    def test_rejects_a_subnormal_frequency_ratio(self):
        # lam = 1.4e-317 kept 24 bits: E - m0 c^2 read 1.99999979 hbar omega at n = 0
        si = dict(omega=1.2e4, hbar=1.054571817e-34, c=299792458.0)
        with pytest.raises(ValueError, match="is below float64's normal range"):
            PhysicalParams(rest_mass=1e270, **si)
        assert PhysicalParams(rest_mass=1e250, **si).lam > sys.float_info.min

    def test_scales_reproducible_exactly(self):
        for p in PARAM_SWEEP:
            assert p.oscillator_length == math.sqrt(p.hbar / (p.rest_mass * p.omega))
            assert p.energy_quantum == p.hbar * p.omega
            assert p.rest_energy == p.rest_mass * p.c * p.c


class TestDimensionlessZ:
    def test_zero_radius(self):
        assert to_dimensionless_z(0.0, natural_params()) == 0.0

    def test_unit_radius_natural(self):
        assert to_dimensionless_z(1.0, natural_params()) == 1.0

    def test_plain_arithmetic(self):
        p = PhysicalParams(rest_mass=4.0, omega=1.0, hbar=1.0, c=1.0)
        assert to_dimensionless_z(2.0, p) == 16.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            to_dimensionless_z(-0.5, natural_params())
        with pytest.raises(ValueError):
            to_dimensionless_z(np.array([0.5, -0.1]), natural_params())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            to_dimensionless_z(math.inf, natural_params())

    def test_rejects_a_radius_whose_z_overflows(self):
        # refused before the multiply, which warned of the overflow first
        with pytest.raises(ValueError, match="overflows"):
            to_dimensionless_z(np.array([0.0, 1e300]), natural_params())
        si = PhysicalParams(rest_mass=9.1093837015e-31, omega=1e15, hbar=1.054571817e-34)
        with pytest.raises(ValueError, match="overflows"):
            to_dimensionless_z(1e150, si)

    def test_array_matches_scalars(self):
        p = PhysicalParams(rest_mass=2.0, omega=3.0)
        rho = np.array([0.0, 0.1, 1.0, 2.5])
        out = to_dimensionless_z(rho, p)
        assert out.shape == rho.shape
        for r, z in zip(rho, out):
            assert to_dimensionless_z(float(r), p) == z

    def test_oscillator_length_maps_to_one(self):
        # z(b) = 1 up to one rounding of sqrt followed by squaring
        for p in PARAM_SWEEP:
            z = to_dimensionless_z(p.oscillator_length, p)
            assert abs(z - 1.0) <= 4e-16

    def test_quadratic_scaling(self):
        for p in PARAM_SWEEP:
            for rho in (0.0, 1e-3, 0.7, 3.0, 50.0):
                assert_allclose(
                    to_dimensionless_z(2.0 * rho, p),
                    4.0 * to_dimensionless_z(rho, p),
                    rtol=1e-15,
                )

    def test_monotone_in_rho(self):
        p = PARAM_SWEEP[2]
        rho = np.linspace(0.0, 5.0, 300)
        z = to_dimensionless_z(rho, p)
        assert np.all(np.diff(z) > 0.0)
