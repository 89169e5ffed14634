"""Property tests over the domain the Kummer series supports today.

In natural and SI units, the upper radial profile has n + 1 nodes for
n <= 50 and m <= 20, and its Simpson norm meets the closed-form constant
from Laguerre orthogonality to 1e-8 for n <= 44 and m <= 20 (at most 6e-10
there, on a 8193-point grid).  Past that the double-double series loses the
profile to cancellation near the turning point, whatever the grid:

- the norm misses 1e-8 from n = 48 at m >= 14, by 1.6e-7 at (50, 20);
- (n, m) = (66, 0) counts 69 nodes, and the first wrong count is at n = 64
  for m = 5 and n = 58 for m = 20.

The strict xfails below turn into failures once a stable evaluator (a
scaled Laguerre recurrence) gets those states right.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirac2d import (
    QuantumNumbers,
    RadialGrid,
    closed_form_norm_constant,
    count_radial_nodes,
    normalize,
    radial_psi1,
)
from dirac2d.cli import RunConfig

UNITS = st.sampled_from(["natural", "si"])
SUPPORTED = settings(max_examples=40, deadline=None, derandomize=True)


def _params(units):
    return RunConfig(command="verify", units=units).params()


def _norm_error(n, m, units):
    """|quadrature A / closed-form A - 1| on a grid past every root.

    The grid ends at the Laguerre root bound that ``count_radial_nodes``
    uses, where the Gaussian tail is far below 1e-8.
    """
    p = _params(units)
    span = 2.0 * math.sqrt(4.0 * (n + 1) + 2.0 * m) + 4.0
    qn = QuantumNumbers(n, m)
    rf = radial_psi1(qn, RadialGrid(span * p.oscillator_length, 8193), p)
    return abs(normalize(rf) / closed_form_norm_constant(qn, p) - 1.0)


@SUPPORTED
@given(n=st.integers(0, 50), m=st.integers(0, 20), units=UNITS)
@example(n=50, m=0, units="natural")
@example(n=50, m=20, units="si")
def test_node_count_is_n_plus_one(n, m, units):
    assert count_radial_nodes(QuantumNumbers(n, m), _params(units)) == n + 1


@SUPPORTED
@given(n=st.integers(0, 44), m=st.integers(0, 20), units=UNITS)
@example(n=44, m=0, units="natural")
@example(n=44, m=20, units="si")
def test_quadrature_norm_meets_the_closed_form(n, m, units):
    assert _norm_error(n, m, units) <= 1e-8


@pytest.mark.xfail(strict=True, reason="series cancellation: norm off by 1.6e-7")
def test_quadrature_norm_past_the_supported_domain():
    assert _norm_error(50, 20, "natural") <= 1e-8


@pytest.mark.xfail(strict=True, reason="series cancellation: 69 nodes at n = 66")
def test_node_count_past_the_supported_domain():
    assert count_radial_nodes(QuantumNumbers(66, 0), _params("natural")) == 67
