"""Property tests over the domain of the Kummer recurrence.

In natural and SI units, for n <= 80 and m <= 40, the upper radial profile
has n + 1 nodes, and its Simpson norm on its 8193-point default grid
meets the closed-form constant from Laguerre orthogonality to 1e-8.  The
ascending series that the recurrence replaced lost these states to
cancellation near the turning point: the norm missed 1e-8 from n = 48 at
m >= 14 (by 1.6e-7 at (50, 20)), and (n, m) = (66, 0) counted 69 nodes.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirac2d import (
    QuantumNumbers,
    closed_form_norm_constant,
    count_radial_nodes,
    default_grid,
    normalize,
    radial_psi1,
)
from dirac2d.cli import RunConfig

UNITS = st.sampled_from(["natural", "si"])
SUPPORTED = settings(max_examples=40, deadline=None, derandomize=True)


def _params(units):
    return RunConfig(command="verify", units=units).params()


def _norm_error(n, m, units):
    """|quadrature A / closed-form A - 1| on the state's default grid of 8193 points.

    The grid ends 7 b or more past the turning point, where the Gaussian
    tail is far below 1e-8.
    """
    p = _params(units)
    qn = QuantumNumbers(n, m)
    rf = radial_psi1(qn, default_grid(qn, p, num_points=8193), p)
    return abs(normalize(rf) / closed_form_norm_constant(qn, p) - 1.0)


@SUPPORTED
@given(n=st.integers(0, 80), m=st.integers(0, 40), units=UNITS)
@example(n=80, m=0, units="natural")
@example(n=80, m=40, units="si")
def test_node_count_is_n_plus_one(n, m, units):
    assert count_radial_nodes(QuantumNumbers(n, m), _params(units)) == n + 1


@SUPPORTED
@given(n=st.integers(0, 80), m=st.integers(0, 40), units=UNITS)
@example(n=80, m=0, units="natural")
@example(n=80, m=40, units="si")
def test_quadrature_norm_meets_the_closed_form(n, m, units):
    assert _norm_error(n, m, units) <= 1e-8


def test_quadrature_norm_where_the_series_failed():
    assert _norm_error(50, 20, "natural") <= 1e-8


def test_node_count_where_the_series_failed():
    assert count_radial_nodes(QuantumNumbers(66, 0), _params("natural")) == 67
