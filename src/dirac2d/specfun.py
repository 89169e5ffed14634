"""Confluent hypergeometric (Kummer) function M(a, b, z) of terminating a.

``kummer_m`` evaluates M(a, b, z) for a first argument a = 0, -1, -2, ...,
where M is a polynomial of degree -a in z.  Every physical state in this
package has such an argument; any other first argument is rejected.  An
array b broadcasts against z (a is a scalar).

Every degree of one b comes from the three-term recurrence in the degree
(the contiguous relation in a; Gil, Segura and Temme, *Numerical Methods for
Special Functions*, SIAM 2007, ch. 4)

    (b + n) M(-(n+1), b, z) = (2n + b - z) M(-n, b, z) - n M(-(n-1), b, z),

so one pass over n yields M(0, b, z), M(-1, b, z), M(-2, b, z), ... in turn.
It runs in the difference form D_{n+1} = (n D_n - z M_n) / (b + n),
M_{n+1} = M_n + D_{n+1}, in compensated double-double arithmetic, and each
row is rounded to float64 once.  The ascending series that it replaced is
strongly alternating for large z (terms exceed the value by a factor up to
~exp(z/2)) and lost the states past degree 50 to cancellation.

The ``kummer-laguerre`` verification compares the rows that ``verify``'s
states hold with L_n^(alpha)(z) / binom(n + alpha, n) = M(-n, alpha + 1, z)
in exact rational arithmetic (``oracle``).

The irregular second solution of Kummer's equation is intentionally absent:
it grows at infinity and never contributes to a normalizable state.
"""

from __future__ import annotations

from itertools import count, islice

import numpy as np

__all__ = ["kummer_m"]

# Tolerance for recognising integer arguments; the quantization condition
# produces exact integers, so this only guards against benign roundoff.
_INT_TOL = 1e-12

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _is_nonpositive_int(x):
    """Where x is zero or a negative integer, elementwise."""
    near = np.round(x)
    return (np.abs(x - near) <= _INT_TOL) & (near <= 0.0)


# ---------------------------------------------------------------------------
# double-double building blocks (error-free transformations on IEEE doubles)


def _split(x):
    """Dekker's split: x = hi + lo exactly, each half of 26 bits or fewer."""
    c = _SPLITTER * x
    hi = c - (c - x)
    return hi, x - hi


def _two_sum(x, y):
    s = x + y
    t = s - x
    e = (x - (s - t)) + (y - t)
    return s, e


def _quick_renorm(hi, lo):
    s = hi + lo
    return s, lo - (s - hi)


def _two_prod(x, y, y_parts=None):
    """x * y = p + e exactly; y_parts is y's split where the caller holds it."""
    p = x * y
    xh, xl = _split(x)
    yh, yl = y_parts or _split(y)
    e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return p, e


def _dd_add(hi1, lo1, hi2, lo2):
    s, e = _two_sum(hi1, hi2)
    return _quick_renorm(s, e + lo1 + lo2)


def _dd_mul_double(hi, lo, x, x_parts=None):
    p, e = _two_prod(hi, x, x_parts)
    return _quick_renorm(p, e + lo * x)


def _dd_div_double(hi, lo, x):
    q = hi / x
    p, e = _two_prod(q, x)
    return _quick_renorm(q, ((hi - p) - e + lo) / x)


def _degree_step(n, b, z, z_parts, m, d):
    """(M_{n+1}, D_{n+1}) from (M_n, D_n), each a double-double pair (hi, lo)."""
    t_hi, t_lo = _dd_mul_double(*d, n)
    u_hi, u_lo = _dd_mul_double(*m, z, z_parts)
    d = _dd_div_double(*_dd_add(t_hi, t_lo, -u_hi, -u_lo), b + n)
    return _dd_add(*m, *d), d


def _degree_rows(b, z):
    """Yield M(0, b, z), M(-1, b, z), M(-2, b, z), ... without end.

    b and z broadcast and are checked as ``kummer_m`` checks them.  A row
    that leaves float64 is yielded as it is (inf or nan) and every later row
    with it: callers refuse the rows they return.  Between rows the stream
    holds only M_n and D_n and the split of z.
    """
    b, z = _arguments(b, z)
    m = (np.ones(np.broadcast_shapes(b.shape, z.shape)), 0.0)
    d = (0.0, 0.0)
    z_parts = _split(z)
    for n in count(0.0):
        yield m[0] + m[1]
        with np.errstate(over="ignore", invalid="ignore"):
            m, d = _degree_step(n, b, z, z_parts, m, d)


def _arguments(b, z) -> tuple[np.ndarray, np.ndarray]:
    """b and z of a Kummer function as float arrays, refused outside its domain."""
    b_arr, z_arr = np.asarray(b, dtype=float), np.asarray(z, dtype=float)
    if not np.all(np.isfinite(b_arr)) or np.any(_is_nonpositive_int(b_arr)):
        raise ValueError(f"b must be finite, not zero or a negative integer, got b={b}")
    if not np.all(np.isfinite(z_arr)):
        raise ValueError("z must be finite")
    if np.any(z_arr < 0.0):
        raise ValueError(f"negative z is outside the supported domain, got {z}")
    return b_arr, z_arr


def kummer_m(a: float, b, z):
    """Confluent hypergeometric function M(a, b, z) for z >= 0.

    Parameters
    ----------
    a : float
        Zero or a negative integer, so M is a polynomial of degree -a; a scalar.
    b : float or ndarray
        No element may be zero or a negative integer.  An array broadcasts
        against z, and each element gives the same floats as its own call.
    z : float or ndarray
        Non-negative, finite argument(s).

    Returns
    -------
    float, or ndarray of the broadcast shape of b and z.

    The value is row -a of the degree recurrence (see the module docstring),
    -a steps in compensated arithmetic.  A value that overflows is refused.
    """
    if np.ndim(a) != 0 or not _is_nonpositive_int(float(a)):
        raise ValueError(f"a must be a scalar in 0, -1, -2, ..., got a={a}")
    degree = -round(float(a))
    row = next(islice(_degree_rows(b, z), degree, None))
    if not np.all(np.isfinite(row)):
        raise ValueError(f"M({-degree}, b, z) overflows float64 at z up to {np.max(z)}")
    return float(row) if np.ndim(row) == 0 else row

