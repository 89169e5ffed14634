"""Confluent hypergeometric (Kummer) function and associated Laguerre polynomials.

``kummer_m`` evaluates M(a, b, z) by its ascending series for a non-positive
integer first argument, where the series terminates and M is a polynomial.
Every physical state in this package has such an argument; any other first
argument is rejected.  An array b broadcasts against z (a is a scalar).
``laguerre`` evaluates L_n^(alpha) through the three-term recurrence in n
and serves as an independent cross-check via

    binom(n + alpha, n) * M(-n, alpha + 1, z) == L_n^(alpha)(z).

The terminating series is strongly alternating for large z (the value can be
smaller than the largest term by a factor ~exp(z/2)), so it runs in
compensated double-double arithmetic: the identity above must hold to ten
significant figures out to z = 50, n = 20, which is beyond an 80-bit
accumulator.

The irregular second solution of Kummer's equation is intentionally absent:
it grows at infinity and never contributes to a normalizable state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kummer_m", "laguerre"]

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


def _two_sum(x, y):
    s = x + y
    t = s - x
    e = (x - (s - t)) + (y - t)
    return s, e


def _quick_renorm(hi, lo):
    s = hi + lo
    return s, lo - (s - hi)


def _two_prod(x, y):
    p = x * y
    cx = _SPLITTER * x
    xh = cx - (cx - x)
    xl = x - xh
    cy = _SPLITTER * y
    yh = cy - (cy - y)
    yl = y - yh
    e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return p, e


def _dd_add(hi1, lo1, hi2, lo2):
    s, e = _two_sum(hi1, hi2)
    return _quick_renorm(s, e + lo1 + lo2)


def _dd_mul_double(hi, lo, x):
    p, e = _two_prod(hi, x)
    return _quick_renorm(p, e + lo * x)


def _dd_div_double(hi, lo, x):
    q = hi / x
    p, e = _two_prod(q, x)
    return _quick_renorm(q, ((hi - p) - e + lo) / x)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def _terminating_series(a, b, z: np.ndarray, n_terms: int) -> np.ndarray:
    """Sum n_terms terms of the series in double-double precision.

    a, b and z broadcast.  Past its own degree -a a series adds exact zeros,
    so a shorter polynomial summed to n_terms keeps its floats.  A sum that
    overflows is refused.
    """
    term_hi = np.ones(np.broadcast_shapes(np.shape(a), np.shape(b), z.shape))
    term_lo = np.zeros_like(term_hi)
    total_hi = term_hi.copy()
    total_lo = term_lo.copy()
    for k in range(n_terms):
        term_hi, term_lo = _dd_mul_double(term_hi, term_lo, a + k)
        term_hi, term_lo = _dd_mul_double(term_hi, term_lo, z)
        term_hi, term_lo = _dd_div_double(term_hi, term_lo, b + k)
        term_hi, term_lo = _dd_div_double(term_hi, term_lo, k + 1.0)
        total_hi, total_lo = _dd_add(total_hi, total_lo, term_hi, term_lo)
    out = total_hi + total_lo
    if not np.all(np.isfinite(out)):
        raise ValueError(f"M({np.min(a)}, b, z) overflows float64 at z up to {np.max(z)}")
    return out


def _arguments(b, z) -> tuple[np.ndarray, np.ndarray]:
    """b and z of a Kummer series as float arrays, refused outside its domain."""
    b_arr = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b_arr)) or np.any(_is_nonpositive_int(b_arr)):
        raise ValueError(f"b must be finite, not zero or a negative integer, got b={b}")
    return b_arr, _domain(z)


def _domain(z) -> np.ndarray:
    """z as a float array; refused unless finite and non-negative."""
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("z must be finite")
    if np.any(arr < 0.0):
        raise ValueError(f"negative z is outside the supported domain, got {z}")
    return arr


def kummer_m(a: float, b, z):
    """Confluent hypergeometric function M(a, b, z) for z >= 0.

    Parameters
    ----------
    a : float
        Zero or a negative integer, so the series terminates; a scalar.
    b : float or ndarray
        No element may be zero or a negative integer.  An array broadcasts
        against z, and each element gives the same floats as its own call.
    z : float or ndarray
        Non-negative, finite argument(s).

    Returns
    -------
    float, or ndarray of the broadcast shape of b and z.

    The sum uses the term recurrence
    t_{k+1} = t_k * (a + k) / ((b + k) * (k + 1)) * z, which stops after
    |a| + 1 terms (a degree-|a| polynomial) and runs in compensated
    arithmetic.
    """
    if np.ndim(a) != 0 or not _is_nonpositive_int(float(a)):
        raise ValueError(f"a must be a scalar in 0, -1, -2, ..., got a={a}")
    b_arr, arr = _arguments(b, z)
    k_poly = -round(float(a))
    out = _terminating_series(float(-k_poly), b_arr, np.atleast_1d(arr), k_poly)
    return float(out[0]) if b_arr.ndim == arr.ndim == 0 else out


def _kummer_orders(n_max: int, b, z) -> np.ndarray:
    """M(-n, b, z) for n = 0 .. n_max from one series pass, n along a new first axis.

    b and z are checked as ``kummer_m`` checks them.  Each row equals its own
    ``kummer_m(-n, b, z)`` bit for bit: the pass runs n_max terms, and a row
    adds exact zeros once its own series has terminated.
    """
    b_arr, arr = _arguments(b, z)
    a = -np.arange(n_max + 1.0).reshape((-1,) + (1,) * max(b_arr.ndim, arr.ndim))
    return _terminating_series(a, b_arr, arr, n_max)


@np.errstate(over="ignore", invalid="ignore")  # a returned overflow is refused below
def laguerre(n, alpha, z):
    """Associated Laguerre polynomial L_n^(alpha)(z) for z >= 0.

    Uses the upward recurrence
    (k+1) L_{k+1} = (2k + alpha + 1 - z) L_k - (k + alpha) L_{k-1}
    in float64, so the result does not depend on the platform's
    ``long double``.  Near a high-order root the final subtraction cancels
    against intermediates ~exp(z/2) larger than the result; for n <= 20,
    alpha <= 10 and z <= 50 it still meets the Kummer series to about 1e-13.
    Integer arrays n and alpha broadcast against z; one pass up to the
    largest n serves every order, and each element equals its own call.
    """
    orders = np.asarray(n)
    if orders.dtype.kind not in "iu" or np.any(orders < 0):
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    alpha = np.asarray(alpha)
    if alpha.dtype.kind not in "iu" or np.any(alpha < 0):
        raise ValueError(f"alpha must be non-negative integers, got {alpha}")
    arr = _domain(z)

    out = np.ones(np.broadcast_shapes(orders.shape, alpha.shape, arr.shape))
    prev, cur = 0.0, 1.0  # L_{-1} and L_0
    for k in range(int(np.max(orders, initial=0))):
        step = (2.0 * k + alpha + 1.0 - arr) * cur - (k + alpha) * prev
        prev, cur = cur, step / (k + 1.0)
        np.copyto(out, cur, where=orders == k + 1)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"L_{n}^(alpha)(z) overflows float64 at z up to {np.max(arr)}")
    return float(out) if out.ndim == 0 else out
