"""Confluent hypergeometric (Kummer) function M(a, b, z) of terminating a.

``kummer_m`` evaluates M(a, b, z), a polynomial of degree -a in z, for
integer orders -a in 0 .. 2**25 - 1 and b in 1 .. 2**25 - 1: those of every
state e^(-z/2) z^(m/2) M(-(n+1), m+1, z) of the oscillator.  Any other order
is refused.  An array b broadcasts against z (a is a scalar).

Every degree of one b comes from the three-term recurrence in the degree
(the contiguous relation in a; Gil, Segura and Temme, *Numerical Methods for
Special Functions*, SIAM 2007, ch. 4)

    (b + n) M(-(n+1), b, z) = (2n + b - z) M(-n, b, z) - n M(-(n-1), b, z),

so one pass over n yields M(0, b, z), M(-1, b, z), M(-2, b, z), ... in turn.
It runs in the difference form D_{n+1} = (n D_n - z M_n) / (b + n),
M_{n+1} = M_n + D_{n+1}, in compensated double-double arithmetic, and each
row is rounded to float64 once.  Each step forms T = n D, U = z M and
R = T - U, then D' = R / (b + n) and M' = M + D', by Dekker's and Knuth's
error-free transformations with two cuts that move no finite float: the
degree n and the divisor b + n, integers below 2**26, split as (n, 0) and
(b + n, 0), so T and the quotient's error product have no products by a
zero half; and T - U is one two-difference, the floats of a two-sum with
-U.  An array stream holds M and D as (hi, lo) arrays, with five scratch
arrays, for the whole pass and writes every operation into them; a 0-d
stream runs the same sequence in Python floats, since a ufunc call on one
value costs several float operations.
An element that overflows is inf or nan on both paths, not always with the
same nan bits.  The ascending series that the recurrence replaced is
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

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
_ORDER_MAX = 2.0**25 - 1.0  # largest b and -a: every b + n stays below 2**26


# ---------------------------------------------------------------------------
# double-double building blocks (error-free transformations on IEEE doubles)


# Arithmetic called f(x, y, out): the ufuncs write into out, the functional
# forms (0-d streams, the split of z) return a new value.
_IN_PLACE = (np.add, np.subtract, np.multiply, np.divide)
_NEW = (lambda x, y, _: x + y, lambda x, y, _: x - y,
        lambda x, y, _: x * y, lambda x, y, _: x / y)


def _split(x, hi, lo, ops):
    """Dekker's split: x = hi + lo exactly, each half of 26 bits or fewer."""
    _, sub, mul, _ = ops
    hi = mul(_SPLITTER, x, hi)
    lo = sub(hi, x, lo)
    hi = sub(hi, lo, hi)
    return hi, sub(x, hi, lo)


def _renorm(p, w, hi, lo, ops):
    """p + w as (hi, lo) for |w| small against |p|; lo may be p's array, not w's."""
    add, sub, _, _ = ops
    hi = add(p, w, hi)
    return hi, sub(w, sub(hi, p, lo), lo)


def _degree_step(n, b, z, m, d, r, ops):
    """(M_{n+1}, D_{n+1}) from (M_n, D_n), each a double-double pair (hi, lo).

    The module docstring's sequence: ``_IN_PLACE`` writes each operation
    into a state array or one of the scratch arrays r, ``_NEW`` returns it.
    An operation writes only into an array whose value is read no more.
    """
    add, sub, mul, div = ops
    (mh, ml), (dh, dl), (z, zh, zl), (r0, r1, r2, r3, r4) = m, d, z, r
    # T = D n
    r0 = mul(dh, n, r0)
    r1, r2 = _split(dh, r1, r2, ops)
    r1 = sub(mul(r1, n, r1), r0, r1)
    r1 = add(add(r1, mul(r2, n, r2), r1), mul(dl, n, r2), r1)
    dh, dl = _renorm(r0, r1, dh, dl, ops)
    # U = M z, z split once per stream
    r0 = mul(mh, z, r0)
    r1, r2 = _split(mh, r1, r2, ops)
    r3 = add(sub(mul(r1, zh, r3), r0, r3), mul(r1, zl, r1), r3)
    r3 = add(add(r3, mul(r2, zh, r4), r3), mul(r2, zl, r2), r3)
    r1, r2 = _renorm(r0, add(r3, mul(ml, z, r1), r3), r1, r2, ops)
    # R = T - U
    r0 = sub(dh, r1, r0)
    r3 = sub(r0, dh, r3)
    r4 = sub(sub(dh, sub(r0, r3, r4), r4), add(r1, r3, r3), r4)
    dh, dl = _renorm(r0, sub(add(r4, dl, r4), r2, r4), dh, dl, ops)
    # D' = R / x with x = b + n on b's shape, split as (x, 0)
    x = b + n
    r0 = div(dh, x, r0)
    r1 = mul(r0, x, r1)
    r2, r3 = _split(r0, r2, r3, ops)
    r4 = add(sub(mul(r2, x, r4), r1, r4), mul(r3, x, r2), r4)
    r1 = div(add(sub(sub(dh, r1, r1), r4, r1), dl, r1), x, r1)
    dh, dl = _renorm(r0, r1, dh, dl, ops)
    # M' = M + D'
    r0 = add(mh, dh, r0)
    r1 = sub(r0, mh, r1)
    r2 = add(sub(mh, sub(r0, r1, r2), r2), sub(dh, r1, r1), r2)
    mh, ml = _renorm(r0, add(add(r2, ml, r2), dl, r2), mh, ml, ops)
    return (mh, ml), (dh, dl)


def _degree_rows(b, z):
    """Yield M(0, b, z), M(-1, b, z), M(-2, b, z), ... without end.

    b and z broadcast, and are refused at the first row unless each b is an
    integer in 1 .. 2**25 - 1, so the exact cuts hold to degree 2**25 - 1,
    and each z is finite and non-negative.  A row that leaves float64 is
    yielded as it is (inf or nan, whose nan bits are not fixed) and every
    later row with it: callers refuse the rows they return.  Between rows
    the stream holds only M_n and D_n, in place for array arguments with
    five scratch arrays, and the split of z; a 0-d stream steps and yields
    Python floats.  Each row is a new hi + lo to keep.
    """
    b, z = np.asarray(b, dtype=float), np.asarray(z, dtype=float)
    if not np.all(_is_order(b, 1.0)):
        raise ValueError(f"b must be an integer in 1 .. 2**25 - 1, got b={b}")
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite")
    if np.any(z < 0.0):
        raise ValueError(f"negative z is outside the supported domain, got {z}")
    shape = np.broadcast_shapes(b.shape, z.shape)
    if shape:  # in place: M, D and the scratch allocated once per stream
        ops = _IN_PLACE
        m, d = (np.ones(shape), np.zeros(shape)), (np.zeros(shape), np.zeros(shape))
        r = tuple(np.empty(shape) for _ in range(5))
    else:
        ops, b, z = _NEW, float(b), float(z)
        m, d, r = (1.0, 0.0), (0.0, 0.0), (None,) * 5
    z = (z, *_split(z, None, None, _NEW))
    for n in count(0.0):
        yield m[0] + m[1]
        with np.errstate(over="ignore", invalid="ignore"):
            m, d = _degree_step(n, b, z, m, d, r, ops)


def _is_order(x, low):
    """Where x is an integer in low .. 2**25 - 1, elementwise: never nan or inf."""
    return (x == np.floor(x)) & (x >= low) & (x <= _ORDER_MAX)


def kummer_m(a: float, b, z):
    """Confluent hypergeometric function M(a, b, z) for z >= 0.

    Parameters
    ----------
    a : float
        A scalar integer in -(2**25 - 1) .. 0: M is a polynomial of degree -a.
    b : float or ndarray
        Integers in 1 .. 2**25 - 1.  An array broadcasts against z, and
        each element gives the same floats as its own call.
    z : float or ndarray
        Non-negative, finite argument(s).

    Returns
    -------
    float, or ndarray of the broadcast shape of b and z.

    The value is row -a of the degree recurrence (see the module docstring),
    -a steps in compensated arithmetic.  Any other order (nan and inf too)
    and a value that overflows are refused with ``ValueError``.
    """
    if np.ndim(a) != 0 or not _is_order(-float(a), 0.0):
        raise ValueError(f"a must be a scalar integer in -(2**25 - 1) .. 0, got a={a}")
    degree = int(-float(a))
    row = next(islice(_degree_rows(b, z), degree, None))
    if not np.all(np.isfinite(row)):
        raise ValueError(f"M({-degree}, b, z) overflows float64 at z up to {np.max(z)}")
    return row

