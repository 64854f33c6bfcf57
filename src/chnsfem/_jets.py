"""Forward-mode dual numbers over numpy arrays.

A Jet carries a value array of shape (...,) and a derivative array of
shape (..., nchannels) holding partials with respect to a fixed set of
seed channels.  Arithmetic and the handful of ufuncs needed by material
callables (log, exp, sqrt, ...) propagate both parts, so evaluating the
residual kernels on seeded jets yields the exact pointwise linearization
in one pass.  Non-Jet operands are treated as constants.
"""

from __future__ import annotations

import numpy as np


def _value(x):
    return x.val if isinstance(x, Jet) else x


def _expand(c):
    """Broadcast a value-shaped factor against a derivative array."""
    return c[..., None] if isinstance(c, np.ndarray) and c.ndim > 0 else c


def _add(a, b):
    av, bv = _value(a), _value(b)
    if isinstance(a, Jet) and isinstance(b, Jet):
        return Jet(av + bv, a.der + b.der)
    jet = a if isinstance(a, Jet) else b
    return Jet(av + bv, jet.der)


def _sub(a, b):
    av, bv = _value(a), _value(b)
    if isinstance(a, Jet) and isinstance(b, Jet):
        return Jet(av - bv, a.der - b.der)
    if isinstance(a, Jet):
        return Jet(av - bv, a.der)
    return Jet(av - bv, -b.der)


def _mul(a, b):
    av, bv = _value(a), _value(b)
    if isinstance(a, Jet) and isinstance(b, Jet):
        return Jet(av * bv, a.der * _expand(bv) + b.der * _expand(av))
    if isinstance(a, Jet):
        return Jet(av * bv, a.der * _expand(bv))
    return Jet(av * bv, b.der * _expand(av))


def _div(a, b):
    av, bv = _value(a), _value(b)
    val = av / bv
    if isinstance(a, Jet) and isinstance(b, Jet):
        der = (a.der - b.der * _expand(val)) / _expand(bv)
    elif isinstance(a, Jet):
        der = a.der / _expand(bv)
    else:
        der = -b.der * _expand(av / (bv * bv))
    return Jet(val, der)


def _pow(a, b):
    if isinstance(b, Jet):
        raise TypeError("jet exponents are not supported")
    av = a.val
    return Jet(av**b, a.der * _expand(b * av**(b - 1)))


def _neg(a):
    return Jet(-a.val, -a.der)


def _pos(a):
    return a


def _log(a):
    return Jet(np.log(a.val), a.der / _expand(a.val))


def _exp(a):
    v = np.exp(a.val)
    return Jet(v, a.der * _expand(v))


def _sqrt(a):
    v = np.sqrt(a.val)
    return Jet(v, a.der * _expand(0.5 / v))


def _square(a):
    return Jet(a.val * a.val, a.der * _expand(2.0 * a.val))


def _reciprocal(a):
    v = 1.0 / a.val
    return Jet(v, -a.der * _expand(v * v))


_HANDLERS = {
    np.add: _add,
    np.subtract: _sub,
    np.multiply: _mul,
    np.true_divide: _div,
    np.divide: _div,
    np.power: _pow,
    np.negative: _neg,
    np.positive: _pos,
    np.log: _log,
    np.exp: _exp,
    np.sqrt: _sqrt,
    np.square: _square,
    np.reciprocal: _reciprocal,
}


class Jet:
    """Value plus channel-wise first derivatives."""

    __slots__ = ("val", "der")

    def __init__(self, val: np.ndarray, der: np.ndarray):
        self.val = val
        self.der = der

    @classmethod
    def seeded(cls, val: np.ndarray, channel: int, nchannels: int) -> "Jet":
        val = np.asarray(val, dtype=float)
        der = np.zeros(val.shape + (nchannels,))
        der[..., channel] = 1.0
        return cls(val, der)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.pop("out", None)
        if method != "__call__" or kwargs or out not in (None, ()):
            return NotImplemented
        handler = _HANDLERS.get(ufunc)
        if handler is None:
            return NotImplemented
        return handler(*inputs)

    __add__ = _add
    __radd__ = lambda self, other: _add(other, self)
    __sub__ = _sub
    __rsub__ = lambda self, other: _sub(other, self)
    __mul__ = _mul
    __rmul__ = lambda self, other: _mul(other, self)
    __truediv__ = _div
    __rtruediv__ = lambda self, other: _div(other, self)
    __pow__ = _pow
    __neg__ = _neg

    def __repr__(self):
        return f"Jet(val={self.val!r})"


def derivative_of(x):
    """Derivative array, or None for constants."""
    return x.der if isinstance(x, Jet) else None
