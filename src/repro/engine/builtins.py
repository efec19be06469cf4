"""Arithmetic helpers with C semantics, used by generated code."""

import numpy as np

_FLOATS = (float, np.floating)


def int_div(a, b):
    """C integer division, truncating toward zero (Python ``//`` floors);
    generated code calls it when both operands are statically integers."""
    quotient = a // b
    if quotient < 0 and quotient * b != a:
        quotient += 1
    return quotient


def int_mod(a, b):
    """C integer remainder: same sign as the dividend."""
    remainder = a % b
    if remainder and (a < 0) != (b < 0):
        remainder -= b
    return remainder


def c_div(a, b):
    """C division: float division if either operand is float, else integer
    division truncating toward zero."""
    if a.__class__ is int and b.__class__ is int:
        return int_div(a, b)
    if isinstance(a, _FLOATS) or isinstance(b, _FLOATS):
        try:
            return a / b
        except ZeroDivisionError:
            # IEEE semantics (inf or nan), as numpy float64 division.
            with np.errstate(divide="ignore", invalid="ignore"):
                return float(np.float64(a) / b)
    return int_div(a, b)


def c_mod(a, b):
    """C remainder: same sign as the dividend."""
    if a.__class__ is int and b.__class__ is int:
        return int_mod(a, b)
    if isinstance(a, _FLOATS) or isinstance(b, _FLOATS):
        return np.fmod(a, b)
    return int_mod(a, b)


def local_array(size, type_name):
    """A per-thread fixed-size local array (``T buf[n]`` in kernel code)."""
    zero = 0.0 if type_name in ("float", "double") else 0
    return [zero] * int(size)
