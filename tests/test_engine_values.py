"""Engine value-type tests: Dim3, Ptr, allocation, C arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Dim3, Ptr, alloc_for_type, c_div, c_mod
from repro.engine.builtins import int_div, int_mod
from repro.engine.values import hoist
from repro.errors import RuntimeLaunchError
from repro.minicuda.ast import Type


class TestDim3:
    def test_defaults(self):
        d = Dim3()
        assert (d.x, d.y, d.z) == (1, 1, 1)

    def test_of_int(self):
        d = Dim3.of(7)
        assert (d.x, d.y, d.z) == (7, 1, 1)

    def test_of_copies(self):
        a = Dim3(2, 3, 4)
        b = Dim3.of(a)
        b.x = 99
        assert a.x == 2

    def test_total(self):
        assert Dim3(2, 3, 4).total == 24

    def test_equality(self):
        assert Dim3(1, 2, 3) == Dim3(1, 2, 3)
        assert Dim3(1, 2, 3) != Dim3(3, 2, 1)

    def test_numpy_scalar_accepted(self):
        assert Dim3.of(np.int64(5)).x == 5


INT64 = np.dtype(np.int64)
FLOAT64 = np.dtype(np.float64)


class TestPtr:
    def test_read_write(self):
        p = Ptr([0] * 4, dtype=INT64)
        p[2] = 9
        assert p[2] == 9

    def test_offset_arithmetic(self):
        base = Ptr(list(range(10)), dtype=INT64)
        shifted = base + 4
        assert shifted[0] == 4
        assert (shifted + 2)[0] == 6
        assert shifted.dtype == INT64

    def test_len_accounts_for_offset(self):
        p = Ptr([0.0] * 10, offset=4, dtype=FLOAT64)
        assert len(p) == 6

    def test_fill(self):
        p = Ptr([0] * 5, dtype=INT64)
        (p + 2).fill(7)
        assert list(p.array) == [0, 0, 7, 7, 7]

    def test_to_numpy_is_a_copy(self):
        p = Ptr(list(range(3)), dtype=INT64)
        snapshot = p.to_numpy()
        p[0] = 42
        assert snapshot[0] == 0

    def test_stores_coerce_to_the_element_type(self):
        ints = alloc_for_type(Type("int"), 2)
        ints[0] = 3.7
        ints[1] = -3.7
        assert ints.array == [3, -3]
        assert all(type(v) is int for v in ints.array)
        floats = alloc_for_type(Type("float"), 1)
        floats[0] = 1
        assert type(floats[0]) is float

    def test_fill_coerces(self):
        floats = alloc_for_type(Type("float"), 3)
        floats.fill(2)
        assert all(type(v) is float for v in floats.array)

    def test_to_numpy_keeps_dtype(self):
        assert alloc_for_type(Type("int"), 2).to_numpy().dtype == INT64
        assert alloc_for_type(Type("float"), 2).to_numpy().dtype == FLOAT64

    def test_to_numpy_of_pointer_elements(self):
        cells = alloc_for_type(Type("int", pointers=1), 2)
        target = alloc_for_type(Type("int"), 4)
        cells[0] = target
        array = cells.to_numpy()
        assert array.dtype == object and array.shape == (2,)
        assert array[0] is target and array[1] is None

    def test_readback_beyond_int64_raises(self):
        # Kernels compute with unbounded ints; readback refuses to wrap.
        p = alloc_for_type(Type("int"), 1)
        p[0] = 2 ** 63
        with pytest.raises(OverflowError):
            p.to_numpy()

    def test_hoist(self):
        p = Ptr([1, 2, 3], dtype=INT64) + 1
        assert hoist(p) == (p.array, 1)
        buf = [0.0, 0.0]
        assert hoist(buf) == (buf, 0)


class TestAlloc:
    def test_int_allocation_zeroed(self):
        p = alloc_for_type(Type("int"), 8)
        assert p.dtype == np.int64
        assert p.to_numpy().sum() == 0

    def test_float_allocation(self):
        p = alloc_for_type(Type("float"), 8)
        assert p.dtype == np.float64

    def test_pointer_elements_get_object_array(self):
        p = alloc_for_type(Type("int", pointers=1), 4)
        assert p.dtype == object

    def test_dim3_elements_get_object_array(self):
        p = alloc_for_type(Type("dim3"), 4)
        assert p.dtype == object

    def test_unknown_type_rejected(self):
        with pytest.raises(RuntimeLaunchError):
            alloc_for_type(Type("struct foo"), 4)


class TestCArithmetic:
    def test_int_division_truncates_toward_zero(self):
        assert c_div(7, 2) == 3
        assert c_div(-7, 2) == -3
        assert c_div(7, -2) == -3
        assert c_div(-7, -2) == 3

    def test_float_division(self):
        assert c_div(7.0, 2) == 3.5
        assert c_div(7, 2.0) == 3.5

    def test_mod_sign_follows_dividend(self):
        assert c_mod(7, 3) == 1
        assert c_mod(-7, 3) == -1
        assert c_mod(7, -3) == 1

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_div_mod_identity(self, a, b):
        if b == 0:
            return
        assert c_div(a, b) * b + c_mod(a, b) == a

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_python_int_for_positive(self, a, b):
        if a >= 0:
            assert c_div(a, b) == a // b

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_int_fast_path_matches_numpy_path(self, a, b):
        if b == 0:
            return
        assert c_div(a, b) == c_div(np.int64(a), np.int64(b)) \
            == int_div(a, b) == int(np.fix(a / b))
        assert c_mod(a, b) == c_mod(np.int64(a), np.int64(b)) \
            == int_mod(a, b) == int(np.fmod(a, b))
        assert type(c_div(a, b)) is int and type(c_mod(a, b)) is int

    def test_float_division_by_zero_is_ieee(self):
        assert c_div(1.0, 0.0) == float("inf")
        assert c_div(-1, 0.0) == float("-inf")
        assert np.isnan(c_div(0.0, 0))
