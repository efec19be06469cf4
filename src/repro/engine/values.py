"""Runtime value types for the engine: device pointers and ``dim3``."""

import numpy as np

from ..errors import RuntimeLaunchError


class Dim3:
    """Mutable CUDA ``dim3`` with C-like value semantics on assignment."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x=1, y=1, z=1):
        self.x = int(x)
        self.y = int(y)
        self.z = int(z)

    @classmethod
    def of(cls, value):
        """Copy-convert: ints become (n,1,1); Dim3 instances are copied."""
        if isinstance(value, Dim3):
            return cls(value.x, value.y, value.z)
        return cls(int(value))

    @property
    def total(self):
        return self.x * self.y * self.z

    def __eq__(self, other):
        if isinstance(other, Dim3):
            return (self.x, self.y, self.z) == (other.x, other.y, other.z)
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y, self.z))

    def __repr__(self):
        return "Dim3(%d, %d, %d)" % (self.x, self.y, self.z)


_OBJECT = np.dtype(object)
_STORE = {"i": int, "f": float}


class Ptr:
    """A typed view into device memory: a Python list plus an offset.

    Device memory is a plain list so generated kernels index it at list
    speed; *dtype* (a numpy dtype: int64, float64 or object) records the
    element type. Object elements hold pointer- or dim3-valued entries
    (used by the aggregation buffers). Stores through the view coerce to
    the element type as a C store would (``int`` elements truncate a
    float, ``float`` elements widen an int). Pointer arithmetic
    (``p + k``) produces a new view over the same list.

    Kernels compute with unbounded Python ints; :meth:`to_numpy` is the
    host boundary, where an int outside int64 raises ``OverflowError``
    instead of wrapping.
    """

    __slots__ = ("array", "offset", "dtype")

    def __init__(self, array, offset=0, dtype=_OBJECT):
        self.array = array
        self.offset = offset
        self.dtype = dtype

    def __getitem__(self, index):
        return self.array[self.offset + index]

    def __setitem__(self, index, value):
        convert = _STORE.get(self.dtype.kind)
        self.array[self.offset + index] = (
            value if convert is None else convert(value))

    def __add__(self, other):
        return Ptr(self.array, self.offset + int(other), self.dtype)

    def __len__(self):
        return len(self.array) - self.offset

    def fill(self, value):
        convert = _STORE.get(self.dtype.kind)
        if convert is not None:
            value = convert(value)
        self.array[self.offset:] = [value] * len(self)

    def to_numpy(self):
        """A copy of the viewed region as a numpy array (host readback)."""
        values = self.array[self.offset:]
        if self.dtype.kind != "O":
            return np.array(values, dtype=self.dtype)
        # Element-wise: numpy would unpack Ptr elements as sequences.
        array = np.empty(len(values), dtype=object)
        for index, value in enumerate(values):
            array[index] = value
        return array

    def __repr__(self):
        return "Ptr(dtype=%s, len=%d, off=%d)" % (
            self.dtype, len(self.array), self.offset)


def hoist(ptr):
    """``(backing list, offset)`` of a pointer value, which generated
    kernels bind once so ``p[i]`` becomes a direct list index. Plain lists
    (``__shared__`` and local arrays passed as pointers) hoist as
    themselves at offset 0."""
    if ptr.__class__ is Ptr:
        return ptr.array, ptr.offset
    return ptr, 0


_DTYPES = {
    "int": np.int64,
    "unsigned": np.int64,
    "unsigned int": np.int64,
    "long": np.int64,
    "unsigned long": np.int64,
    "short": np.int64,
    "char": np.int64,
    "bool": np.int64,
    "float": np.float64,
    "double": np.float64,
}


def alloc_for_type(element_type, count):
    """Allocate zeroed device memory for *count* elements of a miniCUDA type.

    *element_type* is the type of one element: pointer and ``dim3`` elements
    get object storage (initially ``None``; they store Ptr / Dim3 values);
    integer scalars get ``0`` and floating scalars ``0.0``.
    """
    count = int(count)
    if element_type.pointers >= 1 or element_type.name == "dim3":
        return Ptr([None] * count)
    name = element_type.name
    if name not in _DTYPES:
        raise RuntimeLaunchError("cannot allocate elements of type %r" % name)
    dtype = np.dtype(_DTYPES[name])
    return Ptr([_STORE[dtype.kind](0)] * count, 0, dtype)
