"""Sylvester Hadamard matrices and the fast Walsh-Hadamard transform.

The binary matrix convention is 0/1 with an all-ones first row and column;
the bipolar form is B = 2*rows - 1, which is symmetric and satisfies
B @ B = N * I. All transforms run in the bipolar domain.

`fwht` uses the Kronecker factorisation of the Sylvester matrix,
B_N = B_a (x) B_b (x) ... with N = a * b * ... (Fino & Algazi, IEEE Trans.
Comput. 1976; Van Loan, Computational Frameworks for the FFT, 1992): each
factor of at most 32 points is one dense +/-1 matrix product on a reshaped
axis. On integer-valued inputs every partial sum is exact, so the result is
exact; on other floats it can differ from a radix-2 butterfly in the last
ulp because the additions run in another order.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SizeError

MAX_ORDER_LOG2 = 16
# Largest N for which the dense 0/1 matrix may be materialized. Modem paths
# never need it; only tests, the MMSE weights and the interleaver search do.
DENSE_LIMIT = 256
# Largest Kronecker factor of `fwht`, as log2 of its size: a 32 x 32 block.
MAX_FACTOR_LOG2 = 5


@lru_cache(maxsize=None)
def _dense_rows(order_log2: int) -> np.ndarray:
    rows = np.array([[1]], dtype=np.int64)
    for _ in range(order_log2):
        rows = np.block([[rows, rows], [rows, 1 - rows]])
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class BinaryHadamard:
    """Sylvester Hadamard matrix of order n = 2**order_log2."""

    order_log2: int
    n: int

    @property
    def rows(self) -> np.ndarray:
        """Dense 0/1 matrix; only available up to DENSE_LIMIT."""
        if self.n > DENSE_LIMIT:
            raise SizeError(
                f"dense Hadamard matrix limited to n <= {DENSE_LIMIT}, got {self.n}"
            )
        return _dense_rows(self.order_log2)

    @property
    def bipolar(self) -> np.ndarray:
        """Bipolar +/-1 matrix B = 2*rows - 1."""
        return 2 * self.rows - 1


def sylvester(order_log2: int) -> BinaryHadamard:
    """Build the binary Sylvester Hadamard matrix of order 2**order_log2."""
    if not 0 <= order_log2 <= MAX_ORDER_LOG2:
        raise SizeError(f"order_log2 must be in [0, {MAX_ORDER_LOG2}], got {order_log2}")
    return BinaryHadamard(order_log2=order_log2, n=1 << order_log2)


def _factor_sizes(order_log2: int) -> list:
    """Balanced split of 2**order_log2 into factors of at most 2**MAX_FACTOR_LOG2."""
    count = -(-order_log2 // MAX_FACTOR_LOG2)
    base, extra = divmod(order_log2, count)
    return [1 << (base + (i < extra)) for i in range(count)]


@lru_cache(maxsize=None)
def _bipolar_block(n: int) -> np.ndarray:
    block = 2.0 * _dense_rows(n.bit_length() - 1) - 1.0
    block.setflags(write=False)
    return block


def fwht(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Multiply by the bipolar Sylvester Hadamard matrix in O(N log N).

    Equivalent to (2*rows - 1) @ v without materializing the matrix. Accepts
    any array and transforms along `axis`; leading axes are treated as a
    batch. Since B is symmetric with B @ B = N*I, applying fwht twice
    returns N times the input.

    The length N = f_1 * f_2 * ... * f_k is split into balanced factors of
    at most 32, and B_N = B_f1 (x) B_f2 (x) ... (x) B_fk. Factor i multiplies
    axis 1 of the vectors viewed as (batch, f_i, f_(i+1) * ... * f_k) by the
    cached block B_fi; the last factor is one (batch, f_k) @ B_fk product.
    Integer-valued inputs give exact results; other floats can differ from
    a radix-2 butterfly in the last ulp.
    """
    a = np.moveaxis(np.asarray(v, dtype=np.float64), axis, -1)
    n = a.shape[-1]
    if n == 0 or n & (n - 1):
        raise SizeError(f"fwht length must be a power of two, got {n}")
    if n == 1:
        return np.moveaxis(a.copy(), -1, axis)
    *leading, last = _factor_sizes(n.bit_length() - 1)
    x, rest = a, n
    for f in leading:
        rest //= f
        x = np.matmul(_bipolar_block(f), x.reshape(-1, f, rest))
    x = x.reshape(-1, last) @ _bipolar_block(last)
    return np.moveaxis(x.reshape(a.shape), -1, axis)


def cyclic_shift(v: np.ndarray, ell: int) -> np.ndarray:
    """Right cyclic shift by ell positions: out[i] = v[(i - ell) mod N]."""
    return np.roll(np.asarray(v), ell, axis=-1)
