"""The fast Walsh-Hadamard transform.

B is the bipolar (+/-1) Sylvester Hadamard matrix of order N = 2**k,
B_2N = [[B_N, B_N], [B_N, -B_N]], which is symmetric and satisfies
B @ B = N * I. The 0/1 matrix H = (B + 1) / 2 of the HCM encoder is never
formed: modem_hcm works with B through `fwht`.

`fwht` uses the Kronecker factorisation of the Sylvester matrix,
B_N = B_a (x) B_b (x) ... with N = a * b * ... (Fino & Algazi, IEEE Trans.
Comput. 1976; Van Loan, Computational Frameworks for the FFT, 1992): each
factor of at most 32 points is one dense +/-1 matrix product on a reshaped
axis. It transforms the last axis only; a caller that needs another axis
passes a transposed view. On integer-valued inputs every partial sum is
exact, so the result is exact; on other floats it can differ from a
radix-2 butterfly in the last ulp because the additions run in another
order.

float32 input stays float32 (any other input is transformed in float64).
Every partial sum of B v is bounded by N max|v|, so integer-valued float32
input is transformed exactly while N max|v| < 2**24: the DCR calibration's
chips, odd integers of magnitude at most M-1, are exact while
(M-1) N < 2**24, i.e. for every M < 257 up to N = 2**16.
"""

from functools import lru_cache

import numpy as np
from scipy.linalg import hadamard

from .errors import SizeError

# Largest supported order, as log2 N; configs and the CLI reject larger N.
MAX_ORDER_LOG2 = 16
# Largest Kronecker factor of `fwht`, as log2 of its size: a 32 x 32 block.
MAX_FACTOR_LOG2 = 5


def _factor_sizes(order_log2: int) -> list:
    """Balanced split of 2**order_log2 into factors of at most 2**MAX_FACTOR_LOG2."""
    count = -(-order_log2 // MAX_FACTOR_LOG2)
    base, extra = divmod(order_log2, count)
    return [1 << (base + (i < extra)) for i in range(count)]


@lru_cache(maxsize=None)
def _bipolar_block(n: int, dtype: np.dtype) -> np.ndarray:
    block = hadamard(n, dtype)
    block.setflags(write=False)
    return block


def fwht(v: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Multiply by the bipolar Sylvester Hadamard matrix in O(N log N).

    Equivalent to B @ v without materializing the matrix. Accepts any array
    and transforms along its last axis; leading axes are treated as a batch.
    To transform along another axis, pass a transposed view, as in
    fwht(v.T).T for the columns of a matrix. Since B is symmetric with
    B @ B = N*I, applying fwht twice returns N times the input.

    The length N = f_1 * f_2 * ... * f_k is split into balanced factors of
    at most 32, and B_N = B_f1 (x) B_f2 (x) ... (x) B_fk. Factor i multiplies
    axis 1 of the vectors viewed as (batch, f_i, f_(i+1) * ... * f_k) by the
    cached block B_fi; the last factor is one (batch, f_k) @ B_fk product.
    Integer-valued inputs give exact results; other floats can differ from
    a radix-2 butterfly in the last ulp.

    float32 input is transformed in float32, anything else in float64. The
    result goes to `out` when given (keyword-only; same shape and dtype as
    the result; it may be v itself) and is returned. Each factor but the
    last allocates an intermediate of the input's size; the last product
    writes straight into a C-contiguous `out`.
    """
    a = np.asarray(v)
    if a.dtype != np.float32:
        a = a.astype(np.float64, copy=False)
    n = a.shape[-1]
    if n == 0 or n & (n - 1):
        raise SizeError(f"fwht length must be a power of two, got {n}")
    if out is None:
        out = np.empty(a.shape, a.dtype)
    elif out.shape != a.shape or out.dtype != a.dtype:
        raise SizeError(f"fwht out must be {a.dtype} with the input's shape, "
                        f"got {out.dtype} {out.shape}")
    if n == 1:
        out[...] = a
        return out
    *leading, last = _factor_sizes(n.bit_length() - 1)
    x, rest = a, n
    for f in leading:
        rest //= f
        x = np.matmul(_bipolar_block(f, a.dtype), x.reshape(-1, f, rest))
    dst = out.reshape(-1, last)  # a copy unless out is C-contiguous
    np.matmul(x.reshape(-1, last), _bipolar_block(last, a.dtype), out=dst)
    if not np.may_share_memory(dst, out):
        out[...] = dst.reshape(out.shape)
    return out
