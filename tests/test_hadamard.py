import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import hadamard as scipy_hadamard

from hcmlink import analysis, cli, harness
from hcmlink.analysis import dcr_amplitude_pmf
from hcmlink.errors import ConfigError, SizeError
from hcmlink.hadamard import MAX_ORDER_LOG2, fwht


def _butterfly_fwht(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Radix-2 butterfly reference: log2 N in-place passes of sums and differences."""
    a = np.asarray(v, dtype=np.float64)
    n = a.shape[axis]
    if n == 0 or n & (n - 1):
        raise SizeError(f"fwht length must be a power of two, got {n}")
    a = np.moveaxis(a, axis, -1).copy()
    h = 1
    while h < n:
        pairs = a.reshape(*a.shape[:-1], -1, 2, h)
        top = pairs[..., 0, :] + pairs[..., 1, :]
        bot = pairs[..., 0, :] - pairs[..., 1, :]
        pairs[..., 0, :] = top
        pairs[..., 1, :] = bot
        h *= 2
    return np.moveaxis(a, -1, axis)


def _fwht_along(v: np.ndarray, axis: int) -> np.ndarray:
    """fwht along any axis, through a transposed view that puts it last."""
    return np.swapaxes(fwht(np.swapaxes(v, axis, -1)), axis, -1)


def sylvester(k: int) -> np.ndarray:
    """The bipolar Sylvester matrix of order 2**k, read off fwht of the identity."""
    return fwht(np.eye(1 << k))


def test_sylvester_base_case():
    assert sylvester(0).tolist() == [[1]]


def test_sylvester_order_two():
    assert sylvester(1).tolist() == [[1, 1], [1, -1]]


def test_sylvester_bipolar_orthogonality():
    b = sylvester(3)
    assert_allclose(b @ b.T, 8 * np.eye(8))


def test_sylvester_invariants():
    for k in range(1, 7):
        b = sylvester(k)
        n = 1 << k
        assert b[0].sum() == n and b[:, 0].sum() == n
        assert np.array_equal(b, b.T)
        # every row but the first has exactly n/2 entries +1 and n/2 entries -1
        assert np.array_equal(b[1:].sum(axis=1), np.zeros(n - 1))
        assert np.array_equal(b[n // 2:, n // 2:], -b[:n // 2, :n // 2])


def test_sylvester_order_out_of_range(tmp_path, capsys):
    # configs and the CLI accept orders up to 2**MAX_ORDER_LOG2, not above
    base = "scheme = hcm\nn = {}\n"
    top = 1 << MAX_ORDER_LOG2
    assert harness.parse_config(base.format(top)).n == top
    with pytest.raises(ConfigError, match="power of two"):
        harness.parse_config(base.format(2 * top))
    path = tmp_path / "big.conf"
    path.write_text(base.format(2 * top))
    assert cli.main(["analyze", str(path)]) == 2
    assert cli.main(["snr", "--n", str(2 * top)]) == 2
    assert capsys.readouterr().out == ""


def test_fwht_unit_vector_gives_ones():
    assert_allclose(fwht(np.eye(4)[0]), np.ones(4))


def test_fwht_involution_scales_by_n():
    rng = np.random.default_rng(0)
    v = rng.normal(size=8)
    assert_allclose(fwht(fwht(v)), 8 * v, atol=1e-12)


def test_fwht_matches_dense_multiply():
    rng = np.random.default_rng(1)
    v = rng.normal(size=16)
    assert np.abs(fwht(v) - scipy_hadamard(16) @ v).max() < 1e-12


@pytest.mark.parametrize("k", range(1, 11))
def test_fwht_agrees_with_scipy_hadamard(k):
    # independent oracle: scipy's Sylvester construction
    rng = np.random.default_rng(k)
    n = 1 << k
    v = rng.uniform(-1, 1, size=n)
    assert np.abs(fwht(v) - scipy_hadamard(n) @ v).max() < 1e-10


def test_fwht_linearity():
    rng = np.random.default_rng(2)
    u, v = rng.normal(size=(2, 32))
    a, b = 0.37, -1.9
    assert_allclose(fwht(a * u + b * v), a * fwht(u) + b * fwht(v), atol=1e-10)


def test_fwht_batched_matches_loop():
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(5, 16))
    out = fwht(batch)
    for row_in, row_out in zip(batch, out):
        assert_allclose(fwht(row_in), row_out)


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(SizeError):
        fwht(np.zeros(6))


ORACLE_ORDERS = [*range(13), MAX_ORDER_LOG2]


@pytest.mark.parametrize("k", ORACLE_ORDERS)
def test_fwht_exact_on_bipolar_input(k):
    n = 1 << k
    rng = np.random.default_rng(100 + k)
    v = rng.choice([-1.0, 1.0], size=(2, n))
    assert np.array_equal(fwht(v), _butterfly_fwht(v))


@pytest.mark.parametrize("k", ORACLE_ORDERS)
def test_fwht_exact_on_small_integer_input(k):
    n = 1 << k
    rng = np.random.default_rng(200 + k)
    v = rng.integers(-8, 9, size=(2, n)).astype(np.float64)
    assert np.array_equal(fwht(v), _butterfly_fwht(v))


@pytest.mark.parametrize("k", ORACLE_ORDERS)
def test_fwht_close_to_butterfly_on_floats(k):
    n = 1 << k
    rng = np.random.default_rng(300 + k)
    v = rng.normal(size=(3, n))
    expect = _butterfly_fwht(v)
    scale = np.abs(expect).max()
    assert np.abs(fwht(v) - expect).max() <= 1e-12 * scale


@pytest.mark.parametrize("shape", [(64, 8), (8, 64), (4, 32, 16), (16, 8, 128)])
@pytest.mark.parametrize("axis", [0, 1])
def test_fwht_along_axis_matches_butterfly(shape, axis):
    v = np.random.default_rng(4).integers(-3, 4, size=shape).astype(np.float64)
    assert np.array_equal(_fwht_along(v, axis), _butterfly_fwht(v, axis=axis))


def test_fwht_last_axis_of_3d_matches_butterfly():
    v = np.random.default_rng(5).integers(-3, 4, size=(3, 5, 256)).astype(np.float64)
    assert np.array_equal(fwht(v), _butterfly_fwht(v, axis=2))
    middle = v[:, :4, :]  # a power-of-two middle axis, reached through a transposed view
    assert np.array_equal(_fwht_along(middle, 1), _butterfly_fwht(middle, axis=1))


def test_fwht_non_contiguous_input():
    base = np.random.default_rng(6).integers(-5, 6, size=(128, 64)).astype(np.float64)
    transposed = base.T
    assert not transposed.flags.c_contiguous
    assert np.array_equal(fwht(transposed), _butterfly_fwht(transposed))
    strided = base[::2, ::2]
    assert not strided.flags.c_contiguous
    assert np.array_equal(fwht(strided), _butterfly_fwht(strided))
    assert np.array_equal(fwht(strided.T).T, _butterfly_fwht(strided, axis=0))


def test_fwht_integer_dtype_input():
    v = np.arange(-32, 32, dtype=np.int32).reshape(2, 32)
    out = fwht(v)
    assert out.dtype == np.float64
    assert np.array_equal(out, _butterfly_fwht(v))
    assert np.array_equal(out, v @ scipy_hadamard(32))


def test_fwht_length_one():
    v = np.array([[2.5], [-1.0]])
    out = fwht(v)
    assert np.array_equal(out, v)
    assert out is not v
    assert np.array_equal(fwht(v.T).T, _butterfly_fwht(v, axis=0))


def test_fwht_empty_batch():
    assert fwht(np.zeros((0, 16))).shape == (0, 16)


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_fwht_does_not_mutate_input(axis):
    v = np.random.default_rng(7).normal(size=(32, 32))
    keep = v.copy()
    _fwht_along(v, axis)
    assert np.array_equal(v, keep)


def test_fwht_result_is_writable():
    out = fwht(np.ones(64))
    out[0] = 0.0
    assert np.array_equal(fwht(np.ones(64))[:2], [64.0, 0.0])


@pytest.mark.parametrize("k", ORACLE_ORDERS)
def test_fwht_float32_exact_on_integers(k):
    # integer input with N max|v| < 2**24 keeps every partial sum exact
    n = 1 << k
    bound = (2**24 - 1) // n
    v = np.random.default_rng(400 + k).integers(-bound, bound + 1, size=(2, n))
    got = fwht(v.astype(np.float32))
    assert got.dtype == np.float32
    assert np.array_equal(got, fwht(v.astype(np.float64)))


def _kronecker_fwht(v: np.ndarray) -> np.ndarray:
    """The float64 Kronecker steps of fwht, written out: the reference for its rounding."""
    a = np.asarray(v, dtype=np.float64)
    n = a.shape[-1]
    k = n.bit_length() - 1
    count = -(-k // 5)
    sizes = [1 << (k // count + (i < k % count)) for i in range(count)]
    x, rest = a, n
    for f in sizes[:-1]:
        rest //= f
        x = np.matmul(scipy_hadamard(f).astype(np.float64), x.reshape(-1, f, rest))
    return (x.reshape(-1, sizes[-1]) @ scipy_hadamard(sizes[-1])).reshape(a.shape)


@pytest.mark.parametrize("k", [1, 5, 6, 7, 10, 12])
def test_fwht_float64_rounding_unchanged(k):
    v = np.random.default_rng(500 + k).normal(size=(3, 1 << k))
    assert fwht(v).dtype == np.float64
    assert np.array_equal(fwht(v), _kronecker_fwht(v))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("axis", [0, 1, -1])
@pytest.mark.parametrize("n", [8, 128])
def test_fwht_out_matches_returned_array(dtype, axis, n):
    # axis 0 is reached through transposed views of the input and of out
    v = np.random.default_rng(8).integers(-9, 10, size=(n, n)).astype(dtype)
    keep = v.copy()
    want = _fwht_along(v, axis)
    assert np.array_equal(want, _butterfly_fwht(v, axis=axis).astype(dtype))
    for out in (np.empty_like(v), np.empty((n, 2 * n), dtype)[:, ::2],
                np.empty((n, n + 3), dtype)[:, 3:]):
        view = np.swapaxes(out, axis, -1)
        assert fwht(np.swapaxes(v, axis, -1), out=view) is view
        assert np.array_equal(out, want)
        assert np.array_equal(v, keep)
    in_place = v.copy()
    view = np.swapaxes(in_place, axis, -1)
    assert fwht(view, out=view) is view
    assert np.array_equal(in_place, want)


def test_fwht_out_is_keyword_only():
    # bench/spans.py reads a positional second argument as the axis
    v = np.ones((4, 16))
    with pytest.raises(TypeError):
        fwht(v, np.empty_like(v))
    with pytest.raises(TypeError):
        fwht(v, axis=0)


def test_fwht_rejects_mismatched_out():
    v = np.ones((4, 16))
    with pytest.raises(SizeError, match="out"):
        fwht(v, out=np.empty((4, 8)))
    with pytest.raises(SizeError, match="out"):
        fwht(v, out=np.empty((4, 16), np.float32))


def test_dcr_calibration_pmf_matches_butterfly(monkeypatch):
    # exact integer arithmetic in fwht keeps the DCR calibration, and with it
    # every analyze/snr CSV, identical to the radix-2 butterfly's
    pmf = dcr_amplitude_pmf(128, 2, 20_000, np.random.default_rng(11))
    monkeypatch.setattr(analysis, "fwht", _butterfly_fwht)
    oracle = dcr_amplitude_pmf(128, 2, 20_000, np.random.default_rng(11))
    assert np.array_equal(pmf.support, oracle.support)
    assert np.array_equal(pmf.probs, oracle.probs)

