"""ACO-OFDM and DCO-OFDM baseline modems.

ACO-OFDM loads Gray-labeled square QAM onto the odd subcarriers with
Hermitian symmetry; the real IFFT output is antisymmetric between the two
symbol halves so zeroing negative samples costs exactly a factor 2 on the
data subcarriers, undone at the receiver; the zeroing is the LED limiter's
(channel.propagate), not this module's. DCO-OFDM loads subcarriers
1..N/2-1 and rides on a DC bias. Both use a one-tap zero-forcing equalizer
against the known channel frequency response.

Bit layout per QAM symbol: the first log2(M)/2 bits select the I level and
the rest the Q level, each MSB-first with Gray labels ordered so that the
all-zeros group maps to the most positive amplitude (00 -> (1+1j)/sqrt(2)
for QPSK).
"""

from functools import lru_cache

import numpy as np

from .errors import ConfigError, SizeError
from .modem_hcm import _gray_tables, _group_values


def _check_qam_order(m_qam: int):
    side = int(round(np.sqrt(m_qam)))
    if m_qam < 4 or side * side != m_qam or side & (side - 1):
        raise ConfigError(f"QAM order must be an even power of two >= 4, got {m_qam}")
    return side


@lru_cache(maxsize=None)
def _qam_tables(m_qam: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(symbol of each bit-group value, bits (uint8) of each pair index I * side + Q,
    unit-energy norm)."""
    side = _check_qam_order(m_qam)
    half = side.bit_length() - 1
    index, gray_bits = _gray_tables(half)
    norm = np.sqrt(2.0 * (side * side - 1) / 3.0)
    values = np.arange(m_qam)
    i_amp = (side - 1 - 2 * index[values >> half]) / norm
    q_amp = (side - 1 - 2 * index[values & (side - 1)]) / norm
    symbols = i_amp + 1j * q_amp
    bits = np.concatenate([np.repeat(gray_bits, side, axis=0),
                           np.tile(gray_bits, (side, 1))], axis=1)
    symbols.setflags(write=False)
    bits.setflags(write=False)
    return symbols, bits, norm


def qam_symbols(bits: np.ndarray, m_qam: int, out: np.ndarray | None = None) -> np.ndarray:
    """Map bit groups (..., k*log2(m)) to k unit-energy QAM symbols.

    With `out` (complex128, shape (..., k), C-contiguous) the symbols are written there.
    """
    symbols = _qam_tables(m_qam)[0]
    bits = np.asarray(bits)
    bps = int(np.log2(m_qam))
    if bits.shape[-1] % bps:
        raise SizeError(f"bit count must be a multiple of {bps}")
    values = _group_values(bits.reshape(*bits.shape[:-1], -1, bps))
    return np.take(symbols, values, out=out, mode="clip")


def qam_bits(symbols: np.ndarray, m_qam: int, out: tuple | None = None) -> np.ndarray:
    """Slice QAM symbols per axis (nearest level, ties to the lower index).

    Returns the bits (..., k*log2(m)) of k symbols. With `out`, a pair of
    integer arrays (the pair indices I * side + Q, shaped (..., k), and the
    bits, shaped (..., k, log2(m)), C-contiguous), both are written there and
    symbols, then a complex128 array, serve as scratch (else a copy does, and
    both are int64).
    """
    side = _check_qam_order(m_qam)
    _, table, norm = _qam_tables(m_qam)
    if out is None:
        symbols = np.array(symbols, dtype=np.complex128, order="C")
        out = (np.empty(symbols.shape, np.int64),
               np.empty((*symbols.shape, table.shape[1]), np.int64))
    pairs, bits = out
    xy = symbols[..., None].view(np.float64)  # re and im of each symbol
    # the nearest level's index, ties down: ceil((side - 1 - x * norm) / 2 - 0.5);
    # halving is exact, so scaling by -norm / 2 and adding (side - 1) / 2 gives its floats
    np.multiply(xy, -0.5 * norm, out=xy)
    xy += 0.5 * (side - 1)
    xy -= 0.5
    np.ceil(xy, out=xy)
    np.clip(xy, 0, side - 1, out=xy)
    xy[..., 0] *= side
    np.add(xy[..., 0], xy[..., 1], out=pairs, casting="unsafe")
    # the uint8 table cast to the dtype of out, as slice_levels does
    np.take(table.astype(bits.dtype, copy=False), pairs, axis=0, out=bits, mode="clip")
    return bits.reshape(*symbols.shape[:-1], -1)


def aco_data_count(n_fft: int) -> int:
    return n_fft // 4


def dco_data_count(n_fft: int) -> int:
    return n_fft // 2 - 1


def _time_samples(symbols: np.ndarray, n_fft: int, step: int,
                  out: tuple | None = None) -> np.ndarray:
    """Real IFFT of symbols on subcarriers 1, 1 + step, ... below n_fft/2.

    With `out`, a pair of a complex128 half spectrum (..., n_fft // 2 + 1)
    and float64 samples (..., n_fft), the symbols are loaded into the data
    bins of the first, its other bins zeroed, and the samples written to the
    second.
    """
    symbols = np.asarray(symbols)
    if out is None:
        out = np.empty((*symbols.shape[:-1], n_fft // 2 + 1), dtype=np.complex128), None
    half, samples = out
    half[...] = 0.0  # one contiguous pass: zeroing only the strided bins is slower
    data = half[..., 1 : n_fft // 2 : step]
    if symbols.shape[-1] != data.shape[-1]:
        raise ConfigError(f"a {n_fft}-point frame with subcarrier step {step} carries "
                          f"{data.shape[-1]} symbols, got {symbols.shape[-1]}")
    data[...] = symbols
    return np.fft.irfft(half, n_fft, axis=-1, out=samples)


def aco_time_samples(symbols: np.ndarray, n_fft: int, out: tuple | None = None) -> np.ndarray:
    """Real IFFT output with data on odd subcarriers (before any clipping); `out` as in
    _time_samples."""
    return _time_samples(symbols, n_fft, 2, out)


def dco_time_samples(symbols: np.ndarray, n_fft: int, out: tuple | None = None) -> np.ndarray:
    """Real IFFT output with data on subcarriers 1..n_fft/2-1 (zero-mean AC); `out` as in
    _time_samples."""
    return _time_samples(symbols, n_fft, 1, out)


def one_tap_gains(h: np.ndarray, n_fft: int) -> np.ndarray:
    """Channel frequency response on the non-negative subcarriers."""
    return np.fft.rfft(np.asarray(h, dtype=np.float64), n_fft)


def _extract(payload: np.ndarray, channel_gains: np.ndarray, step: int, scale: float,
             out: tuple | None = None) -> np.ndarray:
    """FFT and one-tap ZF equalization on subcarriers 1, 1 + step, ... below n_fft/2:
    one complex multiply of those bins by scale / channel_gains.

    With `out`, a pair of a complex128 spectrum (..., n_fft // 2 + 1) and
    complex128 symbols (..., k), the FFT is written to the first and the
    equalized symbols to the second.
    """
    payload = np.asarray(payload, dtype=np.float64)
    data = slice(1, payload.shape[-1] // 2, step)
    factor = scale / np.asarray(channel_gains)[data]
    spectrum, symbols = out or (None, np.empty((*payload.shape[:-1], factor.size), np.complex128))
    # a copy, then an in-place multiply, allocates no ufunc buffers for the strided bins
    np.copyto(symbols, np.fft.rfft(payload, axis=-1, out=spectrum)[..., data])
    symbols *= factor
    return symbols


def aco_extract(payload: np.ndarray, channel_gains: np.ndarray,
                out: tuple | None = None) -> np.ndarray:
    """FFT, one-tap ZF equalization, odd-subcarrier pick, clip-attenuation undo; `out` as
    in _extract."""
    return _extract(payload, channel_gains, 2, 2.0, out)


def dco_extract(payload: np.ndarray, channel_gains: np.ndarray,
                out: tuple | None = None) -> np.ndarray:
    """FFT and one-tap ZF equalization on subcarriers 1..n_fft/2-1; `out` as in _extract."""
    return _extract(payload, channel_gains, 1, 1.0, out)
