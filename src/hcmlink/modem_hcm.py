"""HCM and DCR-HCM modem: PAM mapping, encode/decode, framing, interleaving.

Signal path conventions used throughout the package:

* A data frame u has length N with u[0] pinned to 0; the remaining N-1
  entries are Gray-labeled M-PAM levels on the grid {0, 1/(M-1), ..., 1}.
* The chip vector is x = H u + (1-H)(1-u), computed via the fast transform
  as x = (N + B(2u - 1)) / 2 with B the bipolar matrix. Chips live on the
  grid {k/(M-1)} inside [0, N].
* Transmitted samples are chips scaled by P/N with an optional cyclic
  prefix, where P is the unclipped peak drive power.
* The decoder output is v = (B y + (P/2)[1-N, 1, ..., 1]) / N. On a clean
  channel this recovers v = (P/N) u exactly; any constant offset added to y
  (such as the per-symbol DC removed by DCR-HCM) only moves v[0], which
  carries no data.
"""

import numpy as np

from .errors import ConfigError, FramingError
from .hadamard import fwht


def _bits_to_ints(bits: np.ndarray) -> np.ndarray:
    # MSB-first groups along the last axis
    b = bits.shape[-1]
    weights = 1 << np.arange(b - 1, -1, -1)
    return bits @ weights


def _ints_to_bits(ints: np.ndarray, b: int) -> np.ndarray:
    shifts = np.arange(b - 1, -1, -1)
    return (ints[..., None] >> shifts) & 1


def _gray_to_index(gray: np.ndarray, nbits: int) -> np.ndarray:
    idx = gray.copy()
    shift = 1
    while shift < nbits:
        idx ^= idx >> shift
        shift <<= 1
    return idx


def _index_to_gray(idx: np.ndarray) -> np.ndarray:
    return idx ^ (idx >> 1)


def _check_pam_order(m: int):
    if m < 2 or m & (m - 1):
        raise ConfigError(f"PAM order must be a power of two >= 2, got {m}")


def levels_from_bits(bits: np.ndarray, m: int, n: int) -> np.ndarray:
    """Vectorized bit-to-level mapping; returns (..., n) with column 0 zero."""
    _check_pam_order(m)
    bits = np.asarray(bits)
    b = int(np.log2(m))
    if bits.shape[-1] != (n - 1) * b:
        raise FramingError(
            f"expected {(n - 1) * b} bits for n={n}, m={m}, got {bits.shape[-1]}"
        )
    groups = bits.reshape(*bits.shape[:-1], n - 1, b)
    idx = _gray_to_index(_bits_to_ints(groups), b)
    levels = np.zeros((*idx.shape[:-1], n), dtype=np.float64)
    levels[..., 1:] = idx / (m - 1)
    return levels


def encode_levels(levels: np.ndarray) -> np.ndarray:
    """HCM encode along the last axis: x = (N + B(2u - 1)) / 2."""
    levels = np.asarray(levels, dtype=np.float64)
    n = levels.shape[-1]
    return 0.5 * (n + fwht(2.0 * levels - 1.0))


def decode_samples(y: np.ndarray, p: float) -> np.ndarray:
    """Vectorized decoder: v = (B y + (p/2)[1-N, 1, ..., 1]) / N."""
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[-1]
    offset = np.full(n, 0.5 * p)
    offset[0] = 0.5 * p * (1 - n)
    return (fwht(y) + offset) / n


def slice_levels(estimates: np.ndarray, m: int):
    """Snap level estimates in [0, 1] to the (M-1) grid and Gray-decode bits.

    Ties snap to the lower level. Returns (level indices, bits) with bits
    shaped (..., n_levels, log2(m)).
    """
    _check_pam_order(m)
    b = int(np.log2(m))
    scaled = np.asarray(estimates) * (m - 1)
    idx = np.clip(np.ceil(scaled - 0.5), 0, m - 1).astype(np.int64)
    bits = _ints_to_bits(_index_to_gray(idx), b)
    return idx, bits


def prepend_cyclic_prefix(x: np.ndarray, cp_len: int) -> np.ndarray:
    """Copy the last cp_len samples to the front (along the last axis)."""
    if cp_len == 0:
        return np.asarray(x)
    x = np.asarray(x)
    return np.concatenate([x[..., -cp_len:], x], axis=-1)


def frame_chips(chips: np.ndarray, p: float, cp_len: int) -> np.ndarray:
    """Scale chips by p/N and prepend the cyclic prefix (vectorized)."""
    chips = np.asarray(chips, dtype=np.float64)
    n = chips.shape[-1]
    if cp_len >= n:
        raise ConfigError(f"cyclic prefix {cp_len} must be shorter than symbol {n}")
    return prepend_cyclic_prefix(chips * (p / n), cp_len)


def deframe(samples: np.ndarray, cp_len: int) -> np.ndarray:
    """Drop the cyclic prefix; returns the N payload samples."""
    samples = np.asarray(samples)
    return samples[..., cp_len:]


def _check_permutation(perm: np.ndarray, n: int):
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ConfigError("interleaver is not a permutation of 0..N-1")


def interleave(x: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Permute transmit chips: out[perm[i]] = x[i] along the last axis."""
    x = np.asarray(x)
    perm = np.asarray(perm)
    _check_permutation(perm, x.shape[-1])
    out = np.empty_like(x)
    out[..., perm] = x
    return out


def deinterleave(v: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Invert interleave: out[i] = v[perm[i]]."""
    v = np.asarray(v)
    perm = np.asarray(perm)
    _check_permutation(perm, v.shape[-1])
    return v[..., perm]
