"""HCM and DCR-HCM modem: PAM mapping, encode/decode, framing, interleaving.

Signal path conventions used throughout the package:

* A data frame u has length N with u[0] pinned to 0; the remaining N-1
  entries are Gray-labeled M-PAM levels on the grid {0, 1/(M-1), ..., 1}.
* The chip vector is x = H u + (1-H)(1-u) = (N + B(2u - 1)) / 2 with B the
  bipolar matrix. Since B 1 = N e_0 this is x = B u + (N/2)(1 - e_0), which
  encode_levels computes as one fast transform and one add of N/2 to every
  chip but x[0]. Chips live on the grid {k/(M-1)} inside [0, N].
* Transmitted samples are chips scaled by P/N with an optional cyclic
  prefix, where P is the unclipped peak drive power.
* The decoder output is v = (B y + (P/2)[1-N, 1, ..., 1]) / N, its division
  a multiply by 1/N, exact for a power-of-two N. On a clean
  channel this recovers v = (P/N) u exactly; any constant offset added to y
  (such as the per-symbol DC removed by DCR-HCM) only moves v[0], which
  carries no data.
"""

from functools import lru_cache

import numpy as np

from .errors import ConfigError, SizeError
from .hadamard import fwht


@lru_cache(maxsize=None)
def _gray_tables(b: int) -> tuple[np.ndarray, np.ndarray]:
    """Gray labelling of b-bit groups as two read-only lookup tables.

    index[g] is the position on the level grid of the group whose MSB-first
    value is g; bits[i] holds the b bits, MSB first, of the group at
    position i. Adjacent positions differ in one bit.
    """
    index = np.arange(1 << b)
    shift = 1
    while shift < b:
        index ^= index >> shift
        shift <<= 1
    gray = np.arange(1 << b)
    gray ^= gray >> 1
    bits = (gray[:, None] >> np.arange(b - 1, -1, -1)) & 1
    index.setflags(write=False)
    bits.setflags(write=False)
    return index, bits


def _group_values(groups: np.ndarray) -> np.ndarray:
    """MSB-first value of each bit group along the last axis.

    A one-bit group is its own value: the result is then a view of groups.
    Longer groups are summed in place into one new array.
    """
    value = groups[..., 0]
    for j in range(1, groups.shape[-1]):
        if j == 1:
            value = 2 * value  # a new array: groups stay as they are
        else:
            value *= 2
        value += groups[..., j]
    return value


def _check_pam_order(m: int):
    if m < 2 or m & (m - 1):
        raise ConfigError(f"PAM order must be a power of two m >= 2, got m={m}")


@lru_cache(maxsize=None)
def _level_table(m: int) -> np.ndarray:
    # level of each Gray label: its grid position / (m - 1)
    table = _gray_tables(int(np.log2(m)))[0] / (m - 1)
    table.setflags(write=False)
    return table


def levels_from_bits(bits: np.ndarray, m: int, n: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized bit-to-level mapping; returns (..., n) with column 0 zero.

    With `out` (float64, shape (..., n)) the levels are written there.
    """
    _check_pam_order(m)
    bits = np.asarray(bits)
    b = int(np.log2(m))
    if bits.shape[-1] != (n - 1) * b:
        raise SizeError(
            f"expected {(n - 1) * b} bits for n={n}, m={m}, got {bits.shape[-1]}"
        )
    labels = _group_values(bits.reshape(*bits.shape[:-1], n - 1, b))
    if out is None:
        out = np.empty((*labels.shape[:-1], n))
    out[..., 0] = 0.0
    out[..., 1:] = _level_table(m)[labels]
    return out


def encode_levels(levels: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """HCM encode along the last axis: x = B u + (N/2)(1 - e_0).

    This is x = (N + B(2u - 1)) / 2, because B 1 = N e_0: one transform, one
    contiguous add of N/2 and column 0 put back to (B u)_0. With `out`
    (float64, the shape of levels; it may be levels itself) the chips are
    written there.
    """
    levels = np.asarray(levels, dtype=np.float64)
    out = fwht(levels, out=out)
    first = out[..., 0].copy()
    out += 0.5 * levels.shape[-1]
    out[..., 0] = first
    return out


def decode_samples(y: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized decoder: v = (B y + (p/2)[1-N, 1, ..., 1]) / N.

    The division is a multiply by 1/N, which is exact for the power-of-two N
    that fwht takes, so both give the same floats. With `out` (float64, the
    shape of y) the decoded vectors are written there.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[-1]
    offset = np.full(n, 0.5 * p)
    offset[0] = 0.5 * p * (1 - n)
    out = fwht(y, out=out)
    out += offset
    out *= 1.0 / n
    return out


def slice_levels(estimates: np.ndarray, m: int, out: tuple | None = None):
    """Snap level estimates in [0, 1] to the (M-1) grid and Gray-decode bits.

    Ties snap to the lower level. Returns (level indices, bits) with bits
    shaped (..., n_levels, log2(m)). With `out`, a pair of int64 arrays of
    those shapes, both are written there.
    """
    _check_pam_order(m)
    scaled = np.asarray(estimates, dtype=np.float64) * (m - 1)
    scaled -= 0.5
    np.ceil(scaled, out=scaled)
    np.clip(scaled, 0, m - 1, out=scaled)
    idx, bits = out if out is not None else (np.empty(scaled.shape, np.int64), None)
    np.copyto(idx, scaled, casting="unsafe")
    bits = np.take(_gray_tables(int(np.log2(m)))[1], idx, axis=0, out=bits, mode="clip")
    return idx, bits


def frame_chips(chips: np.ndarray, p: float, cp_len: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Scale chips by p/N and prepend the cyclic prefix (vectorized).

    With `out` (float64, shape (..., N + cp_len)) the samples are written there.
    """
    chips = np.asarray(chips, dtype=np.float64)
    n = chips.shape[-1]
    if cp_len >= n:
        raise ConfigError(f"cyclic prefix {cp_len} must be shorter than symbol {n}")
    if out is None:
        out = np.empty((*chips.shape[:-1], n + cp_len))
    np.multiply(chips, p / n, out=out[..., cp_len:])
    out[..., :cp_len] = out[..., n:]
    return out


def _check_permutation(perm: np.ndarray, n: int):
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ConfigError("interleaver is not a permutation of 0..N-1")


def interleave(x: np.ndarray, perm: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Permute transmit chips: out[perm[i]] = x[i] along the last axis.

    `out`, when given, must not overlap x.
    """
    x = np.asarray(x)
    perm = np.asarray(perm)
    _check_permutation(perm, x.shape[-1])
    # a gather through the inverse permutation: a scatter into out is ~3x slower
    return np.take(x, np.argsort(perm), axis=-1, out=out, mode="clip")


def deinterleave(v: np.ndarray, perm: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Invert interleave: out[i] = v[perm[i]].

    `out`, when given, must not overlap v.
    """
    v = np.asarray(v)
    perm = np.asarray(perm)
    _check_permutation(perm, v.shape[-1])
    return np.take(v, perm, axis=-1, out=out, mode="clip")
