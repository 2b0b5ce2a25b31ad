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


def _gray_positions(labels: np.ndarray, b: int) -> np.ndarray:
    """In place: the position on the level grid of each b-bit Gray label (the inverse
    Gray code, g ^ g >> 1 ^ g >> 2 ^ ...); for b = 1 no pass runs."""
    shift = 1
    while shift < b:
        labels ^= labels >> shift
        shift <<= 1
    return labels


@lru_cache(maxsize=None)
def _gray_tables(b: int) -> tuple[np.ndarray, np.ndarray]:
    """Gray labelling of b-bit groups as two read-only lookup tables.

    index[g] is the position on the level grid of the group whose MSB-first
    value is g; bits[i] holds the b bits (uint8), MSB first, of the group at
    position i. Adjacent positions differ in one bit.
    """
    index = _gray_positions(np.arange(1 << b), b)
    gray = np.arange(1 << b)
    gray ^= gray >> 1
    bits = ((gray[:, None] >> np.arange(b - 1, -1, -1)) & 1).astype(np.uint8)
    index.setflags(write=False)
    bits.setflags(write=False)
    return index, bits


def _group_values(groups: np.ndarray) -> np.ndarray:
    """MSB-first value of each bit group along the last axis.

    A one-bit group is its own value: the result is then a view of groups.
    Longer groups are summed in place into one new array, of groups' dtype
    or wider if a value needs it (uint8 bits give uint8 values up to 8 bits).
    """
    value, b = groups[..., 0], groups.shape[-1]
    for j in range(1, b):
        if j == 1:  # a new array: groups stay as they are
            wide = np.result_type(value, np.min_scalar_type((1 << b) - 1))
            value = np.multiply(value, 2, dtype=wide)
        else:
            value *= 2
        value += groups[..., j]
    return value


def _check_pam_order(m: int):
    if m < 2 or m & (m - 1):
        raise ConfigError(f"PAM order must be a power of two m >= 2, got m={m}")


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
    # level = grid position / (m - 1): a cast into out, then one contiguous divide
    # (a fancy index by uint8 labels would first convert them to a new intp array)
    out[..., 0] = 0
    np.copyto(out[..., 1:], _gray_positions(labels, b))
    if m > 2:  # m = 2: the positions are the levels
        out /= m - 1
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
    """Snap level estimates to the (M-1) grid and Gray-decode bits.

    The estimates are folded: (m - 1) u - 1/2 for a level u in [0, 1], the
    grid position less half a step, which the harness's receiver delivers.
    Ties snap to the lower level. Returns (level indices, bits) with bits
    shaped (..., n_levels, log2(m)). With `out`, a pair of integer arrays of
    those shapes, both are written there and the estimates, then a float64
    array, serve as scratch (else a copy does, and both are int64).
    """
    _check_pam_order(m)
    b = int(np.log2(m))
    scaled = estimates if out else np.array(estimates, dtype=np.float64)
    idx, bits = out or (np.empty(scaled.shape, np.int64), np.empty((*scaled.shape, b), np.int64))
    if m == 2:  # ceil, clipped to [0, 1], is the sign test, and the Gray label is the index
        np.greater(scaled, 0.0, out=idx)
        np.copyto(bits[..., 0], idx, casting="unsafe")
        return idx, bits
    np.ceil(scaled, out=scaled)
    np.clip(scaled, 0, m - 1, out=scaled)
    np.copyto(idx, scaled, casting="unsafe")
    # take accepts an out of its table's dtype or narrower, the latter through a full
    # copy, so the small table is cast to the dtype of out instead
    np.take(_gray_tables(b)[1].astype(bits.dtype, copy=False), idx, axis=0, out=bits,
            mode="clip")
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
