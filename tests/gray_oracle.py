"""Bit-by-bit Gray mapping, the reference for the modems' lookup tables.

These are the helpers the PAM and QAM mappers used before they became
table lookups, with the mappers built on them; the tests require the
tables to give identical levels, symbols and bits.
"""

import numpy as np


def bits_to_ints(bits: np.ndarray) -> np.ndarray:
    # MSB-first groups along the last axis
    b = bits.shape[-1]
    weights = 1 << np.arange(b - 1, -1, -1)
    return bits @ weights


def ints_to_bits(ints: np.ndarray, b: int) -> np.ndarray:
    shifts = np.arange(b - 1, -1, -1)
    return (ints[..., None] >> shifts) & 1


def gray_to_index(gray: np.ndarray, nbits: int) -> np.ndarray:
    idx = gray.copy()
    shift = 1
    while shift < nbits:
        idx ^= idx >> shift
        shift <<= 1
    return idx


def index_to_gray(idx: np.ndarray) -> np.ndarray:
    return idx ^ (idx >> 1)


def levels_from_bits(bits: np.ndarray, m: int, n: int) -> np.ndarray:
    b = int(np.log2(m))
    groups = bits.reshape(*bits.shape[:-1], n - 1, b)
    idx = gray_to_index(bits_to_ints(groups), b)
    levels = np.zeros((*idx.shape[:-1], n), dtype=np.float64)
    levels[..., 1:] = idx / (m - 1)
    return levels


def slice_levels(estimates: np.ndarray, m: int):
    b = int(np.log2(m))
    scaled = np.asarray(estimates) * (m - 1)
    idx = np.clip(np.ceil(scaled - 0.5), 0, m - 1).astype(np.int64)
    return idx, ints_to_bits(index_to_gray(idx), b)


def qam_symbols(bits: np.ndarray, m_qam: int) -> np.ndarray:
    side = int(round(np.sqrt(m_qam)))
    bps = int(np.log2(m_qam))
    half = bps // 2
    groups = bits.reshape(*bits.shape[:-1], -1, bps)
    norm = np.sqrt(2.0 * (side * side - 1) / 3.0)
    i_idx = gray_to_index(bits_to_ints(groups[..., :half]), half)
    q_idx = gray_to_index(bits_to_ints(groups[..., half:]), half)
    return (side - 1 - 2 * i_idx) / norm + 1j * ((side - 1 - 2 * q_idx) / norm)


def qam_bits(symbols: np.ndarray, m_qam: int) -> np.ndarray:
    side = int(round(np.sqrt(m_qam)))
    half = int(np.log2(side))
    norm = np.sqrt(2.0 * (side * side - 1) / 3.0)

    def axis_bits(x):
        idx_f = (side - 1 - x * norm) / 2.0
        idx = np.clip(np.ceil(idx_f - 0.5), 0, side - 1).astype(np.int64)
        return ints_to_bits(index_to_gray(idx), half)

    out = np.concatenate([axis_bits(symbols.real), axis_bits(symbols.imag)], axis=-1)
    return out.reshape(*symbols.shape[:-1], -1)


def fold_levels(estimates: np.ndarray, m: int) -> np.ndarray:
    """The PAM slicer's folded input for level estimates in [0, 1]: (m - 1) u - 1/2."""
    folded = np.asarray(estimates, dtype=np.float64) * (m - 1)
    folded -= 0.5
    return folded


def fold_qam(symbols: np.ndarray, m_qam: int) -> np.ndarray:
    """The QAM slicer's folded input for symbols: per axis (side - 1 - x norm) / 2 - 1/2,
    in the operations the slicer once ran itself, so exact ties stay ties."""
    side = int(round(np.sqrt(m_qam)))
    norm = np.sqrt(2.0 * (side * side - 1) / 3.0)
    folded = np.asarray(symbols, dtype=np.complex128) * (-0.5 * norm)
    folded += 0.5 * (side - 1) * (1 + 1j)
    folded -= 0.5 * (1 + 1j)
    return folded
