"""A reference HCM link built from the paper's definitions, one chunk at a time.

hcm_chunk is the hcm and dcr-hcm slicer chunk of harness._run_chunk written
out with dense matrices: the 0/1 Sylvester matrix H and the encoder
x = H u + (1 - H)(1 - u), the frame minimum subtracted for DCR-HCM, the
interleaver as a permutation matrix, framing by p/N with the cyclic
prefix, the LED clip to [0, p_max], np.convolve per framed symbol, the
inverse of the encoder through B = 2H - 1 (B B = N I) and the Gray
oracle's slicer. It reads its stream in the engine's order: the bits by
rng.integers(0, 2, ...), then the noise by standard_normal over the framed
shape.
"""

import numpy as np

import gray_oracle


def sylvester(n: int) -> np.ndarray:
    """The 0/1 Sylvester Hadamard matrix H of order n, from H_2 = [[1, 1], [1, 0]]."""
    b = np.ones((1, 1), dtype=np.int64)  # the bipolar matrix, B_2N = [[B, B], [B, -B]]
    while len(b) < n:
        b = np.block([[b, b], [b, -b]])
    return (b + 1) // 2


def hcm_chunk(rng: np.random.Generator, k: int, *, n: int, m: int, p: float, p_max: float,
              noise_var: float, taps, cp_len: int, perm=None, reduce_dc: bool = False):
    """k symbols of the slicer link at drive p; returns (bit errors, level estimates).

    perm maps chip i to position perm[i] on the line (None: no interleaver).
    The estimates are the (k, n - 1) data levels in [0, 1] units, before the
    slicer.
    """
    b = int(np.log2(m))
    bits = rng.integers(0, 2, size=(k, (n - 1) * b))
    u = gray_oracle.levels_from_bits(bits, m, n)
    h = sylvester(n)
    x = u @ h.T + (1 - u) @ (1 - h).T  # one frame a row
    if reduce_dc:
        x -= x.min(axis=1, keepdims=True)
    order = np.arange(n) if perm is None else np.asarray(perm)
    shuffle = np.zeros((n, n))
    shuffle[order, np.arange(n)] = 1.0  # (shuffle @ x)[perm[i]] = x[i]
    x = x @ shuffle.T
    s = x * (p / n)
    framed = np.hstack([s[:, n - cp_len:], s])
    lit = np.clip(framed, 0.0, p_max)
    y = np.array([np.convolve(row, taps)[:n + cp_len] for row in lit])
    y += np.sqrt(noise_var) * rng.standard_normal((k, n + cp_len))
    y = y[:, cp_len:] @ shuffle  # the receiver undoes the interleaver
    # x = (N 1 + B(2u - 1)) / 2 inverted: u = (B(2x - N 1) / N + 1) / 2, with x = y N / p
    bipolar = 2 * h - 1
    u_hat = ((2 * y * (n / p) - n) @ bipolar / n + 1) / 2
    est = u_hat[:, 1:]
    _, bits_hat = gray_oracle.slice_levels(est, m)
    return int(np.count_nonzero(bits_hat.reshape(k, -1) != bits)), est
