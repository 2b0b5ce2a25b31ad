"""A reference link built from the paper's definitions, one chunk at a time.

hcm_chunk is the hcm and dcr-hcm chunk of harness._run_chunk written out
with dense matrices: the 0/1 Sylvester matrix H and the encoder
x = H u + (1 - H)(1 - u), the frame minimum subtracted for DCR-HCM, the
interleaver as a permutation matrix, framing by p/N with the cyclic
prefix, the LED clip to [0, p_max], np.convolve per framed symbol, then
either the inverse of the encoder through B = 2H - 1 (B B = N I) or an
N x N linear MMSE solve, and the Gray oracle's slicer.

ofdm_chunk is the aco-ofdm and dco-ofdm chunk: Gray QAM on a Hermitian
spectrum, an explicit N x N inverse DFT matrix, the drive p (plus the bias
for DCO), the cyclic prefix, the same LED clip, which is ACO's only zero
clip, the same convolution, a DFT matrix, zero forcing per bin times ACO's
clipping factor c = 2 (1 for DCO) over p, and the Gray oracle's QAM slicer.

Both read their stream in the engine's order: the bits by
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


def _link(rng, s: np.ndarray, *, p_max: float, noise_var: float, taps, cp_len: int):
    """Frames s (one a row) through the cyclic prefix, the LED clip to [0, p_max],
    the taps and the noise; returns the received frames without their prefix."""
    k, n = s.shape
    framed = np.hstack([s[:, n - cp_len:], s])
    lit = np.clip(framed, 0.0, p_max)
    y = np.array([np.convolve(row, taps)[:n + cp_len] for row in lit])
    y += np.sqrt(noise_var) * rng.standard_normal((k, n + cp_len))
    return y[:, cp_len:]


def hcm_chunk(rng: np.random.Generator, k: int, *, n: int, m: int, p: float, p_max: float,
              noise_var: float, taps, cp_len: int, perm=None, reduce_dc: bool = False,
              mmse: bool = False):
    """k symbols of the hcm link at drive p; returns (bit errors, level estimates).

    perm maps chip i to position perm[i] on the line (None: no interleaver).
    The estimates are the (k, n - 1) data levels in [0, 1] units, before the
    slicer: the decoded levels, or with mmse the linear MMSE estimate of u
    from the received chips of a frame.
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
    y = _link(rng, x * (p / n), p_max=p_max, noise_var=noise_var, taps=taps, cp_len=cp_len)
    bipolar = 2 * h - 1
    if mmse:
        u_hat = _lmmse(y, m=m, p=p, noise_var=noise_var, taps=taps, shuffle=shuffle,
                       bipolar=bipolar)
    else:
        y = y @ shuffle  # the receiver undoes the interleaver
        # x = (N 1 + B(2u - 1)) / 2 inverted: u = (B(2x - N 1) / N + 1) / 2, with x = y N / p
        u_hat = ((2 * y * (n / p) - n) @ bipolar / n + 1) / 2
    est = u_hat[:, 1:]
    _, bits_hat = gray_oracle.slice_levels(est, m)
    return int(np.count_nonzero(bits_hat.reshape(k, -1) != bits)), est


def _lmmse(y: np.ndarray, *, m: int, p: float, noise_var: float, taps, shuffle: np.ndarray,
           bipolar: np.ndarray) -> np.ndarray:
    """The linear MMSE estimate E[u] + C_uy C_yy^-1 (y - E[y]) of each frame's levels u.

    A frame's chips are y = A u + a + noise, with A = (p/N) G Pi B and
    a = (p/N) G Pi (N/2)(1 - e_0); u[0] = 0 and u[1:] are independent
    levels of mean 1/2 and variance var_u. C_yy is the covariance that
    hcmlink.equalization's docstring states, checked here against A's.
    """
    n = y.shape[-1]
    var_u = np.var(np.arange(m) / (m - 1))
    col = np.pad(np.asarray(taps, dtype=np.float64), (0, n - len(taps)))
    g = col[(np.arange(n)[:, None] - np.arange(n)) % n]  # the circulant G[i, j] = h[(i - j) mod N]
    a_mat = (p / n) * g @ shuffle @ bipolar
    mean_u = np.full(n, 0.5)
    mean_u[0] = 0.0
    offset = (p / n) * g @ shuffle @ np.r_[0.0, np.full(n - 1, n / 2)]
    cov_u = var_u * np.diag(np.r_[0.0, np.ones(n - 1)])
    cov_y = (p / n) ** 2 * var_u * (n * g @ g.T - np.ones((n, n))) + noise_var * np.eye(n)
    np.testing.assert_allclose(cov_y, a_mat @ cov_u @ a_mat.T + noise_var * np.eye(n),
                               rtol=0, atol=1e-12 * np.abs(cov_y).max())
    gain = np.linalg.solve(cov_y, a_mat @ cov_u)  # C_yy^-1 C_yu, C_yy symmetric
    return mean_u + (y - (a_mat @ mean_u + offset)) @ gain


def ofdm_chunk(rng: np.random.Generator, k: int, *, scheme: str, n: int, m: int, p: float,
               avg_power: float, p_max: float, noise_var: float, taps, cp_len: int):
    """k symbols of the aco-ofdm or dco-ofdm link at drive p; returns (bit errors,
    equalized symbols).

    ACO loads the odd subcarriers below N/2 and sends the waveform p x with
    no bias: the LED clips it at zero. DCO loads subcarriers 1..N/2-1 and
    sends p x plus the bias avg_power. The symbols are the (k, data count)
    equalized QAM symbols, before the slicer.
    """
    aco = scheme == "aco-ofdm"
    bins = np.arange(1, n // 2, 2 if aco else 1)
    bits = rng.integers(0, 2, size=(k, bins.size * int(np.log2(m))))
    symbols = gray_oracle.qam_symbols(bits, m)
    spectrum = np.zeros((k, n), dtype=np.complex128)
    spectrum[:, bins] = symbols
    spectrum[:, n - bins] = symbols.conj()  # Hermitian: a real waveform
    index = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(index, index) / n)
    x = (spectrum @ dft.conj().T / n).real  # the inverse DFT, one frame a row
    s = p * x + (0.0 if aco else avg_power)
    y = _link(rng, s, p_max=p_max, noise_var=noise_var, taps=taps, cp_len=cp_len)
    gains = dft @ np.pad(np.asarray(taps, dtype=np.float64), (0, n - len(taps)))
    # the negative half of ACO's clipped waveform halves its odd bins: c = 2 undoes it
    est = (y @ dft.T)[:, bins] * ((2.0 if aco else 1.0) / (p * gains[bins]))
    bits_hat = gray_oracle.qam_bits(est, m)
    return int(np.count_nonzero(bits_hat != bits)), est
