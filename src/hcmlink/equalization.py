"""Dispersive-channel machinery: the linear MMSE receiver as a Wiener filter
on the received chips, and a heuristic interleaver search.

The channel is its taps h: zero-padded to N, column 0 of the circulant
G[i, j] = h[(i - j) mod N] (never formed, see _circulant_lines), with
spectrum H = rfft(h, N). With interleaver Pi (out[perm[i]] = x[i]), a frame
u (u[0] = 0, levels of variance var_u) arrives as the chips
y = (P/N) G Pi (N + B(2u - 1)) / 2 + noise of covariance sigma2 I. As
B D B = N I - 1 1^T for D = diag(0, 1, ..., 1), and G 1 = 1, y has
covariance (P/N)^2 var_u (N G G^T - 1 1^T) + sigma2 I for every Pi. Its
1 1^T terms and the mean of y, like the per-symbol DC shift of DC-reduced
transmission, reach only component 0 of the decoded vector (B 1 = N e_0),
which the slicer drops. So the MMSE estimate of u[1:] is exactly the
slicer's v[1:] N / P (modem_hcm) computed on the filtered chips F y,

    F = P^2 var_u conj(H) / T,   T = P^2 var_u |H|^2 + N sigma2.

On components 1..N-1 its error covariance is B Pi^T Q Pi B, Q the
symmetric circulant with spectrum var_u sigma2 / T, the noise's share (the
textbook var_u minus the explained variance cancels), and column
k = irfft(var_u sigma2 / T). As B[i, a] B[i, b] = B[i, a ^ b], its diagonal
is e = fwht(r), r[t] = sum_a k[(pi[a] - pi[a ^ t]) mod N], and e[0] = 0.

The interleaver search evens out the rows of M = (1/N) B Gt B, Gt = Pi^T G Pi,
the interference matrix of the noiseless decoded vector
v = (P/2N) (M (2u - 1) + 1). It scores each pairwise swap from circulant
lines of the taps, with no N x N state. Write M = C^T G C / N with
C = Pi^T B, so that row perm[a] of C is row a of B. Swapping perm[i] and
perm[j] adds e d^T to C, with e = e_perm[j] - e_perm[i] and d = B_i - B_j,
hence

    N M' = N M + a d^T + d b^T,   a = B (G e)[perm],
                                  b = B (G^T e)[perm] + c d,   c = e^T G e.

M never has to be multiplied: M d = B Gt (e_i - e_j) = -a exactly, and
M b = B (A e)[perm] - c a, where A = G G^T is the symmetric circulant of
the taps' circular autocorrelation. With |d|^2 = 2N the a^2 terms of the
new row energies cancel, leaving

    E' = E + d * ((2/N) M b + (2 d.b / N^2) a + (b.b / N^2) d),
    diag' = diag + d * (a + b) / N.

A step takes (G e)[perm], (G^T e)[perm] and (A e)[perm] as differences of
columns and rows perm[j] and perm[i] of G and A, taken at perm, and
transforms them and e[perm] with one fwht of a 4 x N block: O(N log N),
against two N x N transforms for a full evaluation. The state is perm and
M's row energies and diagonal; M is built once, for the start, and dropped.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import _check_power_of_two
from .errors import ConfigError, DomainError
from .hadamard import fwht

# Largest N for the interleaver search, which evaluates the identity and the
# start with N x N matrices (2.0 of its 2.1 s at N = 4096; 2-core Xeon).
MAX_MATRIX_ORDER = 4096
DIAG_BLOCK = 1 << 16  # (t, a) terms per block of mmse_weights' error diagonal


@dataclass(frozen=True)
class MmseWeights:
    """The MMSE filter on the received chips plus the predicted residual error."""

    spectrum: np.ndarray  # F on the rfft bins, length N/2 + 1
    error_diag: np.ndarray  # per-component error variance, length N


def _circulant_lines(h: np.ndarray, n: int, gram: bool = True) -> np.ndarray:
    """Columns and rows of G, and if gram columns of A = G G^T, as windows on
    their first line written twice: G[:, c] = out[0, N - c], G[r, :] =
    out[1, N - r] and A[:, c] = out[2, N - c] (views)."""
    h = np.asarray(h, dtype=np.float64)
    if h.size > n:
        raise ConfigError(f"{h.size} taps do not fit a {n}-point symbol")
    col = np.zeros(n)
    col[: h.size] = h
    first = [col, np.roll(col[::-1], 1)]  # G[0, c] = col[-c mod N]
    if gram:  # A[t, 0] = sum_k h[k] col[t + k]
        first.append(h @ sliding_window_view(np.tile(col, 2), n)[: h.size])
    return sliding_window_view(np.tile(np.stack(first), 2), n, axis=1)


def pam_level_variance(m: int) -> float:
    """Variance of a uniform level on {0, 1/(m-1), ..., 1}; 1/4 for binary."""
    return (m + 1.0) / (12.0 * (m - 1.0))


def interference_matrix(perm: np.ndarray, h: np.ndarray) -> np.ndarray:
    """M = (1/N) B Pi^T G Pi B for the channel taps h (ConfigError if over N), with two fwhts."""
    n = perm.size
    # Pi^T G Pi, Pi the matrix of out[perm[i]] = x[i]: Gt[a, b] = G[perm[a], perm[b]]
    gt = _circulant_lines(h, n, gram=False)[1][(n - perm)[:, None], perm]
    return fwht(fwht(gt.T).T) / n


def mmse_weights(gains: np.ndarray, perm: np.ndarray, p: float, noise_var: float,
                 m: int = 2) -> MmseWeights:
    """The MMSE filter and its error diagonal at drive p (module docstring).

    gains is rfft(h, N) and perm the interleaver (arange(N) for none);
    noise_var, the per-sample noise variance at the receiver, must be > 0:
    without noise the filter is 0/0 at a channel null. The error diagonal
    takes O(N**2) time, in blocks of DIAG_BLOCK terms, and O(N) memory:
    0.11 s at N = 4096, 0.35 s at 8192 and 36 s at 2**16 (2-core Xeon).
    """
    n, var_u = perm.size, pam_level_variance(m)
    total = (p * p * var_u) * (gains.real * gains.real + gains.imag * gains.imag) + n * noise_var
    spectrum = gains.conj() * (p * p * var_u / total)
    k = np.fft.irfft(var_u * noise_var / total, n)
    a, r = np.arange(n), np.empty(n)
    rows = min(n, max(1, DIAG_BLOCK // n))
    for t in range(0, n, rows):  # lag (pi[a] - pi[a ^ t]) mod N, N a power of two
        lag = perm[a ^ np.arange(t, t + rows)[:, None]]
        np.subtract(perm, lag, out=lag)
        r[t:t + rows] = k[np.bitwise_and(lag, n - 1, out=lag)].sum(axis=1)
    error_diag = fwht(r)
    error_diag[0] = 0.0  # u[0] carries no data
    return MmseWeights(spectrum=spectrum, error_diag=error_diag)


def interference_spread(mat: np.ndarray) -> float:
    """Variance across rows of the off-diagonal interference energy."""
    row_energy = (mat * mat).sum(axis=1) - np.diag(mat) ** 2
    return float(row_energy.var())


class _SwapScorer:
    """perm with M's row energies and diagonal: score(i, j) is interference_spread
    after swapping perm[i] and perm[j]; accept(i, j), right after score(i, j),
    makes that swap in place. spread is the objective of the starting perm."""

    def __init__(self, h: np.ndarray, perm: np.ndarray):
        n = perm.size
        self.perm, self.lines = perm, _circulant_lines(h, n)
        mat = interference_matrix(perm, h)
        self.spread = interference_spread(mat)
        # M's row energies E and diagonal; score writes the candidate's to cand
        self.state = np.stack((np.einsum("ij,ij->i", mat, mat), mat.diagonal()))
        self.cand = np.empty_like(self.state)
        # fwht takes rows (G e)[perm], (G^T e)[perm], (A e)[perm], e[perm] to terms
        # a, b - c d, ae = B (A e)[perm] and d
        self.rows, self.terms, self.diff = np.zeros((4, n)), np.empty((4, n)), np.empty((3, n))

    def score(self, i: int, j: int) -> float:
        perm, rows, (a, b, ae, d) = self.perm, self.rows, self.terms
        n = perm.size
        # column and row perm[j] minus perm[i] of G, and column of A, taken at perm
        np.subtract(self.lines[:, n - perm[j]], self.lines[:, n - perm[i]], out=self.diff)
        np.take(self.diff, perm, axis=1, out=rows[:3])
        rows[3, i], rows[3, j] = 1.0, -1.0
        fwht(rows, out=self.terms)
        rows[3, i] = rows[3, j] = 0.0
        c = rows[0, j] - rows[0, i]  # e^T G e = (G e)[perm][j] - (G e)[perm][i]
        b += c * d
        energy, diag = self.cand  # E' and diag' of the module docstring, with M b = ae - c a
        np.add(self.state[0], d * ((2.0 / n) * (ae - c * a) + (2.0 * (d @ b) / (n * n)) * a
                                   + ((b @ b) / (n * n)) * d), out=energy)
        np.add(self.state[1], d * (a + b) / n, out=diag)
        x = energy - diag * diag
        x -= np.add.reduce(x) / n  # np.var's steps, without its checks
        return float(np.add.reduce(x * x) / n)

    def accept(self, i: int, j: int):
        perm = self.perm
        perm[i], perm[j] = perm[j], perm[i]
        self.state, self.cand = self.cand, self.state


def interleaver_search(h: np.ndarray, n: int, *, budget: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, float, float]:
    """Find an N-point permutation that evens out the per-component interference.

    Returns (perm, identity_objective, objective), the objectives being
    interference_spread of the identity and of perm. Before any matrix is
    built, n must be a power of two (DomainError) and <= MAX_MATRIX_ORDER
    (ConfigError); h are the channel taps (ConfigError if more than n).

    Simulated annealing over pairwise swaps with a geometric temperature
    schedule (T0 = half the identity objective, decaying to 1e-3 * T0 over
    the budget). The identity permutation is always evaluated, so the result
    is never worse than no interleaving.

    The identity and the random start are evaluated in full; each step
    scores one swap from the taps, as in the module docstring. The state is
    perm, M's row energies and diagonal and the circulant lines, about 22
    N-vectors (0.7 MiB at N = MAX_MATRIX_ORDER), and a step allocates about 7
    more. The peak, four N x N float64 arrays, is interference_matrix building
    the start's M (512 MiB at N = MAX_MATRIX_ORDER), which is then dropped.
    With taps 0.5,0.3,0.2 and budget 2000 a step takes 0.035 ms at N = 128,
    0.074 ms at 1024 and 0.10 ms at 2048, and the whole search 0.07, 0.22
    and 0.51 s (2-core Xeon, 1 BLAS thread). The tracked objective agrees
    with a full evaluation to about 1e-13 (relative), not always to the last
    ulp, so where two candidates tie (as on taps 0.7,0.3) the search can
    branch other than a full evaluation would.

    The gain is the MMSE receiver's: on dcr-hcm, N = 128, taps 0.5,0.3,0.2,
    noise std 2 uW, 5e-5 W, its BER falls from 9.2e-4 to 2.1e-4 (a tier-1
    test pins this), while the plain slicer's rises from 0.086 to 0.094.

    budget and rng are keyword-only: wrappers that record the budget, such as
    the benchmark's tracer in bench/spans.py, read it by name.
    """
    _check_power_of_two(n)
    if n > MAX_MATRIX_ORDER:
        raise ConfigError(f"the interleaver search supports n <= {MAX_MATRIX_ORDER}, got {n}")
    if budget < 1:
        raise DomainError("budget must be >= 1")
    best = np.arange(n)
    identity_j = best_j = interference_spread(interference_matrix(best, h))
    if best_j == 0.0:
        return best, identity_j, best_j

    perm = rng.permutation(n)
    swaps = _SwapScorer(h, perm)
    cur_j = swaps.spread
    if cur_j < best_j:
        best, best_j = perm.copy(), cur_j
    decay = (1e-3) ** (1.0 / budget)
    temp = 0.5 * max(best_j, 1e-300)
    for _ in range(budget):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            temp *= decay
            continue
        cand_j = swaps.score(i, j)
        if cand_j < cur_j or rng.random() < math.exp(min((cur_j - cand_j) / temp, 0.0)):
            swaps.accept(i, j)
            cur_j = cand_j
            if cur_j < best_j:
                best, best_j = perm.copy(), cur_j
        temp *= decay
    return best, identity_j, best_j


def load_permutation(path, n: int | None = None) -> np.ndarray:
    """Read a permutation file and validate that it is a bijection."""
    with open(path) as fh:
        perm = np.array([int(line) for line in fh.read().split()], dtype=np.int64)
    if n is not None and perm.size != n:
        raise ConfigError(f"permutation length {perm.size} != expected {n}")
    if not np.array_equal(np.sort(perm), np.arange(perm.size)):
        raise ConfigError(f"{path} is not a permutation of 0..{perm.size - 1}")
    return perm
