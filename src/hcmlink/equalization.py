"""Dispersive-channel machinery: interference matrix of an interleaved
channel, linear MMSE estimation of the data frame from the decoded vector,
and a heuristic interleaver search.

The channel is its taps h: zero-padded to N, column 0 of the circulant
G[i, j] = h[(i - j) mod N], which is never formed (_circulant_lines). With
interleaver permutation pi and Gt = Pi^T G Pi, the decoded vector (see
modem_hcm) for a transmitted frame u is

    v = (P / 2N) * M (2u - 1) + (P / 2N) * 1 + noise,   M = (1/N) B Gt B

with noise covariance (sigma2/N) I. Since u[0] is pinned to 0 it is
excluded from the prior (its variance is zero), which also makes the
optimal weights ignore v[0]; that is what allows one set of weights to
serve both plain and DC-reduced transmission, because a per-symbol DC shift
only moves v[0]. The estimator is u_hat = u_mean + W (v - v_mean).

The interleaver search scores each pairwise swap from circulant lines of
the taps, with no N x N state. Write M = C^T G C / N with C = Pi^T B, so that
row perm[a] of C is row a of B. Swapping perm[i] and perm[j] adds e d^T to
C, with e = e_perm[j] - e_perm[i] and d = B_i - B_j, hence

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

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import _check_power_of_two
from .errors import ConfigError, DomainError
from .hadamard import fwht

# Largest N for MMSE and the interleaver search, whose N x N matrices cost
# O(N**2) memory and more time: at N = 4096, `hcmlink analyze` on the
# dispersive-mmse bench config (four powers, budget 2000) takes 31 s at 844 MiB
# peak RSS, most of it the four mmse_weights solves (2-core Xeon, 1 BLAS thread).
# The search's steps hold N-vectors only; interleaver_search enforces the limit
# for its full evaluations of the identity and the start (2.0 of 2.1 s at 4096).
MAX_MATRIX_ORDER = 4096


@dataclass(frozen=True)
class MmseWeights:
    """Linear MMSE weights plus the predicted residual error."""

    w: np.ndarray
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


def mmse_weights(mat: np.ndarray, p: float, sigma2_n: float, m: int = 2) -> MmseWeights:
    """Optimal linear weights for estimating u from the decoded vector.

    mat is the interference matrix M of the interleaved channel
    (interference_matrix); it depends only on the permutation and the
    channel, so a sweep builds it once for all its power points. sigma2_n is
    the per-sample noise variance seen at the receiver (include any
    pulse-shaping penalty). It must be positive: u[0] has zero prior
    variance, so with sigma2_n = 0 the covariance of v has rank at most N-1
    on every channel, flat included, and numpy raises LinAlgError.
    """
    n = mat.shape[0]
    var_u = pam_level_variance(m)
    d = np.ones(n)
    d[0] = 0.0  # u[0] carries no data
    scale = p / n
    c_uv = var_u * scale * (d[:, None] * mat.T)
    cov_v = (scale * scale * var_u) * ((mat * d[None, :]) @ mat.T)
    cov_v[np.diag_indices(n)] += sigma2_n / n
    w = np.linalg.solve(cov_v, c_uv.T).T
    error_diag = var_u * d - np.einsum("ij,ij->i", w, c_uv)
    return MmseWeights(w=w, error_diag=error_diag)


def mmse_apply(weights: MmseWeights, v: np.ndarray, p: float, out=(None, None)) -> np.ndarray:
    """Affine MMSE estimate u_hat = u_mean + W (v - v_mean), vectorized; given
    out = (centred, est), arrays of v's shape, v - v_mean goes to centred and
    the estimate to est, which is returned."""
    w = weights.w
    n = w.shape[0]
    v_mean = np.full(n, p / (2.0 * n))
    v_mean[0] = 0.0
    u_mean = np.full(n, 0.5)
    u_mean[0] = 0.0
    est = np.matmul(np.subtract(v, v_mean, out=out[0]), w.T, out=out[1])
    est += u_mean
    return est


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

    Exhaustive for N <= 8; otherwise simulated annealing over pairwise swaps
    with a geometric temperature schedule (T0 = half the identity objective,
    decaying to 1e-3 * T0 over the budget). The identity permutation is
    always evaluated, so the result is never worse than no interleaving.

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

    if n <= 8:
        for cand in itertools.permutations(range(n)):
            j = interference_spread(interference_matrix(np.array(cand), h))
            if j < best_j:
                best, best_j = np.array(cand), j
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


def save_permutation(perm: np.ndarray, fh):
    """Write a permutation to the open text file fh as newline-separated 0-based indices."""
    fh.write("\n".join(str(int(i)) for i in perm) + "\n")


def load_permutation(path, n: int | None = None) -> np.ndarray:
    """Read a permutation file and validate that it is a bijection."""
    with open(path) as fh:
        perm = np.array([int(line) for line in fh.read().split()], dtype=np.int64)
    if n is not None and perm.size != n:
        raise ConfigError(f"permutation length {perm.size} != expected {n}")
    if not np.array_equal(np.sort(perm), np.arange(perm.size)):
        raise ConfigError(f"{path} is not a permutation of 0..{perm.size - 1}")
    return perm
