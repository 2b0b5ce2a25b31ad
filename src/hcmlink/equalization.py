"""Dispersive-channel machinery: circulant channel matrix, linear MMSE
estimation of the data frame from the decoded vector, and a heuristic
interleaver search.

Signal model behind the weights (see modem_hcm for the decoder): with
interleaver permutation pi, circulant channel G and conjugated channel
Gt = Pi^T G Pi, the decoded vector for a transmitted frame u is

    v = (P / 2N) * M (2u - 1) + (P / 2N) * 1 + noise,   M = (1/N) B Gt B

with noise covariance (sigma2/N) I. Since u[0] is pinned to 0 it is
excluded from the prior (its variance is zero), which also makes the
optimal weights ignore v[0]; that is what allows one set of weights to
serve both plain and DC-reduced transmission, because a per-symbol DC shift
only moves v[0]. The estimator is u_hat = u_mean + W (v - v_mean).

The interleaver search scores each pairwise swap with a rank-2 update of M
instead of recomputing it. Write M = C^T G C / N with C = Pi^T B, so that
row perm[a] of C is row a of B. Swapping perm[i] and perm[j] adds e d^T to
C, with e = e_perm[j] - e_perm[i] and d = B_i - B_j, hence

    N M' = N M + a d^T + d b^T,   a = B (G e)[perm],
                                  b = B (G^T e)[perm] + (e^T G e) d.

A step takes (G e)[perm] and (G^T e)[perm] as column and row differences of
the tracked Gt, transforms them and e[perm] with one fwht of a 3 x N buffer
built once per search, and gets the candidate's row energies and diagonal
from M d and M b: O(N^2) against two N x N transforms for a full
evaluation. Accepting a swap updates Gt, M and its row energies in place.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import circulant

from .errors import ConfigError, DomainError
from .hadamard import fwht


@dataclass(frozen=True)
class MmseWeights:
    """Linear MMSE weights plus the predicted residual error."""

    w: np.ndarray
    error_diag: np.ndarray  # per-component error variance, length N


def channel_matrix(h: np.ndarray, n: int) -> np.ndarray:
    """Circulant matrix G[i, j] = h[(i - j) mod N], so that G @ x = sum_l h[l] * roll(x, l)."""
    h = np.asarray(h, dtype=np.float64)
    if h.size > n:
        raise ConfigError(f"{h.size} taps do not fit a {n}-point symbol")
    col = np.zeros(n)
    col[: h.size] = h
    return circulant(col)


def pam_level_variance(m: int) -> float:
    """Variance of a uniform level on {0, 1/(m-1), ..., 1}; 1/4 for binary."""
    return (m + 1.0) / (12.0 * (m - 1.0))


def interference_matrix(perm: np.ndarray, g: np.ndarray) -> np.ndarray:
    """M = (1/N) B Pi^T G Pi B for the N x N channel matrix g, with two fast transforms."""
    gt = g[np.ix_(perm, perm)]  # Pi^T G Pi, Pi the matrix of out[perm[i]] = x[i]
    return fwht(fwht(gt.T).T) / g.shape[0]


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


def _objective(perm, g):
    return interference_spread(interference_matrix(perm, g))


class _SwapScorer:
    """perm with its Gt, M and row energies: score(i, j) is interference_spread
    after swapping perm[i] and perm[j]; accept(i, j) makes that swap in place."""

    def __init__(self, g: np.ndarray, perm: np.ndarray):
        n = g.shape[0]
        self.perm, self.gt = perm, g[np.ix_(perm, perm)]
        self.mat = interference_matrix(perm, g)
        self.energy = np.einsum("ij,ij->i", self.mat, self.mat)
        # fwht takes rows (G e)[perm], (G^T e)[perm], e[perm] to terms a, b - (e^T G e) d, d
        self.rows, self.terms = np.zeros((3, n)), np.empty((3, n))
        self.pair, self.prod = np.empty((n, 2)), np.empty((n, 2))

    def score(self, i: int, j: int) -> float:
        gt, rows, (a, b, d) = self.gt, self.rows, self.terms
        n = gt.shape[0]
        np.subtract(gt[:, j], gt[:, i], out=rows[0])
        np.subtract(gt[j], gt[i], out=rows[1])
        rows[2, i], rows[2, j] = 1.0, -1.0
        fwht(rows, out=self.terms)
        rows[2, i] = rows[2, j] = 0.0
        b += (rows[0, j] - rows[0, i]) * d  # e^T G e = (G e)[perm][j] - (G e)[perm][i]
        self.pair[:, 0], self.pair[:, 1] = d, b
        md, mb = np.matmul(self.mat, self.pair, out=self.prod).T
        energy = (self.energy + (2.0 / n) * (a * md + d * mb)
                  + (a * a * (d @ d) + 2.0 * (d @ b) * a * d + (b @ b) * d * d) / (n * n))
        diag = self.mat.diagonal() + d * (a + b) / n
        x = energy - diag * diag
        x -= np.add.reduce(x) / n  # np.var's steps, without its checks
        return float(np.add.reduce(x * x) / n)

    def accept(self, i: int, j: int):
        perm, gt, terms = self.perm, self.gt, self.terms
        perm[i], perm[j] = perm[j], perm[i]
        gt[[i, j]] = gt[[j, i]]
        gt[:, [i, j]] = gt[:, [j, i]]
        self.pair[:, 0], self.pair[:, 1] = terms[0], terms[2]
        self.mat += self.pair @ (terms[2:0:-1] / gt.shape[0])  # [a d] @ [d b]^T / N
        np.einsum("ij,ij->i", self.mat, self.mat, out=self.energy)


def interleaver_search(g: np.ndarray, *, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Find a permutation that evens out the per-component interference.

    Exhaustive for N <= 8; otherwise simulated annealing over pairwise swaps
    with a geometric temperature schedule (T0 = half the identity objective,
    decaying to 1e-3 * T0 over the budget). The identity permutation is
    always evaluated, so the result is never worse than no interleaving.

    The identity and the random start are evaluated in full. Each step then
    scores one swap by the rank-2 update of the module docstring, on
    buffers built once, and updates the tracked state only on acceptance.
    The search holds G, M and Gt, three N x N float64 arrays (about 400 MiB
    at N = 4096), plus an N x N transient per accepted swap. The tracked
    objective agrees with a full evaluation to about 1e-13 (relative), not
    always to the last ulp, so where two candidates tie (as on taps 0.7,0.3)
    the search can branch other than a full evaluation would.

    g is the N x N channel matrix (channel_matrix). budget and rng are
    keyword-only: wrappers that record the budget, such as the benchmark's
    tracer in bench/spans.py, read it by name.
    """
    return _search(g, budget, rng)[0]


def _search(g: np.ndarray, budget: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """interleaver_search, plus the objective it tracked for the result."""
    if budget < 1:
        raise DomainError("budget must be >= 1")
    n = g.shape[0]
    best = np.arange(n)
    best_j = _objective(best, g)
    if best_j == 0.0:
        return best, best_j

    if n <= 8:
        for cand in itertools.permutations(range(n)):
            j = _objective(np.array(cand), g)
            if j < best_j:
                best, best_j = np.array(cand), j
        return best, best_j

    perm = rng.permutation(n)
    swaps = _SwapScorer(g, perm)
    cur_j = interference_spread(swaps.mat)
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
    return best, best_j


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
