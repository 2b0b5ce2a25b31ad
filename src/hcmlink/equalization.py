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
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import circulant

from .errors import ConfigError, DomainError
from .hadamard import BinaryHadamard, fwht


@dataclass(frozen=True)
class ChannelMatrix:
    """Circulant matrix G with G[i, j] = h[(i - j) mod N]."""

    g: np.ndarray


@dataclass(frozen=True)
class MmseWeights:
    """Linear MMSE weights plus the predicted residual error."""

    w: np.ndarray
    lmmse: float
    error_diag: np.ndarray  # per-component error variance, length N


def channel_matrix(h: np.ndarray, n: int) -> ChannelMatrix:
    """Build the circulant matrix so that G @ x = sum_l h[l] * roll(x, l)."""
    h = np.asarray(h, dtype=np.float64)
    if h.size > n:
        raise ConfigError(f"{h.size} taps do not fit a {n}-point symbol")
    col = np.zeros(n)
    col[: h.size] = h
    return ChannelMatrix(g=circulant(col))


def pam_level_variance(m: int) -> float:
    """Variance of a uniform level on {0, 1/(m-1), ..., 1}; 1/4 for binary."""
    return (m + 1.0) / (12.0 * (m - 1.0))


def _conjugated_channel(g: np.ndarray, perm: np.ndarray) -> np.ndarray:
    # Pi^T G Pi with Pi the matrix of out[perm[i]] = x[i]
    perm = np.asarray(perm)
    return g[np.ix_(perm, perm)]


def interference_matrix(hadamard: BinaryHadamard, perm: np.ndarray, g: ChannelMatrix) -> np.ndarray:
    """M = (1/N) B Pi^T G Pi B, computed with two fast transforms."""
    gt = _conjugated_channel(g.g, perm)
    return fwht(fwht(gt, axis=0), axis=1) / hadamard.n


def mmse_weights(hadamard: BinaryHadamard, perm: np.ndarray, g: ChannelMatrix,
                 p: float, sigma2_n: float, m: int = 2) -> MmseWeights:
    """Optimal linear weights for estimating u from the decoded vector.

    sigma2_n is the per-sample noise variance seen at the receiver (include
    any pulse-shaping penalty). It must be positive: u[0] has zero prior
    variance, so with sigma2_n = 0 the covariance of v has rank at most N-1
    on every channel, flat included, and numpy raises LinAlgError.
    """
    n = hadamard.n
    mat = interference_matrix(hadamard, perm, g)
    var_u = pam_level_variance(m)
    d = np.ones(n)
    d[0] = 0.0  # u[0] carries no data
    scale = p / n
    c_uv = var_u * scale * (d[:, None] * mat.T)
    cov_v = (scale * scale * var_u) * ((mat * d[None, :]) @ mat.T)
    cov_v[np.diag_indices(n)] += sigma2_n / n
    w = np.linalg.solve(cov_v, c_uv.T).T
    error_diag = var_u * d - np.einsum("ij,ij->i", w, c_uv)
    lmmse = float(error_diag.sum())
    return MmseWeights(w=w, lmmse=lmmse, error_diag=error_diag)


def mmse_apply(weights: MmseWeights, v: np.ndarray, p: float) -> np.ndarray:
    """Affine MMSE estimate u_hat = u_mean + W (v - v_mean), vectorized."""
    w = weights.w
    n = w.shape[0]
    v_mean = np.full(n, p / (2.0 * n))
    v_mean[0] = 0.0
    u_mean = np.full(n, 0.5)
    u_mean[0] = 0.0
    return u_mean + (np.asarray(v) - v_mean) @ w.T


def interference_spread(mat: np.ndarray) -> float:
    """Variance across rows of the off-diagonal interference energy."""
    row_energy = (mat * mat).sum(axis=1) - np.diag(mat) ** 2
    return float(row_energy.var())


def _objective(hadamard, perm, g):
    return interference_spread(interference_matrix(hadamard, perm, g))


def interleaver_search(g: ChannelMatrix, hadamard: BinaryHadamard, budget: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Find a permutation that evens out the per-component interference.

    Exhaustive for N <= 8; otherwise simulated annealing over pairwise swaps
    with a geometric temperature schedule (T0 = half the identity objective,
    decaying to 1e-3 * T0 over the budget). The identity permutation is
    always evaluated, so the result is never worse than no interleaving.
    """
    if budget < 1:
        raise DomainError("budget must be >= 1")
    n = hadamard.n
    identity = np.arange(n)
    best = identity
    best_j = _objective(hadamard, identity, g)
    if best_j == 0.0:
        return identity

    if n <= 8:
        for cand in itertools.permutations(range(n)):
            j = _objective(hadamard, np.array(cand), g)
            if j < best_j:
                best, best_j = np.array(cand), j
        return best

    perm = rng.permutation(n)
    cur_j = _objective(hadamard, perm, g)
    if cur_j < best_j:
        best, best_j = perm.copy(), cur_j
    t0 = 0.5 * max(best_j, 1e-300)
    decay = (1e-3) ** (1.0 / budget)
    temp = t0
    for _ in range(budget):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            temp *= decay
            continue
        cand = perm.copy()
        cand[i], cand[j] = cand[j], cand[i]
        cand_j = _objective(hadamard, cand, g)
        if cand_j < cur_j or rng.random() < math.exp(min((cur_j - cand_j) / temp, 0.0)):
            perm, cur_j = cand, cand_j
            if cur_j < best_j:
                best, best_j = perm.copy(), cur_j
        temp *= decay
    return best


def save_permutation(perm: np.ndarray, path):
    """Write a permutation as newline-separated 0-based indices."""
    with open(path, "w") as fh:
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
