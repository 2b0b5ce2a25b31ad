"""Dispersive-channel machinery: the linear MMSE receiver as a Wiener filter
on the received chips, and a heuristic interleaver search.

The channel is its taps h: zero-padded to N, column 0 of the circulant
G[i, j] = h[(i - j) mod N] (never formed), with spectrum H = rfft(h, N).
With interleaver Pi (out[perm[i]] = x[i]), a frame
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
k = irfft(var_u sigma2 / T).

The interleaver search evens out the rows of M = (1/N) B Pi^T G Pi B, the
interference matrix of the noiseless decoded vector
v = (P/2N) (M (2u - 1) + 1). N times M's diagonal, and N times its row
energies, the diagonal of M M^T = (1/N) B Pi^T A Pi B for A = G G^T, are
diagonals of B Pi^T C Pi B too, for a circulant C with column c. As
B[i, a] B[i, b] = B[i, a ^ b], each is fwht(r), where, inv being the
inverse of perm,

    r[t] = sum_x c[(pi[x] - pi[x ^ t]) mod N]
         = sum_l c[l] #{x : x ^ inv[(pi[x] - l) mod N] = t}.

mmse_weights gathers the first form over all N^2 pairs (t, x) for c = k,
which has no zero lag, into its error diagonal e, with e[0] = 0. The search
scatters the second, for c = h and c = a (column 0 of A, the circular
autocorrelation of h), over the at most 2L - 1 lags where either is nonzero
for L taps: one evaluation takes O(N L + N log N) time and no N x N state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _check_power_of_two
from .errors import ConfigError, DomainError
from .hadamard import fwht

# Largest N for the interleaver search, for its one dense evaluation: the
# identity's interference_matrix (four N x N float64 arrays, 512 MiB at 4096).
MAX_MATRIX_ORDER = 4096
DIAG_BLOCK = 1 << 16  # (t, a) terms per block of mmse_weights' error diagonal


@dataclass(frozen=True)
class MmseWeights:
    """The MMSE filter on the received chips plus the predicted residual error."""

    spectrum: np.ndarray  # F on the rfft bins, length N/2 + 1
    error_diag: np.ndarray  # per-component error variance, length N


def pam_level_variance(m: int) -> float:
    """Variance of a uniform level on {0, 1/(m-1), ..., 1}; 1/4 for binary."""
    return (m + 1.0) / (12.0 * (m - 1.0))


def interference_matrix(perm: np.ndarray, h: np.ndarray) -> np.ndarray:
    """M = (1/N) B Pi^T G Pi B for the channel taps h (ConfigError if over N), with two fwhts."""
    n, h = perm.size, np.asarray(h, dtype=np.float64)
    if h.size > n:
        raise ConfigError(f"{h.size} taps do not fit a {n}-point symbol")
    # Pi^T G Pi, Pi the matrix of out[perm[i]] = x[i]: Gt[a, b] = G[perm[a], perm[b]]
    gt = np.pad(h, (0, n - h.size))[np.subtract.outer(perm, perm) % n]
    return fwht(fwht(gt.T).T) / n


def mmse_weights(gains: np.ndarray, perm: np.ndarray, p: float, noise_var: float,
                 m: int = 2) -> MmseWeights:
    """The MMSE filter and its error diagonal at drive p (module docstring).

    gains is rfft(h, N) and perm the interleaver (arange(N) for none);
    noise_var, the per-sample noise variance at the receiver, must be > 0:
    without noise the filter is 0/0 at a channel null. The error diagonal
    takes O(N**2) time, in blocks of DIAG_BLOCK terms, and O(N) memory. With taps
    .5,.3,.2 and the identity or a random permutation it took 0.06 s at N = 4096,
    0.22 s at 8192, 0.83-0.94 s at 2**14 and 18-24 s at 2**16 (2-core Xeon).
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


def _xor_spread(h: np.ndarray, n: int):
    """interference_spread(interference_matrix(perm, h)) as a function of perm
    and its inverse, from the taps' lags (module docstring); h must fit N."""
    col = np.pad(np.asarray(h, dtype=np.float64), (0, n - len(h)))
    lags = np.unique(np.arange(1 - len(h), len(h)) % n)
    # rows c[l] / N (exact, N a power of two) of the taps and of their autocorrelation
    weights = np.stack((col[lags], [col @ np.roll(col, lag) for lag in lags])) / n
    shift, rows = lags[:, None], np.arange(n) + n * np.arange(lags.size)[:, None]

    def spread(perm: np.ndarray, inv: np.ndarray) -> float:
        # x ^ inv[(pi[x] - l) mod N] + l N in row l (rows = x + l N), so one bincount counts all
        t = inv[(perm - shift) & (n - 1)]
        counts = np.bincount(np.bitwise_xor(t, rows, out=t).ravel(), minlength=rows.size)
        diag, energy = fwht(weights @ counts.reshape(rows.shape))
        x = energy - diag * diag
        x -= np.add.reduce(x) / n  # np.var's steps, without its checks
        return float(np.add.reduce(x * x) / n)
    return spread


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

    The identity is evaluated with interference_matrix. The random start
    and every candidate, one pairwise swap of perm and its inverse (undone if
    rejected), are scored in full from the taps' lags, as in the module
    docstring: O(N L + N log N) per step for L taps. The state is perm, its
    inverse, the best perm and one (2L - 1) x N index array, and a step
    allocates about 17 N-vectors for three taps. The peak, four N x N float64
    arrays, is the identity's M (512 MiB at N = MAX_MATRIX_ORDER, where
    analyze peaks at 552 MiB RSS). With taps 0.5,0.3,0.2 and budget 2000 a
    step takes 0.05 ms at N = 128, 0.09 ms at 1024, 0.18 ms at 2048 and
    0.36 ms at 4096, and the whole search 0.10, 0.24, 0.65 and 2.3 s (2-core
    Xeon, 1 BLAS thread). Scores agree with interference_matrix's to about
    1e-13 (relative), not always to the last ulp, so where two candidates
    tie (as on taps 0.7,0.3) the search can branch other than a dense
    evaluation would.

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

    spread, perm = _xor_spread(h, n), rng.permutation(n)
    inv = np.argsort(perm)

    def swap(i, j):
        perm[i], perm[j] = perm[j], perm[i]
        inv[perm[i]], inv[perm[j]] = i, j
    cur_j = spread(perm, inv)
    if cur_j < best_j:
        best, best_j = perm.copy(), cur_j
    decay = (1e-3) ** (1.0 / budget)
    temp = 0.5 * max(best_j, 1e-300)
    # a step's pair is rng.integers(0, n, size=2) read from one PCG64 word, as in _uniform_ints
    # (0.38 us, not 5.6): its halves, or the buffered half and its low half, buffering its high
    bitgen, shift = rng.bit_generator, 33 - int(n).bit_length()
    raw = type(bitgen) is np.random.PCG64
    held = bitgen.state["uinteger"] if raw and bitgen.state["has_uint32"] else None
    for _ in range(budget):
        if not raw:
            i, j = rng.integers(0, n, size=2)
        elif held is None:
            word = bitgen.random_raw()
            i, j = (word & 0xFFFFFFFF) >> shift, word >> 32 + shift
        else:
            word = bitgen.random_raw()
            i, j, held = held >> shift, (word & 0xFFFFFFFF) >> shift, word >> 32
        if i == j:
            temp *= decay
            continue
        swap(i, j)
        cand_j = spread(perm, inv)
        if cand_j < cur_j or rng.random() < math.exp(min((cur_j - cand_j) / temp, 0.0)):
            cur_j = cand_j
            if cur_j < best_j:
                best, best_j = perm.copy(), cur_j
        else:
            swap(i, j)
        temp *= decay
    if raw:  # as integers leaves it: uinteger is the last word's high half, used or not
        state = bitgen.state
        state["uinteger"] = word >> 32
        bitgen.state = state
    return best, identity_j, best_j


def load_permutation(path, n: int | None = None) -> np.ndarray:
    """Read a permutation file and check that it is a bijection (else ConfigError)."""
    try:
        with open(path) as fh:
            perm = np.array([int(line) for line in fh.read().split()], dtype=np.int64)
    except (OSError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot read permutation {path}: {exc}") from exc
    if n is not None and perm.size != n:
        raise ConfigError(f"permutation length {perm.size} != expected {n}")
    if not np.array_equal(np.sort(perm), np.arange(perm.size)):
        raise ConfigError(f"{path} is not a permutation of 0..{perm.size - 1}")
    return perm
