"""Error metrics and k-term approximation helpers.

Ground truth is a nonnegative rate vector with a designated whale support;
estimators return arbitrary real vectors. All tie-breaks are by lowest
index so results are reproducible across runs and platforms.
"""

from typing import NamedTuple

import numpy as np

__all__ = [
    "RelativeError",
    "best_k_term",
    "positive_clip",
    "relative_l1_error",
    "support_recovery_success",
    "top_k_indices",
]


class KTermDecomposition(NamedTuple):
    top: np.ndarray  # input with all but the k largest-|.| entries zeroed
    support: np.ndarray  # the k chosen indices, ascending
    residual_l1: float  # l1 mass of everything else


class RelativeError(NamedTuple):
    value: float
    is_absolute: bool  # True when the truth's k-term tail is zero (k-sparse)


def top_k_indices(u: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest-magnitude entries, ties to the lowest index.

    Returned ascending. Entries rank by the key -|u|, as a stable argsort
    of it would order them: NaN ranks below every number, -0.0 ties with
    0.0, and entries of equal magnitude rank by index. The k-th key comes
    from one `np.partition`; every entry ranked strictly before it is
    kept, and its tie group fills the remaining places lowest index
    first. Cost O(N), against O(N log N) for the sort.
    """
    u = np.asarray(u)
    if not 0 <= k <= u.size:
        raise ValueError(f"need 0 <= k <= {u.size}, got k={k}")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    key = -np.abs(u)
    kth = np.partition(key, k - 1)[k - 1]
    if kth != kth:  # NaN: every number ranks before it
        keep, tied = key == key, key != key
    else:
        keep, tied = key < kth, key == kth
    keep[np.flatnonzero(tied)[:k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def best_k_term(u: np.ndarray, k: int) -> KTermDecomposition:
    """Best k-term approximation in l1: keep the k largest magnitudes.

    residual_l1 equals the l1 approximation error sigma_k(u).
    """
    u = np.asarray(u, dtype=np.float64)
    support = top_k_indices(u, k)
    top = np.zeros_like(u)
    top[support] = u[support]
    # summed exactly like ||est - truth||_1 so the oracle ratio is 1.0, not 1+eps
    residual = float(np.abs(u - top).sum())
    return KTermDecomposition(top=top, support=support, residual_l1=residual)


def positive_clip(u: np.ndarray) -> np.ndarray:
    """Entrywise max(u, 0). Rates are nonnegative; estimators may not be."""
    return np.maximum(np.asarray(u, dtype=np.float64), 0.0)


def support_recovery_success(estimate: np.ndarray, truth) -> bool:
    """Exact top-k support match.

    truth must expose .whale_support and .k (see stream.RateVector). Success
    means the k largest entries of the estimate sit exactly on the whales.
    """
    est_top = top_k_indices(estimate, truth.k)
    return np.array_equal(est_top, np.sort(np.asarray(truth.whale_support)))


def relative_l1_error(estimate: np.ndarray, truth) -> RelativeError:
    """l1 distance to the truth, relative to the truth's own k-term tail.

    The denominator is the error an oracle keeping exactly the k whales
    would make, so 1.0 means "as good as knowing the whales". Fully
    k-sparse truths have a zero tail; those return the absolute error
    with is_absolute set instead of dividing by zero. truth must expose
    .rates and .k (see stream.RateVector).
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    rates = np.asarray(truth.rates, dtype=np.float64)
    if estimate.shape != rates.shape:
        raise ValueError(f"shape mismatch {estimate.shape} vs {rates.shape}")
    abs_err = float(np.abs(estimate - rates).sum())
    denom = best_k_term(rates, truth.k).residual_l1
    if denom == 0.0:
        return RelativeError(value=abs_err, is_absolute=True)
    return RelativeError(value=abs_err / denom, is_absolute=False)

