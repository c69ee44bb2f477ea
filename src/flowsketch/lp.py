"""Direct decoding: basis pursuit on the counter identity.

Solves min ||u||_1 subject to A u = y with a self-contained Mehrotra
predictor-corrector interior-point method on the split formulation
u = p - q, p,q >= 0 (normal equations, dense M x M Cholesky). A is the
graph's counter-major `csr`, converted to float for the length of one
solve and not kept. Every solve records its per-iteration objective and
residual in the solution.

Termination is certified, not hoped for: any dual vector nu scaled by
max(1, ||A^T nu||_inf) is feasible for the dual (max y.nu subject to
||A^T nu||_inf <= 1), so y.nu_hat is a true lower bound and the gap
||u||_1 - y.nu_hat bounds the suboptimality of the current iterate.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .graph import BipartiteGraph
from .metrics import positive_clip

__all__ = [
    "LpSolution",
    "NumericalError",
    "direct_estimate",
    "basis_pursuit",
]

_IPM_DEFAULT_CAP = 200


class NumericalError(RuntimeError):
    """Raised when a linear algebra step cannot be completed."""


@dataclass
class LpSolution:
    u: np.ndarray  # signed minimizer, length n_left
    objective: float  # ||u||_1
    primal_feasibility: float  # ||A u - y||_inf
    duality_gap: float  # certified bound on suboptimality (may be ~0-)
    iterations: int
    status: str  # "optimal" | "iteration-cap" | "infeasible"
    solver: str  # "interior-point" | "trivial"
    trace: list = field(default_factory=list)  # (iteration, objective, feasibility)


def _default_tols(y: np.ndarray) -> tuple[float, float]:
    tol_feas = 1e-6 * (1.0 + float(np.abs(y).max(initial=0.0)))
    tol_obj = 1e-6 * (1.0 + float(np.abs(y).sum()))
    return tol_feas, tol_obj


def _chol(h: np.ndarray):
    """Lower Cholesky factor of the symmetric matrix h. A failed attempt
    sets the diagonal of h, in place, to its original values plus a jitter
    that grows 100x per retry."""
    diag = h.diagonal().copy()
    bump = 1e-12 * max(float(diag.max(initial=0.0)), 1.0)
    jitter = 0.0
    for _ in range(8):
        try:
            return cho_factor(h, lower=True)
        except LinAlgError:
            jitter = bump if jitter == 0.0 else jitter * 100.0
            np.fill_diagonal(h, diag + jitter)
    raise NumericalError("normal-equation matrix is numerically singular")


def _dual_bound(a: sp.csr_matrix, y: np.ndarray, nu: np.ndarray) -> float:
    """Lower bound on the optimum from an arbitrary dual vector."""
    atn = np.abs(a.T @ nu).max(initial=0.0)
    return float(y @ (nu / max(1.0, atn)))


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not neg.any():
        return 1.0
    return min(1.0, float((-v[neg] / dv[neg]).min()))


def _solve_ipm(a, y, tol_feas, tol_obj, iter_cap):
    m, n = a.shape
    at = a.T.tocsr()
    ones = np.ones(2 * n)

    def gmul(z):
        return a @ (z[:n] - z[n:])

    def gtmul(nu):
        t = at @ nu
        return np.concatenate([t, -t])

    # starting point: least-squares primal, unit slacks, shifted positive
    t = cho_solve(_chol((2.0 * (a @ a.T)).toarray()), y)
    z_tilde = gtmul(t)
    z_bar = z_tilde + max(-1.5 * float(z_tilde.min(initial=0.0)), 0.0)
    s_bar = ones.copy()
    dot = float(z_bar @ s_bar)
    if dot <= 0.0:
        z, s = ones.copy(), ones.copy()
    else:
        z = z_bar + 0.5 * dot / s_bar.sum()
        s = s_bar + 0.5 * dot / z_bar.sum()
    nu = np.zeros(m)

    trace = []
    status = "iteration-cap"
    it = 0
    for it in range(iter_cap):
        rp = y - gmul(z)
        rd = ones - gtmul(nu) - s
        u = z[:n] - z[n:]
        feas = float(np.abs(rp).max(initial=0.0))
        obj = float(np.abs(u).sum())
        gap = obj - _dual_bound(a, y, nu)
        trace.append((it, obj, feas))
        if feas <= tol_feas and gap <= tol_obj:
            status = "optimal"
            break

        w = z / s
        wcol = w[:n] + w[n:]
        h = (a.multiply(wcol) @ a.T).toarray()
        factor = _chol(h)

        def newton(rc):
            rhs = rp + a @ ((w[:n] * rd[:n] - rc[:n] / s[:n])
                            - (w[n:] * rd[n:] - rc[n:] / s[n:]))
            dnu = cho_solve(factor, rhs)
            dz = w * (gtmul(dnu) - rd) + rc / s
            ds = (rc - s * dz) / z
            return dnu, dz, ds

        mu = float(z @ s) / (2 * n)
        dnu_a, dz_a, ds_a = newton(-z * s)
        ap = _max_step(z, dz_a)
        ad = _max_step(s, ds_a)
        mu_aff = float((z + ap * dz_a) @ (s + ad * ds_a)) / (2 * n)
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        dnu, dz, ds = newton(sigma * mu - z * s - dz_a * ds_a)
        ap = 0.999 * _max_step(z, dz)
        ad = 0.999 * _max_step(s, ds)
        z = z + ap * dz
        s = s + ad * ds
        nu = nu + ad * dnu
    else:
        it += 1

    rp = y - gmul(z)
    u = z[:n] - z[n:]
    feas = float(np.abs(rp).max(initial=0.0))
    obj = float(np.abs(u).sum())
    gap = obj - _dual_bound(a, y, nu)
    if status != "optimal" and feas > 1e3 * tol_feas and len(trace) >= 10:
        # residual stalled far from feasibility: y is not reachable
        if trace[-1][2] > 0.9 * trace[-10][2]:
            status = "infeasible"
    return LpSolution(
        u=u, objective=obj, primal_feasibility=feas, duality_gap=gap,
        iterations=it, status=status, solver="interior-point", trace=trace,
    )


def basis_pursuit(
    g: BipartiteGraph,
    y: np.ndarray,
    tol_feas: Optional[float] = None,
    tol_obj: Optional[float] = None,
    iter_cap: Optional[int] = None,
) -> LpSolution:
    """Minimum-l1 preimage of the counter vector y under the bank's matrix,
    by the interior-point method. Default tolerances scale with the data:
    tol_feas = 1e-6*(1+||y||_inf), tol_obj = 1e-6*(1+||y||_1).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (g.n_right,):
        raise ValueError(f"y has shape {y.shape}, expected ({g.n_right},)")
    dt_feas, dt_obj = _default_tols(y)
    tol_feas = dt_feas if tol_feas is None else tol_feas
    tol_obj = dt_obj if tol_obj is None else tol_obj

    a = g.csr.astype(np.float64)
    row_empty = np.diff(a.indptr) == 0
    if (row_empty & (y != 0)).any():
        return LpSolution(
            u=np.zeros(g.n_left), objective=0.0,
            primal_feasibility=float(np.abs(y).max()), duality_gap=np.inf,
            iterations=0, status="infeasible", solver="trivial",
        )
    if float(np.abs(y).max(initial=0.0)) == 0.0:
        return LpSolution(
            u=np.zeros(g.n_left), objective=0.0, primal_feasibility=0.0,
            duality_gap=0.0, iterations=0, status="optimal", solver="trivial",
        )

    cap = _IPM_DEFAULT_CAP if iter_cap is None else iter_cap
    return _solve_ipm(a, y, tol_feas, tol_obj, cap)


def direct_estimate(sol: LpSolution, n_epochs: int, tau: float) -> np.ndarray:
    """Rate estimate from a basis-pursuit solution: clip negatives, divide
    by total observation time n_epochs*tau. No rounding."""
    if n_epochs < 1 or tau <= 0:
        raise ValueError("need n_epochs >= 1 and tau > 0")
    return positive_clip(sol.u) / (n_epochs * tau)
