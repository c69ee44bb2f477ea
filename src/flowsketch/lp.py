"""Direct decoding: basis pursuit on the counter identity.

Solves min ||u||_1 subject to A u = y with a self-contained Mehrotra
predictor-corrector interior-point method on the split formulation
u = p - q, p,q >= 0. The one matrix a solve builds is A^T in CSR form, its
indices the graph's own `columns` and its data float ones; A is its
transpose view, which shares those arrays. Each iterate is evaluated
once, and the solution traces each iteration's objective and residual.

The method is matrix-free: it reads A only through the products A x and
A^T v and forms no M x M matrix. Each Newton step solves the normal
equations A diag(w) A^T dnu = r by preconditioned conjugate gradients
(PCG). The preconditioner is
P = diag(A W_N A^T) + A_B W_B A_B^T: B holds the flows whose weight w
exceeds 10^3 times the median weight, N the rest. P^-1 is applied by the
Woodbury identity with one |B| x |B| Cholesky factor per iteration, which
the predictor and corrector solves share. Its matrix
C = W_B^-1 + A_B^T D^-1 A_B is summed from A^T's indices, not by a sparse
product: the (flow, counter) pairs of B, sorted stably by counter, give
each counter's flows in B, and np.bincount adds D^-1 of the counter into
entry (i, j) for every pair of them, counters in ascending order. Those
are the terms, in the order, that scipy's sparse product adds, so C is
the same to the bit; LAPACK's potrf and potrs, which scipy.linalg's
cho_factor and cho_solve wrap, factor it and solve with it. The start
point solves (2 A A^T) t = y as one more normal-equation system, at
w = 2, where B is empty and P is the diagonal, twice the counter
degrees. Cf. Gondzio, "Matrix-free interior point method" (COAP 2012);
Fountoulakis, Gondzio and Zhlobich, "Matrix-free interior point method
for compressed sensing problems" (Math. Prog. Comp. 2014).

The Newton systems are solved inexactly while the iterates are far from
the optimum (cf. Bellavia, "Inexact interior-point method", JOTA 1998).
The start point's PCG stops at relative residual 1e-4, and an iteration
whose duality measure is mu, against mu0 at the first iteration, stops
at eta = max(1e-10, min(1e-4, 1e-4 mu / mu0)); the last iterations still
solve to 1e-10. That roughly halves the PCG products of a 5k/800/8 solve
and leaves its iteration count as it was. The cap is 1e-4 because looser
ones cost accuracy: at 1e-2, three of the tests in tests/test_lp.py
fail, and at 1e-3 and 3e-4 a 5k/800/8 solve takes one iteration more
than the dense oracle and its u moves by 1.5e-6.

Termination is certified, not hoped for: any dual vector nu scaled by
max(1, ||A^T nu||_inf) is feasible for the dual (max y.nu subject to
||A^T nu||_inf <= 1), so y.nu_hat is a true lower bound and the gap
||u||_1 - y.nu_hat bounds the suboptimality of the current iterate. A CG
solve that misses its tolerance (it reaches its iteration cap, or breaks
down on a singular system) returns its iterate of least residual and the
method steps with that; "optimal" still needs the primal residual and the
certified gap of the iterate itself within their tolerances.

scipy is imported inside the functions that build its matrices, and
basis pursuit is the only part of flowsketch that uses it. Importing
flowsketch, every command but a direct `recover`, and the pMLE decoders
(the greedy cover and the sparse Poisson solve included) run on numpy
alone and do not pay scipy's import.
"""

from dataclasses import dataclass, field

import numpy as np

from .decoders import Observation
from .metrics import positive_clip

__all__ = [
    "LpSolution",
    "NumericalError",
    "direct_estimate",
    "basis_pursuit",
]

_IPM_DEFAULT_CAP = 200
# CG stops at relative residual ||H x - b|| / ||b|| between these two,
# the loosest far from the optimum (see the module docstring) ...
_CG_RTOL = 1e-10
_CG_RTOL_CAP = 1e-4
# ... or after this many iterations on one system
_CG_MAX_ITER = 500
# a flow joins the preconditioner's low-rank part B when its weight
# exceeds this multiple of the median weight
_LOW_RANK_RATIO = 1e3


class NumericalError(RuntimeError, ArithmeticError):
    """Raised when a linear algebra step cannot be completed (exit 2)."""


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


def _pcg(hmul, b: np.ndarray, pinv, rtol: float) -> np.ndarray:
    """Approximate solution of H x = b by conjugate gradients from x = 0,
    H symmetric positive semidefinite given by its product hmul, and
    pinv the product with the preconditioner's inverse. Stops at relative
    residual rtol; after _CG_MAX_ITER steps, or when the recurrence
    breaks down (p^T H p or r^T P^-1 r not positive and finite, as on a
    singular H with b outside its range), it returns the iterate of least
    residual instead (x = 0 when b = 0)."""
    x = np.zeros_like(b)
    r = b.copy()
    best_x, best_r = x, float(np.linalg.norm(r))
    target = rtol * best_r
    z = pinv(r)
    rz = float(r @ z)
    p = z
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_CG_MAX_ITER):
            if not 0.0 < rz < np.inf:
                break
            hp = hmul(p)
            php = float(p @ hp)
            if not 0.0 < php < np.inf:
                break
            alpha = rz / php
            x = x + alpha * p
            r = r - alpha * hp
            rn = float(np.linalg.norm(r))
            if rn < best_r:
                best_x, best_r = x, rn
                if rn <= target:
                    break
            z = pinv(r)
            rz_next = float(r @ z)
            p = z + (rz_next / rz) * p
            rz = rz_next
    return best_x


def _gram(cb: np.ndarray, dinv: np.ndarray) -> np.ndarray:
    """A_B^T D^-1 A_B as a dense |B| x |B| array, cb holding the counters of
    each flow of B in ascending order: entry (i, j) is the sum of dinv over
    the counters flows i and j share, added in ascending counter order (see
    the module docstring)."""
    nb, d = cb.shape
    counters = cb.ravel()
    order = np.argsort(counters, kind="stable")
    ks, rows = counters[order], order // d
    # ks holds runs of equal counters; pair each position with its run
    first = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    size = np.diff(np.r_[first, ks.size])
    span = np.repeat(size, size)
    p = np.repeat(np.arange(ks.size), span)
    q = np.repeat(np.repeat(first, size), span) + (
        np.arange(p.size) - np.repeat(np.cumsum(span) - span, span))
    return np.bincount(rows[p] * nb + rows[q], weights=dinv[ks[p]],
                       minlength=nb * nb).reshape(nb, nb)


def _preconditioner(a, at, wcol: np.ndarray):
    """Product with P^-1, P = diag(A W_N A^T) + A_B W_B A_B^T, by Woodbury:
    P^-1 = D^-1 - D^-1 A_B C^-1 A_B^T D^-1 with D the diagonal part and
    C = W_B^-1 + A_B^T D^-1 A_B, a |B| x |B| matrix factored once; A_B^T
    is the rows B of at. D is floored at 1e-12 max(A wcol), so counters
    with no flow in N (or none at all) stay invertible. The floor also
    bounds D^-1 by 1e12 / max(w), which keeps C's diagonal term W_B^-1
    from vanishing next to the rest; should C still fail to factor, P is
    D alone."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    big = wcol > _LOW_RANK_RATIO * float(np.median(wcol))
    diag = a @ np.where(big, 0.0, wcol)
    dinv = 1.0 / np.maximum(diag, 1e-12 * float((a @ wcol).max()))
    b = np.flatnonzero(big)
    if b.size == 0:
        return lambda r: dinv * r
    n, m = at.shape
    cb = at.indices.reshape(n, -1)[b]
    c = _gram(cb, dinv)
    c[np.diag_indices_from(c)] += 1.0 / wcol[b]
    factor, info = dpotrf(c, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        return lambda r: dinv * r
    flat, d = cb.ravel(), cb.shape[1]

    def pinv(r):
        t = dinv * r
        v = dpotrs(factor, t[cb].sum(axis=1), lower=1, overwrite_b=1)[0]
        return t - dinv * np.bincount(flat, weights=np.repeat(v, d), minlength=m)

    return pinv


def _dual_bound(atn: np.ndarray, y: np.ndarray, nu: np.ndarray) -> float:
    """Lower bound on the optimum from any dual vector nu, atn = A^T nu."""
    return float(y @ (nu / max(1.0, np.abs(atn).max(initial=0.0))))


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in [0, 1] that keeps the slacks v + step * dv >= 0."""
    with np.errstate(all="ignore"):  # the ratios where dv >= 0 are dropped
        return min(1.0, float(np.where(dv < 0, -v / dv, np.inf).min(initial=np.inf)))


def _solve_ipm(at, y):
    """Mehrotra predictor-corrector on the split formulation, at the float
    A^T in CSR form and A its transpose view, to `_default_tols(y)` within
    `_IPM_DEFAULT_CAP` iterations. The start point and both Newton systems
    of an iteration are normal-equation solves by `_pcg`, the latter two
    under one `_preconditioner` (see the module docstring)."""
    n, m = at.shape
    a = at.T
    tol_feas, tol_obj = _default_tols(y)

    def gmul(z):
        return a @ (z[:n] - z[n:])

    def split(t):
        return np.concatenate([t, -t])

    def normal_solver(wcol, rtol):  # of A diag(wcol) A^T x = rhs
        pinv = _preconditioner(a, at, wcol)
        return lambda rhs: _pcg(lambda v: a @ (wcol * (at @ v)), rhs, pinv, rtol)

    # starting point: least-squares primal, unit slacks, shifted positive
    z_tilde = split(at @ normal_solver(np.full(n, 2.0), _CG_RTOL_CAP)(y))
    z_bar = z_tilde + max(-1.5 * float(z_tilde.min(initial=0.0)), 0.0)
    s = np.ones(2 * n)
    dot = float(z_bar @ s)
    if dot <= 0.0:
        z = np.ones(2 * n)
    else:
        z = z_bar + 0.5 * dot / s.sum()
        s += 0.5 * dot / z_bar.sum()
    nu = np.zeros(m)
    mu0 = float(z @ s) / (2 * n)

    trace = []
    status = "iteration-cap"
    diverged = False
    for it in range(_IPM_DEFAULT_CAP + 1):  # the last is evaluated, not traced
        rp = y - gmul(z)
        atn = at @ nu
        u = z[:n] - z[n:]
        feas = float(np.abs(rp).max(initial=0.0))
        obj = float(np.abs(u).sum())
        gap = obj - _dual_bound(atn, y, nu)
        if it == _IPM_DEFAULT_CAP:
            break
        trace.append((it, obj, feas))
        if feas <= tol_feas and gap <= tol_obj:
            status = "optimal"
            break

        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            w = z / s
        wcol = w[:n] + w[n:]
        if not np.isfinite(wcol.sum()):
            diverged = True  # a slack reached zero: the weights overflow
            break
        rd = 1.0 - split(atn) - s
        mu = float(z @ s) / (2 * n)
        rtol = max(_CG_RTOL, min(_CG_RTOL_CAP, _CG_RTOL_CAP * mu / mu0))
        solve = normal_solver(wcol, rtol)

        def newton(rc):
            rhs = rp + a @ ((w[:n] * rd[:n] - rc[:n] / s[:n])
                            - (w[n:] * rd[n:] - rc[n:] / s[n:]))
            dnu = solve(rhs)
            dz = w * (split(at @ dnu) - rd) + rc / s
            ds = (rc - s * dz) / z
            return dnu, dz, ds

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

    stalled = len(trace) >= 10 and trace[-1][2] > 0.9 * trace[-10][2]
    if status != "optimal" and feas > 1e3 * tol_feas and (diverged or stalled):
        # the residual stalled far from feasibility, or the iterates
        # diverged before reaching it: y is not reachable
        status = "infeasible"
    return LpSolution(
        u=u, objective=obj, primal_feasibility=feas, duality_gap=gap,
        iterations=it, status=status, solver="interior-point", trace=trace,
    )


def basis_pursuit(obs: Observation) -> LpSolution:
    """Minimum-l1 preimage of the observed counters y under the bank's
    matrix, by the matrix-free interior-point method, capped at 200
    iterations. The tolerances scale with the data:
    tol_feas = 1e-6*(1+||y||_inf), tol_obj = 1e-6*(1+||y||_1).
    The status is "infeasible" when the residual ends far from feasibility
    after stalling, or after the iterates diverged (a slack reached zero).
    """
    import scipy.sparse as sp

    g, y = obs.g, obs.y
    cols = g.columns.ravel()
    if ((np.bincount(cols, minlength=g.n_right) == 0) & (y != 0)).any():
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

    at = sp.csr_matrix((np.ones(cols.size), cols, np.arange(0, cols.size + 1, g.d)),
                       shape=(g.n_left, g.n_right))
    return _solve_ipm(at, y)


def direct_estimate(sol: LpSolution, obs: Observation) -> np.ndarray:
    """Rate estimate from a basis-pursuit solution of obs: clip negatives,
    divide by the window's length obs.scale. No rounding."""
    return positive_clip(sol.u) / obs.scale
