"""Levenberg-Marquardt nonlinear least squares.

Jacobians are central finite differences with sqrt(machine-epsilon) step
scaling, one-sided inward at a bound; bounds are enforced by projection
and reported via boundary-active flags.  The engine is stateless and
deterministic given its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_EPS = np.finfo(float).eps
GTOL = 1e-8  # gradient inf-norm, relative to max(residual norm, 1)
XTOL = np.sqrt(_EPS)  # scaled step, relative to the scaled parameter norm
LAM0 = 1e-3  # initial damping
MAX_ITERATIONS = 200


class RankDeficiencyError(np.linalg.LinAlgError):
    """Jacobian is rank deficient at the solution: parameters unidentifiable."""


@dataclass
class FitResult:
    params: dict
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    uncertainties: dict = field(default_factory=dict)
    boundary_active: dict = field(default_factory=dict)
    cost_trace: list = field(default_factory=list)

    def __getitem__(self, name):
        return self.params[name]


def finite_difference_jacobian(fn, p, lo=-np.inf, hi=np.inf):
    """Central-difference Jacobian of fn(p), step h = sqrt(eps) max(|p_i|, 1); where
    p_i - h < lo_i (or p_i + h > hi_i) column i is the one-sided difference of
    step h inward, so fn sees no point outside [lo, hi]."""
    p = np.asarray(p, dtype=float)
    lo, hi = np.broadcast_to(lo, p.shape), np.broadcast_to(hi, p.shape)
    columns = []
    for i in range(p.size):
        h = np.sqrt(_EPS) * max(abs(p[i]), 1.0)
        pp = p.copy()
        pm = p.copy()
        pp[i] += h
        pm[i] -= h
        if pm[i] < lo[i]:
            pm = p
        elif pp[i] > hi[i]:
            pp = p
        columns.append((np.asarray(fn(pp), dtype=float) - np.asarray(fn(pm), dtype=float))
                       / (pp[i] - pm[i]))
    return np.column_stack(columns)


def least_squares_fit(model_fn, y, init, sigma=None, bounds=None):
    """Fit ``model_fn(params_dict) -> y_model`` to ``y`` by weighted least
    squares.

    Parameters
    ----------
    y : finite data, compared with the flattened model output.
    init : dict of parameter name -> starting value (defines the order).
    sigma : optional per-point (``y.size`` values) or scalar uncertainty of
        ``y``, finite and > 0; the residuals are divided by it, otherwise
        unweighted.
    bounds : optional dict name -> (lo, hi); enforced by projecting trial
        steps into the box.

    Each pass tests the gradient against :data:`GTOL`, then tries one step
    (J^T J + lam D) h = -g with D = diag(J^T J), kept if it lowers the cost;
    lam follows the gain ratio (Nielsen 1999).  The gradient test is
    ||J^T r||_inf <= GTOL max(sqrt(cost), 1), with r the weighted residuals:
    below a cost of 1 its floor is an absolute 1e-8 of r per unit of the
    parameter.  A fit of exact data with unit weights (``sigma`` omitted)
    therefore stops at that gradient, which for parameters of large
    magnitude is short of the truth: ``fit_power_dependence`` on noise-free
    data with n_crit of 5e3-1e5 ends up to 1.2e-5 relative away from it.
    ``sigma`` at the data's noise level scales the floor with the data (within
    7e-9 relative there).  A scaled trial step below :data:`XTOL` also
    converges (Moré 1978).  ``iterations`` counts the passes, at most
    :data:`MAX_ITERATIONS`; each but a gradient-ended last one runs one
    trial, accepted or rejected.

    Returns a :class:`FitResult`; the covariance is the inverse of the
    weighted normal matrix at the fitted parameters, scaled by the residual variance.
    """
    y = np.asarray(y, dtype=float).ravel()
    sigma = np.ones(1) if sigma is None else np.asarray(sigma, dtype=float).ravel()
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    if sigma.size not in (1, y.size):
        raise ValueError(f"sigma: {sigma.size} values, y has {y.size}")
    if not np.all(np.isfinite(sigma) & (sigma > 0)):
        raise ValueError("sigma must be finite and > 0")
    w = 1.0 / sigma

    names = list(init)
    p = np.array([init[k] for k in names], dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("initial parameters must be finite")
    lo = np.full(p.size, -np.inf)
    hi = np.full(p.size, np.inf)
    if bounds:
        for i, k in enumerate(names):
            if k in bounds:
                lo[i], hi[i] = bounds[k]
    if np.any(p < lo) or np.any(p > hi):
        raise ValueError("initial parameters must lie within bounds")
    if y.size < p.size:
        raise ValueError("need at least as many data points as parameters")

    def residuals(pv):
        pd = dict(zip(names, pv))
        return (np.asarray(model_fn(pd), dtype=float).ravel() - y) * w

    r = residuals(p)
    if not np.all(np.isfinite(r)):
        raise ValueError("initial residuals must be finite: the model is not finite at init")
    cost = float(r @ r)
    cost_trace = [cost]
    jac = finite_difference_jacobian(residuals, p, lo, hi)
    g, jtj = jac.T @ r, jac.T @ jac
    lam, nu = LAM0, 2.0
    converged = False
    for it in range(1, MAX_ITERATIONS + 1):
        if float(np.max(np.abs(g))) <= GTOL * max(np.sqrt(cost), 1.0):
            converged = True
            break
        d = np.where(np.diag(jtj) > 0, np.diag(jtj), 1.0)
        h = np.linalg.solve(jtj + lam * np.diag(d), -g)
        p_try = np.clip(p + h, lo, hi)
        r_try = residuals(p_try)
        cost_try = float(r_try @ r_try)
        # actual over predicted reduction; h^T (lam D h - g) > 0 whenever g != 0
        rho = (cost - cost_try) / float(h @ (lam * d * h - g))
        scale = np.sqrt(d)
        converged = bool(np.linalg.norm(scale * (p_try - p))
                         <= XTOL * (np.linalg.norm(scale * p) + XTOL))
        if rho > 0:
            p, r, cost = p_try, r_try, cost_try
            cost_trace.append(cost)
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            jac = finite_difference_jacobian(residuals, p, lo, hi)
            g, jtj = jac.T @ r, jac.T @ jac
        else:
            lam *= nu
            nu *= 2.0
        if converged:
            break

    if np.linalg.matrix_rank(jac, tol=np.sqrt(_EPS) * max(1.0, np.abs(jac).max())) < p.size:
        raise RankDeficiencyError(
            "rank-deficient Jacobian at the optimum: parameters unidentifiable"
        )
    dof = max(y.size - p.size, 1)
    s2 = cost / dof
    cov = np.linalg.inv(jtj) * s2

    params = dict(zip(names, p.tolist()))
    unc = dict(zip(names, np.sqrt(np.clip(np.diag(cov), 0.0, None)).tolist()))
    active = {
        k: bool((np.isfinite(lo[i]) and p[i] <= lo[i]) or (np.isfinite(hi[i]) and p[i] >= hi[i]))
        for i, k in enumerate(names)
    }
    return FitResult(
        params=params,
        covariance=cov,
        residual_norm=float(np.sqrt(cost)),
        iterations=it,
        converged=converged,
        uncertainties=unc,
        boundary_active=active,
        cost_trace=cost_trace,
    )
