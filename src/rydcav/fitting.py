"""Damped Gauss-Newton (Levenberg-style) nonlinear least squares.

Jacobians are central finite differences with sqrt(machine-epsilon) step
scaling; bounds are enforced by projection and reported via
boundary-active flags.  The engine is stateless and deterministic given
its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_EPS = np.finfo(float).eps


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

    def to_dict(self):
        return {
            "params": self.params,
            "uncertainties": self.uncertainties,
            "covariance": np.asarray(self.covariance).tolist(),
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "boundary_active": self.boundary_active,
            "cost_trace": self.cost_trace,
        }


def finite_difference_jacobian(fn, p, rel_step=None):
    """Central-difference Jacobian of fn(p) with adaptive per-parameter step."""
    p = np.asarray(p, dtype=float)
    f0 = np.asarray(fn(p), dtype=float)
    m = p.size
    jac = np.empty((f0.size, m))
    base = np.sqrt(_EPS) if rel_step is None else rel_step
    for i in range(m):
        h = base * max(abs(p[i]), 1.0)
        pp = p.copy()
        pm = p.copy()
        pp[i] += h
        pm[i] -= h
        jac[:, i] = (np.asarray(fn(pp), dtype=float) - np.asarray(fn(pm), dtype=float)) / (
            pp[i] - pm[i]
        )
    return jac


def least_squares_fit(
    model_fn,
    data,
    init,
    bounds=None,
    tolerances=None,
    max_iterations=200,
):
    """Fit ``model_fn(params_dict, x) -> y_model`` to data by weighted
    least squares.

    Parameters
    ----------
    data : (x, y) or (x, y, sigma); with sigma the residuals are
        inverse-variance weighted, otherwise unweighted.
    init : dict of parameter name -> starting value (defines the order).
    bounds : optional dict name -> (lo, hi); enforced by projecting trial
        steps into the box.
    tolerances : optional dict with keys ftol (relative cost change),
        gtol (gradient inf-norm) and lam0 (initial damping).

    Returns a :class:`FitResult`; the covariance is the inverse of the
    weighted normal matrix at the optimum, scaled by the residual variance.
    """
    if len(data) == 3:
        x, y, sigma = data
    else:
        x, y = data
        sigma = None
    y = np.asarray(y, dtype=float).ravel()
    w = np.ones_like(y) if sigma is None else 1.0 / np.asarray(sigma, dtype=float).ravel()

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

    tol = {"ftol": 1e-12, "gtol": 1e-8, "lam0": 1e-3}
    if tolerances:
        tol.update(tolerances)

    def residuals(pv):
        pd = dict(zip(names, pv))
        return (np.asarray(model_fn(pd, x), dtype=float).ravel() - y) * w

    r = residuals(p)
    cost = float(r @ r)
    lam = tol["lam0"]
    cost_trace = [cost]
    converged = False
    it = 0
    jac = None
    for it in range(1, max_iterations + 1):
        jac = finite_difference_jacobian(residuals, p)
        g = jac.T @ r
        jtj = jac.T @ jac
        # characteristic residual scale for the gradient test
        gnorm = float(np.max(np.abs(g)))
        gscale = max(np.sqrt(cost), 1.0)
        if gnorm <= tol["gtol"] * gscale:
            converged = True
            break
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
        improved = False
        for _ in range(30):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_try = np.clip(p + step, lo, hi)
            r_try = residuals(p_try)
            cost_try = float(r_try @ r_try)
            if cost_try < cost:
                rel_drop = (cost - cost_try) / max(cost, _EPS)
                p, r, cost = p_try, r_try, cost_try
                lam = max(lam / 3.0, 1e-14)
                cost_trace.append(cost)
                improved = True
                if rel_drop < tol["ftol"]:
                    converged = True
                break
            lam *= 10.0
        if not improved or converged:
            break

    if jac is None:
        jac = finite_difference_jacobian(residuals, p)
    # final gradient check drives the converged flag
    g = jac.T @ r
    if float(np.max(np.abs(g))) <= tol["gtol"] * max(np.sqrt(cost), 1.0):
        converged = True

    jtj = jac.T @ jac
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


def multi_start_fit(model_fn, data, init, spreads, bounds=None, seeds=8, rng_seed=0, **kw):
    """Run :func:`least_squares_fit` from ``seeds`` (>= 1) perturbed starts.

    ``spreads`` maps parameter names to the relative perturbation applied
    to the starting point; the first start is unperturbed.  Returns the
    converged result with the lowest residual norm.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    rng = np.random.default_rng(rng_seed)
    best = None
    for k in range(seeds):
        start = dict(init)
        if k > 0:
            for name, rel in spreads.items():
                start[name] = init[name] * (1.0 + rel * rng.standard_normal())
                if bounds and name in bounds:
                    start[name] = float(np.clip(start[name], *bounds[name]))
        try:
            res = least_squares_fit(model_fn, data, start, bounds=bounds, **kw)
        except (RankDeficiencyError, np.linalg.LinAlgError):
            continue
        if best is None or res.residual_norm < best.residual_norm:
            best = res
    if best is None:
        raise RankDeficiencyError("all multi-start fits failed")
    return best
