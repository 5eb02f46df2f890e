import numpy as np
import pytest

from rydcav.fitting import (
    RankDeficiencyError,
    finite_difference_jacobian,
    least_squares_fit,
)


def linear_model(x):
    return lambda p: p["a"] * x + p["b"]


def test_jacobian_linear_exact():
    def fn(p):
        return np.array([2.0 * p[0] + 3.0 * p[1], -p[0] + 0.5 * p[1]])

    jac = finite_difference_jacobian(fn, np.array([1.0, -2.0]))
    np.testing.assert_allclose(jac, [[2.0, 3.0], [-1.0, 0.5]], rtol=1e-6)


def test_jacobian_quadratic():
    def fn(p):
        return np.array([p[0] ** 2])

    jac = finite_difference_jacobian(fn, np.array([3.0]))
    assert jac[0, 0] == pytest.approx(6.0, rel=1e-7)


def test_jacobian_steps_inward_at_a_bound():
    # fn is evaluated inside [lo, hi] only: at a bound a column is the
    # one-sided difference inward, inside the box the central one, bit for bit
    seen = []

    def fn(p):
        seen.append(p.copy())
        return np.array([p[0] ** 2 + p[1] ** 3, p[0] * p[1]])

    lo, hi = np.array([1.0, -np.inf]), np.array([np.inf, 2.0])
    jac = finite_difference_jacobian(fn, np.array([1.0, 2.0]), lo, hi)
    assert len(seen) == 4 and all(np.all((lo <= q) & (q <= hi)) for q in seen)
    np.testing.assert_allclose(jac, [[2.0, 12.0], [2.0, 1.0]], rtol=1e-6)
    inside = np.array([3.0, -1.0])
    np.testing.assert_array_equal(finite_difference_jacobian(fn, inside, lo, hi),
                                  finite_difference_jacobian(fn, inside))


def test_linear_problem_exact():
    x = np.linspace(0, 1, 30)
    y = 2.5 * x - 1.3
    fit = least_squares_fit(linear_model(x), y, {"a": 0.0, "b": 0.0})
    assert fit.converged
    assert fit["a"] == pytest.approx(2.5, abs=1e-8)
    assert fit["b"] == pytest.approx(-1.3, abs=1e-8)


def test_quadratic_bowl():
    x = np.linspace(-2, 2, 40)
    y = 0.7 * x ** 2 - 0.4 * x + 1.1

    def model(p):
        return p["c2"] * x ** 2 + p["c1"] * x + p["c0"]

    fit = least_squares_fit(model, y, {"c2": 0.0, "c1": 0.0, "c0": 0.0})
    assert fit.converged
    np.testing.assert_allclose(
        [fit["c2"], fit["c1"], fit["c0"]], [0.7, -0.4, 1.1], atol=1e-7
    )


def test_nonlinear_exponential():
    x = np.linspace(0, 5, 60)
    y = 3.0 * np.exp(-0.8 * x)

    def model(p):
        return p["amp"] * np.exp(-p["rate"] * x)

    fit = least_squares_fit(model, y, {"amp": 1.0, "rate": 0.3})
    assert fit.converged
    assert fit["amp"] == pytest.approx(3.0, rel=1e-6)
    assert fit["rate"] == pytest.approx(0.8, rel=1e-6)


def test_bounds_projection_and_flag():
    x = np.linspace(0, 1, 20)
    y = 5.0 * x

    def model(p):
        return p["a"] * x

    fit = least_squares_fit(model, y, {"a": 1.0}, bounds={"a": (0.0, 2.0)})
    assert fit["a"] == pytest.approx(2.0)
    assert fit.boundary_active["a"]


def test_interior_solution_no_flag():
    x = np.linspace(0, 1, 20)
    y = 1.5 * x

    def model(p):
        return p["a"] * x

    fit = least_squares_fit(model, y, {"a": 0.5}, bounds={"a": (0.0, 2.0)})
    assert fit["a"] == pytest.approx(1.5, abs=1e-8)
    assert not fit.boundary_active["a"]


def test_start_outside_bounds_rejected():
    x = np.linspace(0, 1, 20)
    y = 1.5 * x

    def model(p):
        return p["a"] * x

    with pytest.raises(ValueError):
        least_squares_fit(model, y, {"a": 5.0}, bounds={"a": (0.0, 2.0)})


def test_rank_deficiency_detected():
    x = np.linspace(0, 1, 20)
    y = 2.0 * x

    def model(p):
        # a and b only ever appear as a sum: singular normal matrix
        return (p["a"] + p["b"]) * x

    with pytest.raises(RankDeficiencyError):
        least_squares_fit(model, y, {"a": 0.0, "b": 0.0})


def test_covariance_matches_known_noise():
    # for y = a*x with residuals weighted by a correct sigma, var(a) should be
    # close to sigma^2 / sum(x^2); check within a factor-ish band
    rng = np.random.default_rng(1)
    x = np.linspace(0.1, 1, 200)
    sigma = 0.05
    y = 2.0 * x + rng.normal(0, sigma, x.size)

    def model(p):
        return p["a"] * x

    fit = least_squares_fit(model, y, {"a": 0.0}, sigma=np.full(x.size, sigma))
    expect = sigma ** 2 / np.sum(x ** 2)
    assert fit.covariance[0, 0] == pytest.approx(expect, rel=0.5)
    assert fit.uncertainties["a"] == pytest.approx(np.sqrt(fit.covariance[0, 0]))


def test_weighting_pulls_toward_precise_points():
    x = np.array([0.0, 1.0])
    y = np.array([0.0, 1.0])
    sigma = np.array([1e-6, 1.0])

    def model(p):
        return p["b"] + 0.0 * x

    fit = least_squares_fit(model, y, {"b": 0.5}, sigma=sigma)
    assert abs(fit["b"]) < 1e-3  # dominated by the precise y=0 point


def test_too_few_points_rejected():
    x = np.array([1.0])

    def model(p):
        return p["a"] * x + p["b"]

    with pytest.raises(ValueError):
        least_squares_fit(model, np.array([2.0]), {"a": 0.0, "b": 0.0})


def test_interp_shift_fits_converge():
    # np.interp between grids of one spacing makes the model piecewise linear
    # in the shift, so the cost kinks at every grid step; the step-size test
    # stops there.  A retry loop that gave up after 30 damping increases left
    # 5 of these 40 fits unconverged.
    x = np.arange(-3.0, 3.0 + 1e-9, 0.1)
    template = np.exp(-0.5 * x ** 2)

    def model(p):
        return np.interp(x - p["shift"], x, template)

    for seed in range(40):
        rng = np.random.default_rng(seed)
        shift = rng.uniform(-0.5, 0.5)
        y = np.interp(x - shift, x, template) + 0.02 * rng.standard_normal(x.size)
        fit = least_squares_fit(model, y, {"shift": 0.0}, sigma=0.02)
        assert fit.converged, seed
        assert abs(fit["shift"] - shift) <= 5.0 * fit.uncertainties["shift"], seed


def test_iteration_limit_reports_unconverged(monkeypatch):
    from rydcav import fitting

    x = np.linspace(0, 5, 60)
    y = 3.0 * np.exp(-0.8 * x)

    def model(p):
        return p["amp"] * np.exp(-p["rate"] * x)

    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    fit = least_squares_fit(model, y, {"amp": 1.0, "rate": 0.3})
    assert not fit.converged
    assert fit.iterations == 1


def test_iterations_count_rejected_trials():
    # from rate 3 the first steps overshoot and are rejected; each trial
    # costs one model evaluation and each kept step one two-evaluation
    # Jacobian, after the 3 evaluations at the start
    x = np.linspace(0, 5, 60)
    evals = [0]

    def model(p):
        evals[0] += 1
        return np.exp(-p["rate"] * x)

    fit = least_squares_fit(model, np.exp(-0.8 * x), {"rate": 3.0})
    kept = len(fit.cost_trace) - 1
    trials = evals[0] - 3 - 2 * kept
    assert fit.converged
    assert fit["rate"] == pytest.approx(0.8, rel=1e-6)
    assert trials > kept
    assert fit.iterations in (trials, trials + 1)  # + 1: the gradient test ended it


@pytest.mark.parametrize("y_bad", [np.nan, np.inf])
def test_non_finite_y_rejected(y_bad):
    x = np.linspace(0, 1, 20)
    y = 2.0 * x + 1.0
    y[3] = y_bad
    with pytest.raises(ValueError, match="^y must be finite"):
        least_squares_fit(linear_model(x), y, {"a": 0.0, "b": 0.0})


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf,
                                   np.r_[np.ones(19), 0.0]])
def test_bad_sigma_rejected(sigma):
    x = np.linspace(0, 1, 20)
    with pytest.raises(ValueError, match="^sigma must be finite and > 0"):
        least_squares_fit(linear_model(x), 2.0 * x + 1.0, {"a": 0.0, "b": 0.0},
                          sigma=sigma)


@pytest.mark.parametrize("size", [0, 19, 21])
def test_sigma_of_wrong_length_rejected(size):
    x = np.linspace(0, 1, 20)
    with pytest.raises(ValueError, match=rf"^sigma: {size} values, y has 20$"):
        least_squares_fit(linear_model(x), 2.0 * x + 1.0, {"a": 0.0, "b": 0.0},
                          sigma=np.ones(size))


def test_non_finite_initial_residuals_rejected():
    x = np.linspace(0, 1, 20)

    def model(p):
        return x * (np.nan if p["a"] < 1.0 else p["a"])

    with pytest.raises(ValueError, match="^initial residuals must be finite"):
        least_squares_fit(model, 2.0 * x, {"a": 0.0})
