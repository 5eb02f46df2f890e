import numpy as np
import pytest

from rydcav.fitting import (
    RankDeficiencyError,
    finite_difference_jacobian,
    least_squares_fit,
    multi_start_fit,
)


def linear_model(p, x):
    return p["a"] * x + p["b"]


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


def test_linear_problem_exact():
    x = np.linspace(0, 1, 30)
    y = 2.5 * x - 1.3
    fit = least_squares_fit(linear_model, (x, y), {"a": 0.0, "b": 0.0})
    assert fit.converged
    assert fit["a"] == pytest.approx(2.5, abs=1e-8)
    assert fit["b"] == pytest.approx(-1.3, abs=1e-8)


def test_quadratic_bowl():
    x = np.linspace(-2, 2, 40)
    y = 0.7 * x ** 2 - 0.4 * x + 1.1

    def model(p, x):
        return p["c2"] * x ** 2 + p["c1"] * x + p["c0"]

    fit = least_squares_fit(model, (x, y), {"c2": 0.0, "c1": 0.0, "c0": 0.0})
    assert fit.converged
    np.testing.assert_allclose(
        [fit["c2"], fit["c1"], fit["c0"]], [0.7, -0.4, 1.1], atol=1e-7
    )


def test_nonlinear_exponential():
    x = np.linspace(0, 5, 60)
    y = 3.0 * np.exp(-0.8 * x)

    def model(p, x):
        return p["amp"] * np.exp(-p["rate"] * x)

    fit = least_squares_fit(model, (x, y), {"amp": 1.0, "rate": 0.3})
    assert fit.converged
    assert fit["amp"] == pytest.approx(3.0, rel=1e-6)
    assert fit["rate"] == pytest.approx(0.8, rel=1e-6)


def test_bounds_projection_and_flag():
    x = np.linspace(0, 1, 20)
    y = 5.0 * x

    def model(p, x):
        return p["a"] * x

    fit = least_squares_fit(model, (x, y), {"a": 1.0}, bounds={"a": (0.0, 2.0)})
    assert fit["a"] == pytest.approx(2.0)
    assert fit.boundary_active["a"]


def test_interior_solution_no_flag():
    x = np.linspace(0, 1, 20)
    y = 1.5 * x

    def model(p, x):
        return p["a"] * x

    fit = least_squares_fit(model, (x, y), {"a": 0.5}, bounds={"a": (0.0, 2.0)})
    assert fit["a"] == pytest.approx(1.5, abs=1e-8)
    assert not fit.boundary_active["a"]


def test_start_outside_bounds_rejected():
    x = np.linspace(0, 1, 20)
    y = 1.5 * x

    def model(p, x):
        return p["a"] * x

    with pytest.raises(ValueError):
        least_squares_fit(model, (x, y), {"a": 5.0}, bounds={"a": (0.0, 2.0)})


def test_rank_deficiency_detected():
    x = np.linspace(0, 1, 20)
    y = 2.0 * x

    def model(p, x):
        # a and b only ever appear as a sum: singular normal matrix
        return (p["a"] + p["b"]) * x

    with pytest.raises(RankDeficiencyError):
        least_squares_fit(model, (x, y), {"a": 0.0, "b": 0.0})


def test_covariance_matches_known_noise():
    # for y = a*x with residuals weighted by a correct sigma, var(a) should be
    # close to sigma^2 / sum(x^2); check within a factor-ish band
    rng = np.random.default_rng(1)
    x = np.linspace(0.1, 1, 200)
    sigma = 0.05
    y = 2.0 * x + rng.normal(0, sigma, x.size)

    def model(p, x):
        return p["a"] * x

    fit = least_squares_fit(model, (x, y, np.full(x.size, sigma)), {"a": 0.0})
    expect = sigma ** 2 / np.sum(x ** 2)
    assert fit.covariance[0, 0] == pytest.approx(expect, rel=0.5)
    assert fit.uncertainties["a"] == pytest.approx(np.sqrt(fit.covariance[0, 0]))


def test_weighting_pulls_toward_precise_points():
    x = np.array([0.0, 1.0])
    y = np.array([0.0, 1.0])
    sigma = np.array([1e-6, 1.0])

    def model(p, x):
        return p["b"] + 0.0 * x

    fit = least_squares_fit(model, (x, y, sigma), {"b": 0.5})
    assert abs(fit["b"]) < 1e-3  # dominated by the precise y=0 point


def test_too_few_points_rejected():
    def model(p, x):
        return p["a"] * x + p["b"]

    with pytest.raises(ValueError):
        least_squares_fit(model, (np.array([1.0]), np.array([2.0])), {"a": 0.0, "b": 0.0})


def test_multi_start_escapes_local_minimum():
    x = np.linspace(0, 4 * np.pi, 200)
    y = np.sin(1.0 * x)

    def model(p, x):
        return np.sin(p["f"] * x)

    # a start at f=1.8 converges to a wrong local minimum; spread lets a
    # restart find the global one
    fit = multi_start_fit(model, (x, y), {"f": 1.8}, {"f": 0.5}, rng_seed=3)
    assert fit["f"] == pytest.approx(1.0, abs=1e-6)


def test_multi_start_not_worse_than_single():
    x = np.linspace(0, 4 * np.pi, 200)
    y = np.sin(1.0 * x)

    def model(p, x):
        return np.sin(p["f"] * x)

    single = least_squares_fit(model, (x, y), {"f": 1.8})
    multi = multi_start_fit(model, (x, y), {"f": 1.8}, {"f": 0.5}, rng_seed=3)
    assert multi.residual_norm <= single.residual_norm + 1e-12


def test_multi_start_runs_every_start(monkeypatch):
    from rydcav import fitting

    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(kwargs)
        return least_squares_fit(*args, **kwargs)

    monkeypatch.setattr(fitting, "least_squares_fit", counting_fit)
    x = np.linspace(0.0, 1.0, 20)
    multi_start_fit(linear_model, (x, 2.0 * x + 1.0), {"a": 1.0, "b": 0.0},
                    {"a": 0.1}, seeds=12)
    assert len(calls) == 12
    with pytest.raises(ValueError, match="seeds"):
        multi_start_fit(linear_model, (x, 2.0 * x + 1.0), {"a": 1.0, "b": 0.0},
                        {"a": 0.1}, seeds=0)
