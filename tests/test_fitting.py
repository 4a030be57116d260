import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmcascade import fitting
from qpmcascade.conversion import StepEfficiencyModel, step_efficiency
from qpmcascade.errors import DomainError, RankDeficiencyError
from qpmcascade.fitting import (
    FitModel,
    auto_initial,
    fit,
    model_registry,
    registry_model,
)

SCAN_X = np.linspace(2151.9, 2153.9, 201)
SCAN_TRUTH = np.array([1.0, 2152.9, 20.0, 0.0])


@pytest.fixture(scope="module")
def sinc2_model():
    return registry_model("sinc2_scan")


@pytest.fixture(scope="module")
def saturation_model():
    return registry_model("saturation", length_mm=20.0)


class TestFitCore:
    def test_exact_data_from_truth_is_fixed_point(self, sinc2_model):
        y = sinc2_model.evaluate(SCAN_TRUTH, SCAN_X)
        result = fit(sinc2_model, SCAN_X, y, SCAN_TRUTH)
        assert result.converged
        assert result.iterations <= 2
        assert result.residual_norm < 1e-20

    def test_objective_non_increasing(self, sinc2_model):
        rng = np.random.default_rng(77)
        y = sinc2_model.evaluate(SCAN_TRUTH, SCAN_X) + rng.normal(0, 0.01, SCAN_X.size)
        result = fit(sinc2_model, SCAN_X, y, np.array([0.8, 2152.7, 15.0, 0.01]))
        trace = result.cost_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_deterministic_bitwise(self, sinc2_model):
        rng = np.random.default_rng(78)
        y = sinc2_model.evaluate(SCAN_TRUTH, SCAN_X) + rng.normal(0, 0.01, SCAN_X.size)
        initial = np.array([0.8, 2152.7, 15.0, 0.01])
        first = fit(sinc2_model, SCAN_X, y, initial)
        second = fit(sinc2_model, SCAN_X, y, initial)
        assert np.array_equal(first.parameters, second.parameters)
        assert first.residual_norm == second.residual_norm
        assert first.iterations == second.iterations

    def test_bounds_projection(self, saturation_model):
        x = np.linspace(0.0, 0.225, 60)
        y = saturation_model.evaluate(np.array([0.95, 0.04]), x)
        result = fit(saturation_model, x, y, np.array([0.5, 0.001]))
        eta_max, eta_nor = result.parameters
        assert 1e-12 <= eta_max <= 1.0
        assert 0.0 <= eta_nor <= 100.0

    def test_initial_outside_bounds_rejected(self, saturation_model):
        x = np.linspace(0.0, 0.225, 30)
        y = saturation_model.evaluate(np.array([0.9, 0.04]), x)
        with pytest.raises(DomainError):
            fit(saturation_model, x, y, np.array([1.5, 0.04]))

    def test_too_few_points_rejected(self, sinc2_model):
        with pytest.raises(DomainError):
            fit(sinc2_model, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], SCAN_TRUTH)

    def test_dead_parameter_raises_rank_deficiency(self):
        model = FitModel(
            name="degenerate",
            parameter_names=("a", "unused"),
            bounds=((-10.0, 10.0), (-10.0, 10.0)),
            evaluate=lambda p, x: p[0] * x,
        )
        x = np.linspace(0.0, 1.0, 20)
        with pytest.raises(RankDeficiencyError):
            fit(model, x, 2.0 * x + 0.01, np.array([1.0, 0.0]))

    def test_central_jacobian_is_one_call_on_two_vectors_per_parameter(self, sinc2_model):
        """One call per Jacobian, on 2 n_par perturbed vectors; the residual
        at the point itself is passed in, not re-evaluated."""
        from qpmcascade.fitting import _jacobian

        calls = []

        def residuals(p):
            calls.append(np.array(p, dtype=float))
            return -sinc2_model.evaluate(p, SCAN_X)

        base = residuals(SCAN_TRUTH)
        calls.clear()
        _jacobian(residuals, SCAN_TRUTH, base, sinc2_model.bounds)
        assert len(calls) == 1
        assert calls[0].shape == (SCAN_TRUTH.size, 2 * SCAN_TRUTH.size, 1)
        vectors = calls[0][:, :, 0].T
        assert not any(np.array_equal(v, SCAN_TRUTH) for v in vectors)

    def test_fit_makes_one_batch_call_per_jacobian(self, sinc2_model):
        # a Jacobian is taken at the start and after every accepted step,
        # and the cost trace gains one entry at each of those points
        batches = []

        def counting(params, x):
            if np.ndim(params[0]):
                batches.append(np.shape(params[0]))
            return sinc2_model.evaluate(params, x)

        rng = np.random.default_rng(77)
        y = sinc2_model.evaluate(SCAN_TRUTH, SCAN_X) + rng.normal(0, 0.01, SCAN_X.size)
        result = fit(replace(sinc2_model, evaluate=counting), SCAN_X, y, [0.8, 2152.7, 15.0, 0.01])
        assert batches == [(2 * SCAN_TRUTH.size, 1)] * len(result.cost_trace)

    @pytest.mark.parametrize("where, message", [
        ("initial", "initial parameter 'amplitude' must be finite, got nan"),
        ("x", "data x must be finite, got inf at index 7"),
        ("y", "data y must be finite, got nan at index 7"),
    ])
    def test_non_finite_input_refused_by_name(self, sinc2_model, where, message):
        inputs = {"x": SCAN_X.copy(), "y": sinc2_model.evaluate(SCAN_TRUTH, SCAN_X),
                  "initial": SCAN_TRUTH.copy()}
        inputs[where][0 if where == "initial" else 7] = np.inf if where == "x" else np.nan
        with pytest.raises(DomainError) as exc:
            fit(sinc2_model, **inputs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("evaluate", [
        lambda p, x: np.full_like(x, p[0]),  # numpy cannot broadcast the batch
        lambda p, x: np.mean(p[0]) + 0.0 * x,  # one curve for the whole batch
    ])
    def test_model_that_does_not_broadcast_refused_by_name(self, evaluate):
        model = FitModel(
            name="scalar_only",
            parameter_names=("c",),
            bounds=((-10.0, 10.0),),
            evaluate=evaluate,
        )
        x = np.linspace(0.0, 1.0, 25)
        with pytest.raises(DomainError, match="model 'scalar_only' does not evaluate a batch"):
            fit(model, x, np.zeros_like(x), np.array([0.0]))

    def test_iteration_cap_returns_unconverged(self, sinc2_model, monkeypatch):
        monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 2)
        rng = np.random.default_rng(5)
        y = sinc2_model.evaluate(SCAN_TRUTH, SCAN_X) + rng.normal(0, 0.05, SCAN_X.size)
        result = fit(sinc2_model, SCAN_X, y, np.array([0.5, 2152.0, 5.0, 0.0]))
        assert not result.converged
        assert result.iterations == 2


class TestRoundTrips:
    def test_sinc2_scan_noisy_batch(self, sinc2_model):
        clean = sinc2_model.evaluate(SCAN_TRUTH, SCAN_X)
        hits_center = 0
        hits_amplitude = 0
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            y = clean + rng.normal(0.0, 0.01, SCAN_X.size)
            result = fit(sinc2_model, SCAN_X, y, auto_initial(sinc2_model, SCAN_X, y))
            if abs(result.parameters[1] - 2152.9) < 0.01:
                hits_center += 1
            if abs(result.parameters[0] - 1.0) < 0.02:
                hits_amplitude += 1
        assert hits_center >= 29
        assert hits_amplitude >= 29

    def test_saturation_noiseless_round_trip(self, saturation_model):
        x = np.linspace(0.0, 0.225, 120)
        truth = np.array([1.0, 0.012])
        y = saturation_model.evaluate(truth, x)
        result = fit(saturation_model, x, y, auto_initial(saturation_model, x, y))
        assert abs(result.parameters[1] - 0.012) / 0.012 < 0.01

    def test_saturation_recovers_cascade_operating_pair(self, saturation_model):
        # the equal-step eta_nor whose cascade reaches 20.5% internal at
        # 225 mW out-coupled pump exists; fitting a sampled step curve at
        # that value recovers it
        import math

        theta = math.asin(0.205**0.25)
        eta_nor = (theta / 20.0) ** 2 / 0.225
        x = np.linspace(0.0, 0.225, 150)
        y = saturation_model.evaluate(np.array([1.0, eta_nor]), x)
        result = fit(saturation_model, x, y, auto_initial(saturation_model, x, y))
        recovered = result.parameters[1]
        assert abs(recovered - eta_nor) / eta_nor < 0.01
        cascade = saturation_model.evaluate(np.array([1.0, recovered]), np.array([0.225]))[0] ** 2
        assert cascade == pytest.approx(0.205, abs=1e-3)

    def test_saturation_noisy_batch(self, saturation_model):
        x = np.linspace(0.0, 0.225, 200)
        truth = np.array([0.95, 0.04])
        clean = saturation_model.evaluate(truth, x)
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng(2000 + seed)
            y = clean + rng.normal(0.0, 0.01 * clean.max(), x.size)
            result = fit(saturation_model, x, y, auto_initial(saturation_model, x, y))
            if abs(result.parameters[1] - 0.04) / 0.04 < 0.01:
                hits += 1
        assert hits >= 29


class TestRegistry:
    def test_at_least_five_models(self):
        names = {m.name for m in model_registry()}
        assert {"sinc2_scan", "saturation", "lineshape_eq1", "lineshape_eq2", "two_mode_sinc2"} <= names

    def test_unknown_model_rejected(self):
        with pytest.raises(DomainError):
            registry_model("mystery")

    @pytest.mark.parametrize("length", [math.nan, math.inf, -20.0, 0.0])
    def test_length_not_finite_and_positive_rejected(self, length):
        with pytest.raises(DomainError, match="section length must be finite and positive"):
            model_registry(length_mm=length)

    @pytest.mark.parametrize("batched", [False, True])
    def test_saturation_is_the_step_efficiency_law(self, batched):
        """Bit-identical to the former inline formula
        eta_max sin^2(sqrt(eta_nor x) L) with eta_nor x clipped at 0, and to
        :func:`step_efficiency` on the same model at dk = 0."""
        rng = np.random.default_rng(12)
        x = np.concatenate([[-0.01, 0.0], rng.uniform(0.0, 0.3, 80)])
        shape = (5, 1) if batched else ()
        eta_max = rng.uniform(0.5, 1.0, shape)
        eta_nor = rng.uniform(0.0, 0.1, shape)
        y = registry_model("saturation", length_mm=18.5).evaluate(np.array([eta_max, eta_nor]), x)
        inline = eta_max * np.sin(np.sqrt(np.clip(eta_nor * x, 0.0, None)) * 18.5) ** 2
        assert np.array_equal(y, inline)
        for row, m, n in zip(np.atleast_2d(y), np.ravel(eta_max), np.ravel(eta_nor)):
            law = step_efficiency(StepEfficiencyModel(float(n), 18.5, float(m)), x[1:])
            assert np.array_equal(row[1:], law)

    def test_lineshape_eq2_parabolic_weights_match_eq1(self):
        eq1 = registry_model("lineshape_eq1")
        eq2 = registry_model("lineshape_eq2")
        length = 20.0
        x = np.linspace(1549.0, 1551.0, 101)
        # eq1 amplitude = peak height L^2/3; eq2 weights = (L-z)^2/L expansion
        y1 = eq1.evaluate(np.array([length**2 / 3.0, 1550.0, length, 0.0]), x)
        y2 = eq2.evaluate(np.array([length, -2.0, 1.0 / length, 1550.0, length, 0.0]), x)
        assert np.max(np.abs(y2 - y1) / np.abs(y1)) < 1e-3

    def test_lineshape_eq1_is_the_peak_normalised_analytic_line(self):
        # reference: 6 (1 - sinc(u)) / u^2 with u = (x - center) L, series 1 - u^2/20
        eq1 = registry_model("lineshape_eq1")
        center, length = 1550.0, 18.5
        x = np.concatenate([np.linspace(1548.0, 1552.0, 401), center + np.array([1e-7, 3e-6, 1e-3])])
        u = (x - center) * length
        small = np.abs(u) < 1e-4
        safe = np.where(small, 1.0, u)
        shape = np.where(small, 1.0 - u * u / 20.0, 6.0 * (1.0 - np.sinc(safe / math.pi)) / safe**2)
        y = eq1.evaluate(np.array([2.5, center, length, 0.0]), x)
        assert np.max(np.abs(y - 2.5 * shape) / (2.5 * shape)) < 1e-12

    def test_two_mode_with_zero_second_amplitude_is_sinc2_scan(self):
        scan = registry_model("sinc2_scan")
        two = registry_model("two_mode_sinc2")
        x = np.linspace(2150.0, 2158.0, 200)
        y_scan = scan.evaluate(np.array([1.2, 2152.9, 18.0, 0.05]), x)
        y_two = two.evaluate(np.array([1.2, 2152.9, 0.0, 2156.0, 18.0, 0.05]), x)
        assert np.array_equal(y_scan, y_two)

    @pytest.mark.parametrize("batched", [False, True])
    def test_sinc2_models_are_the_inline_sinc2_formula(self, batched):
        """Bit-identical to the former private formula
        np.sinc(0.5 L (x - c) / pi) ** 2, for one parameter vector and a
        (n_par, M, 1) batch."""

        def sinc2(arg):
            return np.sinc(arg / math.pi) ** 2

        rng = np.random.default_rng(11)
        x = np.linspace(2150.0, 2158.0, 301)
        shape = (7, 1) if batched else ()
        amp1, amp2 = rng.uniform(0.1, 2.0, (2, *shape))
        c1, c2 = rng.uniform(2151.0, 2157.0, (2, *shape))
        eff_len = rng.geometric(0.2, shape) * rng.uniform(0.5, 3.0, shape)
        offset = rng.uniform(-0.1, 0.1, shape)
        scan = registry_model("sinc2_scan").evaluate(np.array([amp1, c1, eff_len, offset]), x)
        assert np.array_equal(scan, amp1 * sinc2(0.5 * eff_len * (x - c1)) + offset)
        two = registry_model("two_mode_sinc2").evaluate(np.array([amp1, c1, amp2, c2, eff_len, offset]), x)
        expect = amp1 * sinc2(0.5 * eff_len * (x - c1)) + amp2 * sinc2(0.5 * eff_len * (x - c2)) + offset
        assert np.array_equal(two, expect)
        assert two.shape == ((7, x.size) if batched else x.shape)

    def test_numeric_jacobian_stable_under_step_refinement(self):
        from qpmcascade.fitting import _jacobian

        cases = {
            "sinc2_scan": (np.linspace(2150, 2156, 40), np.array([1.2, 2152.5, 15.0, 0.1])),
            "saturation": (np.linspace(0.01, 0.2, 40), np.array([0.8, 0.02])),
            "lineshape_eq1": (np.linspace(1548, 1552, 40), np.array([2.0, 1550.2, 18.0, 0.05])),
            "lineshape_eq2": (
                np.linspace(1548, 1552, 40),
                np.array([5.0, -1.0, 0.04, 1550.2, 18.0, 0.05]),
            ),
            "two_mode_sinc2": (
                np.linspace(2150, 2162, 60),
                np.array([1.0, 2153.0, 0.5, 2158.0, 15.0, 0.0]),
            ),
        }
        for model in model_registry():
            x, params = cases[model.name]
            residuals = lambda p: -model.evaluate(p, x)
            base = residuals(params)
            coarse = _jacobian(residuals, params, base, model.bounds, rel_step=1e-6)
            fine = _jacobian(residuals, params, base, model.bounds, rel_step=1e-8)
            scale = np.abs(fine).max(axis=0)
            scale[scale == 0.0] = 1.0
            assert np.max(np.abs(coarse - fine) / scale) < 1e-4


def per_vector_jacobian(func, params, base, bounds, rel_step=1e-6):
    """Central differences taken one parameter vector per call, one-sided
    where a step would pass a bound."""
    jac = np.empty((base.size, params.size))
    for i, p in enumerate(params):
        h = rel_step * max(abs(p), 1.0)
        lo, hi = bounds[i]
        up = params.copy()
        down = params.copy()
        if p + h <= hi and p - h >= lo:
            up[i] = p + h
            down[i] = p - h
            jac[:, i] = (func(up) - func(down)) / (2.0 * h)
        elif p + h <= hi:
            up[i] = p + h
            jac[:, i] = (func(up) - base) / h
        else:
            down[i] = p - h
            jac[:, i] = (base - func(down)) / h
    return jac


# (x, point) per case: interior points, lineshape_eq2 at a1 = a2 = 0 as
# auto_initial leaves it, and points with a parameter on a bound, where
# the column is a forward (lower bound) or backward (upper bound)
# difference.
JACOBIAN_CASES = {
    "sinc2_scan": (np.linspace(2150, 2156, 40), [
        [1.2, 2152.5, 15.0, 0.1],
        [0.0, 2152.5, 15.0, 0.1],
    ]),
    "saturation": (np.linspace(0.0, 0.2, 40), [
        [0.8, 0.02],
        [1.0, 0.0],
    ]),
    "lineshape_eq1": (np.linspace(1548, 1552, 40), [
        [2.0, 1550.2, 18.0, 0.05],
        [2.0, 1550.2, 1e3, 0.05],
    ]),
    "lineshape_eq2": (np.linspace(1548, 1552, 40), [
        [5.0, -1.0, 0.04, 1550.2, 18.0, 0.05],
        [1.0, 0.0, 0.0, 1550.2, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1550.2, 1e-3, 0.0],
    ]),
    "two_mode_sinc2": (np.linspace(2150, 2162, 60), [
        [1.0, 2153.0, 0.5, 2158.0, 15.0, 0.0],
        [1.0, 2153.0, 0.0, 2158.0, 15.0, 0.0],
    ]),
}


@pytest.mark.parametrize("name, case", [
    (name, k) for name, (_, points) in JACOBIAN_CASES.items() for k in range(len(points))
])
def test_batched_jacobian_is_the_per_vector_jacobian(name, case):
    """Every registry model's batch rows are its single-vector calls, so
    the one-call Jacobian is bitwise the per-vector one."""
    from qpmcascade.fitting import _jacobian

    model = registry_model(name)
    x, points = JACOBIAN_CASES[name]
    params = np.array(points[case])
    y = model.evaluate(params, x) + np.random.default_rng(case).normal(0.0, 0.01, x.size)
    residuals = lambda p: y - model.evaluate(p, x)
    base = residuals(params)
    batched = _jacobian(residuals, params, base, model.bounds)
    assert np.array_equal(batched, per_vector_jacobian(residuals, params, base, model.bounds))
    assert batched.flags.c_contiguous


def _refusal(call, x, y) -> str:
    with pytest.raises(DomainError) as exc:
        call(x, y)
    return str(exc.value)


class TestDataRefusals:
    """fit and auto_initial read (x, y) through one reader, so each
    refuses bad data with the same message."""

    @pytest.fixture(scope="class")
    def calls(self):
        model = registry_model("sinc2_scan")
        return {
            "fit": lambda x, y: fit(model, x, y, SCAN_TRUTH),
            "auto_initial": lambda x, y: auto_initial(model, x, y),
        }

    @pytest.mark.parametrize("column, index, value", [
        ("x", 7, np.nan), ("x", 0, np.inf), ("y", 7, np.nan), ("y", 200, -np.inf),
    ])
    def test_non_finite_value_named_by_column_and_index(self, calls, column, index, value):
        data = {"x": SCAN_X.copy(), "y": registry_model("sinc2_scan").evaluate(SCAN_TRUTH, SCAN_X)}
        data[column][index] = value
        expected = f"data {column} must be finite, got {value} at index {index}"
        for name, call in calls.items():
            assert _refusal(call, data["x"], data["y"]) == expected, name

    def test_mismatched_lengths_refused_alike(self, calls):
        y = np.zeros(SCAN_X.size - 1)
        messages = {name: _refusal(call, SCAN_X, y) for name, call in calls.items()}
        assert messages == {
            "fit": "need 5 or more matched data points, got 201 x and 200 y",
            "auto_initial": "need 1 or more matched data points, got 201 x and 200 y",
        }


def test_standard_errors_shrink_with_noise(sinc2_model=None):
    model = registry_model("sinc2_scan")
    clean = model.evaluate(SCAN_TRUTH, SCAN_X)
    errors = []
    for sigma in (0.02, 0.002):
        rng = np.random.default_rng(31)
        y = clean + rng.normal(0.0, sigma, SCAN_X.size)
        result = fit(model, SCAN_X, y, auto_initial(model, SCAN_X, y))
        errors.append(result.standard_errors[1])
    assert errors[1] < errors[0]
    assert np.all(np.asarray(errors) >= 0.0)


def noisy_model_data(name: str, seed: int):
    """Seeded data for one registry model: typical parameters plus
    Gaussian noise of 1 % of the clean curve's span."""
    rng = np.random.default_rng([seed, 17])
    u = rng.uniform
    if name == "saturation":
        x = np.linspace(0.0, 0.225, 101)
        params = [u(0.85, 1.0), u(0.03, 0.05)]
    elif name == "sinc2_scan":
        c = 2152.9 + u(-0.2, 0.2)
        x = np.linspace(c - 1.0, c + 1.0, 101)
        params = [u(0.8, 1.2), c, u(18.0, 22.0), u(0.0, 0.05)]
    elif name == "lineshape_eq1":
        c = 1557.2 + u(-0.3, 0.3)
        x = np.linspace(c - 2.0, c + 2.0, 101)
        params = [u(100.0, 140.0), c, u(18.0, 22.0), u(0.0, 2.0)]
    elif name == "two_mode_sinc2":
        c = 2153.0 + u(-0.3, 0.3)
        x = np.linspace(c - 3.0, c + 9.0, 101)
        params = [u(0.9, 1.1), c, u(0.4, 0.6), c + 5.0 + u(-0.3, 0.3), u(14.0, 16.0), u(0.0, 0.02)]
    else:
        c = 1557.0 + u(-0.3, 0.3)
        x = np.linspace(c - 6.0, c + 6.0, 51)
        params = [u(0.8, 1.2), 0.0, 0.0, c, u(0.8, 1.2), 0.0]
    clean = registry_model(name).evaluate(np.array(params), x)
    return x, clean + rng.normal(0.0, 0.01 * float(np.ptp(clean)), x.size)


def scalar_lattice_reference(model, x, y):
    """auto_initial's guesses and lattice, scored one evaluate call per
    lattice point and kept on a strict improvement."""
    span = float(y.max() - y.min())
    params, axes = [], []
    for i, name in enumerate(model.parameter_names):
        lo, hi = model.bounds[i]
        if "amplitude" in name or name.startswith("a0"):
            params.append(np.clip(span if span > 0 else 1.0, lo, hi))
        elif name == "offset":
            params.append(np.clip(float(y.min()), lo, hi))
        elif name.startswith("a"):
            params.append(np.clip(0.0, lo, hi))
        elif name == "eta_max":
            params.append(np.clip(max(float(y.max()), 1e-6), lo, hi))
        else:
            params.append(0.5 * (lo + hi))
            if "center" in name:
                axis = np.linspace(float(x.min()), float(x.max()), 16)
            elif "length" in name:
                axis = np.geomspace(0.1, 1e3, 16)
            elif name == "eta_nor":
                axis = np.geomspace(1e-5, 10.0, 16)
            else:
                axis = np.linspace(lo, hi, 16)
            if len(axes) < 3:
                axes.append((i, axis))
    best, best_sse = np.array(params), math.inf
    for point in zip(*(g.ravel() for g in np.meshgrid(*[a for _, a in axes], indexing="ij"))):
        trial = np.array(params)
        for (idx, _), value in zip(axes, point):
            trial[idx] = value
        resid = y - model.evaluate(trial, x)
        sse = float(resid @ resid)
        if sse < best_sse:
            best, best_sse = trial, sse
    return best


class TestBatchedAutoInitial:
    NAMES = ("saturation", "sinc2_scan", "lineshape_eq1", "two_mode_sinc2", "lineshape_eq2")

    def test_lattice_pick_is_the_scalar_loop_pick(self):
        for name in self.NAMES:
            model = registry_model(name)
            for seed in range(10):
                x, y = noisy_model_data(name, 4000 + seed)
                picked = auto_initial(model, x, y)
                assert np.array_equal(picked, scalar_lattice_reference(model, x, y)), (name, seed)

    def test_batched_evaluate_rows_are_single_evaluations(self):
        for name in self.NAMES:
            model = registry_model(name)
            x, y = noisy_model_data(name, 77)
            single = auto_initial(model, x, y)
            batch = np.stack([single, single * 1.01], axis=1)
            rows = model.evaluate(batch[:, :, None], x)
            assert rows.shape == (2, x.size)
            assert np.array_equal(rows[0], model.evaluate(single, x))
            assert np.array_equal(rows[1], model.evaluate(single * 1.01, x))

    def test_evaluate_call_counts(self, monkeypatch):
        # Work counter of the open-mesh lattice: 16 levels per scanned
        # parameter, each model term evaluated once per distinct level
        # combination of the axes it depends on.  The two-mode lattice
        # (16^3 points of 101 samples) exceeds the 2^15 budget, so it is
        # scored one effective_length level at a time: 16 calls of two
        # 16 x 101 sinc^2 terms each.
        calls = {"saturation": 1, "sinc2_scan": 1, "lineshape_eq1": 1,
                 "two_mode_sinc2": 16, "lineshape_eq2": 1}
        sinc2_elements = {"saturation": 0, "sinc2_scan": 256 * 101, "lineshape_eq1": 0,
                          "two_mode_sinc2": 16 * 2 * 16 * 101, "lineshape_eq2": 0}
        assert sinc2_elements["two_mode_sinc2"] == 51_712
        transfer = fitting.qpm_transfer
        elements = []

        def counting_transfer(dk, length):
            out = transfer(dk, length)
            elements.append(np.size(out))
            return out

        monkeypatch.setattr(fitting, "qpm_transfer", counting_transfer)
        for name in self.NAMES:
            model = registry_model(name)
            outputs = []

            def counting(params, x, evaluate=model.evaluate):
                out = evaluate(params, x)
                outputs.append(np.size(out))
                return out

            x, y = noisy_model_data(name, 5)
            elements.clear()
            auto_initial(replace(model, evaluate=counting), x, y)
            assert len(outputs) == calls[name], name
            assert max(outputs) <= fitting._LATTICE_BLOCK, name
            assert sum(elements) == sinc2_elements[name], name

    def test_mirror_ties_keep_the_first_pair(self):
        # Both amplitude guesses are the data span, so the lattice points
        # (center1, center2) = (a, b) and (b, a) score the same SSE
        # exactly; the pick is the first of them in lattice order.
        model = registry_model("two_mode_sinc2")
        x = np.linspace(2150.0, 2162.0, 101)
        levels = np.linspace(x.min(), x.max(), 16)
        y = model.evaluate(np.array([1.0, levels[11], 1.0, levels[4], 15.0, 0.0]), x)
        y += np.random.default_rng(3).normal(0.0, 0.01, x.size)
        picked = auto_initial(model, x, y)
        assert np.array_equal(picked, scalar_lattice_reference(model, x, y))
        assert (picked[1], picked[3]) == (levels[4], levels[11])
        resid = [y - model.evaluate(p, x) for p in (picked, picked[[0, 3, 2, 1, 4, 5]])]
        assert resid[0] @ resid[0] == resid[1] @ resid[1]

    def test_user_model_on_the_open_mesh(self):
        # A user-defined model written to the batch contract: every
        # parameter unpacked from a sequence of arrays that broadcast with
        # x.  "width" and "skew" are scanned on linear lattices; "unused"
        # would be a fourth scanned parameter and keeps its guess.  At 200
        # samples the 2^15 budget holds the whole center axis and 10 width
        # levels: width is scored in chunks of 10 and 6 levels, once per
        # skew level.
        shapes = []

        def skewed_peak(params, x):
            amplitude, center, width, skew, unused, offset = params
            shapes.append(tuple(np.shape(p) for p in params))
            u = (x - center) / width
            return amplitude * np.exp(-0.5 * u * u) * (1.0 + skew * u) + offset

        model = FitModel(
            name="skewed_peak",
            parameter_names=("amplitude", "center", "width", "skew", "unused", "offset"),
            bounds=((0.0, 10.0), (0.0, 10.0), (0.1, 3.0), (-1.0, 1.0), (0.0, 1.0), (-5.0, 5.0)),
            evaluate=skewed_peak,
        )
        x = np.linspace(1.0, 9.0, 200)
        y = skewed_peak([2.0, 4.2, 0.7, 0.3, 0.0, 0.1], x)
        y += np.random.default_rng(8).normal(0.0, 0.02, x.size)
        shapes.clear()
        picked = auto_initial(model, x, y)
        assert len(shapes) == 32
        assert set(shapes) == {((), (16, 1, 1), (1, width, 1), (), (), ()) for width in (10, 6)}
        assert np.array_equal(picked, scalar_lattice_reference(model, x, y))
        assert picked[4] == 0.5

    @pytest.mark.parametrize(
        "name, samples, calls, largest",
        [
            # 16 x 2500 exceeds 2^15: center in chunks of 13 and 3 levels,
            # one call each per effective_length level
            ("sinc2_scan", 2500, 32, 13 * 2500),
            # one eta_nor level alone exceeds 2^15: one level per call
            ("saturation", 33_000, 16, 33_000),
        ],
    )
    def test_large_data_splits_the_lattice(self, name, samples, calls, largest):
        model = registry_model(name)
        x0, y0 = noisy_model_data(name, 9)
        x = np.linspace(x0.min(), x0.max(), samples)
        y = np.interp(x, x0, y0)
        outputs = []

        def counting(params, x, evaluate=model.evaluate):
            out = evaluate(params, x)
            outputs.append(np.size(out))
            return out

        picked = auto_initial(replace(model, evaluate=counting), x, y)
        assert len(outputs) == calls
        assert max(outputs) == largest
        assert np.array_equal(picked, scalar_lattice_reference(model, x, y))

    def test_model_ignoring_a_scanned_parameter(self):
        # "width" is scanned but unused: the model's output lacks its axis,
        # every width level ties and the first one is kept
        model = FitModel(
            name="parabola",
            parameter_names=("amplitude", "center", "width", "offset"),
            bounds=((0.0, 10.0), (0.0, 10.0), (0.1, 3.0), (-5.0, 5.0)),
            evaluate=lambda p, x: p[0] * (x - p[1]) ** 2 + p[3],
        )
        x = np.linspace(0.0, 4.0, 30)
        y = 0.3 * (x - 1.5) ** 2
        picked = auto_initial(model, x, y)
        assert np.array_equal(picked, scalar_lattice_reference(model, x, y))
        assert picked[2] == 0.1

    def test_non_finite_lattice_keeps_the_guesses(self):
        model = FitModel(
            name="nowhere_finite",
            parameter_names=("amplitude", "center"),
            bounds=((0.0, 10.0), (0.0, 10.0)),
            evaluate=lambda p, x: p[0] * np.full(np.broadcast(p[1], x).shape, np.nan),
        )
        x = np.linspace(1.0, 2.0, 5)
        picked = auto_initial(model, x, x)
        assert np.array_equal(picked, [1.0, 5.0])


def test_user_length_bounds_confine_the_pick():
    # Data of a length-8 line under length bounds (1, 5): the fixed
    # 0.1-1000 length lattice would pick 7.36, which fit() refuses.
    # Confined to the bounds, the pick is 5 and the fit ends on that bound.
    model = FitModel(
        name="short_sinc2",
        parameter_names=("amplitude", "center", "length", "offset"),
        bounds=((0.0, 10.0), (0.0, 10.0), (1.0, 5.0), (-5.0, 5.0)),
        evaluate=lambda p, x: p[0] * np.sinc(0.5 * p[2] * (x - p[1]) / np.pi) ** 2 + p[3],
    )
    x = np.linspace(2.0, 8.0, 61)
    y = model.evaluate([1.0, 4.7, 8.0, 0.0], x)
    picked = auto_initial(model, x, y)
    assert picked[2] == 5.0
    assert fit(model, x, y, picked).parameters[2] == 5.0


def test_parameter_named_alpha_is_scanned_not_zeroed():
    """Only ``a`` followed by digits (lineshape_eq2's a1, a2) starts at
    zero; a user's ``alpha`` is scanned over its bounds like any other
    parameter, and the Gaussian it scales is recovered."""
    model = FitModel(
        name="gauss",
        parameter_names=("alpha", "center", "width"),
        bounds=((0.0, 10.0), (0.0, 100.0), (0.1, 20.0)),
        evaluate=lambda p, x: p[0] * np.exp(-0.5 * ((x - p[1]) / p[2]) ** 2),
    )
    x = np.linspace(0.0, 100.0, 101)
    y = model.evaluate(np.array([3.0, 40.0, 5.0]), x)
    picked = auto_initial(model, x, y)
    assert picked[0] > 0.0
    result = fit(model, x, y, picked)
    assert result.converged
    assert result.parameters == pytest.approx([3.0, 40.0, 5.0], rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(TestBatchedAutoInitial.NAMES),
    x_lo=st.floats(-1e5, 1e5),
    x_span=st.floats(0.0, 1e5),
    seed=st.integers(0, 2**32 - 1),
)
def test_auto_initial_lies_inside_the_bounds(name, x_lo, x_span, seed):
    """For any x range, inside, across or outside the centre bounds, the
    automatic guess is a point fit() accepts."""
    model = registry_model(name)
    x = np.linspace(x_lo, x_lo + x_span, 21)
    y = np.random.default_rng(seed).normal(0.0, 1.0, x.size)
    with np.errstate(over="ignore"):
        picked = auto_initial(model, x, y)
    lows, highs = np.array(model.bounds).T
    assert np.all((lows <= picked) & (picked <= highs)), picked


PROPERTY_X = {
    "saturation": np.linspace(0.0, 0.225, 21),
    "sinc2_scan": np.linspace(2151.9, 2153.9, 21),
    "lineshape_eq1": np.linspace(1555.2, 1559.2, 21),
}


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(PROPERTY_X)),
    y=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=21, max_size=21),
)
def test_open_mesh_pick_is_the_scalar_pick_on_any_finite_data(name, y):
    """The open-mesh lattice picks what one evaluate call per lattice
    point picks, for any finite data, overflowing SSEs included."""
    model = registry_model(name)
    x, y = PROPERTY_X[name], np.array(y)
    with np.errstate(over="ignore"):
        assert np.array_equal(auto_initial(model, x, y), scalar_lattice_reference(model, x, y))
