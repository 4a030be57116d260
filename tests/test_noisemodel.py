import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpmcascade.errors import DomainError, RangeError
from qpmcascade.noisemodel import (
    _BLOCK_ELEMENTS,
    _PANELS,
    ParasiticProcess,
    enumerate_parasitics,
    lineshape_analytic,
    planck_weight,
    solve_thermal_sfg_output,
    thermal_sfg_lineshape,
    thermal_sfg_mismatch,
    weighted_sinc2_sum,
)
from qpmcascade.spectral import C_NM_THZ, Wavelength

LENGTH = 20.0
PUMP = Wavelength(2152.9)
WINDOW = (1480.0, 1620.0)


def per_panel_oracle(dk, length, weights):
    """The kernel's midpoint sum taken directly, one np.sinc per panel."""
    dz = length / _PANELS
    z = (np.arange(_PANELS) + 0.5) * dz
    weight = sum(a * z**j for j, a in enumerate(weights))
    kernel = np.sinc(0.5 * np.outer(dk, length - z) / math.pi) ** 2
    return kernel @ weight * dz


def quadrature_oracle(delta_k: float, length: float, panels: int = 100_000) -> float:
    """Trapezoid quadrature of the distributed-source integrand."""
    u = np.linspace(0.0, length, panels + 1)
    integrand = (u**2 / length) * np.sinc(0.5 * delta_k * u / math.pi) ** 2
    return float(np.trapezoid(integrand, u))


class TestAnalyticLineShape:
    def test_zero_detuning_limit(self):
        assert lineshape_analytic(0.0, LENGTH) == pytest.approx(LENGTH**2 / 3.0, rel=1e-12)

    def test_matches_quadrature_across_grid(self):
        for dk in np.linspace(-10.0 / LENGTH, 10.0 / LENGTH, 201):
            oracle = quadrature_oracle(float(dk), LENGTH)
            assert lineshape_analytic(float(dk), LENGTH) == pytest.approx(oracle, rel=1e-6)

    def test_series_branch_is_continuous(self):
        # the exact branch loses ~8 digits to cancellation right at the
        # series cutoff, so continuity holds at that level, not at 1e-15
        just_below = lineshape_analytic(0.99e-4 / LENGTH, LENGTH)
        just_above = lineshape_analytic(1.01e-4 / LENGTH, LENGTH)
        assert just_below == pytest.approx(just_above, rel=1e-7)

    def test_array_call_is_the_scalar_call(self):
        dk = np.array([0.0, 0.5e-4, -0.99e-4, 1.01e-4, 0.03, -0.4, 2.0]) / LENGTH
        scalars = [lineshape_analytic(float(d), LENGTH) for d in dk]
        assert np.array_equal(lineshape_analytic(dk, LENGTH), scalars)

    def test_series_only_where_masked_is_the_two_branch_select(self):
        """The series written into the |dk L| < 1e-4 elements only gives
        exactly what selecting between both branches on every element did."""

        def two_branch_select(dk, length):
            x = dk * length
            l2 = length * length
            small = np.abs(x) < 1e-4
            dk_safe = np.where(small, 1.0, dk)
            sinc = np.sinc(np.where(small, 1.0, x) / math.pi)
            exact = (2.0 / (dk_safe * dk_safe)) * (1.0 - sinc)
            series = l2 / 3.0 - (x * x) * l2 / 60.0 + (x**4) * l2 / 2520.0
            return np.where(small, series, exact)

        dk = np.array([0.0, 1e-7, -1e-7, 0.99e-4, -1.01e-4, 1e-3, -0.2, 3.0]) / LENGTH
        lengths = np.array([[0.5], [LENGTH], [250.0]])
        for length in (LENGTH, lengths):
            got = lineshape_analytic(dk, length)
            assert np.array_equal(got, two_branch_select(dk, length))
        at_zero = lineshape_analytic(np.zeros(3), lengths[:, 0])
        assert np.array_equal(at_zero, lengths[:, 0] ** 2 / 3.0)
        for d in dk:
            value = lineshape_analytic(float(d), LENGTH)
            assert type(value) is float and value == two_branch_select(d, LENGTH)

    def test_broader_than_plain_sinc2(self):
        dk = np.linspace(-1.0, 1.0, 20001)
        shape = np.array([lineshape_analytic(float(d), LENGTH) for d in dk])
        shape /= shape.max()
        sinc2 = np.sinc(0.5 * dk * LENGTH / math.pi) ** 2

        def fwhm(y):
            above = dk[y >= 0.5]
            return above[-1] - above[0]

        assert fwhm(shape) > fwhm(sinc2)


class TestWeightedLineShape:
    def test_parabolic_weight_reproduces_analytic(self):
        # a = coefficients of (L - z)^2 / L
        grid = np.linspace(1545.0, 1555.0, 101)
        intensity = weighted_sinc2_sum(0.2 * (grid - 1550.0), LENGTH, (LENGTH, -2.0, 1.0 / LENGTH))
        for lam, value in zip(grid, intensity):
            expected = lineshape_analytic(0.2 * (lam - 1550.0), LENGTH)
            assert value == pytest.approx(expected, rel=1e-3)

    def test_uniform_weight_matches_independent_quadrature(self):
        grid = np.linspace(1546.0, 1554.0, 41)
        intensity = weighted_sinc2_sum(0.2 * (grid - 1550.0), LENGTH, (1.0,))
        z = np.linspace(0.0, LENGTH, 200_001)
        for lam, value in zip(grid, intensity):
            dk = 0.2 * (lam - 1550.0)
            oracle = float(np.trapezoid(np.sinc(0.5 * dk * (LENGTH - z) / math.pi) ** 2, z))
            assert value == pytest.approx(oracle, rel=1e-3)

    def test_zero_weights_give_zero_spectrum(self):
        intensity = weighted_sinc2_sum(np.linspace(1545.0, 1555.0, 11) - 1550.0, LENGTH, (0.0, 0.0))
        assert np.all(intensity == 0.0)

    def test_linear_in_weight_vector(self):
        grid = np.linspace(1546.0, 1554.0, 21)
        dk = 0.3 * (grid - 1550.0)
        one = weighted_sinc2_sum(dk, LENGTH, (1.0, 0.5))
        two = weighted_sinc2_sum(dk, LENGTH, (0.2, 0.1))
        combo = weighted_sinc2_sum(dk, LENGTH, (1.2, 0.6))
        assert np.allclose(combo, one + two, rtol=1e-12)

    def test_asymmetric_weight_with_curved_detuning_skews_peak(self):
        # quadratic detuning map makes the wavelength-space shape sensitive
        # to the position weight; the skew sign must match a fine quadrature
        dk = lambda lam: 0.25 * (lam - 1550.0) + 0.01 * (lam - 1550.0) ** 2
        grid = np.linspace(1544.0, 1556.0, 241)
        intensity = weighted_sinc2_sum(dk(grid), LENGTH, (0.0, 1.0))

        def skew(lams, vals):
            total = np.sum(vals)
            mean = np.sum(lams * vals) / total
            var = np.sum((lams - mean) ** 2 * vals) / total
            return float(np.sum((lams - mean) ** 3 * vals) / total / var**1.5)

        measured = skew(grid, intensity)
        z = np.linspace(0.0, LENGTH, 100_001)
        oracle_vals = np.array(
            [
                float(np.trapezoid(z * np.sinc(0.5 * dk(l) * (LENGTH - z) / math.pi) ** 2, z))
                for l in grid
            ]
        )
        oracle = skew(grid, oracle_vals)
        assert abs(measured) > 1e-3
        assert math.copysign(1.0, measured) == math.copysign(1.0, oracle)
        assert measured == pytest.approx(oracle, rel=1e-2)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
    length=st.floats(1e-3, 1e3),
    dk_l=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=6),
)
@example(weights=[5e-324], length=3.0, dk_l=[3.0])
@example(weights=[0.0, 5e-324], length=647.5, dk_l=[0.0])
@example(weights=[1.0, -0.1], length=20.0, dk_l=[64 * math.pi])
@example(weights=[1.0, -0.1], length=20.0, dk_l=[4096 * math.pi / 43])
def test_panel_split_kernel_is_the_per_panel_sum(weights, length, dk_l):
    """Within 1e-13 of the same sum taken with |a_j|, the scale of its
    rounding, for |dk L| up to 300, exactly 0 and +-1e-300.

    The last two examples put a half angle on pi/2, where the kernel's
    tangent is about +-1.6e16: with P = 1024, q = 32 and phi = dk L/(4P),
    q a phi = pi/2 at a = 1 for dk L = 64 pi, and (b + 1/2) phi = pi/2 at
    b = 21 for dk L = 4096 pi/43.

    A result below the normal range rounds by up to half a subnormal ulp
    u = 5e-324 in absolute terms, where the relative bound underflows to
    0.  The kernel rounds a_j L^j once per weight, then multiplies by a
    sum of at most P sinc^2 terms and by L/P: at most (P + 1) u/2 * L/P
    per weight, plus u from its last roundings.  The oracle rounds per
    panel each a_j z^j, the weight sum's n - 1 additions, the kernel
    product and the dot product's addition, then multiplies the P-term
    sum by dz = L/P: at most (2n + 1) u L / 2 + u / 2.  Together that is
    below (2n + 3) u max(1, L) for n weights."""
    dk = np.concatenate([np.array(dk_l) / length, [0.0, 1e-300, -1e-300]])
    got = weighted_sinc2_sum(dk, length, weights)
    oracle = per_panel_oracle(dk, length, weights)
    scale = per_panel_oracle(dk, length, [abs(a) for a in weights])
    floor = (2 * len(weights) + 3) * 5e-324 * max(1.0, length)
    assert np.all(np.abs(got - oracle) <= 1e-13 * scale + floor)


@settings(max_examples=30, deadline=None)
@given(
    degrees=st.integers(1, 3),
    size=st.integers(1, 2100),
    shared=st.lists(st.booleans(), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_elements_are_the_single_element_calls(degrees, size, shared, seed):
    """Each element of a broadcast batch is bitwise the kernel called on
    that element alone, wherever it falls among the blocks of rows and the
    SIMD lanes.  Batches run from 1 element to over 6 blocks of rows for
    every degree count drawn (a block has at most 341 rows), and most
    sizes are not multiples of 8.  The length and each weight are per
    element or shared, as ``shared`` draws."""
    rng = np.random.default_rng(seed)
    dk = rng.uniform(-300.0, 300.0, size) / 20.0
    dk[rng.random(size) < 0.05] = 0.0
    length = 20.0 if shared[0] else rng.uniform(0.5, 50.0, size)
    weights = [
        rng.uniform(1.0, 10.0) if same else rng.uniform(1.0, 10.0, size) * rng.choice([-1, 1], size)
        for same in shared[1 : 1 + degrees]
    ]
    batch = weighted_sinc2_sum(dk, length, weights)
    rows = _BLOCK_ELEMENTS // (3 * degrees * math.isqrt(_PANELS))
    assert rows <= 341
    for i in range(size):
        one = [w if np.ndim(w) == 0 else w[i] for w in (length, *weights)]
        assert np.array_equal(batch[i], weighted_sinc2_sum(dk[i], one[0], one[1:])), i


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(2, 12),
    samples=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_rows_with_mixed_degrees_are_the_single_row_calls(rows, samples, seed):
    """A row of an (R, M) batch, one weight vector and centre per row as a
    fit's Jacobian passes them, is bitwise that row called alone, when
    some rows have a1 = a2 = 0 and others do not.  Alone, such a row
    evaluates degree 0 only; in the batch it shares degrees 1 and 2 with
    the other rows, and each degree's sum is reduced on its own."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-3.0, 3.0, samples)
    center = rng.uniform(-0.5, 0.5, (rows, 1))
    length = rng.uniform(0.5, 30.0, (rows, 1))
    a0 = rng.uniform(-5.0, 5.0, (rows, 1))
    a1, a2 = rng.uniform(-1.0, 1.0, (2, rows, 1)) * (rng.random((2, rows, 1)) < 0.5)
    a1[0] = a2[0] = 0.0
    a1[-1] = 0.5
    batch = weighted_sinc2_sum(x - center, length, (a0, a1, a2))
    for i in range(rows):
        alone = weighted_sinc2_sum(x - center[i, 0], length[i, 0], (a0[i, 0], a1[i, 0], a2[i, 0]))
        assert np.array_equal(batch[i], alone), i


@settings(max_examples=60, deadline=None)
@given(
    length=st.floats(0.5, 100.0),
    dk_l=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8, unique=True),
)
def test_parabolic_weights_give_the_analytic_line(length, dk_l):
    """Weights (L, -2, 1/L), i.e. (L - z)^2 / L, reproduce the analytic line
    within criterion 6's 1e-3 relative for |dk L| <= 20."""
    grid = np.array(sorted(dk_l))  # the abscissa is dk L itself
    weighted = weighted_sinc2_sum(grid / length, length, (length, -2.0, 1.0 / length))
    analytic = lineshape_analytic(grid / length, length)
    assert np.all(np.abs(weighted - analytic) <= 1e-3 * analytic)


class TestWeightedKernel:
    def test_broadcasts_detuning_length_and_weights(self):
        dk = np.linspace(-2.0, 2.0, 7)
        lengths = np.array([[5.0], [20.0]])
        weights = (np.array([[1.0], [0.5]]), 0.0, 0.01)
        batch = weighted_sinc2_sum(dk, lengths, weights)
        assert batch.shape == (2, 7)
        for row, length, a0 in zip(batch, (5.0, 20.0), (1.0, 0.5)):
            assert np.array_equal(row, weighted_sinc2_sum(dk, length, (a0, 0.0, 0.01)))

    def test_zero_detuning_is_the_weight_integral(self):
        # midpoint rule is exact for a linear weight: int_0^L (2 + 3z) dz
        value = weighted_sinc2_sum(0.0, LENGTH, (2.0, 3.0))
        assert value == pytest.approx(2.0 * LENGTH + 1.5 * LENGTH**2, rel=1e-14)

    def test_nan_detuning_stays_nan(self):
        out = weighted_sinc2_sum(np.array([np.nan, 0.1]), LENGTH, (1.0,))
        assert np.isnan(out[0]) and np.isfinite(out[1])

    @pytest.mark.parametrize("length", [-1.0, 0.0, np.array([20.0, -1.0])])
    def test_non_positive_length_rejected(self, length):
        with pytest.raises(DomainError):
            weighted_sinc2_sum(0.1, length, (1.0,))


class TestPlanckWeight:
    def test_band_center_normalization(self):
        center = Wavelength(5325.0)
        assert planck_weight(np.array([center.nm]), 332.0, center)[0] == 1.0

    def test_mid_ir_band_is_flat_within_five_percent(self):
        weights = planck_weight(np.linspace(5250.0, 5400.0, 31), 332.0, Wavelength(5325.0))
        assert np.all(np.abs(weights - 1.0) < 0.05)

    def test_radiance_rises_with_temperature(self):
        # un-normalized Planck radiance at fixed mid-IR wavelength
        lam_um, c2 = 5.325, 14387.7688
        radiance = lambda t: lam_um**-5 / math.expm1(c2 / (lam_um * t))
        assert radiance(342.0) > radiance(332.0)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DomainError):
            planck_weight(np.array([5325.0]), 0.0, Wavelength(5325.0))

    @pytest.mark.parametrize("temperature", [math.inf, -math.inf, math.nan])
    def test_non_finite_temperature_rejected_by_name(self, temperature, recwarn):
        with pytest.raises(DomainError, match="Planck temperature must be finite"):
            planck_weight(np.array([5300.0, 5325.0]), temperature, Wavelength(5325.0))
        assert not recwarn.list

    def test_underflowing_band_center_rejected(self):
        # c2 / (lam T) > 709: the radiance at the band center is 0
        with pytest.raises(DomainError, match="underflows"):
            planck_weight(np.array([5300.0, 5325.0]), 2.0, Wavelength(5325.0))


class TestThermalSfg:
    def test_phase_matched_output_in_filter_window(self, solved_sections):
        _, step2 = solved_sections
        output = solve_thermal_sfg_output(step2, PUMP, WINDOW)
        assert output is not None
        assert WINDOW[0] < output < WINDOW[1]
        driver = 1.0 / (1.0 / output - 1.0 / PUMP.nm)
        assert 4500.0 < driver < 6500.0

    def test_solved_output_is_a_root(self, solved_sections):
        _, step2 = solved_sections
        for temp in (step2.temperature_C, step2.temperature_C + 7.5):
            output = solve_thermal_sfg_output(step2, PUMP, WINDOW, temp_C=temp)
            assert abs(thermal_sfg_mismatch(step2, PUMP, output, temp)) < 1e-9

    def test_out_of_range_temperature_has_no_line(self, solved_sections):
        _, step2 = solved_sections
        assert solve_thermal_sfg_output(step2, PUMP, WINDOW, temp_C=300.0) is None

    def test_separation_constant_under_pump_detuning(self, solved_sections):
        _, step2 = solved_sections
        base = solve_thermal_sfg_output(step2, PUMP, (1480.0, 1650.0))
        detuned_pump = Wavelength(PUMP.nm + 10.0)
        shifted = solve_thermal_sfg_output(step2, detuned_pump, (1480.0, 1650.0))
        sep_base = C_NM_THZ / base - C_NM_THZ / PUMP.nm
        sep_shifted = C_NM_THZ / shifted - C_NM_THZ / detuned_pump.nm
        assert abs(sep_shifted - sep_base) < 0.1

    def test_peak_temperature_slope_negative(self, solved_sections):
        _, step2 = solved_sections
        temps = [step2.temperature_C + d for d in (0.0, 2.5, 5.0, 7.5, 10.0)]
        outputs = [solve_thermal_sfg_output(step2, PUMP, WINDOW, temp_C=t) for t in temps]
        assert all(b < a for a, b in zip(outputs, outputs[1:]))

    def test_lineshape_peaks_at_solved_output(self, solved_sections):
        _, step2 = solved_sections
        peak_nm = solve_thermal_sfg_output(step2, PUMP, WINDOW)
        grid = np.linspace(peak_nm - 8.0, peak_nm + 8.0, 321)
        spectrum = thermal_sfg_lineshape(step2, PUMP, grid)
        found = spectrum.wavelength_nm[int(np.argmax(spectrum.intensity))]
        assert abs(found - peak_nm) < 0.1

    def test_only_second_section_matters(self, solved_sections):
        # the thermal line is a function of the step-2 section alone
        step1, step2 = solved_sections
        grid = np.linspace(1550.0, 1565.0, 31)
        reference = thermal_sfg_lineshape(step2, PUMP, grid)
        again = thermal_sfg_lineshape(step2, PUMP, grid)
        assert np.array_equal(reference.intensity, again.intensity)
        import inspect

        signature = inspect.signature(thermal_sfg_lineshape)
        assert "step1" not in signature.parameters

    def test_planck_weighting_opt_in(self, solved_sections):
        _, step2 = solved_sections
        grid = np.linspace(1550.0, 1565.0, 31)
        flat = thermal_sfg_lineshape(step2, PUMP, grid)
        planck = thermal_sfg_lineshape(step2, PUMP, grid, planck_temperature_K=332.0)
        ratio = planck.intensity / flat.intensity
        assert not np.allclose(ratio, 1.0)
        assert np.all(np.abs(ratio - 1.0) < 0.2)

    def test_empty_grid_rejected(self, solved_sections):
        _, step2 = solved_sections
        with pytest.raises(DomainError, match="^wavelength grid is empty$"):
            thermal_sfg_lineshape(step2, PUMP, [])

    def test_rejected_sample_raises_the_scalar_error(self, solved_sections):
        # one grid sample at or above the pump, or a temperature outside
        # the material range, raises what the scalar mismatch raises there
        _, step2 = solved_sections
        cases = [
            (DomainError, np.array([1550.0, 1560.0, PUMP.nm, 2200.0]), None, PUMP.nm),
            (RangeError, np.linspace(1550.0, 1565.0, 5), 300.0, 1550.0),
        ]
        for error, grid, temp, first_bad in cases:
            with pytest.raises(error) as scalar:
                thermal_sfg_mismatch(step2, PUMP, first_bad, temp)
            with pytest.raises(error) as grid_call:
                thermal_sfg_lineshape(step2, PUMP, grid, temp_C=temp)
            assert type(grid_call.value) is type(scalar.value)
            assert str(grid_call.value) == str(scalar.value)

    def test_output_must_be_below_pump(self, solved_sections):
        _, step2 = solved_sections
        with pytest.raises(DomainError):
            thermal_sfg_mismatch(step2, PUMP, 2200.0)


class TestEnumerateParasitics:
    def test_shg_in_near_ir_window(self, solved_sections):
        _, step2 = solved_sections
        found = enumerate_parasitics(step2, PUMP, (1000.0, 1200.0))
        kinds = {p.kind: p for p in found}
        assert "SHG_pump" in kinds
        assert kinds["SHG_pump"].output_nm == pytest.approx(1076.45, abs=0.01)
        assert kinds["SHG_pump"].power_law == 2

    def test_thermal_sfg_in_telecom_window(self, solved_sections):
        _, step2 = solved_sections
        found = enumerate_parasitics(step2, PUMP, WINDOW)
        kinds = {p.kind: p for p in found}
        assert "thermal_SFG" in kinds
        thermal = kinds["thermal_SFG"]
        assert WINDOW[0] < thermal.output_nm < WINDOW[1]
        assert 4500.0 < thermal.drivers_nm[0] < 6500.0
        assert thermal.power_law == 1

    def test_empty_window_allows_empty_list(self, solved_sections):
        _, step2 = solved_sections
        assert enumerate_parasitics(step2, PUMP, (400.0, 500.0)) == []

    @settings(max_examples=12, deadline=None)
    @given(pump_nm=st.floats(2100.0, 2200.0), temp_C=st.floats(40.0, 80.0))
    def test_rows_conserve_energy(self, reference_device, pump_nm, temp_C):
        """Each row's output is the SFG of its two drivers, to 1e-9 of the
        output photon energy; pump SHG goes as the squared pump power."""
        found = enumerate_parasitics(reference_device.step2, Wavelength(pump_nm), (1000.0, 1700.0), temp_C)
        assert [p.kind for p in found] == ["SHG_pump", "thermal_SFG"]
        for p in found:
            d1, d2 = p.drivers_nm
            assert abs(1.0 / p.output_nm - 1.0 / d1 - 1.0 / d2) * p.output_nm <= 1e-9
            assert p.power_law == {"SHG_pump": 2, "thermal_SFG": 1}[p.kind]

    @pytest.mark.parametrize("kind", ["other", "SFG"])
    def test_unknown_kind_refused(self, kind):
        with pytest.raises(DomainError, match="unknown parasitic kind"):
            ParasiticProcess(kind=kind, output_nm=1076.45, drivers_nm=(2152.9, 2152.9), power_law=2)

    def test_window_validation(self, solved_sections):
        _, step2 = solved_sections
        with pytest.raises(DomainError):
            enumerate_parasitics(step2, PUMP, (1600.0, 1500.0))
