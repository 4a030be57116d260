import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpmcascade.conversion import (
    LossBudget,
    NoiseCounts,
    Spectrum,
    StepEfficiencyModel,
    budget_transmission,
    convert_spectrum,
    csv_rows,
    external_from_internal,
    internal_from_external,
    noise_report,
    read_xy_csv,
    spectrum_fwhm,
    step_efficiency,
)
from qpmcascade.errors import DomainError
from qpmcascade.qpm import qpm_transfer

DEVICE_BUDGET = LossBudget(
    (
        ("out_coupling", 0.922),
        ("free_space_optics", 0.947),
        ("fiber_coupling", 0.826),
        ("tunable_filter", 0.202),
    )
)


class TestStepEfficiency:
    def test_zero_pump_gives_zero(self):
        model = StepEfficiencyModel(0.006, 20.0)
        assert step_efficiency(model, 0.0) == 0.0

    def test_first_maximum(self):
        model = StepEfficiencyModel(0.006, 20.0)
        power = (math.pi / 2.0 / 20.0) ** 2 / 0.006
        assert step_efficiency(model, power) == pytest.approx(1.0, rel=1e-12)

    def test_small_signal_detuning_reduces_to_sinc2(self):
        model = StepEfficiencyModel(0.006, 20.0)
        power = (1e-3 / 20.0) ** 2 / 0.006  # kappa*L = 1e-3
        for dk in (0.05, 0.2, 0.5):
            ratio = step_efficiency(model, power, dk) / step_efficiency(model, power, 0.0)
            assert ratio == pytest.approx(qpm_transfer(dk, 20.0), abs=1e-4)

    def test_periodic_in_total_phase(self):
        model = StepEfficiencyModel(0.006, 20.0)
        theta = 0.9
        p_one = (theta / 20.0) ** 2 / 0.006
        p_two = ((theta + 2.0 * math.pi) / 20.0) ** 2 / 0.006
        assert step_efficiency(model, p_one) == pytest.approx(
            step_efficiency(model, p_two), abs=1e-12
        )

    def test_bounded_by_eta_max(self):
        model = StepEfficiencyModel(0.02, 20.0, eta_max=0.8)
        rng = np.random.default_rng(2)
        for _ in range(200):
            eta = step_efficiency(model, float(rng.uniform(0, 2)), float(rng.uniform(-3, 3)))
            assert 0.0 <= eta <= 0.8

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            step_efficiency(StepEfficiencyModel(0.006, 20.0), -1.0)

    @pytest.mark.parametrize("power", [math.nan, math.inf, np.array([0.1, math.nan])])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(DomainError, match="pump power must be finite and non-negative"):
            step_efficiency(StepEfficiencyModel(0.006, 20.0), power)

    @pytest.mark.parametrize("eta_nor, power, dk", [
        (1e308, 5.0, 0.0), (0.006, 0.1, math.inf), (0.006, 0.1, math.nan),
        (0.006, np.array([0.1, 0.2]), np.array([0.0, math.nan])),
    ])
    def test_non_finite_efficiency_rejected_without_warnings(self, eta_nor, power, dk):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="efficiency is not finite"):
                step_efficiency(StepEfficiencyModel(eta_nor, 20.0), power, dk)

    @pytest.mark.parametrize("eta_nor, length", [
        (math.inf, 20.0), (math.nan, 20.0), (0.006, math.inf), (0.006, math.nan),
    ])
    def test_non_finite_model_rejected(self, eta_nor, length):
        with pytest.raises(DomainError, match="must be finite"):
            StepEfficiencyModel(eta_nor, length)

    def test_arrays_are_the_scalar_calls(self):
        model = StepEfficiencyModel(0.03, 20.0, eta_max=0.9)
        rng = np.random.default_rng(5)
        powers = np.concatenate([[0.0], rng.uniform(0.0, 2.5, 60)])
        dks = np.concatenate([[0.0], rng.uniform(-2.0, 2.0, 60)])
        eta = step_efficiency(model, powers[:, None], dks[None, :])
        assert eta.shape == (61, 61)
        for i, j in itertools.product(range(61), repeat=2):
            scalar = step_efficiency(model, float(powers[i]), float(dks[j]))
            assert type(scalar) is float and scalar == eta[i, j]

    def test_zero_pump_at_zero_mismatch_is_zero_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta = step_efficiency(StepEfficiencyModel(0.006, 20.0), np.zeros(3),
                                  np.array([0.0, 0.5, -0.5]))
        assert eta.tolist() == [0.0, 0.0, 0.0]


class TestCascade:
    def test_zero_pump_gives_zero(self):
        model = StepEfficiencyModel(0.006, 20.0)
        assert step_efficiency(model, 0.0) * step_efficiency(model, 0.0) == 0.0

    def test_total_below_each_step(self):
        m1 = StepEfficiencyModel(0.004, 20.0)
        m2 = StepEfficiencyModel(0.009, 20.0)
        for power in (0.05, 0.15, 0.225):
            total = step_efficiency(m1, power) * step_efficiency(m2, power)
            assert total <= min(step_efficiency(m1, power), step_efficiency(m2, power))

    def test_equal_steps_reproduce_measured_internal_maximum(self):
        # eta_nor solving sin^2(sqrt(eta*P)*L)^2 = 0.205 at P = 0.225 W
        theta = math.asin(0.205**0.25)
        eta_nor = (theta / 20.0) ** 2 / 0.225
        model = StepEfficiencyModel(eta_nor, 20.0)
        total = step_efficiency(model, 0.225) * step_efficiency(model, 0.225)
        assert total == pytest.approx(0.205, abs=1e-12)


class TestLossBudget:
    def test_reference_budget_product(self):
        transmission = budget_transmission(DEVICE_BUDGET)
        assert transmission == pytest.approx(0.1457, abs=2e-4)

    def test_empty_budget_is_unity(self):
        assert budget_transmission(LossBudget(())) == 1.0

    def test_single_entry(self):
        assert budget_transmission(LossBudget((("pump_coupling", 0.745),))) == 0.745

    def test_permutation_invariant(self):
        entries = [("a", 0.9), ("b", 0.5), ("c", 0.7)]
        rng = np.random.default_rng(6)
        reference = budget_transmission(LossBudget(tuple(entries)))
        for _ in range(10):
            shuffled = list(entries)
            rng.shuffle(shuffled)
            assert budget_transmission(LossBudget(tuple(shuffled))) == pytest.approx(
                reference, rel=1e-15
            )

    def test_entry_validation_names_label(self):
        with pytest.raises(DomainError, match="mystery_element"):
            LossBudget((("mystery_element", 1.4),))


class TestExternalInternal:
    def test_reference_efficiency_chain(self):
        assert external_from_internal(0.205, DEVICE_BUDGET) == pytest.approx(0.030, abs=1e-3)

    def test_identity_on_empty_budget(self):
        empty = LossBudget(())
        assert external_from_internal(0.37, empty) == 0.37

    def test_inverse_direction(self):
        assert internal_from_external(0.030, DEVICE_BUDGET) == pytest.approx(0.206, abs=1e-3)


class TestNoiseReport:
    def test_reference_count_chain(self):
        counts = NoiseCounts(142.0, 135.0, 0.72, 4.0, 0.1457)
        report = noise_report(counts)
        assert report.pump_induced_cps == pytest.approx(9.72, abs=0.01)
        assert report.external_nsd_cps_per_GHz == pytest.approx(2.43, abs=0.01)
        assert report.internal_nsd_cps_per_GHz == pytest.approx(16.7, abs=0.1)

    def test_no_excess_counts(self):
        report = noise_report(NoiseCounts(135.0, 135.0, 0.72, 4.0, 0.1457))
        assert report.pump_induced_cps == 0.0
        assert report.external_nsd_cps_per_GHz == 0.0
        assert report.internal_nsd_cps_per_GHz == 0.0

    def test_synthetic_hand_arithmetic(self):
        report = noise_report(NoiseCounts(100.0, 50.0, 1.0, 10.0, 1.0))
        assert report.pump_induced_cps == 50.0
        assert report.external_nsd_cps_per_GHz == 5.0
        assert report.internal_nsd_cps_per_GHz == 5.0

    def test_linear_scaling(self):
        base = noise_report(NoiseCounts(142.0, 135.0, 0.72, 4.0, 0.1457))
        doubled = noise_report(NoiseCounts(149.0, 135.0, 0.72, 4.0, 0.1457))
        assert doubled.pump_induced_cps == 2.0 * base.pump_induced_cps
        assert doubled.external_nsd_cps_per_GHz == 2.0 * base.external_nsd_cps_per_GHz
        assert doubled.internal_nsd_cps_per_GHz == 2.0 * base.internal_nsd_cps_per_GHz

    def test_invariant_validation(self):
        with pytest.raises(DomainError):
            NoiseCounts(100.0, 120.0, 0.72, 4.0, 0.5)
        with pytest.raises(DomainError):
            NoiseCounts(100.0, 50.0, 0.0, 4.0, 0.5)
        with pytest.raises(DomainError):
            NoiseCounts(100.0, 50.0, 0.72, 0.0, 0.5)

    @pytest.mark.parametrize("total, dark, bandwidth", [
        (math.inf, 135.0, 4.0), (142.0, math.nan, 4.0), (math.nan, 135.0, 4.0),
        (142.0, 135.0, math.inf),
    ])
    def test_non_finite_figures_rejected(self, total, dark, bandwidth):
        with pytest.raises(DomainError, match="finite"):
            NoiseCounts(total, dark, 0.72, bandwidth, 0.1457)


class TestSpectrum:
    def test_validation(self):
        with pytest.raises(DomainError):
            Spectrum(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(DomainError):
            Spectrum(np.array([1.0, 2.0]), np.array([0.0, -1.0]))

    def test_csv_round_trip(self, tmp_path):
        spectrum = Spectrum(np.array([600.0, 601.0, 602.5]), np.array([0.1, 2.0, 0.4]))
        path = tmp_path / "spec.csv"
        path.write_text("\n".join(csv_rows(spectrum.wavelength_nm, spectrum.intensity)) + "\n")
        loaded = Spectrum(*read_xy_csv(path))
        assert np.array_equal(loaded.wavelength_nm, spectrum.wavelength_nm)
        assert np.array_equal(loaded.intensity, spectrum.intensity)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("# a comment\nwavelength_nm,intensity\n600.0,1.0\n# mid comment\n601.0,2.0\n")
        loaded = Spectrum(*read_xy_csv(path))
        assert loaded.wavelength_nm.size == 2

    def test_reader_returns_raw_columns(self, tmp_path):
        """Only the spectrum rejects negative or unordered values."""
        path = tmp_path / "scan.csv"
        path.write_text("2.0,-0.5\n1.0,0.25\n")
        x, y = read_xy_csv(path)
        assert x.tolist() == [2.0, 1.0] and y.tolist() == [-0.5, 0.25]
        with pytest.raises(DomainError):
            Spectrum(*read_xy_csv(path))

    @pytest.mark.parametrize("row", ["1.0", "1.0,2.0,3.0", "1.0,abc"])
    def test_reader_rejects_a_malformed_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.5,1.0\n{row}\n")
        with pytest.raises(DomainError) as exc:
            read_xy_csv(path)
        assert str(exc.value) == f"line 2 is not two numbers: {row!r}"

    def test_reader_skips_a_byte_order_mark(self, tmp_path):
        # spreadsheets export UTF-8 CSV with a BOM before the header
        path = tmp_path / "exported.csv"
        path.write_bytes("\ufeffwavelength_nm,intensity\n600.0,1.0\n601.0,2.0\n".encode("utf-8"))
        x, y = read_xy_csv(path)
        assert x.tolist() == [600.0, 601.0] and y.tolist() == [1.0, 2.0]

    def test_reader_refuses_undecodable_bytes_naming_the_file(self, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes("\ufeffwavelength_nm,intensity\n600.0,1.0\n".encode("utf-16-le"))
        with pytest.raises(DomainError, match=f"^{re.escape(repr(str(path)))}: not UTF-8 text: "):
            read_xy_csv(path)


class TestConvertSpectrum:
    def test_flat_input_returns_transfer_curve(self):
        lam = np.linspace(630.0, 645.0, 200)
        spectrum = Spectrum(lam, np.ones_like(lam))
        transfer = lambda l: np.exp(-((l - 637.0) ** 2) / 4.0)
        out, dropped = convert_spectrum(spectrum, transfer, lambda lam: lam)
        assert dropped == 0
        expected = np.array([transfer(l) for l in lam])
        assert np.allclose(out.intensity, expected)

    def test_single_sample_at_peak(self):
        spectrum = Spectrum(np.array([637.0]), np.array([3.0]))
        out, _ = convert_spectrum(spectrum, lambda l: 0.25, lambda lam: lam)
        assert out.intensity[0] == 0.75

    def test_abscissa_mapping_preserves_monotonicity(self):
        lam = np.linspace(630.0, 645.0, 50)
        spectrum = Spectrum(lam, np.ones_like(lam))
        out, _ = convert_spectrum(spectrum, lambda l: 1.0, lambda l: 2.0 * l + 5.0)
        assert np.all(np.diff(out.wavelength_nm) > 0)
        assert out.wavelength_nm[0] == 2.0 * 630.0 + 5.0

    def test_undefined_samples_dropped_and_counted(self):
        lam = np.linspace(630.0, 645.0, 50)
        spectrum = Spectrum(lam, np.ones_like(lam))

        transfer = lambda l: np.where(l > 640.0, np.nan, 1.0)
        out, dropped = convert_spectrum(spectrum, transfer, lambda lam: lam)
        assert dropped == int(np.sum(lam > 640.0))
        assert out.wavelength_nm.size == 50 - dropped

    def test_linear_superposition(self):
        lam = np.linspace(630.0, 645.0, 80)
        rng = np.random.default_rng(9)
        int_a = rng.uniform(0.0, 1.0, lam.size)
        int_b = rng.uniform(0.0, 1.0, lam.size)
        transfer = lambda l: 0.5 + 0.4 * np.sin(l / 3.0) ** 2
        out_a, _ = convert_spectrum(Spectrum(lam, int_a), transfer, lambda lam: lam)
        out_b, _ = convert_spectrum(Spectrum(lam, int_b), transfer, lambda lam: lam)
        out_ab, _ = convert_spectrum(Spectrum(lam, int_a + int_b), transfer, lambda lam: lam)
        assert np.allclose(out_ab.intensity, out_a.intensity + out_b.intensity, rtol=1e-12)

    def test_callables_called_once_on_the_whole_array(self):
        lam = np.linspace(630.0, 645.0, 50)
        calls = []

        def transfer(l):
            calls.append(("transfer", l.shape))
            return np.full_like(l, 0.5)

        def mapping(l):
            calls.append(("map", l.shape))
            return l + 1.0

        out, dropped = convert_spectrum(Spectrum(lam, np.ones_like(lam)), transfer, mapping)
        assert calls == [("transfer", (50,)), ("map", (50,))]
        assert dropped == 0 and np.array_equal(out.wavelength_nm, lam + 1.0)

    def test_callable_exception_propagates(self):
        lam = np.linspace(630.0, 645.0, 5)

        def transfer(l):
            raise DomainError("outside provider range")

        with pytest.raises(DomainError, match="outside provider range"):
            convert_spectrum(Spectrum(lam, np.ones_like(lam)), transfer, lambda lam: lam)

    def test_broadband_input_output_fwhm_matches_transfer(self):
        # transfer much narrower than the input: output width ~ transfer width
        lam = np.linspace(600.0, 680.0, 4001)
        broad = np.exp(-((lam - 640.0) ** 2) / (2.0 * 30.0**2))
        transfer = lambda l: np.exp(-((l - 637.0) ** 2) / (2.0 * 0.5**2))
        out, _ = convert_spectrum(Spectrum(lam, broad), transfer, lambda lam: lam)
        transfer_curve = Spectrum(lam, np.array([transfer(l) for l in lam]))
        assert spectrum_fwhm(out) == pytest.approx(spectrum_fwhm(transfer_curve), rel=0.05)


def test_spectrum_fwhm_of_triangle():
    lam = np.array([0.0, 1.0, 2.0])
    spectrum = Spectrum(lam, np.array([0.0, 1.0, 0.0]))
    assert spectrum_fwhm(spectrum) == pytest.approx(1.0)


def walked_fwhm(spectrum: Spectrum) -> float:
    """FWHM by a per-sample walk outward from the peak to the first pair of
    samples that straddles half maximum: the implementation before the
    bracket kernel."""
    lam, inten = spectrum.wavelength_nm, spectrum.intensity
    peak_idx = int(np.argmax(inten))
    half = inten[peak_idx] / 2.0

    def crossing(idx_range) -> float:
        prev = None
        for i in idx_range:
            if prev is not None:
                a, b = inten[prev], inten[i]
                if (a - half) * (b - half) <= 0 and a != b:
                    return float(lam[prev] + (half - a) / (b - a) * (lam[i] - lam[prev]))
            prev = i
        raise DomainError("half-maximum crossing not inside the sampled span")

    return abs(crossing(range(peak_idx, len(lam))) - crossing(range(peak_idx, -1, -1)))


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=60),
    rises=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30),
    falls=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30),
)
def test_fwhm_is_the_walked_crossing(steps, rises, falls):
    """On random unimodal spectra that fall to zero on both sides the
    bracket-kernel FWHM is the walked one within 1e-12 relative."""
    peak = float(np.sum(rises))
    drop = np.cumsum(falls)
    inten = np.concatenate([[0.0], np.cumsum(rises), peak * (1.0 - drop / drop[-1])])
    lam = np.cumsum(np.resize(steps, inten.size))
    spectrum = Spectrum(lam, inten)
    assert spectrum_fwhm(spectrum) == pytest.approx(walked_fwhm(spectrum), rel=1e-12, abs=0.0)


def test_fwhm_needs_both_crossings():
    with pytest.raises(DomainError, match="half-maximum"):
        spectrum_fwhm(Spectrum(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.8, 0.0])))


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(), st.floats()), max_size=40))
@example(pairs=[])
@example(pairs=[(math.nan, math.inf), (-math.inf, -0.0), (0.0, 5e-324), (-2.2250738585072014e-308, 1e-310)])
def test_csv_rows_is_the_per_element_repr(pairs):
    """The column formatter writes each float64 value as its shortest
    round-trip repr, row by row, exactly as a per-element f-string does."""
    xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
    rows = csv_rows(np.array(xs, dtype=float), np.array(ys, dtype=float))
    assert rows == [f"{a!r},{b!r}" for a, b in pairs]


def test_csv_rows_broadcasts_grid_axes_in_row_major_order():
    temps, pumps = np.array([40.0, -0.0, math.nan]), np.array([2100.5, math.inf])
    cells = np.arange(6.0).reshape(3, 2) / 7.0
    rows = csv_rows(temps[:, None], pumps[None, :], cells)
    assert rows == [
        f"{t!r},{p!r},{float(cells[i, j])!r}"
        for i, t in enumerate(temps.tolist())
        for j, p in enumerate(pumps.tolist())
    ]
    assert csv_rows(np.array(1.5), np.array([0.0, 2.0])) == ["1.5,0.0", "1.5,2.0"]
    with pytest.raises(ValueError):
        csv_rows(np.zeros(3), np.zeros(4))
