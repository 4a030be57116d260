import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpmcascade import qpm
from qpmcascade.dispersion import BulkIndexProvider
from qpmcascade.errors import DesignError, DomainError, NoSolutionError, RangeError, mask_counts, masked_cells
from qpmcascade.qpm import (
    ProcessSpec,
    SectionSpec,
    degenerate_operating_point,
    delta_k,
    phase_mismatch,
    phasematch_map,
    qpm_transfer,
    section_with_solved_period,
    solve_phasematched_pump,
    solve_poling_period,
    step2_target_mismatch,
    tuning_curve,
)
from qpmcascade.spectral import ProcessKind, Wavelength, dfg_target

T0 = 59.26
PUMP = Wavelength(2152.9)
SIGNAL = Wavelength(637.2)


class TestQpmTransfer:
    def test_peak(self):
        assert qpm_transfer(0.0, 20.0) == 1.0

    def test_first_zero(self):
        # dk*L/2 = pi
        assert qpm_transfer(2.0 * math.pi / 20.0, 20.0) == pytest.approx(0.0, abs=1e-30)

    def test_half_pi_point(self):
        assert qpm_transfer(math.pi / 20.0, 20.0) == pytest.approx((2.0 / math.pi) ** 2, rel=1e-12)

    def test_even_and_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            dk = float(rng.uniform(-5.0, 5.0))
            t = qpm_transfer(dk, 20.0)
            assert 0.0 <= t <= 1.0
            assert t == qpm_transfer(-dk, 20.0)
            if dk != 0.0:
                assert t < 1.0

    def test_length_validation(self):
        with pytest.raises(DomainError):
            qpm_transfer(0.1, 0.0)
        with pytest.raises(DomainError):
            qpm_transfer(0.1, np.array([20.0, -1.0]))


@settings(max_examples=100, deadline=None)
@given(
    dk=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=6),
    lengths=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
)
def test_transfer_is_a_fraction(dk, lengths):
    """sinc^2 lies in [0, 1] for scalar and broadcast (dk, L), and a batch
    of lengths gives each length's own transfer."""
    batch = qpm_transfer(np.array(dk), np.array(lengths)[:, None])
    assert batch.shape == (len(lengths), len(dk))
    assert np.all((batch >= 0.0) & (batch <= 1.0))
    for row, length in zip(batch, lengths):
        assert np.array_equal(row, qpm_transfer(np.array(dk), length))
        assert all(0.0 <= qpm_transfer(value, length) <= 1.0 for value in dk)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(ProcessKind)),
    lam_in=st.floats(900.0, 2000.0),
    ratio=st.floats(1.5, 3.0),
    temp=st.floats(20.0, 250.0),
    order=st.sampled_from([1, 3, 5]),
)
@example(kind=ProcessKind.SFG, lam_in=2152.9, ratio=1.0, temp=59.26, order=1)  # pump SHG
def test_solved_period_phase_matches(ln_provider, kind, lam_in, ratio, temp, order):
    """|delta_k| <= 1e-9 rad/mm at (T, pump) on a section poled with the
    period solve_poling_period returns there, for DFG and SFG."""
    pump = lam_in * ratio
    period = solve_poling_period(kind, Wavelength(lam_in), Wavelength(pump), temp, ln_provider, order)
    section = SectionSpec("step1", 20.0, period, temp, ln_provider, qpm_order=order)
    assert abs(delta_k(kind, lam_in, pump, temp, section)) <= 1e-9


class TestSectionSpec:
    def test_qpm_order_must_be_odd(self, ln_provider):
        with pytest.raises(DomainError):
            SectionSpec("step1", 20.0, 12.0, T0, ln_provider, qpm_order=2)

    def test_role_validation(self, ln_provider):
        with pytest.raises(DomainError):
            SectionSpec("middle", 20.0, 12.0, T0, ln_provider)

    def test_thermal_expansion_optional(self, ln_provider):
        section = SectionSpec(
            "step1", 20.0, 12.0, T0, ln_provider, expansion_per_C=1.5e-5, expansion_ref_C=25.0
        )
        assert section.period_um_at(25.0) == 12.0
        assert section.period_um_at(125.0) == pytest.approx(12.0 * (1 + 1.5e-3))


class TestProcessSpec:
    def test_output_is_derived_not_passed(self, solved_sections):
        step1, _ = solved_sections
        process = ProcessSpec(ProcessKind.DFG, SIGNAL, PUMP, step1)
        assert process.lam_out == dfg_target(SIGNAL, PUMP)
        assert process == ProcessSpec.dfg(SIGNAL, PUMP, step1)
        with pytest.raises(TypeError):
            ProcessSpec(ProcessKind.DFG, SIGNAL, PUMP, step1, lam_out=Wavelength(900.0))

    def test_impossible_triple_refused_at_construction(self, solved_sections):
        step1, _ = solved_sections
        with pytest.raises(DomainError, match="DFG requires lam_pump > lam_signal"):
            ProcessSpec.dfg(PUMP, SIGNAL, step1)

    def test_factory_builds_consistent_triple(self, solved_sections):
        step1, _ = solved_sections
        process = ProcessSpec.dfg(SIGNAL, PUMP, step1)
        assert process.lam_out.nm == pytest.approx(905.08, abs=0.01)


class TestSolvePolingPeriod:
    def test_round_trip_zero_mismatch(self, solved_sections):
        step1, step2 = solved_sections
        for section, lam_in in ((step1, SIGNAL), (step2, dfg_target(SIGNAL, PUMP))):
            process = ProcessSpec.dfg(lam_in, PUMP, section)
            assert abs(phase_mismatch(process)) < 1e-9

    def test_periods_in_plausible_band(self, solved_sections):
        for section in solved_sections:
            assert 1.0 < section.poling_period_um < 50.0

    def test_order_three_triples_period(self, ln_provider):
        first = solve_poling_period(ProcessKind.DFG, SIGNAL, PUMP, T0, ln_provider, qpm_order=1)
        third = solve_poling_period(ProcessKind.DFG, SIGNAL, PUMP, T0, ln_provider, qpm_order=3)
        assert third == pytest.approx(3.0 * first, rel=1e-14)

    def test_dispersionless_medium_is_unphase_matchable(self, constant_material):
        # zero bulk mismatch: no positive period exists
        provider = BulkIndexProvider(constant_material)
        with pytest.raises(DesignError):
            solve_poling_period(ProcessKind.DFG, SIGNAL, PUMP, 25.0, provider)

    def test_dispersionless_medium_with_no_grating_is_matched(self, constant_material):
        provider = BulkIndexProvider(constant_material)
        section = SectionSpec("step1", 20.0, 1e15, 25.0, provider)
        process = ProcessSpec.dfg(SIGNAL, PUMP, section)
        assert abs(phase_mismatch(process)) < 1e-9

    def test_temperature_perturbation_stays_in_main_lobe(self, solved_sections):
        step1, _ = solved_sections
        process = ProcessSpec.dfg(SIGNAL, PUMP, step1)
        dk = phase_mismatch(process, temp_C=T0 + 1.0)
        assert 0 < abs(dk) * step1.length_mm / 2.0 < math.pi


class TestSolvePhasematchedPump:
    def test_inverse_of_construction(self, solved_sections):
        step1, _ = solved_sections
        root = solve_phasematched_pump(step1, ProcessKind.DFG, SIGNAL)
        assert abs(root.nm - PUMP.nm) < 1e-6
        assert abs(phase_mismatch(ProcessSpec.dfg(SIGNAL, root, step1))) < 1e-9

    def test_temperature_shift_moves_root_continuously(self, solved_sections):
        step1, _ = solved_sections
        root0 = solve_phasematched_pump(step1, ProcessKind.DFG, SIGNAL)
        root5 = solve_phasematched_pump(step1, ProcessKind.DFG, SIGNAL, temp_C=T0 + 5.0)
        assert 0 < abs(root5.nm - root0.nm) < 50.0

    def test_empty_window_raises_listing_window(self, solved_sections):
        step1, _ = solved_sections
        with pytest.raises(NoSolutionError, match=r"\[2400.0, 2500.0\]"):
            solve_phasematched_pump(
                step1, ProcessKind.DFG, SIGNAL, window_nm=(2400.0, 2500.0)
            )

    def test_randomized_round_trips(self, ln_provider):
        rng = np.random.default_rng(123)
        for _ in range(20):
            signal = Wavelength(float(rng.uniform(600.0, 950.0)))
            temp = float(rng.uniform(30.0, 90.0))
            pump_true = Wavelength(float(rng.uniform(2000.0, 2500.0)))
            section = section_with_solved_period(
                "step1", 20.0, ln_provider, ProcessKind.DFG, signal, pump_true, temp
            )
            process = ProcessSpec.dfg(signal, pump_true, section)
            assert abs(phase_mismatch(process, temp_C=temp)) < 1e-9
            root = solve_phasematched_pump(section, ProcessKind.DFG, signal, temp_C=temp)
            assert abs(phase_mismatch(ProcessSpec.dfg(signal, root, section), temp_C=temp)) < 1e-9


class TestPhasematchMap:
    def test_single_cell_at_operating_point(self, solved_sections):
        step1, step2 = solved_sections
        pm = phasematch_map(step1, step2, SIGNAL, [T0], [PUMP.nm])
        assert pm.step1[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert pm.step2[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_values_bounded_and_smooth(self, solved_sections):
        # default map resolution: 61 x 101 over the standard scan windows
        step1, step2 = solved_sections
        pm = phasematch_map(
            step1, step2, SIGNAL, np.linspace(40.0, 100.0, 61), np.linspace(2100.0, 2200.0, 101)
        )
        for matrix in (pm.step1, pm.step2):
            assert np.nanmin(matrix) >= 0.0 and np.nanmax(matrix) <= 1.0
            interior = matrix[1:-1, 1:-1]
            neighbor_mean = (
                matrix[:-2, 1:-1] + matrix[2:, 1:-1] + matrix[1:-1, :-2] + matrix[1:-1, 2:]
            ) / 4.0
            assert np.nanmax(np.abs(interior - neighbor_mean)) < 0.5

    def test_cells_match_pointwise_recomputation(self, solved_sections):
        step1, step2 = solved_sections
        temps = [50.0, 59.26, 70.0]
        pumps = [2140.0, 2152.9, 2170.0]
        pm = phasematch_map(step1, step2, SIGNAL, temps, pumps)
        for i, temp in enumerate(temps):
            for j, pump_nm in enumerate(pumps):
                pump = Wavelength(pump_nm)
                p1 = ProcessSpec.dfg(SIGNAL, pump, step1)
                expect1 = qpm_transfer(phase_mismatch(p1, temp_C=temp), step1.length_mm)
                mid = dfg_target(SIGNAL, pump)
                p2 = ProcessSpec.dfg(mid, pump, step2)
                expect2 = qpm_transfer(phase_mismatch(p2, temp_C=temp), step2.length_mm)
                assert pm.step1[i, j] == expect1
                assert pm.step2[i, j] == expect2

    def test_out_of_range_cells_marked_missing(self, solved_sections):
        step1, step2 = solved_sections
        # 300 C exceeds the material temperature range: cells become NaN
        pm = phasematch_map(step1, step2, SIGNAL, [59.26, 300.0], [2152.9])
        assert not np.isnan(pm.step1[0, 0])
        assert np.isnan(pm.step1[1, 0]) and np.isnan(pm.step2[1, 0])

    def test_masked_cells_counted_by_violated_quantity(self, solved_sections):
        step1, step2 = solved_sections
        pm = phasematch_map(step1, step2, SIGNAL, [59.26, 300.0], [1000.0, 2152.9])
        # pump 1000 nm is shorter than the step-2 input, a DFG domain error
        assert pm.masked == {
            "step1": {"lithium_niobate_e temperature_C": 2},
            "step2": {"domain_error": 2, "lithium_niobate_e temperature_C": 1},
        }

    def test_provider_calls_do_not_grow_with_the_grid(self, solved_sections, monkeypatch):
        step1, step2 = solved_sections
        provider = step1.index_provider
        calls = []
        original = provider.effective_index

        def counting(lam, temp_C):
            calls.append(1)
            return original(lam, temp_C)

        monkeypatch.setattr(provider, "effective_index", counting)
        counts = []
        for n_t, n_p in ((3, 3), (61, 101)):
            calls.clear()
            phasematch_map(
                step1, step2, SIGNAL, np.linspace(40.0, 100.0, n_t), np.linspace(2100.0, 2200.0, n_p)
            )
            counts.append(len(calls))
        assert counts[0] == counts[1] == 6

    def test_degenerate_temperature_exists(self, solved_sections):
        step1, step2 = solved_sections
        temp, pump_nm, t1, t2 = degenerate_operating_point(
            step1, step2, SIGNAL, (40.0, 100.0), (2100.0, 2200.0)
        )
        assert t1 > 0.99 and t2 > 0.99
        assert 40.0 <= temp <= 100.0 and 2100.0 <= pump_nm <= 2200.0
        assert _worst_mismatch(step1, step2, SIGNAL, temp, pump_nm) <= 1e-9

    def test_degenerate_work_is_one_map_and_a_few_stencils(self, solved_sections, monkeypatch):
        """One 81x81 start map and 5-point stencils until |dk| <= 1e-9
        (three here: two Newton steps), a delta_k call per section each;
        the returned transfers reuse the last stencil."""
        step1, step2 = solved_sections
        shapes = []
        original = qpm.delta_k

        def counting(kind, lam_in, lam_pump, temp_C, section):
            shapes.append(np.broadcast(lam_pump, temp_C).shape)
            return original(kind, lam_in, lam_pump, temp_C, section)

        monkeypatch.setattr(qpm, "delta_k", counting)
        degenerate_operating_point(step1, step2, SIGNAL, (40.0, 100.0), (2100.0, 2200.0))
        assert shapes == [(81, 81)] * 2 + [(5,)] * 6

    @pytest.mark.parametrize("t_window", [(100.0, 150.0), (200.0, 260.0)])
    def test_degenerate_point_outside_the_windows_is_no_solution(self, reference_device, t_window):
        dev = reference_device
        with pytest.raises(NoSolutionError) as exc:
            degenerate_operating_point(dev.step1, dev.step2, dev.signal, t_window)
        message = str(exc.value)
        assert f"T window [{t_window[0]}, {t_window[1]}] C" in message
        assert "pump window [1980.0, 2528.0] nm" in message


class TestTuningCurve:
    def test_zero_offset_returns_operating_target(self, solved_sections):
        step1, step2 = solved_sections
        point = tuning_curve(step1, step2, SIGNAL, PUMP, [0.0])[0]
        target0 = dfg_target(dfg_target(SIGNAL, PUMP), PUMP)
        assert point.target_nm == pytest.approx(target0.nm, abs=1e-6)
        assert point.transfer == pytest.approx(1.0, abs=1e-9)

    def test_positive_offset_shifts_to_shorter_wavelengths(self, solved_sections):
        step1, step2 = solved_sections
        points = tuning_curve(step1, step2, SIGNAL, PUMP, [-6.1, 0.0, 4.6])
        assert points[2].target_nm < points[1].target_nm < points[0].target_nm

    def test_monotone_over_tuning_range(self, solved_sections):
        step1, step2 = solved_sections
        offsets = np.linspace(-6.0, 5.0, 23)
        targets = [p.target_nm for p in tuning_curve(step1, step2, SIGNAL, PUMP, offsets)]
        assert all(b < a for a, b in zip(targets, targets[1:]))

    def test_no_root_marks_point_missing(self, solved_sections):
        step1, step2 = solved_sections
        point = tuning_curve(
            step1, step2, SIGNAL, PUMP, [0.0], window_nm=(1480.0, 1500.0)
        )[0]
        assert math.isnan(point.target_nm)


    def test_provider_calls_do_not_grow_with_the_offsets(self, solved_sections, monkeypatch):
        step1, step2 = solved_sections
        provider = step2.index_provider
        calls = []
        original = provider.effective_index

        def counting(lam, temp_C):
            calls.append(1)
            return original(lam, temp_C)

        monkeypatch.setattr(provider, "effective_index", counting)
        counts = []
        for offsets in ([0.0], np.linspace(-6.0, 5.0, 23)):
            calls.clear()
            tuning_curve(step1, step2, SIGNAL, PUMP, offsets)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_transfer_column_is_the_scalar_chain(self, solved_sections):
        step1, step2 = solved_sections
        chain = ProcessSpec.dfg(dfg_target(SIGNAL, PUMP), PUMP, step2)
        for point in tuning_curve(step1, step2, SIGNAL, PUMP, [-6.1, 0.0, 4.6]):
            temp = step2.temperature_C + point.dT_C
            assert type(point.transfer) is float
            assert point.transfer == qpm_transfer(phase_mismatch(chain, temp_C=temp), step2.length_mm)

    def test_target_mismatch_needs_a_longer_target(self, solved_sections):
        """target <= intermediate is masked in an array call under
        domain_error and raises on a scalar call."""
        _, step2 = solved_sections
        mid = dfg_target(SIGNAL, PUMP)
        targets = np.array([mid.nm - 1.0, mid.nm, 1561.6])
        with masked_cells() as why:
            dk = step2_target_mismatch(step2, mid, targets, T0)
        assert np.isnan(dk[:2]).all() and np.isfinite(dk[2])
        assert why[0][0] == "domain_error" and why[0][1].tolist() == [True, True, False]
        assert mask_counts(why, dk.shape) == {"domain_error": 2}
        assert dk[2] == step2_target_mismatch(step2, mid, 1561.6, T0)
        for target in targets[:2].tolist():
            with pytest.raises(DomainError):
                step2_target_mismatch(step2, mid, target, T0)

    def test_tuned_targets_are_roots(self, solved_sections):
        step1, step2 = solved_sections
        mid = dfg_target(SIGNAL, PUMP)
        for point in tuning_curve(step1, step2, SIGNAL, PUMP, np.linspace(-6.0, 5.0, 12)):
            temp = step2.temperature_C + point.dT_C
            assert abs(step2_target_mismatch(step2, mid, point.target_nm, temp)) < 1e-9


def test_degenerate_search_reaches_both_steps(reference_device):
    """Seeded T0 +- 15..25 C windows over the default pump window."""
    dev = reference_device
    t0 = dev.step1.temperature_C
    for seed in range(8):
        rng = np.random.default_rng(seed)
        window = (t0 - rng.uniform(15.0, 25.0), t0 + rng.uniform(15.0, 25.0))
        temp, pump_nm, t1, t2 = degenerate_operating_point(dev.step1, dev.step2, dev.signal, window)
        assert t1 > 0.99 and t2 > 0.99
        assert window[0] <= temp <= window[1]
        assert _worst_mismatch(dev.step1, dev.step2, dev.signal, temp, pump_nm) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    t_window=st.tuples(st.floats(20.0, 55.0), st.floats(64.0, 240.0)),
    pump_window=st.tuples(st.floats(1980.0, 2150.0), st.floats(2156.0, 2528.0)),
)
def test_degenerate_point_is_solved_inside_any_window_holding_it(reference_device, t_window, pump_window):
    dev = reference_device
    temp, pump_nm, t1, t2 = degenerate_operating_point(
        dev.step1, dev.step2, dev.signal, t_window, pump_window
    )
    assert t_window[0] <= temp <= t_window[1] and pump_window[0] <= pump_nm <= pump_window[1]
    assert _worst_mismatch(dev.step1, dev.step2, dev.signal, temp, pump_nm) <= 1e-9
    cell = phasematch_map(dev.step1, dev.step2, dev.signal, [temp], [pump_nm])
    assert t1 == pytest.approx(cell.step1[0, 0], abs=1e-12)
    assert t2 == pytest.approx(cell.step2[0, 0], abs=1e-12)


def _worst_mismatch(step1, step2, signal, temp, pump_nm):
    """max(|dk1|, |dk2|) in rad/mm of the chain at (temp, pump), by the scalar path."""
    pump = Wavelength(pump_nm)
    return max(
        abs(phase_mismatch(ProcessSpec.dfg(signal, pump, step1), temp_C=temp)),
        abs(phase_mismatch(ProcessSpec.dfg(dfg_target(signal, pump), pump, step2), temp_C=temp)),
    )


def _scalar_cell(section, lam_in, pump, temp):
    """The transfer of one cell by the scalar path, or the error it raises."""
    try:
        process = ProcessSpec.dfg(lam_in(), pump, section)
        return qpm_transfer(phase_mismatch(process, temp_C=temp), section.length_mm)
    except DomainError as exc:
        return exc.quantity if isinstance(exc, RangeError) else exc.code


@settings(max_examples=40, deadline=None)
@given(
    temps=st.lists(st.floats(-50.0, 320.0), min_size=1, max_size=4),
    pumps=st.lists(st.floats(400.0, 3000.0), min_size=1, max_size=4),
)
def test_map_cells_are_scalar_cells(solved_sections, temps, pumps):
    """Every cell equals the scalar recomputation exactly, is NaN exactly
    where the scalar path raises, and is counted under the error raised."""
    step1, step2 = solved_sections
    pm = phasematch_map(step1, step2, SIGNAL, temps, pumps)
    for step, matrix, section in (("step1", pm.step1, step1), ("step2", pm.step2, step2)):
        reasons: dict[str, int] = {}
        for i, temp in enumerate(temps):
            for j, pump_nm in enumerate(pumps):
                pump = Wavelength(pump_nm)
                lam_in = (lambda: SIGNAL) if step == "step1" else (lambda: dfg_target(SIGNAL, pump))
                expect = _scalar_cell(section, lam_in, pump, temp)
                if isinstance(expect, str):
                    assert math.isnan(matrix[i, j])
                    reasons[expect] = reasons.get(expect, 0) + 1
                else:
                    assert matrix[i, j] == expect
        assert pm.masked[step] == reasons


def test_scalar_delta_k_raises_where_array_masks(solved_sections):
    step1, _ = solved_sections
    with pytest.raises(RangeError):
        delta_k(ProcessKind.DFG, SIGNAL.nm, PUMP.nm, 300.0, step1)
    row = delta_k(ProcessKind.DFG, SIGNAL.nm, PUMP.nm, np.array([59.26, 300.0]), step1)
    assert row[0] == delta_k(ProcessKind.DFG, SIGNAL.nm, PUMP.nm, 59.26, step1)
    assert math.isnan(row[1])
