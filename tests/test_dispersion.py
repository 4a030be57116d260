import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmcascade.dispersion import (
    BulkIndexProvider,
    SellmeierModel,
    builtin_material,
    builtin_material_names,
    load_material,
    material_to_json,
    sellmeier_index,
)
from qpmcascade.errors import MaterialFileError, NumericError, RangeError, masked_cells
from qpmcascade.qpm import SectionSpec, delta_k, solve_poling_period
from qpmcascade.spectral import ProcessKind, Wavelength


def jundt_ne_oracle(lam_um: float, temp_C: float) -> float:
    """Independent evaluation of the published congruent-LN formula."""
    f = (temp_C - 24.5) * (temp_C + 570.82)
    l2 = lam_um * lam_um
    n2 = (
        5.35583
        + 4.629e-7 * f
        + (0.100473 + 3.862e-8 * f) / (l2 - (0.20692 - 0.89e-8 * f) ** 2)
        + (100.0 + 2.657e-5 * f) / (l2 - 11.34927**2)
        - 1.5334e-2 * l2
    )
    return float(np.sqrt(n2))


class TestSellmeierIndex:
    def test_constant_coefficient_set(self, constant_material):
        assert sellmeier_index(constant_material, Wavelength(1000.0), 25.0) == 2.0
        assert sellmeier_index(constant_material, Wavelength(5000.0), 200.0) == 2.0

    def test_lithium_niobate_matches_published_formula(self, lithium_niobate):
        ours = sellmeier_index(lithium_niobate, Wavelength(1064.0), 25.0)
        assert ours == pytest.approx(jundt_ne_oracle(1.064, 25.0), abs=1e-4)
        # literature sanity band for congruent LN extraordinary at 1064 nm
        assert 2.15 < ours < 2.16

    def test_index_rises_with_temperature_near_ir(self, lithium_niobate):
        lo = sellmeier_index(lithium_niobate, Wavelength(1561.6), 50.0)
        hi = sellmeier_index(lithium_niobate, Wavelength(1561.6), 60.0)
        assert hi > lo
        assert jundt_ne_oracle(1.5616, 60.0) > jundt_ne_oracle(1.5616, 50.0)

    def test_wavelength_range_violation(self, lithium_niobate):
        with pytest.raises(RangeError) as err:
            sellmeier_index(lithium_niobate, Wavelength(9000.0), 25.0)
        assert err.value.low == 0.4 and err.value.high == 6.6

    def test_temperature_range_violation(self, lithium_niobate):
        with pytest.raises(RangeError) as err:
            sellmeier_index(lithium_niobate, Wavelength(1064.0), 300.0)
        assert err.value.quantity.endswith("temperature_C")

    def test_resonance_term_perturbation_is_monotone(self):
        # increasing a pole strength raises n at fixed wavelength, in both
        # built-in temperature forms (formula-wiring contract)
        base = {"a1": 4.8, "a2": 0.1, "a3": 0.2, "a4": 100.0, "a5": 11.0,
                "a6": 0.0, "b1": 0.0, "b2": 0.0, "b3": 0.0, "b4": 0.0}
        values = []
        for a2 in (0.08, 0.1, 0.12):
            model = SellmeierModel(
                name="probe", polarization="none", temperature_form="jundt1997",
                coefficients=dict(base, a2=a2), wavelength_range_um=(0.5, 5.0),
                temperature_range_C=(0.0, 100.0),
            )
            values.append(sellmeier_index(model, Wavelength(1500.0), 25.0))
        assert values[0] < values[1] < values[2]

        pole_base = {"A": 4.5, "B": 0.08, "C": 0.2, "D": 0.0, "E": 2.4,
                     "F": 7.5, "bT": 0.0, "cT": 0.0}
        values = []
        for b_strength in (0.06, 0.08, 0.1):
            model = SellmeierModel(
                name="probe2", polarization="none", temperature_form="kelvin2_pole",
                coefficients=dict(pole_base, B=b_strength),
                wavelength_range_um=(0.5, 5.0), temperature_range_C=(0.0, 100.0),
            )
            values.append(sellmeier_index(model, Wavelength(1500.0), 25.0))
        assert values[0] < values[1] < values[2]


class TestArrayEvaluation:
    def test_elements_equal_scalar_calls(self, lithium_niobate):
        lam = np.linspace(500.0, 4000.0, 7)[None, :]
        temps = np.array([20.0, 59.26, 250.0])[:, None]
        grid = sellmeier_index(lithium_niobate, lam, temps)
        assert grid.shape == (3, 7)
        for i, temp in enumerate(temps[:, 0]):
            for j, lam_nm in enumerate(lam[0]):
                assert grid[i, j] == sellmeier_index(lithium_niobate, Wavelength(lam_nm), temp)

    def test_out_of_range_elements_masked_and_recorded(self, lithium_niobate):
        lam = np.array([1064.0, 9000.0, 1064.0])
        temps = np.array([25.0, 25.0, 300.0])
        with masked_cells() as log:
            n = sellmeier_index(lithium_niobate, lam, temps)
        assert np.isfinite(n[0]) and np.isnan(n[1]) and np.isnan(n[2])
        assert [(reason, mask.tolist()) for reason, mask in log] == [
            ("lithium_niobate_e wavelength_um", [False, True, False]),
            ("lithium_niobate_e temperature_C", [False, False, True]),
        ]

    def test_scalar_temperature_masks_a_whole_array_call(self, lithium_niobate):
        n = sellmeier_index(lithium_niobate, np.array([1064.0, 1550.0]), 300.0)
        assert np.all(np.isnan(n))

    def test_broken_table_raises_on_both_paths(self):
        model = SellmeierModel(
            name="broken", polarization="none", temperature_form="constant",
            coefficients={"n2": 25.0}, wavelength_range_um=(0.5, 5.0),
            temperature_range_C=(0.0, 100.0),
        )
        with pytest.raises(NumericError):
            sellmeier_index(model, Wavelength(1500.0), 25.0)
        with pytest.raises(NumericError):
            sellmeier_index(model, np.array([1500.0, 9000.0]), 25.0)

    # n^2 = 4 + lam^2 (lam in um): the index leaves (1, 4) above 3.46 um
    RISING = SellmeierModel(
        name="rising", polarization="none", temperature_form="kelvin2_pole",
        coefficients={"A": 4.0, "B": 0.0, "C": 0.0, "D": 1.0, "E": 0.0, "F": 0.0,
                      "bT": 0.0, "cT": 0.0},
        wavelength_range_um=(0.5, 5.0), temperature_range_C=(0.0, 100.0),
    )

    def test_broken_table_names_the_scalar_element(self):
        lam_um = 3500.0 * 1e-3
        n = np.sqrt(4.0 + lam_um * lam_um)
        with pytest.raises(NumericError) as exc:
            sellmeier_index(self.RISING, Wavelength(3500.0), 25.0)
        assert str(exc.value) == (
            f"material 'rising': index {n} outside (1, 4) at lam={lam_um} um, T=25.0 C"
        )

    def test_broken_table_names_the_first_array_element(self):
        lam = np.array([[1000.0], [3600.0], [4000.0]])
        with pytest.raises(NumericError) as exc:
            sellmeier_index(self.RISING, lam, np.array([20.0, 30.0]))
        lam_um = 3600.0 * 1e-3
        n = np.sqrt(4.0 + lam_um * lam_um)
        assert str(exc.value) == (
            f"material 'rising': index {n} outside (1, 4) at lam={lam_um} um, T=20.0 C"
        )

    def test_negative_n2_is_refused_on_both_paths(self):
        model = SellmeierModel(
            name="negative", polarization="none", temperature_form="constant",
            coefficients={"n2": -1.0}, wavelength_range_um=(0.5, 5.0),
            temperature_range_C=(0.0, 100.0),
        )
        message = "material 'negative': index nan outside (1, 4) at lam=1.5 um, T=25.0 C"
        with pytest.raises(NumericError) as scalar:
            model.index_unchecked(1.5, 25.0)
        with pytest.raises(NumericError) as array:
            model.index_unchecked(np.array([np.nan, 1.5]), 25.0)
        assert str(scalar.value) == str(array.value) == message

    @pytest.mark.parametrize("lam_um, temp_C", [(math.nan, 25.0), (1.5, math.nan)])
    def test_scalar_nan_input_gives_a_nan_float(self, lithium_niobate, lam_um, temp_C):
        """A scalar call runs the array code, so a NaN input gives NaN as
        an array element does, not a refusal."""
        n = lithium_niobate.index_unchecked(lam_um, temp_C)
        assert type(n) is float and math.isnan(n)

    @settings(max_examples=40, deadline=None)
    @given(lam=st.lists(st.one_of(st.floats(500.0, 3400.0), st.floats(3600.0, 9000.0)),
                        min_size=1, max_size=12))
    def test_masked_elements_never_raise(self, lam):
        """Past 3.6 um every wavelength gives a bad index; past 5 um the
        range masks it, and only an unmasked one raises."""
        lam = np.array(lam)
        masked = lam * 1e-3 > 5.0
        if np.any((lam >= 3600.0) & ~masked):
            with pytest.raises(NumericError):
                sellmeier_index(self.RISING, lam, 25.0)
            return
        n = sellmeier_index(self.RISING, lam, 25.0)
        assert np.array_equal(np.isnan(n), masked)
        nan_inputs = np.where(masked, np.nan, lam * 1e-3)
        assert np.array_equal(self.RISING.index_unchecked(nan_inputs, 25.0), n, equal_nan=True)

    def test_providers_take_arrays(self, lithium_niobate):
        lam = np.array([1064.0, 1550.0])
        bulk = BulkIndexProvider(lithium_niobate).effective_index(lam, 25.0)
        assert bulk.tolist() == [sellmeier_index(lithium_niobate, x, 25.0) for x in lam.tolist()]


class _ShiftedIndexProvider(BulkIndexProvider):
    """The bulk index plus a constant ``dn``."""

    def __init__(self, model, dn):
        super().__init__(model)
        self.dn = dn

    def effective_index(self, lam, temp_C):
        return sellmeier_index(self.model, lam, temp_C) + self.dn


# DFG: a visible-to-near-IR signal and the ~2.15 um pump; SFG: a mid-IR
# thermal driver on the same pump, as in the thermal-SFG noise process.
_PROCESSES = st.one_of(
    st.tuples(st.just(ProcessKind.DFG), st.floats(600.0, 1000.0)),
    st.tuples(st.just(ProcessKind.SFG), st.floats(2500.0, 4400.0)),
)


class TestIndexProviders:
    @settings(max_examples=200, deadline=None)
    @given(process=_PROCESSES, pump_nm=st.floats(2000.0, 2500.0),
           temp_C=st.floats(20.0, 200.0), dn=st.floats(-0.3, 0.3))
    def test_constant_index_offset_cancels(self, lithium_niobate, process, pump_nm, temp_C, dn):
        """Energy conservation makes a constant index offset invisible:
        delta_k shifts by 2 pi dn (1/lam_in - 1/lam_out - 1/lam_pump) = 0,
        so no provider needs one."""
        kind, lam_in = process
        bulk = BulkIndexProvider(lithium_niobate)
        shifted = _ShiftedIndexProvider(lithium_niobate, dn)
        dk = [delta_k(kind, lam_in, pump_nm, temp_C, SectionSpec("step1", 20.0, 20.0, temp_C, p))
              for p in (bulk, shifted)]
        assert abs(dk[1] - dk[0]) <= 1e-9
        periods = [solve_poling_period(kind, Wavelength(lam_in), Wavelength(pump_nm), temp_C, p)
                   for p in (bulk, shifted)]
        assert periods[1] == pytest.approx(periods[0], rel=1e-12, abs=0.0)


class TestMaterialFiles:
    def test_builtin_materials_present(self):
        names = builtin_material_names()
        assert "lithium_niobate_e" in names
        assert "lithium_tantalate_e" in names

    def test_round_trip_is_byte_identical(self, tmp_path):
        for name in builtin_material_names():
            model = builtin_material(name)
            path = tmp_path / f"{name}.json"
            path.write_text(material_to_json(model), encoding="utf-8")
            raw = path.read_bytes()
            assert material_to_json(load_material(path)).encode() == raw

    def test_shipped_files_are_canonical(self):
        from importlib import resources

        root = resources.files("qpmcascade").joinpath("materials")
        for ref in root.iterdir():
            if not ref.name.endswith(".json"):
                continue
            raw = ref.read_text(encoding="utf-8")
            model = builtin_material(ref.name.removesuffix(".json"))
            assert material_to_json(model) == raw

    def test_unknown_key_rejected_by_name(self, tmp_path):
        doc = json.loads(material_to_json(builtin_material("lithium_niobate_e")))
        doc["sneaky_extra"] = 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MaterialFileError, match="sneaky_extra"):
            load_material(path)

    def test_missing_key_rejected(self, tmp_path):
        doc = json.loads(material_to_json(builtin_material("lithium_niobate_e")))
        del doc["coefficients"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MaterialFileError, match="coefficients"):
            load_material(path)

    def test_unknown_temperature_form_rejected(self):
        with pytest.raises(MaterialFileError, match="temperature_form"):
            SellmeierModel(
                name="x", polarization="none", temperature_form="mystery",
                coefficients={"n2": 4.0}, wavelength_range_um=(0.1, 1.0),
                temperature_range_C=(0.0, 1.0),
            )

    def test_missing_form_coefficients_rejected(self):
        with pytest.raises(MaterialFileError, match="requires coefficients"):
            SellmeierModel(
                name="x", polarization="none", temperature_form="jundt1997",
                coefficients={"a1": 5.0}, wavelength_range_um=(0.1, 1.0),
                temperature_range_C=(0.0, 1.0),
            )
