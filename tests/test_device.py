import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmcascade import dispersion
from qpmcascade.conversion import budget_transmission
from qpmcascade.device import device_from_dict, load_device, reference_device_path
from qpmcascade.dispersion import SellmeierModel, builtin_material, material_from_dict, material_to_json
from qpmcascade.errors import ConverterError, DeviceFileError, DomainError, MaterialFileError
from qpmcascade.modesolver import ModeSolverIndexProvider, WaveguideGeometry
from qpmcascade.qpm import ProcessSpec, SectionSpec, phase_mismatch, phasematch_map, solve_poling_period
from qpmcascade.spectral import ProcessKind, Wavelength


def reference_doc() -> dict:
    return json.loads(reference_device_path().read_text(encoding="utf-8"))


class TestLoadReferenceDevice:
    def test_operating_chain(self, reference_device):
        assert reference_device.signal.nm == 637.2
        assert reference_device.pump.nm == 2152.9
        assert reference_device.intermediate.nm == pytest.approx(905.08, abs=0.01)
        assert reference_device.target.nm == pytest.approx(1561.62, abs=0.1)

    def test_sections_solved_and_plausible(self, reference_device):
        assert reference_device.step1.role == "step1"
        assert reference_device.step2.role == "step2"
        for section in (reference_device.step1, reference_device.step2):
            assert 1.0 < section.poling_period_um < 50.0
            assert section.length_mm == 20.0

    def test_solved_periods_match_direct_solve(self, reference_device, ln_provider):
        expected = solve_poling_period(
            ProcessKind.DFG, Wavelength(637.2), Wavelength(2152.9), 59.26, ln_provider
        )
        assert reference_device.step1.poling_period_um == expected

    def test_phase_matched_at_operating_point(self, reference_device):
        # both periods are solved on the chain, step 2 at step 1's output
        device = reference_device
        assert abs(phase_mismatch(ProcessSpec.dfg(device.signal, device.pump, device.step1))) <= 1e-9
        assert abs(phase_mismatch(ProcessSpec.dfg(device.intermediate, device.pump, device.step2))) <= 1e-9

    def test_budget_and_coupling(self, reference_device):
        assert budget_transmission(reference_device.loss_budget) == pytest.approx(0.1457, abs=2e-4)
        assert reference_device.coupling == {"pump": 0.745, "signal": 0.882, "aux": 0.818}

    def test_geometry_attached(self, reference_device):
        assert reference_device.geometry is not None
        assert reference_device.geometry.core_material.name == "lithium_niobate_e"

    def test_source_hash_recorded(self, reference_device):
        assert len(reference_device.source_sha256) == 64

    def test_cascade_transfer_peaks_at_signal(self, reference_device):
        transfer = reference_device.cascade_transfer()
        at_signal = transfer(637.2)
        assert at_signal > 0.999
        assert transfer(637.35) < at_signal

    def test_map_to_target_monotone(self, reference_device):
        values = [reference_device.map_to_target(lam) for lam in (636.8, 637.2, 637.6)]
        assert values[0] < values[1] < values[2]

    def test_scalar_transfer_returns_float_and_raises(self, reference_device):
        transfer = reference_device.cascade_transfer()
        assert type(transfer(637.2)) is float
        with pytest.raises(ConverterError):
            transfer(1500.0)  # step-2 input beyond the pump: no difference frequency

    @pytest.mark.parametrize("lam_nm", [0.0, -5.0, math.nan, math.inf])
    def test_invalid_input_wavelength(self, reference_device, lam_nm):
        for func in (reference_device.cascade_transfer(), reference_device.map_to_target):
            with pytest.raises(DomainError, match="wavelength must be a positive finite number"):
                func(lam_nm)
            assert np.isnan(func(np.array([lam_nm, 637.2]))).tolist() == [True, False]


def _scalar_or_none(func, lam):
    try:
        return func(lam)
    except ConverterError:
        return None


@settings(max_examples=40, deadline=None)
@given(
    lams=st.lists(st.floats(300.0, 2500.0), min_size=1, max_size=8),
    temps=st.tuples(st.floats(0.0, 300.0), st.floats(0.0, 300.0)),
)
def test_array_cascade_is_the_scalar_cascade(reference_device, lams, temps):
    """Each array element equals the scalar call exactly, and is NaN
    exactly where the scalar call raises; likewise for the target map."""
    transfer = reference_device.cascade_transfer(*temps)
    lam = np.array(lams)
    for func, values in ((transfer, transfer(lam)),
                         (reference_device.map_to_target, reference_device.map_to_target(lam))):
        for lam_nm, value in zip(lams, values.tolist()):
            expected = _scalar_or_none(func, lam_nm)
            if expected is None:
                assert math.isnan(value)
            else:
                assert value == expected


class TestDeviceFileValidation:
    def test_unknown_top_level_key(self, tmp_path):
        doc = reference_doc()
        doc["surprise"] = 1
        with pytest.raises(DeviceFileError, match="surprise"):
            device_from_dict(doc, tmp_path)

    def test_unknown_section_key(self, tmp_path):
        doc = reference_doc()
        doc["sections"][0]["typo_key"] = 1
        with pytest.raises(DeviceFileError, match="typo_key"):
            device_from_dict(doc, tmp_path)

    def test_period_and_solve_at_mutually_exclusive(self, tmp_path):
        doc = reference_doc()
        doc["sections"][0]["poling_period_um"] = 12.9
        with pytest.raises(DeviceFileError, match="exactly one"):
            device_from_dict(doc, tmp_path)

    def test_exactly_one_of_each_role(self, tmp_path):
        doc = reference_doc()
        doc["sections"][1]["role"] = "step1"
        with pytest.raises(DeviceFileError):
            device_from_dict(doc, tmp_path)

    def test_missing_signal_rejected(self, tmp_path):
        doc = reference_doc()
        del doc["signal_nm"]
        with pytest.raises(DeviceFileError, match=r"missing key\(s\) \['signal_nm'\] in device"):
            device_from_dict(doc, tmp_path)

    def test_missing_pump_rejected(self, tmp_path):
        doc = reference_doc()
        del doc["pump_nm"]
        with pytest.raises(DeviceFileError, match=r"missing key\(s\) \['pump_nm'\] in device"):
            device_from_dict(doc, tmp_path)

    def test_solve_at_restating_the_chain_rejected(self, tmp_path):
        doc = reference_doc()
        doc["sections"][1]["solve_at"] = {"pump_nm": 2152.9, "T_C": 59.26, "signal_nm": 905.08}
        with pytest.raises(
            DeviceFileError, match=r"unknown key\(s\) \['pump_nm', 'signal_nm'\] in sections\[1\].solve_at"
        ):
            device_from_dict(doc, tmp_path)

    def test_sections_in_either_order(self, reference_device, tmp_path):
        doc = reference_doc()
        doc["sections"].reverse()
        device = device_from_dict(doc, tmp_path)
        assert device.step1.poling_period_um == reference_device.step1.poling_period_um
        assert device.step2.poling_period_um == reference_device.step2.poling_period_um

    def test_unknown_role_rejected(self, tmp_path):
        doc = reference_doc()
        doc["sections"][1]["role"] = "step3"
        with pytest.raises(DeviceFileError, match="step3"):
            device_from_dict(doc, tmp_path)

    def test_explicit_period_device_with_top_level_operating_point(self, tmp_path):
        doc = reference_doc()
        for section in doc["sections"]:
            del section["solve_at"]
        doc["sections"][0]["poling_period_um"] = 12.96
        doc["sections"][1]["poling_period_um"] = 25.65
        device = device_from_dict(doc, tmp_path)
        assert device.step1.poling_period_um == 12.96

    def test_coupling_range_validated(self, tmp_path):
        doc = reference_doc()
        doc["coupling"]["pump"] = 1.2
        with pytest.raises(DeviceFileError, match="coupling.pump"):
            device_from_dict(doc, tmp_path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DeviceFileError, match="invalid JSON"):
            load_device(path)

    def test_relative_material_paths(self, tmp_path):
        material = builtin_material("lithium_niobate_e")
        (tmp_path / "mats").mkdir()
        (tmp_path / "mats" / "custom_ln.json").write_text(material_to_json(material))
        doc = reference_doc()
        doc["materials"] = ["mats/custom_ln.json", "builtin:lithium_tantalate_e"]
        device_path = tmp_path / "device.json"
        device_path.write_text(json.dumps(doc))
        device = load_device(device_path)
        loaded = device.step1.index_provider.model
        assert loaded == material and loaded is not material  # read from mats/, not the built-in

    def test_refuses_offset_provider_kind(self, tmp_path):
        doc = reference_doc()
        doc["sections"][0]["index_provider"] = {
            "kind": "offset",
            "material": "lithium_niobate_e",
            "delta_n": 0.002,
        }
        with pytest.raises(DeviceFileError, match="'offset'"):
            device_from_dict(doc, tmp_path)

    def test_unknown_provider_kind(self, tmp_path):
        doc = reference_doc()
        doc["sections"][0]["index_provider"] = {"kind": "psychic"}
        with pytest.raises(DeviceFileError, match="psychic"):
            device_from_dict(doc, tmp_path)

    @pytest.mark.parametrize("path, value, message", [
        (("signal_nm",), "abc", "signal_nm must be a number, got 'abc'"),
        (("sections", 1, "solve_at"), 59.26, "sections[1].solve_at must be a JSON object, got 59.26"),
        (("sections", 0, "length_mm"), True, "sections[0].length_mm must be a number, got True"),
        (("sections", 0, "qpm_order"), 1.5, "sections[0].qpm_order must be an integer, got 1.5"),
        (("geometry", "grid_nx"), "64", "geometry.grid_nx must be an integer, got '64'"),
        (("coupling", "aux"), None, "coupling.aux must be a number, got None"),
        (("loss_budget", 2, "transmission"), [0.8], "loss_budget[2].transmission must be a number"),
        (("loss_budget", 0, "label"), 5, "loss_budget[0].label must be a string, got 5"),
        (("sections", 0, "role"), ["step1"], "role must be one of"),
        (("sections", 0, "index_provider"), "bulk", "sections[0].index_provider must be a JSON object"),
        (("coupling",), [0.7, 0.8, 0.8], "coupling must be a JSON object"),
    ])
    def test_wrong_json_type_names_the_field(self, tmp_path, path, value, message):
        doc = reference_doc()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(DeviceFileError) as exc:
            device_from_dict(doc, tmp_path)
        assert message in str(exc.value)

    def test_modesolver_provider_requires_geometry(self, tmp_path):
        doc = reference_doc()
        del doc["geometry"]
        doc["sections"][0]["index_provider"] = {"kind": "modesolver", "mode": 1}
        with pytest.raises(DeviceFileError, match="geometry"):
            device_from_dict(doc, tmp_path)


def _explicit_period_doc(*blocks) -> dict:
    """Reference device with stated periods (no load-time solve) and the
    given index_provider block per section."""
    doc = reference_doc()
    for section, period, block in zip(doc["sections"], (12.96, 25.65), blocks):
        del section["solve_at"]
        section["poling_period_um"] = period
        section["index_provider"] = block
    return doc


class TestKeysTheReferenceDeviceOmits:
    """Keys the shipped device does not hold: each is checked like the
    others when present, and each takes its dataclass default when absent."""

    @pytest.mark.parametrize("key, value, message", [
        ("poling_period_um", "12.96", "sections[1].poling_period_um must be a number, got '12.96'"),
        ("poling_period_um", None, "sections[1].poling_period_um must be a number, got None"),
        ("expansion_per_C", True, "sections[1].expansion_per_C must be a number, got True"),
        ("expansion_per_C", [1.54e-5], "sections[1].expansion_per_C must be a number, got [1.54e-05]"),
        ("expansion_ref_C", math.nan, "sections[1].expansion_ref_C must be a finite number, got nan"),
        ("expansion_ref_C", "25", "sections[1].expansion_ref_C must be a number, got '25'"),
    ])
    def test_section_key_of_wrong_kind_is_named(self, tmp_path, key, value, message):
        doc = _explicit_period_doc(*[{"kind": "bulk", "material": "lithium_niobate_e"}] * 2)
        doc["sections"][1][key] = value
        with pytest.raises(DeviceFileError) as exc:
            device_from_dict(doc, tmp_path)
        assert str(exc.value) == message

    @pytest.mark.parametrize("value, message", [
        (1.5, "sections[0].index_provider.mode must be an integer, got 1.5"),
        ("2", "sections[0].index_provider.mode must be an integer, got '2'"),
        (True, "sections[0].index_provider.mode must be an integer, got True"),
    ])
    def test_modesolver_mode_of_wrong_kind_is_named(self, tmp_path, value, message):
        doc = _explicit_period_doc({"kind": "modesolver", "mode": value}, {"kind": "modesolver"})
        with pytest.raises(DeviceFileError) as exc:
            device_from_dict(doc, tmp_path)
        assert str(exc.value) == message

    def test_solved_section_with_non_positive_qpm_order_names_it(self, tmp_path):
        doc = reference_doc()
        doc["sections"][0]["qpm_order"] = 0
        with pytest.raises(DomainError, match=r"^qpm_order must be an odd positive integer, got 0$"):
            device_from_dict(doc, tmp_path)

    def test_device_without_optional_keys_loads_the_defaults(self, tmp_path):
        doc = _explicit_period_doc({"kind": "modesolver"}, {"kind": "bulk", "material": "lithium_niobate_e"})
        for section in doc["sections"]:
            del section["qpm_order"]
        required = ("core_width_um", "core_height_um", "core_material", "substrate_material")
        doc["geometry"] = {key: doc["geometry"][key] for key in required}
        device = device_from_dict(doc, tmp_path)
        niobate, tantalate = builtin_material("lithium_niobate_e"), builtin_material("lithium_tantalate_e")
        assert device.geometry == WaveguideGeometry(10.0, 8.0, niobate, tantalate)
        assert device.step1.index_provider.default_mode == ModeSolverIndexProvider(device.geometry).default_mode
        assert device.step1 == SectionSpec("step1", 20.0, 12.96, 59.26, device.step1.index_provider)
        assert device.step2 == SectionSpec("step2", 20.0, 25.65, 59.26, device.step2.index_provider)
        doc["sections"][0]["index_provider"] = doc["sections"][1]["index_provider"]
        del doc["geometry"]
        assert device_from_dict(doc, tmp_path).geometry is None

    def test_material_without_optional_keys_loads_the_defaults(self):
        doc = json.loads(material_to_json(builtin_material("lithium_niobate_e")))
        del doc["mid_ir_absorptive"], doc["notes"]
        expected = SellmeierModel(
            doc["name"], doc["polarization"], doc["temperature_form"], doc["coefficients"],
            tuple(doc["wavelength_range_um"]), tuple(doc["temperature_range_C"]),
        )
        assert material_from_dict(doc) == expected


class TestSharedProviders:
    def test_equal_blocks_share_one_provider(self, reference_device, tmp_path):
        assert reference_device.step1.index_provider is reference_device.step2.index_provider
        doc = _explicit_period_doc({"kind": "modesolver", "mode": 1}, {"kind": "modesolver", "mode": 1})
        device = device_from_dict(doc, tmp_path)
        assert device.step1.index_provider is device.step2.index_provider

    def test_different_blocks_get_separate_providers(self, tmp_path):
        doc = _explicit_period_doc({"kind": "modesolver", "mode": 1}, {"kind": "modesolver", "mode": 2})
        device = device_from_dict(doc, tmp_path)
        first, second = device.step1.index_provider, device.step2.index_provider
        assert first is not second
        assert (first.default_mode, second.default_mode) == (1, 2)

    def test_modesolver_device_solves_each_key_once(self, fake_solves, tmp_path):
        doc = reference_doc()
        for section in doc["sections"]:
            section["index_provider"] = {"kind": "modesolver"}
        device = device_from_dict(doc, tmp_path)
        # Step 1 solves the signal, the pump and its output; step 2's input
        # is that output, bit for bit, so it adds only the target.
        assert len(fake_solves) == len(set(fake_solves)) == 4
        fake_solves.clear()
        pm = phasematch_map(device.step1, device.step2, device.signal, [55.0, 60.0], [2150.0, 2155.0])
        assert np.all(np.isfinite(pm.step1)) and np.all(np.isfinite(pm.step2))
        # Per T row: the signal once, then per cell the intermediate, the
        # target and the pump, each solved once for both sections.
        assert len(fake_solves) == 2 * (1 + 3 * 2)


class TestBuiltinMaterialCache:
    @pytest.fixture
    def material_reads(self, monkeypatch):
        """Each source the material reader opens from here on, with no
        built-in material cached at the start."""
        reads = []
        read_json = dispersion.read_json

        def counted(error, source):
            reads.append(source)
            return read_json(error, source)

        builtin_material.cache_clear()
        monkeypatch.setattr(dispersion, "read_json", counted)
        return reads

    def test_second_load_reads_no_material_file(self, material_reads):
        first = load_device(reference_device_path())
        assert len(material_reads) == 2
        second = load_device(reference_device_path())
        assert len(material_reads) == 2
        for device in (first, second):
            assert device.step1.index_provider.model is device.geometry.core_material
        assert second.geometry.core_material is first.geometry.core_material
        assert second.geometry.substrate_material is first.geometry.substrate_material

    @pytest.mark.parametrize("warm", [False, True])
    def test_name_outside_the_shipped_list_opens_no_file(self, material_reads, tmp_path, warm):
        if warm:
            load_device(reference_device_path())
            material_reads.clear()
        doc = reference_doc()
        doc["materials"] = ["builtin:../devices/reference_device", "builtin:lithium_tantalate_e"]
        path = tmp_path / "device.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MaterialFileError, match="no built-in material '../devices/reference_device'"):
            load_device(path)
        assert material_reads == []


@settings(max_examples=30, deadline=None)
@given(
    pump_nm=st.floats(2100.0, 2250.0),
    temps=st.tuples(st.floats(25.0, 150.0), st.floats(25.0, 150.0)),
    expansion_per_C=st.sampled_from([0.0, 1.54e-5]),
)
def test_solved_sections_phase_match_on_the_chain(tmp_path_factory, pump_nm, temps, expansion_per_C):
    """Both solved periods phase-match at (solve_at.T_C, pump) on the chain
    signal -> step-1 output, with or without the grating's thermal expansion."""
    doc = reference_doc()
    doc["pump_nm"] = pump_nm
    for section, temp in zip(doc["sections"], temps):
        section["solve_at"] = {"T_C": temp}
        section["expansion_per_C"] = expansion_per_C
    device = device_from_dict(doc, tmp_path_factory.getbasetemp())
    processes = (ProcessSpec.dfg(device.signal, device.pump, device.step1),
                 ProcessSpec.dfg(device.intermediate, device.pump, device.step2))
    for process, temp in zip(processes, temps):
        assert abs(phase_mismatch(process, temp_C=temp)) <= 1e-9
