"""Device files: the two-section waveguide plus its couplings and losses.

A device file is a JSON document:

    {
      "materials": ["builtin:lithium_niobate_e", "path/to/material.json"],
      "signal_nm": 637.2,
      "pump_nm": 2152.9,
      "sections": [
        {"role": "step1", "length_mm": 20.0, "qpm_order": 1,
         "temperature_C": 59.26, "solve_at": {"T_C": 59.26},
         "index_provider": {"kind": "bulk", "material": "lithium_niobate_e"}},
        {"role": "step2", ...}
      ],
      "coupling": {"pump": 0.745, "signal": 0.882, "aux": 0.818},
      "loss_budget": [{"label": "out_coupling", "transmission": 0.922}, ...],
      "geometry": { ... }            // optional waveguide cross-section
    }

The operating point is stated once, by the top-level ``signal_nm`` and
``pump_nm``.  Each section states either an explicit ``poling_period_um``
or a ``solve_at`` temperature at which its period is solved on load, on
the DFG chain at that pump: step 1 from the signal, step 2 from step 1's
output.  A solved period is stored at ``expansion_ref_C``, so the
section's thermal expansion restores it at ``solve_at.T_C``.  Sections
whose ``index_provider`` blocks are equal share one provider object, so a
mode-solver device solves each (wavelength, T) once for both sections.
An ``index_provider`` block takes only the keys its ``kind`` reads:
``material`` for ``bulk``; ``mode`` for ``modesolver``.

Unknown and missing keys are rejected with a named error, and so is a
value of the wrong JSON type: numeric fields must be finite JSON numbers
(integers for ``qpm_order``, ``mode`` and the grid sizes; ``NaN`` and
``Infinity`` are refused), names and labels strings, and every block an
object.  Material files are read and checked by the same functions of
:mod:`qpmcascade.errors`.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .conversion import LossBudget
from .dispersion import (
    BulkIndexProvider,
    SellmeierModel,
    builtin_material,
    load_material,
)
from .errors import DeviceFileError, check_keys, json_value, read_json
from .modesolver import ModeSolverIndexProvider, WaveguideGeometry
from .qpm import ProcessSpec, SectionSpec, delta_k, qpm_transfer, solve_poling_period
from .spectral import ProcessKind, Wavelength, dfg_target, output_nm


_check_keys = functools.partial(check_keys, DeviceFileError)
_value = functools.partial(json_value, DeviceFileError)

# The keys each index_provider kind reads besides "kind": (required, optional).
_PROVIDER_KEYS = {"bulk": ({"material"}, set()), "modesolver": (set(), {"mode"})}


@dataclass(frozen=True, eq=False)
class TwoStepDevice:
    """The assembled two-section converter with its external couplings."""

    step1: SectionSpec
    step2: SectionSpec
    signal: Wavelength
    pump: Wavelength
    coupling: Mapping[str, float]
    loss_budget: LossBudget
    materials: Mapping[str, SellmeierModel]
    geometry: WaveguideGeometry | None = None
    source_sha256: str = ""

    @property
    def intermediate(self) -> Wavelength:
        """Step-1 output wavelength at the operating pump."""
        return dfg_target(self.signal, self.pump)

    @property
    def target(self) -> Wavelength:
        """Step-2 output wavelength at the operating pump."""
        return dfg_target(self.intermediate, self.pump)

    def step1_process(self, pump: Wavelength | None = None) -> ProcessSpec:
        return ProcessSpec.dfg(self.signal, pump or self.pump, self.step1)

    def step2_process(self, pump: Wavelength | None = None) -> ProcessSpec:
        p = pump or self.pump
        return ProcessSpec.dfg(dfg_target(self.signal, p), p, self.step2)

    def cascade_transfer(
        self,
        temp1_C: float | None = None,
        temp2_C: float | None = None,
    ) -> Callable:
        """Normalized two-step transfer versus input wavelength (nm).

        The returned function is elementwise, like :func:`qpm.delta_k`:
        step 1 at the input, then step 2 at the step-1 output.  Called on
        a float it returns a float and raises the error of an invalid
        input (e.g. a wavelength outside a provider range); called on an
        array it masks such samples with NaN, which is how spectrum
        conversion drops them.
        """
        temp1 = self.step1.temperature_C if temp1_C is None else temp1_C
        temp2 = self.step2.temperature_C if temp2_C is None else temp2_C
        pump = self.pump.nm

        def transfer(lam_in_nm):
            dk1 = delta_k(ProcessKind.DFG, lam_in_nm, pump, temp1, self.step1)
            t1 = qpm_transfer(dk1, self.step1.length_mm)
            mid = output_nm(ProcessKind.DFG, lam_in_nm, pump)
            dk2 = delta_k(ProcessKind.DFG, mid, pump, temp2, self.step2)
            return t1 * qpm_transfer(dk2, self.step2.length_mm)

        return transfer

    def map_to_target(self, lam_in_nm):
        """Input wavelength mapped through both DFG steps, in nm; elementwise."""
        pump = self.pump.nm
        return output_nm(ProcessKind.DFG, output_nm(ProcessKind.DFG, lam_in_nm, pump), pump)


def _load_materials(entries, base_dir: Path) -> dict[str, SellmeierModel]:
    loaded: dict[str, SellmeierModel] = {}
    for i, entry in enumerate(_value(entries, list, "materials")):
        entry = _value(entry, str, f"materials[{i}]")
        if entry.startswith("builtin:"):
            model = builtin_material(entry.removeprefix("builtin:"))
        else:
            model = load_material(base_dir / entry)
        loaded[model.name] = model
    if not loaded:
        raise DeviceFileError("materials must be a non-empty list")
    return loaded


def _material_for(name, materials: Mapping[str, SellmeierModel], where: str) -> SellmeierModel:
    if _value(name, str, where) not in materials:
        raise DeviceFileError(
            f"{where} references material {name!r}; loaded: {sorted(materials)}"
        )
    return materials[name]


def _build_geometry(doc: dict, materials: Mapping[str, SellmeierModel]) -> WaveguideGeometry:
    _check_keys(
        doc,
        required={"core_width_um", "core_height_um", "core_material", "substrate_material"},
        optional={"superstrate_index", "grid_nx", "grid_ny", "window_width_um", "window_height_um"},
        where="geometry",
    )

    def field(key, default=None, kind=float):
        return _value(doc.get(key, default), kind, f"geometry.{key}")

    return WaveguideGeometry(
        core_width_um=field("core_width_um"),
        core_height_um=field("core_height_um"),
        core_material=_material_for(doc["core_material"], materials, "geometry.core_material"),
        substrate_material=_material_for(
            doc["substrate_material"], materials, "geometry.substrate_material"
        ),
        superstrate_index=field("superstrate_index", 1.0),
        grid_nx=field("grid_nx", 64, int),
        grid_ny=field("grid_ny", 64, int),
        window_width_um=field("window_width_um", 30.0),
        window_height_um=field("window_height_um", 24.0),
    )


def _build_provider(doc: dict, materials, geometry: WaveguideGeometry | None, where: str):
    doc = _value(doc, dict, where)
    kind = _value(doc.get("kind"), str, f"{where}.kind")
    if kind not in _PROVIDER_KEYS:
        raise DeviceFileError(f"{where}: unknown index_provider kind {kind!r}")
    required, optional = _PROVIDER_KEYS[kind]
    _check_keys(doc, required={"kind", *required}, optional=optional, where=where)
    if kind == "modesolver":
        if geometry is None:
            raise DeviceFileError(f"{where}: modesolver provider needs a geometry block")
        mode = _value(doc.get("mode", 1), int, f"{where}.mode")
        return ModeSolverIndexProvider(geometry, default_mode=mode)
    return BulkIndexProvider(_material_for(doc["material"], materials, f"{where}.material"))


def _build_section(
    doc: dict, materials, geometry, where: str, providers: list,
    chain: Mapping[str, Wavelength], pump: Wavelength,
) -> SectionSpec:
    """One section; ``chain`` maps each role to its DFG input at ``pump``.

    ``providers`` holds the (block, provider) pairs built so far, and a
    section whose index_provider block equals an earlier one shares its
    provider (and so a mode-solver cache)."""
    _check_keys(
        doc,
        required={"role", "length_mm", "temperature_C", "index_provider"},
        optional={"poling_period_um", "solve_at", "qpm_order", "expansion_per_C", "expansion_ref_C"},
        where=where,
    )
    roles = sorted(chain)
    if doc["role"] not in roles:  # list membership compares by ==, so any JSON value is safe
        raise DeviceFileError(f"{where}: role must be one of {roles}, got {doc['role']!r}")
    if ("poling_period_um" in doc) == ("solve_at" in doc):
        raise DeviceFileError(
            f"{where}: exactly one of poling_period_um and solve_at is required"
        )
    block = doc["index_provider"]
    provider = next((built for seen, built in providers if seen == block), None)
    if provider is None:
        provider = _build_provider(block, materials, geometry, f"{where}.index_provider")
        providers.append((block, provider))
    qpm_order = _value(doc.get("qpm_order", 1), int, f"{where}.qpm_order")
    expansion_per_C = _value(doc.get("expansion_per_C", 0.0), float, f"{where}.expansion_per_C")
    expansion_ref_C = _value(doc.get("expansion_ref_C", 25.0), float, f"{where}.expansion_ref_C")
    if "solve_at" in doc:
        _check_keys(doc["solve_at"], required={"T_C"}, optional=set(), where=f"{where}.solve_at")
        temp_C = _value(doc["solve_at"]["T_C"], float, f"{where}.solve_at.T_C")
        period = solve_poling_period(
            ProcessKind.DFG, chain[doc["role"]], pump, temp_C, provider, qpm_order=qpm_order
        )
        stretch = 1.0 + expansion_per_C * (temp_C - expansion_ref_C)
        if not stretch > 0.0:
            raise DeviceFileError(f"{where}: expansion factor {stretch!r} at solve_at.T_C is not positive")
        period /= stretch
    else:
        period = _value(doc["poling_period_um"], float, f"{where}.poling_period_um")
    return SectionSpec(
        role=doc["role"],
        length_mm=_value(doc["length_mm"], float, f"{where}.length_mm"),
        poling_period_um=period,
        temperature_C=_value(doc["temperature_C"], float, f"{where}.temperature_C"),
        index_provider=provider,
        qpm_order=qpm_order,
        expansion_per_C=expansion_per_C,
        expansion_ref_C=expansion_ref_C,
    )


def device_from_dict(doc: dict, base_dir: Path, sha256: str = "") -> TwoStepDevice:
    _check_keys(
        doc,
        required={"materials", "signal_nm", "pump_nm", "sections", "coupling", "loss_budget"},
        optional={"geometry"},
        where="device",
    )
    signal = Wavelength(_value(doc["signal_nm"], float, "signal_nm"))
    pump = Wavelength(_value(doc["pump_nm"], float, "pump_nm"))
    chain = {"step1": signal, "step2": dfg_target(signal, pump)}
    materials = _load_materials(doc["materials"], base_dir)
    geometry = _build_geometry(doc["geometry"], materials) if "geometry" in doc else None
    sections = _value(doc["sections"], list, "sections")
    if len(sections) != 2:
        raise DeviceFileError("sections must list exactly one step1 and one step2")
    providers: list = []
    built = {}
    for i, sec_doc in enumerate(sections):
        section = _build_section(sec_doc, materials, geometry, f"sections[{i}]", providers, chain, pump)
        built[section.role] = section
    if set(built) != {"step1", "step2"}:
        raise DeviceFileError("sections must list exactly one step1 and one step2")

    coupling_doc = doc["coupling"]
    _check_keys(coupling_doc, required={"pump", "signal", "aux"}, optional=set(), where="coupling")
    coupling = {}
    for key, value in coupling_doc.items():
        v = _value(value, float, f"coupling.{key}")
        if not 0.0 < v <= 1.0:
            raise DeviceFileError(f"coupling.{key} = {value!r} outside (0, 1]")
        coupling[key] = v

    pairs = []
    for i, item in enumerate(_value(doc["loss_budget"], list, "loss_budget")):
        _check_keys(item, required={"label", "transmission"}, optional=set(), where=f"loss_budget[{i}]")
        pairs.append((_value(item["label"], str, f"loss_budget[{i}].label"),
                      _value(item["transmission"], float, f"loss_budget[{i}].transmission")))

    return TwoStepDevice(
        step1=built["step1"],
        step2=built["step2"],
        signal=signal,
        pump=pump,
        coupling=coupling,
        loss_budget=LossBudget.from_pairs(pairs),
        materials=materials,
        geometry=geometry,
        source_sha256=sha256,
    )


def load_device(path: str | Path) -> TwoStepDevice:
    path = Path(path)
    doc, raw = read_json(DeviceFileError, path)
    return device_from_dict(doc, path.parent, sha256=hashlib.sha256(raw).hexdigest())


def reference_device_path() -> Path:
    """Path of the device file shipped with the package."""
    return Path(__file__).parent / "devices" / "reference_device.json"
