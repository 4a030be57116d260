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
mode-solver device solves each (wavelength, T, mode) once for both
sections.  Unknown and missing keys are rejected with a named error, and
so is a value of the wrong JSON type: numeric fields must be JSON numbers
(integers for ``qpm_order``, ``mode`` and the grid sizes), names and
labels strings, and every block an object.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .conversion import LossBudget
from .dispersion import (
    BulkIndexProvider,
    OffsetIndexProvider,
    SellmeierModel,
    builtin_material,
    load_material,
)
from .errors import DeviceFileError
from .modesolver import ModeSolverIndexProvider, WaveguideGeometry
from .qpm import ProcessSpec, SectionSpec, delta_k, qpm_transfer, solve_poling_period
from .spectral import ProcessKind, Wavelength, dfg_target, output_nm


def _check_keys(doc: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(doc, dict):
        raise DeviceFileError(f"{where} must be a JSON object, got {doc!r}")
    unknown = set(doc) - required - optional
    if unknown:
        raise DeviceFileError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(doc)
    if missing:
        raise DeviceFileError(f"missing key(s) {sorted(missing)} in {where}")


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


def _load_materials(entries: list, base_dir: Path) -> dict[str, SellmeierModel]:
    if not isinstance(entries, list) or not entries:
        raise DeviceFileError("materials must be a non-empty list")
    loaded: dict[str, SellmeierModel] = {}
    for entry in entries:
        if not isinstance(entry, str):
            raise DeviceFileError(f"material entry must be a string, got {entry!r}")
        if entry.startswith("builtin:"):
            model = builtin_material(entry.removeprefix("builtin:"))
        else:
            model = load_material((base_dir / entry).resolve())
        loaded[model.name] = model
    return loaded


def _number(value, path: str, integer: bool = False):
    """``value`` as a float, or as an int when ``integer``.

    Anything but a JSON number of that kind (a string, a bool, a
    fractional count) is a :class:`DeviceFileError` naming ``path``.
    """
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise DeviceFileError(f"{path} must be {kind}, got {value!r}")
    return value if integer else float(value)


def _material_for(name, materials: Mapping[str, SellmeierModel], where: str) -> SellmeierModel:
    if name is None:
        raise DeviceFileError(f"{where} needs a material name; loaded: {sorted(materials)}")
    if not isinstance(name, str) or name not in materials:
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

    def field(key, default=None, integer=False):
        return _number(doc.get(key, default), f"geometry.{key}", integer)

    return WaveguideGeometry(
        core_width_um=field("core_width_um"),
        core_height_um=field("core_height_um"),
        core_material=_material_for(doc["core_material"], materials, "geometry.core_material"),
        substrate_material=_material_for(
            doc["substrate_material"], materials, "geometry.substrate_material"
        ),
        superstrate_index=field("superstrate_index", 1.0),
        grid_nx=field("grid_nx", 64, integer=True),
        grid_ny=field("grid_ny", 64, integer=True),
        window_width_um=field("window_width_um", 30.0),
        window_height_um=field("window_height_um", 24.0),
    )


def _build_provider(doc: dict, materials, geometry: WaveguideGeometry | None, where: str):
    _check_keys(doc, required={"kind"}, optional={"material", "delta_n", "mode"}, where=where)
    kind = doc["kind"]
    if kind == "bulk":
        return BulkIndexProvider(_material_for(doc.get("material"), materials, where))
    if kind == "offset":
        return OffsetIndexProvider(
            _material_for(doc.get("material"), materials, where),
            delta_n=_number(doc.get("delta_n", 0.0), f"{where}.delta_n"),
        )
    if kind == "modesolver":
        if geometry is None:
            raise DeviceFileError(f"{where}: modesolver provider needs a geometry block")
        mode = _number(doc.get("mode", 1), f"{where}.mode", integer=True)
        return ModeSolverIndexProvider(geometry, default_mode=mode)
    raise DeviceFileError(f"{where}: unknown index_provider kind {kind!r}")


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
    if not isinstance(doc["role"], str) or doc["role"] not in chain:
        raise DeviceFileError(f"{where}: role must be one of {sorted(chain)}, got {doc['role']!r}")
    if ("poling_period_um" in doc) == ("solve_at" in doc):
        raise DeviceFileError(
            f"{where}: exactly one of poling_period_um and solve_at is required"
        )
    block = doc["index_provider"]
    provider = next((built for seen, built in providers if seen == block), None)
    if provider is None:
        provider = _build_provider(block, materials, geometry, f"{where}.index_provider")
        providers.append((block, provider))
    qpm_order = _number(doc.get("qpm_order", 1), f"{where}.qpm_order", integer=True)
    expansion_per_C = _number(doc.get("expansion_per_C", 0.0), f"{where}.expansion_per_C")
    expansion_ref_C = _number(doc.get("expansion_ref_C", 25.0), f"{where}.expansion_ref_C")
    if "solve_at" in doc:
        _check_keys(doc["solve_at"], required={"T_C"}, optional=set(), where=f"{where}.solve_at")
        temp_C = _number(doc["solve_at"]["T_C"], f"{where}.solve_at.T_C")
        period = solve_poling_period(
            ProcessKind.DFG, chain[doc["role"]], pump, temp_C, provider, qpm_order=qpm_order
        )
        period /= 1.0 + expansion_per_C * (temp_C - expansion_ref_C)
    else:
        period = _number(doc["poling_period_um"], f"{where}.poling_period_um")
    return SectionSpec(
        role=doc["role"],
        length_mm=_number(doc["length_mm"], f"{where}.length_mm"),
        poling_period_um=period,
        temperature_C=_number(doc["temperature_C"], f"{where}.temperature_C"),
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
    signal = Wavelength(_number(doc["signal_nm"], "signal_nm"))
    pump = Wavelength(_number(doc["pump_nm"], "pump_nm"))
    chain = {"step1": signal, "step2": dfg_target(signal, pump)}
    materials = _load_materials(doc["materials"], base_dir)
    geometry = _build_geometry(doc["geometry"], materials) if "geometry" in doc else None
    sections = doc["sections"]
    if not isinstance(sections, list) or len(sections) != 2:
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
        v = _number(value, f"coupling.{key}")
        if not 0.0 < v <= 1.0:
            raise DeviceFileError(f"coupling.{key} = {value!r} outside (0, 1]")
        coupling[key] = v

    budget_doc = doc["loss_budget"]
    if not isinstance(budget_doc, list):
        raise DeviceFileError("loss_budget must be a list of {label, transmission}")
    pairs = []
    for i, item in enumerate(budget_doc):
        _check_keys(item, required={"label", "transmission"}, optional=set(), where=f"loss_budget[{i}]")
        if not isinstance(item["label"], str):
            raise DeviceFileError(f"loss_budget[{i}].label must be a string, got {item['label']!r}")
        pairs.append((item["label"], _number(item["transmission"], f"loss_budget[{i}].transmission")))

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
    raw = path.read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DeviceFileError(f"{path}: invalid JSON: {exc}") from exc
    return device_from_dict(doc, path.parent, sha256=hashlib.sha256(raw).hexdigest())


def reference_device_path() -> Path:
    """Path of the device file shipped with the package."""
    return Path(__file__).parent / "devices" / "reference_device.json"
