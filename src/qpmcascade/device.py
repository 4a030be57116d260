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

Each block's keys with their JSON kinds; a key with a default (that of
``SectionSpec``, ``ModeSolverIndexProvider`` or ``WaveguideGeometry``)
may be omitted:

    top level       materials: list of strings, "builtin:NAME" or a path
                    relative to the device file; signal_nm, pump_nm:
                    numbers; sections: list of two sections; coupling:
                    object; loss_budget: list of loss items; geometry:
                    object, default none
    section         role: "step1" or "step2"; length_mm, temperature_C:
                    numbers; index_provider: object; exactly one of
                    poling_period_um (number) and solve_at (object);
                    qpm_order: integer, default 1; expansion_per_C:
                    number, default 0.0; expansion_ref_C: number,
                    default 25.0
    solve_at        T_C: number
    index_provider  kind: "bulk", with material: string; or
                    "modesolver", with mode: integer, default 1
    coupling        pump, signal, aux: numbers in (0, 1]
    loss item       label: string; transmission: number
    geometry        core_width_um, core_height_um: numbers;
                    core_material, substrate_material: strings;
                    superstrate_index: number, default 1.0; grid_nx,
                    grid_ny: integers, default 64; window_width_um,
                    window_height_um: numbers, default 30.0 and 24.0

A material named by ``material``, ``core_material`` or
``substrate_material`` must be one the ``materials`` list loaded; no two
entries of that list may load materials of the same name.

The operating point is stated once, by the top-level ``signal_nm`` and
``pump_nm``.  Each section states either an explicit ``poling_period_um``
or a ``solve_at`` temperature at which its period is solved on load, on
the DFG chain at that pump: step 1 from the signal, step 2 from step 1's
output.  A solved period is stored at ``expansion_ref_C``, so the
section's thermal expansion restores it at ``solve_at.T_C``.  Sections
whose ``index_provider`` blocks are equal share one provider object, so a
mode-solver device solves each (wavelength, T) once for both sections.

Unknown and missing keys, values of the wrong JSON type (a bool is not a
number) and ``NaN`` or ``Infinity`` are refused with an error naming
them, as in material files (:func:`~qpmcascade.errors.json_fields`).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping

from .conversion import LossBudget
from .dispersion import (
    BulkIndexProvider,
    SellmeierModel,
    builtin_material,
    load_material,
)
from .errors import DeviceFileError, json_fields, json_value, read_json
from .modesolver import ModeSolverIndexProvider, WaveguideGeometry
from .qpm import SectionSpec, delta_k, qpm_transfer, solve_poling_period
from .spectral import ProcessKind, Wavelength, dfg_target, output_nm


_fields = functools.partial(json_fields, DeviceFileError)
_value = functools.partial(json_value, DeviceFileError)

# Each block's keys and their JSON kinds (None: checked by the loader),
# in the order their values are checked.
_DEVICE = dict(required={"signal_nm": float, "pump_nm": float, "materials": list, "sections": list,
                         "coupling": dict, "loss_budget": list}, optional={"geometry": dict})
_GEOMETRY = dict(
    required={"core_width_um": float, "core_height_um": float, "core_material": str,
              "substrate_material": str},
    optional={"superstrate_index": float, "grid_nx": int, "grid_ny": int, "window_width_um": float,
              "window_height_um": float})
_SECTION = dict(
    required={"role": None, "length_mm": float, "temperature_C": float, "index_provider": dict},
    optional={"poling_period_um": float, "solve_at": dict, "qpm_order": int, "expansion_per_C": float,
              "expansion_ref_C": float})
_SOLVE_AT = dict(required={"T_C": float}, optional={})
_PROVIDERS = {"bulk": dict(required={"kind": str, "material": str}, optional={}),
              "modesolver": dict(required={"kind": str}, optional={"mode": int})}
_COUPLING = dict(required={"pump": float, "signal": float, "aux": float}, optional={})
_LOSS_ITEM = dict(required={"label": str, "transmission": float}, optional={})


@dataclass(frozen=True, eq=False)
class TwoStepDevice:
    """The assembled two-section converter with its external couplings."""

    step1: SectionSpec
    step2: SectionSpec
    signal: Wavelength
    pump: Wavelength
    coupling: Mapping[str, float]
    loss_budget: LossBudget
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
    """The listed materials by name; two entries may not share a name."""
    loaded: dict[str, SellmeierModel] = {}
    for i, entry in enumerate(entries):
        entry = _value(entry, str, f"materials[{i}]")
        if entry.startswith("builtin:"):
            model = builtin_material(entry.removeprefix("builtin:"))
        else:
            model = load_material(base_dir / entry)
        if model.name in loaded:
            # Every earlier entry added one name, so a name's position is its entry's.
            earlier = list(loaded).index(model.name)
            raise DeviceFileError(
                f"materials[{earlier}] and materials[{i}] are both named {model.name!r}"
            )
        loaded[model.name] = model
    if not loaded:
        raise DeviceFileError("materials must be a non-empty list")
    return loaded


def _material_for(name: str, materials: Mapping[str, SellmeierModel], where: str) -> SellmeierModel:
    if name not in materials:
        raise DeviceFileError(
            f"{where} references material {name!r}; loaded: {sorted(materials)}"
        )
    return materials[name]


def _build_geometry(doc: dict, materials: Mapping[str, SellmeierModel]) -> WaveguideGeometry:
    fields = _fields(doc, "geometry", **_GEOMETRY)
    for key in ("core_material", "substrate_material"):
        fields[key] = _material_for(fields[key], materials, f"geometry.{key}")
    return WaveguideGeometry(**fields)


def _build_provider(doc: dict, materials, geometry: WaveguideGeometry | None, where: str):
    if "kind" not in doc:
        raise DeviceFileError(f"missing key(s) ['kind'] in {where}")
    kind = _value(doc["kind"], str, f"{where}.kind")
    if kind not in _PROVIDERS:
        raise DeviceFileError(f"{where}: unknown index_provider kind {kind!r}")
    fields = _fields(doc, where, **_PROVIDERS[kind])
    if kind == "modesolver":
        if geometry is None:
            raise DeviceFileError(f"{where}: modesolver provider needs a geometry block")
        mode = {"default_mode": fields["mode"]} if "mode" in fields else {}
        return ModeSolverIndexProvider(geometry, **mode)
    return BulkIndexProvider(_material_for(fields["material"], materials, f"{where}.material"))


def _build_section(
    doc: dict, materials, geometry, where: str, providers: list,
    chain: Mapping[str, Wavelength], pump: Wavelength,
) -> SectionSpec:
    """One section; ``chain`` maps each role to its DFG input at ``pump``.

    ``providers`` holds the (block, provider) pairs built so far, and a
    section whose index_provider block equals an earlier one shares its
    provider (and so a mode-solver cache)."""
    fields = _fields(doc, where, **_SECTION)
    roles = sorted(chain)
    if fields["role"] not in roles:  # list membership compares by ==, so any JSON value is safe
        raise DeviceFileError(f"{where}: role must be one of {roles}, got {fields['role']!r}")
    if ("poling_period_um" in fields) == ("solve_at" in fields):
        raise DeviceFileError(
            f"{where}: exactly one of poling_period_um and solve_at is required"
        )
    block = fields.pop("index_provider")
    provider = next((built for seen, built in providers if seen == block), None)
    if provider is None:
        provider = _build_provider(block, materials, geometry, f"{where}.index_provider")
        providers.append((block, provider))
    if "poling_period_um" in fields:
        return SectionSpec(**fields, index_provider=provider)
    temp_C = _fields(fields.pop("solve_at"), f"{where}.solve_at", **_SOLVE_AT)["T_C"]
    # Built at a unit period, the section's period at T_C is its expansion factor there.
    section = SectionSpec(**fields, poling_period_um=1.0, index_provider=provider)
    period = solve_poling_period(ProcessKind.DFG, chain[section.role], pump, temp_C, provider,
                                 qpm_order=section.qpm_order)
    stretch = section.period_um_at(temp_C)
    if not stretch > 0.0:
        raise DeviceFileError(f"{where}: expansion factor {stretch!r} at solve_at.T_C is not positive")
    return replace(section, poling_period_um=period / stretch)


def device_from_dict(doc: dict, base_dir: Path, sha256: str = "") -> TwoStepDevice:
    fields = _fields(doc, "device", prefix="", **_DEVICE)
    signal = Wavelength(fields["signal_nm"])
    pump = Wavelength(fields["pump_nm"])
    chain = {"step1": signal, "step2": dfg_target(signal, pump)}
    materials = _load_materials(fields["materials"], base_dir)
    geometry = _build_geometry(fields["geometry"], materials) if "geometry" in fields else None
    if len(fields["sections"]) != 2:
        raise DeviceFileError("sections must list exactly one step1 and one step2")
    providers: list = []
    built = {}
    for i, sec_doc in enumerate(fields["sections"]):
        section = _build_section(sec_doc, materials, geometry, f"sections[{i}]", providers, chain, pump)
        built[section.role] = section
    if set(built) != {"step1", "step2"}:
        raise DeviceFileError("sections must list exactly one step1 and one step2")

    coupling = _fields(fields["coupling"], "coupling", **_COUPLING)
    for key, v in coupling.items():
        if not 0.0 < v <= 1.0:
            raise DeviceFileError(f"coupling.{key} = {fields['coupling'][key]!r} outside (0, 1]")

    items = [_fields(item, f"loss_budget[{i}]", **_LOSS_ITEM) for i, item in enumerate(fields["loss_budget"])]

    return TwoStepDevice(
        step1=built["step1"],
        step2=built["step2"],
        signal=signal,
        pump=pump,
        coupling=coupling,
        loss_budget=LossBudget(tuple((item["label"], item["transmission"]) for item in items)),
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
