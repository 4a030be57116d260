"""Temperature-dependent refractive-index models and effective-index providers.

Materials are described by data files (JSON) holding a named coefficient
table together with the identifier of the temperature-dependence functional
form.  Two published forms are built in:

``jundt1997``
    n^2 = a1 + b1*f + (a2 + b2*f)/(lam^2 - (a3 + b3*f)^2)
        + (a4 + b4*f)/(lam^2 - a5^2) - a6*lam^2,
    with f = (T - 24.5)*(T + 570.82), lam in micrometers, T in Celsius.
    This is the classic form used for the extraordinary index of congruent
    lithium niobate (Jundt, Opt. Lett. 22, 1553 (1997)).

``kelvin2_pole``
    n^2 = A + (B + bT*K^2)/(lam^2 - (C + cT*K^2)^2) + E/(lam^2 - F^2)
        + D*lam^2,  with K = T + 273.15.
    A single-pole temperature dependence parameterized in absolute
    temperature squared, as used for temperature-dependent lithium
    tantalate Sellmeier fits (e.g. JJAP 52, 032601 (2013)).

``constant``
    n^2 = n2 exactly; a synthetic form for tests and toy media.

The module also defines the bulk effective-index provider.  A provider
maps (wavelength, temperature) to the index of the one transverse mode it
was built for, through ``effective_index(lam, temp_C)``; the
mode-solver-backed provider is in :mod:`qpmcascade.modesolver`.  No
provider adds a constant index offset: every process here conserves
energy, so a constant offset cancels from every delta-k.

Index evaluation broadcasts over arrays of wavelength (nm) and temperature;
see :func:`qpmcascade.errors.screen` for invalid inputs.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import (
    MaterialFileError,
    NumericError,
    RangeError,
    is_array,
    json_fields,
    json_value,
    read_json,
    screen,
)
from .spectral import Wavelength

# The forms are elementwise arithmetic, written with products rather than
# powers so that scalar and array evaluations round identically.


def _n2_jundt1997(coeff: Mapping[str, float], lam_um, temp_C):
    f = (temp_C - 24.5) * (temp_C + 570.82)
    lam2 = lam_um * lam_um
    pole = coeff["a3"] + coeff["b3"] * f
    return (
        coeff["a1"]
        + coeff["b1"] * f
        + (coeff["a2"] + coeff["b2"] * f) / (lam2 - pole * pole)
        + (coeff["a4"] + coeff["b4"] * f) / (lam2 - coeff["a5"] * coeff["a5"])
        - coeff["a6"] * lam2
    )


def _n2_kelvin2_pole(coeff: Mapping[str, float], lam_um, temp_C):
    kelvin = temp_C + 273.15
    k2 = kelvin * kelvin
    lam2 = lam_um * lam_um
    pole = coeff["C"] + coeff["cT"] * k2
    return (
        coeff["A"]
        + (coeff["B"] + coeff["bT"] * k2) / (lam2 - pole * pole)
        + coeff["E"] / (lam2 - coeff["F"] * coeff["F"])
        + coeff["D"] * lam2
    )


def _n2_constant(coeff: Mapping[str, float], lam_um, temp_C):
    # Broadcasts like the other forms; NaN inputs stay NaN.
    return coeff["n2"] + 0.0 * (lam_um + temp_C)


TEMPERATURE_FORMS: Mapping[str, Callable[[Mapping[str, float], float, float], float]] = {
    "jundt1997": _n2_jundt1997,
    "kelvin2_pole": _n2_kelvin2_pole,
    "constant": _n2_constant,
}

_FORM_KEYS = {
    "jundt1997": {"a1", "a2", "a3", "a4", "a5", "a6", "b1", "b2", "b3", "b4"},
    "kelvin2_pole": {"A", "B", "C", "D", "E", "F", "bT", "cT"},
    "constant": {"n2"},
}


@dataclass(frozen=True)
class SellmeierModel:
    """A named dispersion model n(lam, T) with declared validity ranges.

    ``coefficients`` is immutable after construction.  ``mid_ir_absorptive``
    is descriptive: it records that the material absorbs mid-infrared light
    strongly enough not to transmit thermal seed photons.  No computation
    reads it; :func:`qpmcascade.noisemodel.enumerate_parasitics` consults
    the second section only, by design.
    """

    name: str
    polarization: str
    temperature_form: str
    coefficients: Mapping[str, float]
    wavelength_range_um: tuple[float, float]
    temperature_range_C: tuple[float, float]
    mid_ir_absorptive: bool = False
    notes: str = ""

    def __post_init__(self):
        if self.temperature_form not in TEMPERATURE_FORMS:
            raise MaterialFileError(
                f"unknown temperature_form {self.temperature_form!r}; "
                f"known forms: {sorted(TEMPERATURE_FORMS)}"
            )
        missing = _FORM_KEYS[self.temperature_form] - set(self.coefficients)
        if missing:
            raise MaterialFileError(
                f"material {self.name!r}: temperature_form {self.temperature_form!r} "
                f"requires coefficients {sorted(missing)}"
            )
        object.__setattr__(
            self, "coefficients", MappingProxyType(dict(self.coefficients))
        )
        object.__setattr__(self, "wavelength_range_um", tuple(self.wavelength_range_um))
        object.__setattr__(self, "temperature_range_C", tuple(self.temperature_range_C))

    def index_unchecked(self, lam_um, temp_C):
        """Evaluate the raw formula without range validation;
        :func:`sellmeier_index` checks the ranges first and then calls this.
        Elementwise on arrays; NaN inputs give NaN.  Where the inputs are
        not NaN, an index outside (1, 4) (a broken coefficient table)
        raises :class:`NumericError` naming the first such (n, lam, T).
        Scalar inputs give a ``float``."""
        form = TEMPERATURE_FORMS[self.temperature_form]
        with np.errstate(divide="ignore", invalid="ignore"):
            n = np.sqrt(form(self.coefficients, lam_um, temp_C))
        bad = ~((1.0 < n) & (n < 4.0)) & ~np.isnan(lam_um + temp_C)
        if bad.any():
            at = np.unravel_index(np.argmax(bad), bad.shape)
            n, lam_um, temp_C = (np.broadcast_to(v, bad.shape)[at] for v in (n, lam_um, temp_C))
            raise NumericError(
                f"material {self.name!r}: index {n} outside (1, 4) at lam={lam_um} um, T={temp_C} C"
            )
        return n if is_array(lam_um) or is_array(temp_C) else float(n)


def _in_range(model: SellmeierModel, quantity: str, value, low: float, high: float):
    """``value`` screened against [low, high]; a scalar raises :class:`RangeError`."""
    name = f"{model.name} {quantity}"
    valid = (low <= value) & (value <= high)
    return screen(value, valid, name, lambda: RangeError(name, value, low, high))


def sellmeier_index(model: SellmeierModel, lam, temp_C):
    """Refractive index at (lam, T), validated against the declared ranges.

    ``lam`` is a :class:`Wavelength` or wavelengths in nm, broadcast
    against ``temp_C``.  A scalar call raises :class:`RangeError` naming
    the violated bound; an array call masks it (NaN).  The index is
    checked by :meth:`SellmeierModel.index_unchecked`, the one (1, 4)
    check.
    """
    lam_um = (lam.nm if isinstance(lam, Wavelength) else lam) * 1e-3
    if is_array(lam_um) or is_array(temp_C):
        lam_um, temp_C = np.asarray(lam_um, float), np.asarray(temp_C, float)
    lam_um = _in_range(model, "wavelength_um", lam_um, *model.wavelength_range_um)
    temp_C = _in_range(model, "temperature_C", temp_C, *model.temperature_range_C)
    return model.index_unchecked(lam_um, temp_C)


class BulkIndexProvider:
    """Effective index approximated by the bulk material index.

    Stands for the fundamental transverse mode; geometric dispersion of
    the guided structure is ignored.
    """

    def __init__(self, model: SellmeierModel):
        self.model = model

    def effective_index(self, lam, temp_C):
        return sellmeier_index(self.model, lam, temp_C)

    def __repr__(self):
        return f"BulkIndexProvider({self.model.name!r})"


# --- material file I/O ----------------------------------------------------

_value = functools.partial(json_value, MaterialFileError)

# A material file's keys and their JSON kinds, in the order their values are checked.
_MATERIAL = dict(
    required={"name": str, "polarization": str, "temperature_form": str, "coefficients": dict,
              "wavelength_range_um": list, "temperature_range_C": list},
    optional={"mid_ir_absorptive": bool, "notes": str},
)


def material_from_dict(doc: dict) -> SellmeierModel:
    """A material from its JSON document, checked like a device file
    (:mod:`qpmcascade.device`): unknown or missing keys and values of the
    wrong JSON type, ``NaN`` and ``Infinity`` included, raise
    :class:`MaterialFileError` naming the key.  The keys are those
    :func:`material_to_json` writes; ``mid_ir_absorptive`` and ``notes``
    may be omitted, and then take their :class:`SellmeierModel` defaults."""
    fields = json_fields(MaterialFileError, doc, "material", **_MATERIAL)
    fields["coefficients"] = {k: _value(v, float, f"material.coefficients.{k}")
                              for k, v in fields["coefficients"].items()}
    for key in ("wavelength_range_um", "temperature_range_C"):
        pair = [_value(v, float, f"material.{key}[{i}]") for i, v in enumerate(fields[key])]
        if len(pair) != 2 or not pair[0] < pair[1]:
            raise MaterialFileError(f"material.{key} must be a [low, high] pair with low < high")
        fields[key] = tuple(pair)
    return SellmeierModel(**fields)


def material_to_json(model: SellmeierModel) -> str:
    """Canonical serialization: fixed key order, sorted coefficients,
    two-space indent, trailing newline.  Loading then re-emitting a
    canonical file is byte-identical."""
    doc = {
        "name": model.name,
        "polarization": model.polarization,
        "temperature_form": model.temperature_form,
        "coefficients": {k: model.coefficients[k] for k in sorted(model.coefficients)},
        "wavelength_range_um": list(model.wavelength_range_um),
        "temperature_range_C": list(model.temperature_range_C),
        "mid_ir_absorptive": model.mid_ir_absorptive,
        "notes": model.notes,
    }
    return json.dumps(doc, indent=2) + "\n"


def _read_material(source) -> SellmeierModel:
    """The material in ``source`` (a path or package resource); a check
    that fails names the file after its own message."""
    doc = read_json(MaterialFileError, source)[0]
    try:
        return material_from_dict(doc)
    except MaterialFileError as exc:
        raise MaterialFileError(f"{exc} (in {str(source)!r})") from exc


def load_material(path: str | Path) -> SellmeierModel:
    return _read_material(Path(path))


def builtin_material_names() -> list[str]:
    root = resources.files("qpmcascade").joinpath("materials")
    return sorted(p.name.removesuffix(".json") for p in root.iterdir() if p.name.endswith(".json"))


@functools.cache
def builtin_material(name: str) -> SellmeierModel:
    """Load a material shipped with the package, e.g. ``lithium_niobate_e``.

    Only a name :func:`builtin_material_names` lists is accepted, so a
    name cannot reach a file outside the package's ``materials`` folder.
    Each name's file is read once per process: the model is frozen, so
    every caller shares one instance.  A refused name is not cached.
    """
    names = builtin_material_names()
    if name not in names:
        raise MaterialFileError(f"no built-in material {name!r}; available: {names}")
    ref = resources.files("qpmcascade").joinpath("materials").joinpath(f"{name}.json")
    return _read_material(ref)
