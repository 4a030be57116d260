"""Exception hierarchy shared by all modules, and its array counterpart.

Every error carries a short machine-readable ``code`` so the CLI can emit
single-line diagnostics of the form ``code=<code>, msg=<text>``.  Where a
scalar evaluation raises, an array evaluation masks the element with NaN
instead (:func:`screen`), :func:`masked_cells` can record why and
:func:`mask_counts` tallies the record.

Device and material files share one reader (:func:`read_json`) and one
set of checks (:func:`json_fields`, :func:`json_value`); each names the
file error class it raises.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable

import numpy as np


class ConverterError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class DomainError(ConverterError, ValueError):
    """An argument is outside the mathematical domain of an operation."""

    code = "domain_error"


class RangeError(DomainError):
    """A value violates a declared validity range.

    The message names the violated bound; the offending value and the
    range are kept as attributes for programmatic inspection.
    """

    code = "range_error"

    def __init__(self, quantity: str, value: float, low: float, high: float):
        self.quantity = quantity
        self.value = value
        self.low = low
        self.high = high
        super().__init__(
            f"{quantity}={value!r} outside valid range [{low!r}, {high!r}]"
        )


class CapabilityError(ConverterError):
    """The requested feature is not supported by this object."""

    code = "capability_error"


class NoSolutionError(ConverterError):
    """A root/solution search found nothing inside its window."""

    code = "no_solution"


class DesignError(ConverterError):
    """The requested design is physically impossible (e.g. negative poling period)."""

    code = "design_error"


class MaterialFileError(ConverterError, ValueError):
    """A material data file failed to parse or validate."""

    code = "material_file_error"


class DeviceFileError(ConverterError, ValueError):
    """A device description file failed to parse or validate."""

    code = "device_file_error"


class NumericError(ConverterError, RuntimeError):
    """A numerical procedure failed to converge or produced invalid values."""

    code = "numeric_error"


class RankDeficiencyError(NumericError):
    """The normal matrix of a least-squares problem is singular."""

    code = "rank_deficiency"


def read_json(error: type[ConverterError], source) -> tuple[object, bytes]:
    """The JSON document in ``source`` (a path or package resource) and
    its raw bytes.  Bytes that are not UTF-8 JSON raise ``error``, and so
    does a path Python refuses to open (one holding a NUL); an OS refusal
    stays an :class:`OSError`."""
    try:
        raw = source.read_bytes()
        return json.loads(raw.decode("utf-8")), raw
    except ValueError as exc:
        raise error(f"{str(source)!r}: invalid JSON: {exc}") from exc


_JSON_KINDS = {float: "a number", int: "an integer", str: "a string", bool: "a boolean",
               dict: "a JSON object", list: "a list"}
_FLOAT_MAX = sys.float_info.max


def json_value(error: type[ConverterError], value, kind: type, path: str):
    """``value`` if it is a JSON value of ``kind``, else ``error`` naming ``path``.

    ``kind`` is one of the keys of ``_JSON_KINDS``; a number (float) is
    returned as a float and must be finite, since Python's ``json``
    accepts ``NaN`` and ``Infinity``.  A bool is not a number.
    """
    if not isinstance(value, (int, float) if kind is float else kind) or (
            isinstance(value, bool) and kind is not bool):
        raise error(f"{path} must be {_JSON_KINDS[kind]}, got {value!r}")
    if kind is float and not abs(value) <= _FLOAT_MAX:
        raise error(f"{path} must be a finite number, got {value!r}")
    return float(value) if kind is float else value


def json_fields(error: type[ConverterError], doc, where: str, required: dict, optional: dict,
                prefix: str | None = None) -> dict:
    """The keys ``doc``, a JSON object named ``where``, holds, in its
    order, with their values checked.  ``required`` and ``optional`` map
    each key ``doc`` must or may hold to its :func:`json_value` kind
    (``None``: any), checked in that order and named ``prefix + key``
    (``where + "."`` by default).  An omitted key stays out, so the
    constructor the values go to applies its own default."""
    json_value(error, doc, dict, where)
    unknown = doc.keys() - required.keys() - optional.keys()
    if unknown:
        raise error(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required.keys() - doc.keys()
    if missing:
        raise error(f"missing key(s) {sorted(missing)} in {where}")
    prefix = f"{where}." if prefix is None else prefix
    values = dict(doc)  # each value replaced in place, so the keys keep the file's order
    for key, kind in (*required.items(), *optional.items()):
        if kind is not None and key in values:
            values[key] = json_value(error, values[key], kind, prefix + key)
    return values


# The reasons of the current masked_cells block, if one is open.
_MASK_LOG: ContextVar[list | None] = ContextVar("qpmcascade_mask_log", default=None)


@contextmanager
def masked_cells():
    """Collect ``(reason, mask)``, in evaluation order, for each array
    evaluation inside the block that masks elements.  ``reason`` is what
    the scalar evaluation raises: the violated range quantity (e.g.
    ``"lithium_niobate_e temperature_C"``) or another error's code."""
    log: list[tuple[str, np.ndarray]] = []
    token = _MASK_LOG.set(log)
    try:
        yield log
    finally:
        _MASK_LOG.reset(token)


def mask_counts(log: list[tuple[str, np.ndarray]], shape: tuple[int, ...]) -> dict[str, int]:
    """Masked elements of an array of ``shape`` per reason of a
    :func:`masked_cells` log.  An element counts once, under the first
    reason recorded for it: the error its scalar evaluation raises."""
    counts: dict[str, int] = {}
    claimed = np.zeros(shape, dtype=bool)
    for reason, mask in log:
        new = np.broadcast_to(mask, shape) & ~claimed
        if new.any():
            counts[reason] = counts.get(reason, 0) + int(new.sum())
            claimed |= new
    return counts


def is_array(value) -> bool:
    """Whether ``value`` takes the array path (any numpy array, even 0-d)."""
    return isinstance(value, np.ndarray)


def screen(values, valid, reason: str, error: Callable[[], ConverterError] | None):
    """``values`` where ``valid`` holds.

    On scalars an invalid value raises ``error()``; on arrays invalid
    elements become NaN and the mask is recorded under ``reason``.
    """
    if not (is_array(values) or is_array(valid)):
        if not valid:
            raise error()
        return values
    log = _MASK_LOG.get()
    if log is not None and not np.all(valid):
        log.append((reason, np.logical_not(valid)))
    return np.where(valid, values, np.nan)
