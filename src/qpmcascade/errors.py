"""Exception hierarchy shared by all modules, and its array counterpart.

Every error carries a short machine-readable ``code`` so the CLI can emit
single-line diagnostics of the form ``code=<code>, msg=<text>``.  Where a
scalar evaluation raises, an array evaluation masks the element with NaN
instead (:func:`screen`), :func:`masked_cells` can record why and
:func:`mask_counts` tallies the record.
"""

from __future__ import annotations

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
