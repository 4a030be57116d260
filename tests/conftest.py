from types import SimpleNamespace

import pytest

from qpmcascade import modesolver
from qpmcascade.device import load_device, reference_device_path
from qpmcascade.dispersion import BulkIndexProvider, SellmeierModel, builtin_material, sellmeier_index
from qpmcascade.qpm import section_with_solved_period
from qpmcascade.spectral import ProcessKind, Wavelength, dfg_target

OPERATING_T_C = 59.26
PUMP_NM = 2152.9
SIGNAL_NM = 637.2


@pytest.fixture(scope="session")
def lithium_niobate():
    return builtin_material("lithium_niobate_e")


@pytest.fixture(scope="session")
def lithium_tantalate():
    return builtin_material("lithium_tantalate_e")


@pytest.fixture(scope="session")
def ln_provider(lithium_niobate):
    return BulkIndexProvider(lithium_niobate)


@pytest.fixture(scope="session")
def constant_material():
    """Synthetic dispersionless medium, n = 2 everywhere."""
    return SellmeierModel(
        name="toy_constant",
        polarization="none",
        temperature_form="constant",
        coefficients={"n2": 4.0},
        wavelength_range_um=(0.1, 20.0),
        temperature_range_C=(-100.0, 500.0),
    )


@pytest.fixture(scope="session")
def solved_sections(ln_provider):
    """Both sections solved on the exact energy-conserving chain."""
    signal = Wavelength(SIGNAL_NM)
    pump = Wavelength(PUMP_NM)
    step1 = section_with_solved_period(
        "step1", 20.0, ln_provider, ProcessKind.DFG, signal, pump, OPERATING_T_C
    )
    mid = dfg_target(signal, pump)
    step2 = section_with_solved_period(
        "step2", 20.0, ln_provider, ProcessKind.DFG, mid, pump, OPERATING_T_C
    )
    return step1, step2


@pytest.fixture(scope="session")
def reference_device():
    return load_device(reference_device_path())


@pytest.fixture
def fake_solves(lithium_niobate, monkeypatch):
    """Replace eigen-solves by a one-mode stub; yields the (nm, T) solved."""
    solved = []

    def fake_solve(geometry, lam, temp_C, count=1):
        n_eff = sellmeier_index(lithium_niobate, lam, temp_C) - 0.01
        solved.append((lam.nm, temp_C))
        return [SimpleNamespace(mode_index=1, n_eff=n_eff)]

    monkeypatch.setattr(modesolver, "solve_modes", fake_solve)
    return solved
