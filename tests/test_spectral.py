import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpmcascade.errors import DomainError
from qpmcascade.spectral import C_NM_THZ, ProcessKind, Wavelength, dfg_target, output_nm

SFG = ProcessKind.SFG


class TestWavelengthFrequency:
    def test_known_frequencies(self):
        assert Wavelength(1532.8).thz == pytest.approx(195.585, abs=1e-3)
        assert Wavelength(2152.9).thz == pytest.approx(139.251, abs=1e-3)
        diff = Wavelength(1532.8).thz - Wavelength(2152.9).thz
        assert diff == pytest.approx(56.334, abs=1e-3)

    def test_speed_of_light_definition(self):
        assert Wavelength(C_NM_THZ).thz == 1.0

    def test_hand_evaluated_point(self):
        # c / 1561.6 computed by hand
        assert Wavelength(1561.6).thz == pytest.approx(191.978, abs=1e-3)

    def test_round_trip_relative_error(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            lam = float(rng.uniform(100.0, 20000.0))
            back = Wavelength(C_NM_THZ / Wavelength(lam).thz).nm
            assert abs(back - lam) / lam < 1e-9

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_inputs_rejected(self, bad):
        with pytest.raises(DomainError):
            Wavelength(bad)


class TestDfgTarget:
    def test_first_step(self):
        assert dfg_target(Wavelength(637.2), Wavelength(2152.9)).nm == pytest.approx(905.08, abs=0.01)

    def test_second_step(self):
        assert dfg_target(Wavelength(905.1), Wavelength(2152.9)).nm == pytest.approx(1561.62, abs=0.01)

    def test_target_longer_than_signal(self):
        out = dfg_target(Wavelength(637.2), Wavelength(2152.9))
        assert out.nm > 637.2

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DomainError):
            dfg_target(Wavelength(1000.0), Wavelength(1000.0))

    def test_pump_more_energetic_rejected(self):
        with pytest.raises(DomainError):
            dfg_target(Wavelength(1000.0), Wavelength(900.0))


class TestSfgOutput:
    def test_second_harmonic(self):
        # SHG is the SFG of two equal inputs
        assert output_nm(SFG, 2152.9, 2152.9) == pytest.approx(1076.45, abs=0.01)

    def test_thermal_band(self):
        assert output_nm(SFG, 2152.9, 5321.7) == pytest.approx(1532.8, abs=0.05)

    def test_commutative_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = float(rng.uniform(400.0, 6000.0))
            b = float(rng.uniform(400.0, 6000.0))
            assert output_nm(SFG, a, b) == output_nm(SFG, b, a)


class TestEnergyConservation:
    def test_dfg_then_sfg_recovers_signal(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            signal = Wavelength(float(rng.uniform(500.0, 1500.0)))
            pump = Wavelength(signal.nm * float(rng.uniform(1.5, 6.0)))
            target = dfg_target(signal, pump)
            recovered = output_nm(SFG, target.nm, pump.nm)
            assert abs(recovered - signal.nm) / signal.nm < 1e-9

    def test_wavelength_ordering_helpers(self):
        assert Wavelength(500.0) < Wavelength(600.0)
        assert Wavelength(1500.0).um == pytest.approx(1.5)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(list(ProcessKind)),
    lam_in=st.floats(100.0, 20000.0),
    ratio=st.floats(1.0 + 1e-6, 50.0),
)
@example(kind=SFG, lam_in=2152.9, ratio=1.0)  # pump SHG
def test_output_conserves_photon_energy(kind, lam_in, ratio):
    """1/in = 1/out + 1/pump for DFG and 1/out = 1/in + 1/pump for SFG,
    to a few ulps of the largest photon energy; the array call gives the
    scalar call's value."""
    lam_pump = lam_in * ratio
    out = output_nm(kind, lam_in, lam_pump)
    if kind is ProcessKind.DFG:
        high, balance = 1.0 / lam_in, 1.0 / lam_in - 1.0 / out - 1.0 / lam_pump
    else:
        high, balance = 1.0 / out, 1.0 / out - 1.0 / lam_in - 1.0 / lam_pump
    assert abs(balance) <= 1e-15 * high
    assert output_nm(kind, np.array([lam_in]), np.array([lam_pump]))[0] == out
