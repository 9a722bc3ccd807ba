"""Tests for repro.assist.circuitry (the Fig. 8/9 behaviours)."""

import pytest

from repro.assist.circuitry import AssistCircuit, AssistCircuitConfig
from repro.assist.modes import AssistMode
from repro.errors import NetlistError


@pytest.fixture(scope="module")
def circuit() -> AssistCircuit:
    return AssistCircuit()


@pytest.fixture(scope="module")
def operating_points(circuit):
    return {mode: circuit.solve_mode(mode) for mode in AssistMode}


class TestNormalMode:
    def test_load_sees_most_of_the_supply(self, operating_points):
        normal = operating_points[AssistMode.NORMAL]
        assert normal.load_swing_v > 0.8

    def test_grid_currents_flow_forward(self, operating_points):
        normal = operating_points[AssistMode.NORMAL]
        assert normal.vdd_grid_current_a > 0.0
        assert normal.vss_grid_current_a > 0.0

    def test_grid_and_load_currents_agree(self, operating_points):
        """One series path: grid current equals load current."""
        normal = operating_points[AssistMode.NORMAL]
        assert normal.vdd_grid_current_a == pytest.approx(
            normal.load_current_a, rel=1e-3)

    def test_supply_delivers_the_load_current(self, operating_points):
        normal = operating_points[AssistMode.NORMAL]
        assert normal.supply_current_a == pytest.approx(
            normal.load_current_a, rel=0.05)


class TestEmRecoveryMode:
    def test_grid_current_is_reversed(self, operating_points):
        """Fig. 9(a): current direction reverses in EM mode."""
        em = operating_points[AssistMode.EM_RECOVERY]
        assert em.vdd_grid_current_a < 0.0
        assert em.vss_grid_current_a < 0.0

    def test_magnitude_is_preserved(self, operating_points):
        """Fig. 9(a): same absolute current, guaranteed by symmetry."""
        normal = operating_points[AssistMode.NORMAL]
        em = operating_points[AssistMode.EM_RECOVERY]
        assert abs(em.vdd_grid_current_a) == pytest.approx(
            normal.vdd_grid_current_a, rel=1e-6)

    def test_load_still_operates_normally(self, operating_points):
        """The load keeps its polarity and current in EM mode."""
        normal = operating_points[AssistMode.NORMAL]
        em = operating_points[AssistMode.EM_RECOVERY]
        assert em.load_current_a == pytest.approx(
            normal.load_current_a, rel=1e-6)
        assert em.load_swing_v == pytest.approx(
            normal.load_swing_v, rel=1e-6)


class TestBtiRecoveryMode:
    def test_rails_are_swapped(self, operating_points):
        """Fig. 9(b): load VDD and VSS values are switched."""
        bti = operating_points[AssistMode.BTI_RECOVERY]
        assert bti.load_vss_v > bti.load_vdd_v

    def test_paper_voltage_levels(self, operating_points):
        """Fig. 9(b): ~0.816 V on load-VSS, ~0.223 V on load-VDD."""
        bti = operating_points[AssistMode.BTI_RECOVERY]
        assert bti.load_vss_v == pytest.approx(0.816, abs=0.05)
        assert bti.load_vdd_v == pytest.approx(0.223, abs=0.05)

    def test_droop_is_around_200mv(self, operating_points):
        """The paper reports ~0.2-0.3 V of pass-device droop."""
        bti = operating_points[AssistMode.BTI_RECOVERY]
        config = AssistCircuitConfig()
        droop_top = config.supply_v - bti.load_vss_v
        droop_bottom = bti.load_vdd_v
        assert 0.1 < droop_top < 0.3
        assert 0.1 < droop_bottom < 0.3

    def test_reverse_bias_exceeds_the_experiment_level(self,
                                                       operating_points):
        """-0.593 V across the idle load comfortably exceeds the
        -0.3 V the Table I experiments used."""
        bti = operating_points[AssistMode.BTI_RECOVERY]
        assert bti.load_vss_v - bti.load_vdd_v > 0.3

    def test_grids_carry_no_current(self, operating_points):
        bti = operating_points[AssistMode.BTI_RECOVERY]
        assert abs(bti.vdd_grid_current_a) < 1e-6
        assert abs(bti.vss_grid_current_a) < 1e-6


class TestModeSwitching:
    def test_switching_time_is_nanoseconds(self, circuit):
        switching = circuit.switching_time_s(AssistMode.NORMAL,
                                             AssistMode.BTI_RECOVERY)
        assert 1e-9 < switching < 100e-9

    def test_same_mode_switch_rejected(self, circuit):
        with pytest.raises(ValueError, match="two different modes"):
            circuit.switching_time_s(AssistMode.NORMAL, AssistMode.NORMAL)

    def test_transient_reaches_the_dc_target(self, circuit):
        target = circuit.solve_mode(AssistMode.BTI_RECOVERY)
        result = circuit.mode_switch_transient(
            AssistMode.NORMAL, AssistMode.BTI_RECOVERY,
            stop_s=200e-9, dt_s=0.5e-9)
        assert result.voltage("lvss")[-1] == pytest.approx(
            target.load_vss_v, abs=0.02)
        assert result.voltage("lvdd")[-1] == pytest.approx(
            target.load_vdd_v, abs=0.02)

    def test_set_mode_tracks_state(self, circuit):
        circuit.set_mode(AssistMode.NORMAL)
        assert circuit.mode is AssistMode.NORMAL


class TestAgedAssistCircuit:
    """The assist circuitry itself wears out; its modes must survive."""

    @pytest.fixture()
    def aged(self) -> AssistCircuit:
        circuit = AssistCircuit()
        circuit.age_devices(0.05)
        return circuit

    def test_em_reversal_survives_aging(self, aged):
        normal = aged.solve_mode(AssistMode.NORMAL)
        em = aged.solve_mode(AssistMode.EM_RECOVERY)
        assert em.vdd_grid_current_a < 0.0 < normal.vdd_grid_current_a
        assert abs(em.vdd_grid_current_a) == pytest.approx(
            normal.vdd_grid_current_a, rel=1e-6)

    def test_bti_swap_survives_aging(self, aged):
        bti = aged.solve_mode(AssistMode.BTI_RECOVERY)
        assert bti.load_vss_v - bti.load_vdd_v > 0.3

    def test_aged_circuit_delivers_less_current(self, aged):
        fresh = AssistCircuit().solve_mode(AssistMode.NORMAL)
        worn = aged.solve_mode(AssistMode.NORMAL)
        assert worn.load_current_a < fresh.load_current_a

    def test_rejects_negative_aging(self):
        with pytest.raises(NetlistError):
            AssistCircuit().age_devices(-0.01)


class TestConfigValidation:
    def test_rejects_non_positive_supply(self):
        with pytest.raises(NetlistError):
            AssistCircuitConfig(supply_v=0.0)

    def test_rejects_zero_loads(self):
        with pytest.raises(NetlistError):
            AssistCircuitConfig(n_loads=0)

    def test_rejects_bad_grid_resistance(self):
        with pytest.raises(NetlistError):
            AssistCircuitConfig(grid_resistance_ohm=-1.0)
