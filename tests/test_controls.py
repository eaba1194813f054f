import json

import numpy as np
import pytest

from rydghz.controls import (
    CrabExpansion,
    Pulse,
    Waveform,
    boundary_window,
    constant_pulse,
    standard_guess_pulse,
    tabulated_pulse,
)
from rydghz.errors import ValidationError
from rydghz.units import TWO_PI, angular_to_mhz, mhz_to_angular


def test_unit_round_trip_is_exact():
    for value in [0.0, 1.0, 3.8, 24.0, -20.0, 5.0, 0.0063]:
        assert abs(angular_to_mhz(mhz_to_angular(value)) - value) <= 1e-12 * max(1.0, abs(value))
    assert mhz_to_angular(5.0) == TWO_PI * 5.0


def test_guess_peak_value():
    pulse = standard_guess_pulse(1.1)
    omega, delta = pulse.sample(1.1 / 2)
    assert omega == pytest.approx(TWO_PI * 5.0, abs=1e-12)
    assert delta == pytest.approx(0.0, abs=1e-9)


def test_window_pins_endpoints_exactly():
    tau = 1.1
    assert boundary_window(0.0, tau) == 0.0
    assert boundary_window(tau, tau) == 0.0
    rng = np.random.default_rng(0)
    crab = CrabExpansion((1, 2), (0.25, -0.4), (1.7, -0.9), (0.3, 2.2))
    pulse = Pulse(
        tau=tau,
        guess_omega=Waveform("cos12_plateau", {"amplitude": 5.0}),
        guess_delta=Waveform("linear", {"start": -20.0, "stop": 20.0}),
        crab_omega=crab,
        crab_delta=crab,
    )
    for t in (0.0, tau):
        got = pulse.sample_mhz(t)
        ref = standard_guess_pulse(tau).sample_mhz(t)
        assert got[0] == pytest.approx(ref[0], abs=1e-12)
        assert got[1] == pytest.approx(ref[1], abs=1e-12)


def test_clamping_respects_bounds_everywhere():
    crab = CrabExpansion((1,), (0.0,), (40.0,), (15.0,))
    pulse = Pulse(
        tau=1.0,
        guess_omega=Waveform("cos12_plateau", {"amplitude": 5.0}),
        guess_delta=Waveform("linear", {"start": -20.0, "stop": 20.0}),
        crab_omega=crab,
        crab_delta=crab,
    )
    t = np.linspace(0.0, 1.0, 301)
    omega, delta = pulse.sample_mhz(t)
    assert np.all(omega >= 0.0) and np.all(omega <= 5.0)
    assert np.all(delta >= -20.0) and np.all(delta <= 20.0)
    assert np.any(omega == 5.0)  # the huge correction saturates the bound


def test_domain_error_outside_pulse():
    pulse = standard_guess_pulse(1.0)
    with pytest.raises(ValidationError):
        pulse.sample(1.5)
    with pytest.raises(ValidationError):
        pulse.sample(-0.1)


def test_crab_offsets_validated():
    with pytest.raises(ValidationError):
        CrabExpansion((1,), (0.7,), (0.0,), (0.0,))
    with pytest.raises(ValidationError):
        CrabExpansion((1, 2), (0.0,), (0.0,), (0.0,))


def test_crab_frequencies():
    crab = CrabExpansion((1, 2), (0.5, -0.25), (0.0, 0.0), (0.0, 0.0))
    freqs = crab.angular_frequencies(2.0)
    assert freqs[0] == pytest.approx(TWO_PI * 1.5 / 2.0)
    assert freqs[1] == pytest.approx(TWO_PI * 1.75 / 2.0)


def test_serialization_round_trip_bit_exact():
    rng = np.random.default_rng(42)
    crab_o = CrabExpansion((1, 2, 3), tuple(rng.uniform(-0.5, 0.5, 3)),
                           tuple(rng.standard_normal(3)), tuple(rng.standard_normal(3)))
    crab_d = CrabExpansion((1, 2), tuple(rng.uniform(-0.5, 0.5, 2)),
                           tuple(rng.standard_normal(2)), tuple(rng.standard_normal(2)))
    pulse = Pulse(
        tau=1.1,
        guess_omega=Waveform("cos12_plateau", {"amplitude": 5.0}),
        guess_delta=Waveform("tabulated", {"times": [0.0, 0.4, 1.1], "values": [-20.0, 3.3, 20.0]}),
        crab_omega=crab_o,
        crab_delta=crab_d,
        seed=42,
    )
    text = pulse.to_json()
    loaded = Pulse.from_json(text)
    assert loaded.to_json() == text
    t = np.linspace(0.0, 1.1, 57)
    for a, b in zip(pulse.sample(t), loaded.sample(t)):
        assert np.array_equal(a, b)
    # stable key ordering
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_malformed_pulse_file_rejected():
    with pytest.raises(ValidationError):
        Pulse.from_json("{not json")
    with pytest.raises(ValidationError):
        Pulse.from_json(json.dumps({"format": "other"}))
    with pytest.raises(ValidationError):
        Pulse.from_json(json.dumps({"format": "rydghz-pulse", "tau_us": 1.0}))


def test_constant_and_tabulated_builders():
    pulse = constant_pulse(0.1, 5.0, delta_mhz=0.0)
    omega, delta = pulse.sample_mhz(0.05)
    assert omega == 5.0 and delta == 0.0
    tab = tabulated_pulse(1.0, [0.0, 0.5, 1.0], [0.0, 5.0, 0.0], [-20.0, 0.0, 20.0])
    omega, delta = tab.sample_mhz(0.25)
    assert omega == pytest.approx(2.5)
    assert delta == pytest.approx(-10.0)
    assert tab.sample(0.25)[0] == pytest.approx(mhz_to_angular(2.5))


def test_waveform_validation():
    with pytest.raises(ValidationError):
        Waveform("mystery", {})
    with pytest.raises(ValidationError):
        Waveform("tabulated", {"times": [0.0, 0.0, 1.0], "values": [1, 2, 3]})
    with pytest.raises(ValidationError):
        Pulse(
            tau=-1.0,
            guess_omega=Waveform("constant", {"value": 1.0}),
            guess_delta=Waveform("constant", {"value": 0.0}),
        )


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -0.1])
def test_pulse_duration_must_be_finite_and_nonnegative(tau):
    with pytest.raises(ValidationError):
        standard_guess_pulse(tau)
