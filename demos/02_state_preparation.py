#!/usr/bin/env python3
"""Compare preparation ramps: sweep speed against fidelity.

A chain starting in |00...0> is dragged across the phase transition by
chirping the detuning from -20 to +20 MHz under a fixed-amplitude drive.
A linear chirp loses fidelity near the minimum gap; reshaping the same
chirp so it slows down exactly where the gap closes (weighting the local
sweep rate by the inverse diabaticity) recovers most of the loss at no
extra duration.
"""

import numpy as np

from rydghz.basis import ChainGeometry, enumerate_basis
from rydghz.hamiltonian import LocalShifts, build_terms
from rydghz.optimize import (
    FigureOfMerit,
    PreparationSimulator,
    RampSpec,
    diabaticity_schedule,
    eigenpopulation_trace,
    ramp_pulse,
)

N = 8
basis = enumerate_basis(ChainGeometry(N))
terms = build_terms(basis)
shifts = LocalShifts.preparation_default(N)
simulator = PreparationSimulator(terms, shifts)
fom = FigureOfMerit()

print(f"chain of {N} sites, blockaded dimension {basis.dim}")
print(f"{'T (us)':>8} {'linear':>10} {'local-adiabatic':>16}")
for total_time in (0.6, 0.8, 1.1, 1.5, 2.0):
    linear = ramp_pulse(RampSpec(kind="linear", total_time_us=total_time))
    spec = RampSpec(kind="local_adiabatic", total_time_us=total_time)
    schedule = diabaticity_schedule(spec, terms, shifts=shifts)
    shaped = ramp_pulse(spec, schedule=schedule)
    f_lin = simulator.evaluate(linear, fom)
    f_la = simulator.evaluate(shaped, fom)
    print(f"{total_time:>8.2f} {f_lin:>10.5f} {f_la:>16.5f}")

# where does the linear ramp lose population?  Track the instantaneous
# eigenbasis along the pulse.
pulse = ramp_pulse(RampSpec(kind="linear", total_time_us=1.1))
trace = eigenpopulation_trace(pulse, terms, shifts=shifts, m=6, n_times=41)
ground = trace.ground_populations()
worst = int(np.argmin(ground))
print()
print(f"linear ramp at T=1.1: instantaneous ground population dips to "
      f"{ground[worst]:.4f} at t={trace.times_us[worst]:.3f} us")

# the shaped ramp slows down around that moment; its slew-rate profile
# shows the crawl window directly.
spec = RampSpec(kind="local_adiabatic", total_time_us=1.1)
schedule = diabaticity_schedule(spec, terms, shifts=shifts)
shaped = ramp_pulse(spec, schedule=schedule)
shaped_trace = eigenpopulation_trace(shaped, terms, shifts=shifts, m=6,
                                     n_times=41)
region = shaped_trace.quench_regions()
if region is not None:
    print(f"shaped ramp slew rate stays low from {region[0]:.3f} us to "
          f"{region[1]:.3f} us, covering the dip")
print(f"shaped ramp final ground population: "
      f"{shaped_trace.ground_populations()[-1]:.4f}")
