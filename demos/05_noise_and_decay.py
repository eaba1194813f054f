#!/usr/bin/env python3
"""Quenched disorder: how long does the ordering coherence survive?

Each experimental shot freezes one draw of per-site Doppler detunings
(sigma = 0.043 MHz), and the ensemble average over shots dephases the
superposition of the two ordered components.  Because the components
differ in every site's occupation, the random phases add up over N sites
and the coherence falls as a Gaussian with timescale proportional to
1/sqrt(N), a direct fingerprint of N-partite entanglement.

The same disorder, frozen during preparation rather than a hold, drags
the preparation fidelity down; scattering and finite excited-state
lifetime enter as a global survival weight.
"""

import numpy as np

from rydghz.basis import ChainGeometry, enumerate_basis
from rydghz.hamiltonian import LocalShifts, build_terms
from rydghz.noise import NoiseModel, decohered_ghz_coherence, noisy_preparation
from rydghz.optimize import RampSpec, ramp_pulse
from rydghz.propagate import ghz_state
from rydghz.units import TWO_PI

sigma = 0.043

print("hold decay of the prepared superposition, Doppler only:")
print(f"{'N':>4} {'fitted T (us)':>14} {'analytic':>10} {'shape':>22}")
fitted = {}
for n in (8, 12, 20):
    basis = enumerate_basis(ChainGeometry(n))
    analytic = np.sqrt(2.0) / (TWO_PI * sigma * np.sqrt(n))
    grid = np.linspace(0.0, 1.2 * analytic, 25)
    model = NoiseModel.doppler_only(seed=2)
    decay = decohered_ghz_coherence(ghz_state(basis, 0.0), model, grid, n_realizations=800)
    fitted[n] = decay.gaussian_time_us
    shape = ("gaussian beats exponential"
             if decay.gaussian_residual < decay.exponential_residual
             else "exponential fits better")
    print(f"{n:>4} {decay.gaussian_time_us:>14.3f} {analytic:>10.3f} {shape:>22}")

print(f"\nT(8)/T(20) = {fitted[8] / fitted[20]:.3f}, "
      f"sqrt(20/8) = {np.sqrt(2.5):.3f}")
print()

n = 8
basis = enumerate_basis(ChainGeometry(n))
terms = build_terms(basis)
shifts = LocalShifts.preparation_default(n)
pulse = ramp_pulse(RampSpec(kind="linear", total_time_us=1.1))

clean = NoiseModel(doppler_sigma_mhz=0.0, position_sigma=0.0,
                   scattering_time_us=np.inf, rydberg_lifetime_us=np.inf)
full = NoiseModel(seed=3)
baseline = noisy_preparation(pulse, terms, clean, shifts=shifts, n_realizations=1)
noisy = noisy_preparation(pulse, terms, full, shifts=shifts, n_realizations=40)
print(f"linear ramp preparation at N={n}, T=1.1 us:")
print(f"  noiseless fidelity          {baseline.mean_fidelity:.5f}")
print(f"  with disorder and decay     {noisy.mean_fidelity:.5f} "
      f"+- {noisy.fidelity_stderr:.5f}  ({noisy.n_realizations} realizations)")
print(f"  mean survival weight        {float(np.mean(noisy.survivals)):.5f}")
for note in noisy.simplifications:
    print(f"  note: {note}")
