"""Unit conventions.

User-facing frequencies are ordinary frequencies in MHz; time is in
microseconds; hbar = 1.  Every frequency-like quantity handed to a
Hamiltonian or propagator is an angular frequency in rad/us, so a drive
quoted as "Omega/(2 pi) = 5 MHz" enters the dynamics as 2*pi*5 rad/us.
"""

import math

TWO_PI = 2.0 * math.pi


def mhz_to_angular(value_mhz):
    """Ordinary frequency in MHz -> angular frequency in rad/us."""
    return TWO_PI * value_mhz
