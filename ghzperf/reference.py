"""Reference computations for the benchmark's output checks.

Nothing here calls into rydghz: Hamiltonians are rebuilt from raw
bitstrings, pulses are read back from their JSON form, detection
confusion matrices come from ``math.comb``, and the edge partial trace
is taken by string slicing.  Each function states the convention it
reproduces, so a disagreement with the program points at one of the two.

Conventions (from the package's documented problem statement): site 1 is
the most significant bit of a configuration's integer value, frequencies
are MHz and enter the dynamics multiplied by 2 pi, the drive is
(Omega/2) sum_i sigma_x restricted to blockaded configurations, the
interaction is V/d^6 n_i n_j out to d = 3 with V = 24 MHz, and the
detuning term is -(Delta + shift_i) n_i.
"""

import math

import numpy as np
import scipy.linalg
from scipy import sparse

TWO_PI = 2.0 * math.pi
V_MHZ = 24.0
INTERACTION_RANGE = 3


# ---------------------------------------------------------------------------
# configurations and Hamiltonians


def blockaded_patterns(n_sites):
    """Bitstrings with no two adjacent '1', ascending by integer value."""
    patterns = [""]
    for _ in range(n_sites):
        patterns = [p + "0" for p in patterns] + [
            p + "1" for p in patterns if not p.endswith("1")
        ]
    return sorted(patterns, key=lambda s: int(s, 2))


def ghz_patterns(n_sites):
    """(A, Abar) = ('0101...01', '1010...10')."""
    return "01" * (n_sites // 2), "10" * (n_sites // 2)


class ChainOperators:
    """Drive template, static diagonal and number diagonal of one chain.

    ``shifts_mhz`` are per-site detuning offsets and ``bond_factors``
    multiply the nearest-neighbour interaction of each bond.
    """

    def __init__(self, n_sites, shifts_mhz=None, bond_factors=None, dense=True):
        self.n_sites = n = n_sites
        self.patterns = blockaded_patterns(n)
        self.index = {p: i for i, p in enumerate(self.patterns)}
        self.dim = len(self.patterns)
        shifts = np.zeros(n) if shifts_mhz is None else np.asarray(shifts_mhz, float)
        bonds = np.ones(n - 1) if bond_factors is None else np.asarray(bond_factors, float)
        static = np.zeros(self.dim)
        number = np.zeros(self.dim)
        rows, cols = [], []
        for i, s in enumerate(self.patterns):
            occ = [c == "1" for c in s]
            energy = 0.0
            for a in range(n):
                if not occ[a]:
                    continue
                number[i] += 1.0
                energy -= TWO_PI * shifts[a]
                for d in range(1, INTERACTION_RANGE + 1):
                    if a + d < n and occ[a + d]:
                        strength = TWO_PI * V_MHZ / d**6
                        energy += strength * (bonds[a] if d == 1 else 1.0)
            static[i] = energy
            for a in range(n):
                flipped = s[:a] + ("0" if occ[a] else "1") + s[a + 1:]
                j = self.index.get(flipped)
                if j is not None:
                    rows.append(i)
                    cols.append(j)
        self.static = static
        self.number = number
        drive = sparse.csr_matrix(
            (np.full(len(rows), 0.5), (rows, cols)), shape=(self.dim, self.dim)
        )
        self.drive = drive.toarray() if dense else drive

    def hamiltonian(self, omega_rad, delta_rad):
        diag = self.static - delta_rad * self.number
        if isinstance(self.drive, np.ndarray):
            return omega_rad * self.drive + np.diag(diag)
        return sparse.csr_matrix(omega_rad * self.drive + sparse.diags(diag))

    def basis_vector(self, pattern):
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index[pattern]] = 1.0
        return vec

    def ghz_fidelity(self, amplitudes):
        """|<(A + Abar)/sqrt 2 | psi>|^2."""
        a, abar = ghz_patterns(self.n_sites)
        return float(abs(amplitudes[self.index[a]] + amplitudes[self.index[abar]]) ** 2 / 2.0)


# ---------------------------------------------------------------------------
# pulses from their JSON form


def _waveform(spec, t, tau):
    kind, params = spec["kind"], spec["params"]
    if kind == "constant":
        return float(params["value"])
    if kind == "linear":
        return params["start"] + (params["stop"] - params["start"]) * t / tau
    if kind == "cos12_plateau":
        return params["amplitude"] * (1.0 - math.cos(math.pi * t / tau) ** 12)
    if kind == "tabulated":
        return float(np.interp(t, params["times"], params["values"]))
    raise ValueError(f"unknown waveform {kind!r}")


def _correction(crab, t, tau):
    total = 0.0
    for k, r, a, b in zip(crab["harmonics"], crab["r"], crab["a"], crab["b"]):
        w = TWO_PI * (k + r) / tau
        total += a * math.sin(w * t) + b * math.cos(w * t)
    return total * math.sin(math.pi * t / tau) ** 2


def pulse_controls(pulse_dict, t):
    """Clamped (omega, delta) in rad/us at time t from a pulse's JSON dict."""
    tau = pulse_dict["tau_us"]
    out = []
    for name in ("omega", "delta"):
        control = pulse_dict[name]
        value = _waveform(control["guess"], t, tau) + _correction(control["crab"], t, tau)
        lo, hi = control["bounds_mhz"]
        out.append(TWO_PI * min(max(value, lo), hi))
    return out


def dense_evolve(ops, pulse_dict, psi0, dt, observer=None):
    """Midpoint-sampled evolution with one dense ``expm`` per step."""
    tau = pulse_dict["tau_us"]
    n_steps = max(1, int(round(tau / dt)))
    h = tau / n_steps
    psi = np.asarray(psi0, dtype=complex).copy()
    for step in range(n_steps):
        omega, delta = pulse_controls(pulse_dict, (step + 0.5) * h)
        psi = scipy.linalg.expm(-1j * h * ops.hamiltonian(omega, delta)) @ psi
        if observer is not None:
            observer(psi, h)
    return psi


def preparation_fidelity(n_sites, pulse_dict, shifts_mhz, dt):
    """Phase-0 GHZ fidelity reached from all-ground, full basis."""
    ops = ChainOperators(n_sites, shifts_mhz)
    psi = dense_evolve(ops, pulse_dict, ops.basis_vector("0" * n_sites), dt)
    return ops.ghz_fidelity(psi)


def disorder_draw(seed, realization, n_sites, doppler_sigma_mhz, position_sigma):
    """Quenched draw keyed by (seed, realization): Gaussian detuning
    offsets, then lognormal bond multipliers clamped to [0.5, 2]."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, realization)))
    offsets = rng.normal(0.0, doppler_sigma_mhz, size=n_sites)
    bonds = np.clip(rng.lognormal(0.0, position_sigma, size=n_sites - 1), 0.5, 2.0)
    return offsets, bonds


def noisy_realization(n_sites, pulse_dict, shifts_mhz, offsets, bonds, dt,
                      lifetime_us, scattering_us):
    """(survival-weighted fidelity, survival) of one disorder realization.

    The lifetime weight integrates the mean excitation after each step;
    scattering acts on N/2 atoms for the whole pulse.
    """
    ops = ChainOperators(n_sites, np.asarray(shifts_mhz) + offsets, bonds)
    excitation_time = [0.0]

    def accumulate(psi, h):
        excitation_time[0] += float(ops.number @ np.abs(psi) ** 2) * h

    psi = dense_evolve(ops, pulse_dict, ops.basis_vector("0" * n_sites), dt, accumulate)
    survival = math.exp(
        -excitation_time[0] / lifetime_us
        - pulse_dict["tau_us"] * 0.5 * n_sites / scattering_us
    )
    return survival * ops.ghz_fidelity(psi), survival


# ---------------------------------------------------------------------------
# edge pair


def edge_partial_trace(n_sites, amplitudes):
    """Reduced density matrix of sites (1, N) in the order 00, 01, 10, 11."""
    patterns = blockaded_patterns(n_sites)
    rows = {}
    for s, amp in zip(patterns, amplitudes):
        rows.setdefault(s[1:-1], np.zeros(4, dtype=complex))[int(s[0] + s[-1], 2)] += amp
    rho = np.zeros((4, 4), dtype=complex)
    for vec in rows.values():
        rho += np.outer(vec, vec.conj())
    return rho


# ---------------------------------------------------------------------------
# detection


def binomial_transfer(n_slots, p10, p01):
    """T[m, n] = P(read m ones | n true ones) over n_slots sites."""
    t = np.zeros((n_slots + 1, n_slots + 1))
    for n in range(n_slots + 1):
        for kept in range(n + 1):
            p_kept = math.comb(n, kept) * (1 - p01) ** kept * p01 ** (n - kept)
            for raised in range(n_slots - n + 1):
                p_raised = (
                    math.comb(n_slots - n, raised) * p10**raised
                    * (1 - p10) ** (n_slots - n - raised)
                )
                t[kept + raised, n] += p_kept * p_raised
    return t


def sublattice_groups(n_sites):
    """(k_odd, k_even) per group, ordered by (k, M) with M = 2(k_even - k_odd)."""
    half = n_sites // 2
    pairs = [(ko, ke) for ko in range(half + 1) for ke in range(half + 1)]
    return sorted(pairs, key=lambda p: (p[0] + p[1], 2 * (p[1] - p[0])))


def sublattice_confusion(n_sites, p10, p01):
    """Group confusion for the joint (k, M) grouping: product of the two
    sublattices' binomial transfers."""
    t = binomial_transfer(n_sites // 2, p10, p01)
    groups = sublattice_groups(n_sites)
    return np.array(
        [[t[mo, no] * t[me, ne] for no, ne in groups] for mo, me in groups]
    )


def misread_rates(n_sites, all_ground_entry, full_even_entry):
    """(p10, p01) read back from two entries of a sublattice confusion matrix.

    ``all_ground_entry`` is P(all read 0 | all 0) = (1 - p10)^N and
    ``full_even_entry`` is P(all read 0 | even sublattice full, odd empty)
    = p01^(N/2) (1 - p10)^(N/2).
    """
    half = n_sites // 2
    p10 = 1.0 - all_ground_entry ** (1.0 / n_sites)
    p01 = (full_even_entry / (1.0 - p10) ** half) ** (1.0 / half)
    return p10, p01


def kkt_violation(distribution, observed, confusion):
    """Largest violation of the optimality conditions of
    min ||M v - w||^2 over the probability simplex.

    With g = M^T (M v - w) there must be a multiplier lam such that
    g_i + lam = 0 where v_i > 0 and g_i + lam >= 0 where v_i = 0.
    Simplex feasibility (v >= 0, sum v = 1) is folded in.
    """
    v = np.asarray(distribution, float)
    grad = confusion.T @ (confusion @ v - np.asarray(observed, float))
    support = v > 0.0
    lam = -float(np.mean(grad[support]))
    parts = [abs(v.sum() - 1.0), max(0.0, -float(v.min()))]
    parts.append(float(np.max(np.abs(grad[support] + lam))))
    if (~support).any():
        parts.append(max(0.0, -float(np.min(grad[~support] + lam))))
    return max(parts)


def sublattice_group_distribution(n_sites, amplitudes):
    """Exact grouped distribution of a state over the (k, M) groups."""
    groups = {g: i for i, g in enumerate(sublattice_groups(n_sites))}
    out = np.zeros(len(groups))
    for s, amp in zip(blockaded_patterns(n_sites), amplitudes):
        out[groups[(s[0::2].count("1"), s[1::2].count("1"))]] += abs(amp) ** 2
    return out
