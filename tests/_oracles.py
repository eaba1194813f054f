"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written against the problem statement
rather than the package internals: brute-force enumeration over raw
bitstrings, dense matrix exponentials, and closed-form expressions.
"""

import numpy as np
import scipy.linalg

TWO_PI = 2.0 * np.pi


def brute_force_patterns(n_sites, max_adjacent_pairs=0):
    """All length-N bitstrings with at most the given number of '11' pairs,
    in ascending integer order (leftmost character = site 1 = MSB)."""
    out = []
    for v in range(1 << n_sites):
        s = format(v, f"0{n_sites}b")
        pairs = sum(1 for i in range(n_sites - 1) if s[i] == "1" and s[i + 1] == "1")
        if pairs <= max_adjacent_pairs:
            out.append(s)
    return out


def brute_force_sector_dims(n_sites, max_adjacent_pairs=0):
    """(even, odd) reflection-sector dimensions by explicit symmetrization."""
    patterns = brute_force_patterns(n_sites, max_adjacent_pairs)
    seen = set()
    fixed = 0
    pairs = 0
    for s in patterns:
        if s in seen:
            continue
        rev = s[::-1]
        if rev == s:
            fixed += 1
            seen.add(s)
        else:
            pairs += 1
            seen.add(s)
            seen.add(rev)
    return fixed + pairs, pairs


def dense_hamiltonian(basis, shifts_mhz, omega_rad, delta_rad, v_mhz=24.0,
                      interaction_range=3, bond_factors=None, drive_sites=None,
                      drive_phase=0.0):
    """Dense H built independently from the configuration bitstrings.

    bond_factors, one per nearest-neighbour bond, scale that bond's
    interaction.  The drive acts on drive_sites (1-based, all by default)
    at laser phase drive_phase: (omega/2) e^{-i phase} |1><0| per site plus
    its conjugate.
    """
    n = basis.n_sites
    dim = basis.dim
    driven = range(n) if drive_sites is None else [s - 1 for s in drive_sites]
    up = np.exp(-1j * drive_phase) if drive_phase else 1.0
    h = np.zeros((dim, dim), dtype=complex if drive_phase else float)
    patterns = [basis.pattern_string(i) for i in range(dim)]
    index = {p: i for i, p in enumerate(patterns)}
    shifts = np.zeros(n) if shifts_mhz is None else np.asarray(shifts_mhz, float)
    for i, s in enumerate(patterns):
        bits = [int(c) for c in s]
        diag = 0.0
        for a in range(n):
            diag -= (delta_rad + TWO_PI * shifts[a]) * bits[a]
            for b_ in range(a + 1, n):
                if b_ - a <= interaction_range:
                    factor = 1.0 if bond_factors is None or b_ - a > 1 else bond_factors[a]
                    diag += factor * TWO_PI * v_mhz / (b_ - a) ** 6 * bits[a] * bits[b_]
        h[i, i] = diag
        for a in driven:
            flipped = s[:a] + ("1" if s[a] == "0" else "0") + s[a + 1:]
            j = index.get(flipped)
            if j is not None:
                h[i, j] += omega_rad / 2.0 * (up if s[a] == "1" else np.conj(up))
    return h


def constant_drive_propagator(basis, omega_rad, duration, drive_sites=None,
                              drive_phase=0.0):
    """exp(-i duration H) of a resonant constant drive, by one dense
    matrix exponential of dense_hamiltonian."""
    h = dense_hamiltonian(basis, None, omega_rad, 0.0, drive_sites=drive_sites,
                          drive_phase=drive_phase)
    return scipy.linalg.expm(-1j * duration * h)


def dense_evolve(basis, pulse, shifts_mhz, psi0, dt, v_mhz=24.0,
                 interaction_range=3):
    """Midpoint-sampled evolution with dense per-step matrix exponentials.

    Each step exponentiates the Hermitian H through its eigendecomposition,
    exp(-i h H) = V exp(-i h w) V^dag.
    """
    tau = pulse.tau
    n_steps = max(1, int(round(tau / dt)))
    h_step = tau / n_steps
    amps = np.asarray(psi0, dtype=complex).copy()
    for step in range(n_steps):
        omega_rad, delta_rad = pulse.sample((step + 0.5) * h_step)
        h = dense_hamiltonian(
            basis, shifts_mhz, float(omega_rad), float(delta_rad),
            v_mhz=v_mhz, interaction_range=interaction_range,
        )
        w, v = np.linalg.eigh(h)
        amps = v @ (np.exp(-1j * h_step * w) * (v.conj().T @ amps))
    return amps


def even_sector_isometry(basis):
    """Columns spanning the reflection-even states, built from the pattern
    strings: |s> for a palindrome, (|s> + |reverse s>)/sqrt(2) otherwise."""
    patterns = [basis.pattern_string(i) for i in range(basis.dim)]
    index = {p: i for i, p in enumerate(patterns)}
    columns = []
    for i, s in enumerate(patterns):
        j = index[s[::-1]]
        if j < i:
            continue
        column = np.zeros(basis.dim)
        column[[i, j]] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
        columns.append(column)
    return np.array(columns).T


def dense_diabatic_weight(basis, shifts_mhz, omega_rad, delta_rad, omega_slope_rad,
                          delta_slope_rad, even_sector=False):
    """sqrt(sum_n |<n|dH/ds|0>|^2 / (E_n - E_0)^2) over every excited state.

    One full eigendecomposition of dense_hamiltonian; dH/ds = omega' drive
    - delta' n is dense_hamiltonian with no interactions or shifts at
    (omega', delta').  With even_sector both are first restricted to the
    reflection-even states of even_sector_isometry.
    """
    h = dense_hamiltonian(basis, shifts_mhz, omega_rad, delta_rad)
    dh = dense_hamiltonian(basis, None, omega_slope_rad, delta_slope_rad, v_mhz=0.0)
    if even_sector:
        p = even_sector_isometry(basis)
        h, dh = p.T @ h @ p, p.T @ dh @ p
    evals, vecs = np.linalg.eigh(h)
    elements = vecs[:, 1:].conj().T @ (dh @ vecs[:, 0])
    return float(np.sqrt(np.sum(np.abs(elements) ** 2 / (evals[1:] - evals[0]) ** 2)))


def classical_diagonal_energies(basis, shifts_mhz, delta_rad, v_mhz=24.0,
                                interaction_range=3):
    """Diagonal energies at omega = 0, for classical minimization checks."""
    h = dense_hamiltonian(basis, shifts_mhz, 0.0, delta_rad, v_mhz=v_mhz,
                          interaction_range=interaction_range)
    return np.diag(h).copy()


def two_qubit_parity_after_rotations(state4, phi, pulses=1):
    """Parity <sz sz> after `pulses` pi/2 rotations at laser phase phi.

    The single-qubit rotation is exp(-i (pi/4) (cos phi sx + sin phi sy)),
    the textbook parity-fringe analysis pulse.
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    u1 = scipy.linalg.expm(-1j * (np.pi / 4) * (np.cos(phi) * sx + np.sin(phi) * sy))
    u = np.kron(u1, u1)
    psi = np.asarray(state4, dtype=complex)
    for _ in range(pulses):
        psi = u @ psi
    parity = np.array([1.0, -1.0, -1.0, 1.0])
    return float(np.real(np.vdot(psi, parity * psi)))


def gaussian_coherence_modulus(t, sigma_mhz, n_sites):
    """Quenched Doppler dephasing of the staggered coherence: closed form."""
    return np.exp(-((TWO_PI * sigma_mhz * np.asarray(t)) ** 2) * n_sites / 2.0)


def single_dimer_contrast(omega_rad, times):
    """Parity contrast of one isolated dimer under the spin-1 transverse drive.

    H = (Omega/sqrt(2)) S_x on {|+>, |0>, |->};  contrast(t) is the parity
    difference between the two opposite-phase superpositions of |+>, |->.
    """
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
    h = (omega_rad / np.sqrt(2)) * sx
    parity = np.array([-1.0, 1.0, -1.0])
    plus = np.array([1, 0, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, 0, -1], dtype=complex) / np.sqrt(2)
    out = []
    for t in np.atleast_1d(times):
        u = scipy.linalg.expm(-1j * h * t)
        pp = np.real(np.vdot(u @ plus, parity * (u @ plus)))
        pm = np.real(np.vdot(u @ minus, parity * (u @ minus)))
        out.append((pp - pm) / 2.0)
    return np.asarray(out)


def random_ghz_like_density_matrix(rng, dim, i_a, i_abar):
    """Random trace-one PSD matrix with a boosted GHZ block."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    w = rng.uniform(0.0, 0.9)
    phi = rng.uniform(0.0, TWO_PI)
    ghz = np.zeros(dim, dtype=complex)
    ghz[i_a] = 1.0 / np.sqrt(2.0)
    ghz[i_abar] = np.exp(1j * phi) / np.sqrt(2.0)
    rho = (1.0 - w) * rho + w * np.outer(ghz, ghz.conj())
    return rho


def ideal_rotation_readout(basis):
    """Noninteracting product rotation, for readout substitution tests.

    Embeds the state into the unconstrained configuration space and applies
    exp(-i (pi/4) sigma_x), a pi/2 rotation, on every site.  The scan takes
    a readout as a map between the package's state vectors, so this one
    returns a StateVector over the unconstrained Basis.  Only practical for
    small chains (2^N amplitudes).
    """
    from rydghz.basis import ChainGeometry, enumerate_basis
    from rydghz.errors import ValidationError
    from rydghz.propagate import StateVector

    n = basis.n_sites
    if n > 14:
        raise ValidationError("product-rotation readout is limited to short chains")
    full = enumerate_basis(ChainGeometry(n, max_adjacent_pairs=max(n - 1, 0)))
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    single = np.array([[c, -1j * s], [-1j * s, c]])
    rotation = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        rotation = np.kron(rotation, single)

    def apply(psi):
        vec = np.zeros(full.dim, dtype=complex)
        vec[psi.space.configs] = psi.amplitudes  # config value == full-basis index
        return StateVector(full, rotation @ vec)

    return apply


def evolve_under_diagonal(psi, generator_diag, duration):
    """Exact phases exp(-i g T) for a diagonal generator in rad/us; a
    full-basis generator is reduced onto a sector state's space."""
    from rydghz.basis import SymmetrizedBasis
    from rydghz.errors import ValidationError
    from rydghz.propagate import StateVector

    g = np.asarray(generator_diag, dtype=float)
    if isinstance(psi.space, SymmetrizedBasis) and g.shape == (psi.space.basis.dim,):
        g = psi.space.reduce_diagonal(g)
    if g.shape != (psi.space.dim,):
        raise ValidationError("generator diagonal does not match the state space")
    return StateVector(psi.space, psi.amplitudes * np.exp(-1j * g * duration))


def ghz_best_phase(decomposition):
    """Relative phase phi of the GHZ target (|A> + e^{i phi}|Abar>)/sqrt(2)
    that a GhzDecomposition's coherence <A|rho|Abar> favours."""
    coherence = decomposition.coherence
    return float(-np.angle(coherence)) if coherence != 0 else 0.0


def g2_correlations(source):
    """Connected density correlations g2(i, j) = <n_i n_j> - <n_i><n_j> of
    a state vector or a shot set, and their average over each distance
    |i - j| = 1 .. N-1.  Returns (matrix, radial)."""
    from rydghz.propagate import StateVector

    if isinstance(source, StateVector):
        psi = source.in_full_basis()
        bits = psi.space.bits_matrix().astype(float)
        probs = psi.populations()
        mean = probs @ bits
        second = (bits * probs[:, None]).T @ bits
    else:
        bits = source.bits.astype(float)
        mean = bits.mean(axis=0)
        second = bits.T @ bits / bits.shape[0]
    matrix = second - np.outer(mean, mean)
    radial = np.array([np.mean(np.diagonal(matrix, d)) for d in range(1, matrix.shape[0])])
    return matrix, radial


def simplex_kkt_violation(distribution, observed, confusion):
    """How far `distribution` is from minimizing ||M v - w||^2 over the
    probability simplex.

    A point of the simplex is optimal exactly when every group that
    carries weight has the smallest gradient component: no transfer of
    weight between two groups lowers the objective.  Returned is the
    largest of the sum's distance from 1, the most negative entry, and the
    excess of a weighted group's half-gradient M^T (M v - w) over the
    smallest one.
    """
    v = np.asarray(distribution, dtype=float)
    m = np.asarray(confusion, dtype=float)
    half_gradient = m.T @ (m @ v - np.asarray(observed, dtype=float))
    excess = half_gradient[v > 0.0] - half_gradient.min()
    return max(abs(v.sum() - 1.0), -min(v.min(), 0.0), float(excess.max(initial=0.0)))
