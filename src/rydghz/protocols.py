"""Measurement protocols run on simulated states.

Covers the antiferromagnetic-ordering decomposition of a state (component
populations, off-diagonal coherence, fidelity), staggered-phase parity
oscillations with a fixed-frequency fit and the coherence lower bound
|beta| >= C/2, the resonant many-body readout rotation and its calibration,
density-density correlations, the dimer (spin-1) picture of the readout,
and the protocol that converts a chain GHZ state into a Bell pair between
the two edge atoms.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import propagate
from .detection import sample_shots
from .errors import FitError, ValidationError
from .fileio import TableData, report_text
from .hamiltonian import (
    LocalShifts,
    build_hamiltonian,
    drive_coupling,
    staggered_field_generator,
)
from .propagate import (
    DEFAULT_DT_US,
    SampledEvolution,
    StateVector,
    drive_matvec,
    evolution_space,
    evolve,
    ground_state,
    step_grid,
)
from .units import TWO_PI, mhz_to_angular

# Largest space whose readout a density-matrix scan exponentiates densely.
_DENSE_UNITARY_CUTOFF = 1200
# Periodogram grid points per inverse time span in dominant_frequency.
PERIODOGRAM_OVERSAMPLE = 32
# The readout calibration's grid: 1 ns steps out to 150 ns.
CALIBRATION_T_MAX_US = 0.15
CALIBRATION_DT_US = 0.001
# The Bell pair's edge rotations: 5 MHz for omega * t = pi/2.
BELL_READOUT_OMEGA_MHZ = 5.0
BELL_READOUT_DURATION_US = 0.25 / BELL_READOUT_OMEGA_MHZ
# The dimer picture's drive, read on 1 ns steps out to 0.75/omega.
DIMER_OMEGA_MHZ = 5.0
DIMER_T_MAX_US = 0.75 / DIMER_OMEGA_MHZ
DIMER_DT_US = 0.001


# ---------------------------------------------------------------------------
# state decomposition


@dataclass(frozen=True)
class GhzDecomposition:
    """Populations and coherence of the two antiferromagnetic orderings.

    coherence is <A|rho|Abar> (for a pure state, a_A * conj(a_Abar)); when
    it comes from an oscillation fit only its modulus is bounded and
    `exact` is False.
    """

    population_a: float
    population_abar: float
    coherence: complex
    exact: bool = True

    @property
    def fidelity(self):
        return (self.population_a + self.population_abar) / 2.0 + self.coherence.real

    @property
    def best_fidelity(self):
        """Fidelity maximized over the target-state relative phase."""
        return (self.population_a + self.population_abar) / 2.0 + abs(self.coherence)

    @property
    def best_phase(self):
        """Relative phase phi of the target (|A> + e^{i phi}|Abar>)/sqrt(2)."""
        return float(-np.angle(self.coherence)) if self.coherence != 0 else 0.0

    def to_text(self):
        return report_text("rydghz-ghz-decomposition", [
            ("population_a", self.population_a),
            ("population_abar", self.population_abar),
            ("coherence_real", self.coherence.real),
            ("coherence_imag", self.coherence.imag),
            ("coherence_abs", abs(self.coherence)),
            ("fidelity", self.fidelity),
            ("exact", self.exact),
        ])


def exact_ghz_decomposition(state, basis=None):
    """Decompose a state vector or density matrix over the two orderings."""
    if isinstance(state, StateVector):
        psi = state.in_full_basis()
        basis = psi.space
        i_a, i_abar = basis.ghz_indices()
        a = psi.amplitudes[i_a]
        abar = psi.amplitudes[i_abar]
        return GhzDecomposition(
            population_a=float(abs(a) ** 2),
            population_abar=float(abs(abar) ** 2),
            coherence=complex(a * np.conj(abar)),
        )
    rho = np.asarray(state)
    if basis is None or rho.ndim != 2 or rho.shape != (basis.dim, basis.dim):
        raise ValidationError("density-matrix input needs a matching basis")
    i_a, i_abar = basis.ghz_indices()
    return GhzDecomposition(
        population_a=float(rho[i_a, i_a].real),
        population_abar=float(rho[i_abar, i_abar].real),
        coherence=complex(rho[i_a, i_abar]),
    )


def bounded_ghz_decomposition(population_a, population_abar, bound):
    """Decomposition with |coherence| known only as a lower bound, taken real."""
    return GhzDecomposition(
        population_a=float(population_a),
        population_abar=float(population_abar),
        coherence=complex(bound),
        exact=False,
    )


def parity_expectation(psi):
    """<P> with P = prod_i sigma_z, eigenvalue (-1)^(N-k) per configuration."""
    psi = psi.in_full_basis()
    return float(psi.space.parity @ psi.populations())


# ---------------------------------------------------------------------------
# resonant readout rotation


class _ConstantDrive:
    """Propagator of a time-independent H, given by its matvec.

    Every rotation is one Krylov dense-output walk (see _walk): rotate
    carries each column of a block alone through the stop times h*k of
    step_grid(tau, dt), and overlap_curve reads a whole ascending time grid.
    Krylov settings are read from the propagate module at call time, as
    SampledEvolution.run reads them.
    """

    def __init__(self, matvec):
        self.matvec = matvec

    @classmethod
    def resonant(cls, space, terms, omega_mhz, coupling=None):
        """Resonant drive of `terms` on `space` (a basis or one of its sectors),
        with the matvec SampledEvolution uses for its pulses."""
        engine = SampledEvolution(space, terms, coupling=coupling)
        return cls(engine.matvec_at(mhz_to_angular(omega_mhz), 0.0))

    def _walk(self, states, times, visit=None):
        """Carry `states` through the ascending `times` (measured from 0).

        Each Lanczos basis serves every time it reaches for all states
        (propagate.krylov_dense_output, Park & Light, J. Chem. Phys. 85,
        5870 (1986)), and the next one starts from the states at the last
        of them.  visit(done, parts), if given, sees each basis: parts
        holds (basis, coeffs) per state, with coefficient rows for
        times[done:done + len(coeffs)].  Returns the states at times[-1].
        A gap between neighbouring times that no basis of KRYLOV_MAX_DIM
        vectors reaches raises PropagationError.
        """
        tol, max_dim = propagate.KRYLOV_TOL, propagate.KRYLOV_MAX_DIM
        done, now = 0, 0.0
        while done < times.size:
            parts = [propagate.krylov_dense_output(self.matvec, s, times[done:] - now,
                                                   tol=tol, max_dim=max_dim) for s in states]
            n = min(coeffs.shape[0] for _, coeffs in parts)
            if visit is not None:
                visit(done, [(basis, coeffs[:n]) for basis, coeffs in parts])
            states = [coeffs[n - 1] @ basis for basis, coeffs in parts]
            parts = None  # one basis per state alive at a time
            done += n
            now = times[done - 1]
        return states

    def rotate(self, block, tau, dt):
        """exp(-i tau H) applied to each column, walked alone through the
        stop times of step_grid(tau, dt)."""
        if tau == 0.0:
            return block.astype(complex, copy=True)
        n_steps, h = step_grid(tau, dt)
        stops = h * np.arange(1, n_steps + 1)
        out = np.empty(block.shape, dtype=complex)
        for k in range(block.shape[1]):
            out[:, k] = self._walk([block[:, k]], stops)[0]
        return out

    def overlap_curve(self, ket, bra, weights, times, mirror=None):
        """<U(t) bra| diag(weights) |U(t) ket> at each of the ascending
        `times` (measured from 0), U(t) = exp(-i t H).

        With `mirror`, the index array of a permutation R that commutes with
        H and the weights, bra is taken as R ket and only ket is evolved:
        U(t) R ket = R U(t) ket.
        """
        values = np.empty(times.size, dtype=complex)

        def visit(done, parts):
            (ket_basis, ket_coeffs), (bra_basis, bra_coeffs) = parts[0], parts[-1]
            gram = np.empty((bra_basis.shape[0], ket_basis.shape[0]), dtype=complex)
            # Four bra vectors at a time, conjugated and weighted in
            # place: no full-size copy of a basis.
            for lo in range(0, gram.shape[0], 4):
                rows = (ket_basis[lo:lo + 4, mirror] if mirror is not None
                        else bra_basis[lo:lo + 4].copy())
                np.conjugate(rows, out=rows)
                rows *= weights
                gram[lo:lo + 4] = rows @ ket_basis.T
            values[done:done + len(ket_coeffs)] = np.einsum(
                "tm,mn,tn->t", bra_coeffs.conj(), gram, ket_coeffs)

        self._walk([ket] if mirror is not None else [ket, bra], times, visit)
        return values


def apply_ux(psi, terms, duration_us, omega_mhz=5.0, dt=DEFAULT_DT_US):
    """Resonant all-site drive under the full interacting Hamiltonian.

    The state is walked by Krylov dense output through the stop times h*k
    of step_grid(duration_us, dt); one Lanczos basis serves every stop it
    reaches, so dt bounds the stop spacing, not the number of bases.
    """
    drive = _ConstantDrive.resonant(psi.space, terms, omega_mhz)
    rotated = drive.rotate(psi.amplitudes[:, None], duration_us, dt)
    return StateVector(psi.space, rotated[:, 0])


@dataclass(frozen=True)
class UxCalibration:
    """Scanned readout rotation: duration maximizing the parity contrast.

    quality and phase_offset are modulus and argument of
    <Abar|U^dag P U|A> at the chosen duration; the fitted oscillation
    amplitude for coherence beta is 2*quality*|beta|, so quality <= 1
    guarantees the C/2 lower bound.
    """

    duration_us: float
    omega_mhz: float
    contrast: float
    quality: float
    phase_offset: float
    times_us: np.ndarray = field(repr=False)
    contrast_curve: np.ndarray = field(repr=False)


def optimal_ux_duration(terms, omega_mhz=5.0):
    """Scan the readout duration on a uniform grid: 1 ns steps to 150 ns.

    The contrast (E_plus - E_minus)/2 between opposite-phase GHZ inputs
    equals Re q(t) with q(t) = <U Abar|P|U A>.  The curve is read at the
    grid times h*k of step_grid(CALIBRATION_T_MAX_US, CALIBRATION_DT_US)
    by Krylov dense output:
    one Lanczos basis serves every grid time it reaches, with no stored
    history.  When the reflection R pairs the two orderings (_mirror, asked
    with |A> + |Abar>, the rule the parity scan uses), U|Abar> = R U|A> and
    only |A> is evolved; otherwise both orderings are.
    """
    basis = terms.basis
    if basis.n_sites % 2:
        raise ValidationError("readout calibration needs an even chain")
    drive = _ConstantDrive.resonant(basis, terms, omega_mhz)
    n_steps, h = step_grid(CALIBRATION_T_MAX_US, CALIBRATION_DT_US)
    times = h * np.arange(1, n_steps + 1)
    ket, bra = np.zeros((2, basis.dim), dtype=complex)
    i_a, i_abar = basis.ghz_indices()
    ket[i_a] = bra[i_abar] = 1.0
    q_curve = drive.overlap_curve(ket, bra, basis.parity, times, _mirror(terms, ket + bra))
    contrast_curve = q_curve.real
    best = int(np.argmax(contrast_curve))
    return UxCalibration(
        duration_us=float(times[best]),
        omega_mhz=omega_mhz,
        contrast=float(contrast_curve[best]),
        quality=float(abs(q_curve[best])),
        phase_offset=float(np.angle(q_curve[best])),
        times_us=times,
        contrast_curve=contrast_curve,
    )


# ---------------------------------------------------------------------------
# fits


@dataclass(frozen=True)
class CosineFit:
    """values ~ offset + amplitude * cos(omega * x - phase), amplitude >= 0."""

    angular_frequency: float
    amplitude: float
    phase: float
    offset: float
    residual_rms: float


def _fit_cosine(x, values, omega):
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    if x.shape != values.shape or x.ndim != 1:
        raise ValidationError("fit needs matching 1-d abscissa and values")
    design = np.column_stack([np.ones_like(x), np.cos(omega * x), np.sin(omega * x)])
    if np.linalg.matrix_rank(design) < 3:
        raise FitError("singular normal equations: the sample times do not "
                       "resolve offset, cosine, and sine terms")
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    offset, a, b = coeffs
    residual = design @ coeffs - values
    return CosineFit(
        angular_frequency=float(omega),
        amplitude=float(np.hypot(a, b)),
        phase=float(np.arctan2(b, a)),
        offset=float(offset),
        residual_rms=float(np.sqrt(np.mean(residual**2))),
    )


def fit_fixed_frequency(times_us, values, frequency_mhz):
    """Three-parameter cosine fit at a known frequency (MHz, times in us)."""
    return _fit_cosine(times_us, values, mhz_to_angular(frequency_mhz))


def dominant_frequency(times_us, values):
    """Peak of the demeaned periodogram, refined by a cosine fit (MHz).

    Diagnostic companion to the fixed-frequency fit; the grid step is the
    inverse time span divided by PERIODOGRAM_OVERSAMPLE.  The grid ends at
    the Nyquist limit of the smallest positive spacing between sample times
    (repeated times add no resolution).
    """
    t = np.asarray(times_us, dtype=float)
    y = np.asarray(values, dtype=float) - np.mean(values)
    span = t.max() - t.min()
    if span <= 0 or t.size < 4:
        raise FitError("need a spread of sample times to locate a frequency")
    df = 1.0 / (span * PERIODOGRAM_OVERSAMPLE)
    gaps = np.diff(np.sort(t))
    f_max_mhz = 0.5 / gaps[gaps > 0].min()
    freqs = np.arange(df, f_max_mhz + df, df)
    phases = TWO_PI * np.outer(freqs, t)
    power = np.abs(np.cos(phases) @ y - 1j * (np.sin(phases) @ y))
    k = int(np.argmax(power))
    # refine by minimizing the cosine-fit residual near the grid peak; the
    # residual vanishes at the true frequency of a clean tone, which makes
    # this unbiased by the finite observation window
    from scipy.optimize import minimize_scalar

    lo = freqs[max(k - 1, 0)]
    hi = freqs[min(k + 1, len(freqs) - 1)]
    if hi <= lo:
        return float(freqs[k])

    def residual(f):
        return _fit_cosine(t, y, mhz_to_angular(f)).residual_rms

    best = minimize_scalar(residual, bounds=(lo, hi), method="bounded",
                           options={"xatol": df * 1e-6})
    return float(best.x)


# ---------------------------------------------------------------------------
# parity oscillations


@dataclass
class ParityScan:
    """Parity versus staggered-phase accumulation time, with its fit."""

    times_us: np.ndarray
    parity: np.ndarray
    delta_p_mhz: float
    n_sites: int
    frequency_mhz: float
    amplitude: float
    phase: float
    offset: float
    residual_rms: float
    mode: str = "exact"
    parity_sigma: np.ndarray | None = None
    n_shots: int | None = None

    def to_table(self):
        columns = [("time_us", self.times_us), ("parity", self.parity)]
        if self.parity_sigma is not None:
            columns.append(("sigma", self.parity_sigma))
        metadata = (
            ("n_sites", str(self.n_sites)),
            ("delta_p_mhz", repr(self.delta_p_mhz)),
            ("fit_frequency_mhz", repr(self.frequency_mhz)),
            ("amplitude", repr(self.amplitude)),
            ("phase", repr(self.phase)),
            ("offset", repr(self.offset)),
            ("mode", self.mode),
        )
        return TableData.from_columns("rydghz-parity-scan", columns, metadata).to_text()


def default_scan_times(n_sites, delta_p_mhz, n_times=None):
    """Uniform grid over one period of the slowest harmonic, endpoint open.

    The parity signal only contains harmonics at integer multiples of
    delta_p up to N*delta_p; sampling one full period of delta_p uniformly
    makes those harmonics orthogonal on the grid, so the fixed-frequency
    fit reads off the N*delta_p Fourier coefficient without leakage.
    """
    if not (np.isfinite(delta_p_mhz) and delta_p_mhz > 0):
        raise ValidationError("staggered probe amplitude must be finite and positive")
    n = max(64, 4 * n_sites) if n_times is None else int(n_times)
    if n < 2 * n_sites + 2:
        raise ValidationError("scan grid too coarse for the fastest harmonic")
    period = 1.0 / delta_p_mhz
    return period * np.arange(n) / n


def _mirror(terms, amplitudes):
    """R as an index array if evolution_space keeps the full-basis
    `amplitudes` in the even sector of the readout of `terms`, else None:
    then U R x = R U x for the readout U and every part x of the state."""
    if evolution_space(terms, None, amplitudes) is terms.basis:
        return None
    return terms.basis.reflection


def _rotated_components(amplitudes, rates, rotate, mirror=None):
    """Images U x_g of a state's parts x_g, where the diagonal `rates` is g.

    Only nonzero parts are rotated, as the columns of one block through
    `rotate` (block -> (output space, rotated block)).  With `mirror`
    (_mirror), R maps x_g to x_{-g}, so U x_{-g} = R U x_g and only g >= 0
    are rotated.  Returns the output space, the images as columns, and
    each column's rate.
    """
    values = np.unique(rates[amplitudes != 0])
    if values.size == 0:
        raise ValidationError("cannot scan the zero vector")
    if mirror is not None:
        values = values[values >= 0]
    masks = rates[:, None] == values[None, :]
    space, images = rotate(np.where(masks, amplitudes[:, None], 0))
    columns, column_rates = [], []
    for image, value in zip(images.T, values):
        columns.append(image)
        column_rates.append(value)
        if mirror is not None and value > 0:
            columns.append(image[mirror])
            column_rates.append(-value)
    return space, np.column_stack(columns), np.asarray(column_rates)


def _diagonal_expectation(images, weights, phases):
    """<psi|diag(weights)|psi> for psi = images @ c at each row c of phases:
    c^dag G c with G = images^dag diag(weights) images."""
    gram = images.conj().T @ (weights[:, None] * images)
    return np.einsum("tm,mk,tk->t", phases.conj(), gram, phases).real


def parity_oscillation_scan(state, terms, delta_p_mhz, readout=None, n_times=None,
                            mode="exact", detection=None, n_shots=1000, seed=0,
                            grouping=None, dt=DEFAULT_DT_US, basis=None):
    """Accumulate staggered phase, rotate, and measure parity versus time.

    The times are default_scan_times(N, delta_p_mhz, n_times).  state may
    be a StateVector or (for bound audits) a density matrix with an
    explicit `basis`.  readout is a UxCalibration, a duration in us, a
    callable psi -> psi, or None to calibrate a scanned-optimal rotation.
    mode 'exact' records expectation values; 'shots-raw' draws bitstrings
    through a DetectionModel and averages their parities; 'shots-inferred'
    first inverts the grouped detection confusion (see detection module).

    The probe is diagonal in the staggered magnetization M, with rate
    g_M = pi delta_p M, so psi(T) = sum_M c_M(T) psi_M with
    c_M(T) = exp(-i g_M T), and the readout U is linear.  Each nonzero
    component is rotated once into a column of X = [U psi_M] (at most N+1
    columns, whatever the number of times); every time then costs small
    products: the rotated state is X c(T) and the exact parity is
    E(T) = c(T)^dag G c(T) with G = X^dag P X.  Shot modes sample from
    X c(T).  When evolution_space keeps the state in the even sector of
    the readout's terms, U psi_{-M} = R U psi_M, so only the M >= 0
    components are rotated (N/2+1 columns of one block).  Callable
    readouts get no such shortcut and must be linear maps.  dt spaces the
    readout's Krylov stop times (see apply_ux).  Density-matrix scans, up
    to _DENSE_UNITARY_CUTOFF states, take U from one dense exponential.
    """
    if mode not in ("exact", "shots-raw", "shots-inferred"):
        raise ValidationError(f"unknown scan mode {mode!r}")
    is_rho = not isinstance(state, StateVector)
    if is_rho:
        rho = np.asarray(state, dtype=complex)
        if basis is None:
            raise ValidationError("density-matrix scans need an explicit basis")
        if rho.shape != (basis.dim, basis.dim):
            raise ValidationError("density matrix does not match the basis")
        if basis.dim > _DENSE_UNITARY_CUTOFF:
            raise ValidationError("density-matrix scans are limited to small chains")
        if mode != "exact":
            raise ValidationError("sampled scans need a state vector")
    else:
        state = state.in_full_basis()
        basis = state.space
    n = basis.n_sites
    if n % 2:
        raise ValidationError("parity oscillations need an even chain")
    times_us = default_scan_times(n, delta_p_mhz, n_times)
    generator = staggered_field_generator(basis, delta_p_mhz)

    if callable(readout):
        def rotate(block):
            images = [readout(StateVector(basis, col)).in_full_basis() for col in block.T]
            return images[0].space, np.column_stack([psi.amplitudes for psi in images])
    else:
        if readout is None:
            readout = optimal_ux_duration(terms)
        if isinstance(readout, UxCalibration):
            duration, omega = readout.duration_us, readout.omega_mhz
        else:
            duration, omega = float(readout), 5.0
        drive = _ConstantDrive.resonant(basis, terms, omega)

        def rotate(block):
            return basis, drive.rotate(block, duration, dt)

    if is_rho:
        # P rotated once: E(T) = Tr(D_T rho D_T^dag U^dag P U)
        if callable(readout):
            space, u = rotate(np.eye(basis.dim, dtype=complex))
            if space is not basis:
                raise ValidationError("density-matrix scans need a basis-preserving readout")
        else:
            h = build_hamiltonian(terms, None, mhz_to_angular(omega), 0.0).toarray()
            u = expm(-1j * h * duration)
        p_rot = u.conj().T @ (basis.parity[:, None] * u)
        parity_values = np.empty(times_us.size)
        for j, t in enumerate(times_us):
            d = np.exp(-1j * generator * t)
            rho_t = (d[:, None] * rho) * np.conj(d)[None, :]
            parity_values[j] = float(np.sum(rho_t.T * p_rot).real)
        sigma = None
    else:
        mirror = None if callable(readout) else _mirror(terms, state.amplitudes)
        space, x, rates = _rotated_components(state.amplitudes, generator, rotate, mirror)
        phases = np.exp(-1j * np.outer(times_us, rates))
        sigma = np.empty(times_us.size) if mode == "shots-raw" else None
        if mode == "exact":
            parity_values = _diagonal_expectation(x, space.parity, phases)
        else:
            # Imported at call time: callers may rebind detection.infer_true_distribution.
            from .detection import DetectionModel

            detection = detection or DetectionModel()
            if mode == "shots-inferred":
                from .detection import (
                    MagnetizationExcitationGrouping,
                    infer_true_distribution,
                    parity_from_distribution,
                )

                grouping = grouping or MagnetizationExcitationGrouping(n)
                confusion = grouping.confusion(detection)
                active_set = None  # each time's inference starts from the last one's
            parity_values = np.empty(times_us.size)
            for j, c in enumerate(phases):
                shots = sample_shots(StateVector(space, x @ c), n_shots, model=detection,
                                     seed=seed + j)
                if mode == "shots-raw":
                    per_shot = shots.parities().astype(float)
                    parity_values[j] = float(per_shot.mean())
                    sigma[j] = float(per_shot.std(ddof=1) / np.sqrt(n_shots))
                else:
                    observed = grouping.observed_distribution(shots)
                    inferred = infer_true_distribution(observed, confusion,
                                                       active_set=active_set)
                    active_set = inferred.active_set
                    parity_values[j] = parity_from_distribution(inferred.distribution,
                                                                grouping)

    frequency_mhz = n * delta_p_mhz
    fit = fit_fixed_frequency(times_us, parity_values, frequency_mhz)
    return ParityScan(
        times_us=times_us,
        parity=parity_values,
        delta_p_mhz=delta_p_mhz,
        n_sites=n,
        frequency_mhz=frequency_mhz,
        amplitude=fit.amplitude,
        phase=fit.phase,
        offset=fit.offset,
        residual_rms=fit.residual_rms,
        mode=mode,
        parity_sigma=sigma,
        n_shots=None if mode == "exact" else n_shots,
    )


@dataclass(frozen=True)
class CoherenceBound:
    """Lower bound |beta| >= amplitude/2 from a parity oscillation fit."""

    bound: float
    phase: float
    amplitude: float
    frequency_mhz: float

    def __iter__(self):
        yield from (self.bound, self.phase)


def coherence_lower_bound(scan):
    """C/2 bound on the ordering coherence, clipped to the physical 1/2."""
    bound = min(max(scan.amplitude, 0.0) / 2.0, 0.5)
    return CoherenceBound(
        bound=float(bound),
        phase=float(scan.phase),
        amplitude=float(scan.amplitude),
        frequency_mhz=float(scan.frequency_mhz),
    )


# ---------------------------------------------------------------------------
# density-density correlations


@dataclass(frozen=True)
class CorrelationResult:
    """g2(i,j) = <n_i n_j> - <n_i><n_j> and its distance average."""

    matrix: np.ndarray
    distances: np.ndarray
    radial: np.ndarray


def g2_correlations(source):
    """Connected density correlations of a state vector or a shot set."""
    if isinstance(source, StateVector):
        psi = source.in_full_basis()
        bits = psi.space.bits_matrix().astype(float)
        probs = psi.populations()
        mean = probs @ bits
        second = (bits * probs[:, None]).T @ bits
    else:
        bits = source.bits.astype(float)
        if bits.shape[0] < 1:
            raise ValidationError("correlation needs at least one shot")
        mean = bits.mean(axis=0)
        second = bits.T @ bits / bits.shape[0]
    matrix = second - np.outer(mean, mean)
    n = matrix.shape[0]
    distances = np.arange(1, n)
    radial = np.array([np.mean(np.diagonal(matrix, d)) for d in distances])
    return CorrelationResult(matrix=matrix, distances=distances, radial=radial)


# ---------------------------------------------------------------------------
# dimer (spin-1) picture of the readout


@dataclass(frozen=True)
class DimerContrast:
    """Parity contrast of the dimer-chain rotation versus drive time."""

    times_us: np.ndarray
    contrast: np.ndarray
    optimal_time_us: float
    optimal_contrast: float
    omega_mhz: float
    v_mhz: float
    v2_mhz: float
    n_dimers: int


def _dimer_operators(n_dimers, v_rad, v2_rad):
    """Drive coupling, interaction diagonal and parity of the spin-1 dimer chain.

    Per-dimer basis is ordered (+, 0, -) where + holds the left atom of
    the pair excited and - the right; the drive is omega times the
    coupling sum_j Sx_j / sqrt(2), built with complex values for
    propagate.drive_matvec, and parity is diag(-1, +1, -1).
    """
    from functools import reduce

    from scipy import sparse

    sx_half = sparse.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / 2.0,
                                dtype=complex)
    coupling = sparse.csr_matrix((3**n_dimers, 3**n_dimers), dtype=complex)
    for j in range(n_dimers):
        inner = sparse.kron(sx_half, sparse.identity(3 ** (n_dimers - j - 1)))
        coupling = coupling + sparse.kron(sparse.identity(3**j), inner, format="csr")
    plus, minus, ones = np.array([1.0, 0, 0]), np.array([0, 0, 1.0]), np.ones(3)
    diagonal = np.zeros(3**n_dimers)
    for j in range(n_dimers - 1):
        for left, right, strength in ((plus, plus, v2_rad), (minus, minus, v2_rad),
                                      (minus, plus, v_rad)):
            factors = [ones] * n_dimers
            factors[j], factors[j + 1] = left, right
            diagonal += strength * reduce(np.kron, factors)
    parity = reduce(np.kron, [np.array([-1.0, 1.0, -1.0])] * n_dimers)
    return coupling, diagonal, parity


def dimer_model_contrast(n_dimers, v_mhz=24.0, v2_mhz=24.0 / 64.0):
    """Readout contrast in the weakly interacting spin-1 dimer picture.

    Both orderings of the chain GHZ state become ferromagnetic spin-1
    states |++...> and |--...>; the resonant drive at DIMER_OMEGA_MHZ acts
    as (omega/sqrt(2)) * sum_j Sx.  With interactions off the contrast
    peaks exactly at omega * t = pi / sqrt(2); blockade (v) and
    next-nearest neighbor (v2) couplings between dimers reduce it.  The
    contrast (E_plus - E_minus)/2 equals Re <U --|P|U ++>, read by Krylov
    dense output (see _ConstantDrive.overlap_curve) at the grid times h*k
    of step_grid(DIMER_T_MAX_US, DIMER_DT_US), 1 ns steps out to 0.75/omega.
    """
    if n_dimers < 1:
        raise ValidationError("need at least one dimer")
    n_steps, h = step_grid(DIMER_T_MAX_US, DIMER_DT_US)
    times_us = h * np.arange(1, n_steps + 1)
    coupling, diagonal, parity = _dimer_operators(
        n_dimers, mhz_to_angular(v_mhz), mhz_to_angular(v2_mhz)
    )
    omega_rad = mhz_to_angular(DIMER_OMEGA_MHZ)
    drive = _ConstantDrive(drive_matvec(coupling, omega_rad, diagonal))
    plus, minus = np.zeros((2, diagonal.size), dtype=complex)
    plus[0] = minus[-1] = 1.0  # |++...+>, |--...->
    contrast = drive.overlap_curve(plus, minus, parity, times_us).real
    best = int(np.argmax(contrast))
    return DimerContrast(
        times_us=times_us,
        contrast=contrast,
        optimal_time_us=float(times_us[best]),
        optimal_contrast=float(contrast[best]),
        omega_mhz=DIMER_OMEGA_MHZ,
        v_mhz=v_mhz,
        v2_mhz=v2_mhz,
        n_dimers=n_dimers,
    )


# ---------------------------------------------------------------------------
# Bell-pair distribution to the chain edges


def edge_pair_density_matrix(psi):
    """Reduced density matrix of sites (1, N), basis order 00, 01, 10, 11."""
    psi = psi.in_full_basis()
    basis = psi.space
    n = basis.n_sites
    if n < 3:
        raise ValidationError("edge reduction needs interior sites")
    configs = basis.configs
    edge = 2 * (configs >> (n - 1)) + (configs & 1)
    bulk = (configs >> 1) & ((1 << (n - 2)) - 1)
    table = np.zeros((1 << (n - 2), 4), dtype=complex)
    table[bulk, edge] = psi.amplitudes
    return table.T @ table.conj()


def edge_bell_fidelity(rho):
    """Bell fidelity of an edge density matrix at the best relative phase:
    the one-excitation populations' mean plus |<01|rho|10>|."""
    return float((rho[1, 1].real + rho[2, 2].real) / 2.0 + abs(rho[1, 2]))


@dataclass
class BellDistributionResult:
    """Outcome of converting a chain GHZ state into an edge Bell pair.

    The exact fields (edge density matrix, purity, coherence) come from
    the simulated state after the reverse sweep; the protocol fields
    mirror what an experiment reports: pattern populations after the
    conversion pulse and the parity fringe amplitude under a second,
    variable-phase rotation, combined into (patterns + fringe)/2 as the
    Bell fidelity bound.
    """

    n_sites: int
    state_after_sweep: StateVector
    edge_density_matrix: np.ndarray
    edge_populations: np.ndarray
    purity: float
    exact_coherence: complex
    exact_bell_fidelity: float
    bulk_ground_min: float
    bulk_ground_mean: float
    state_converted: StateVector
    site_populations: np.ndarray
    population_all_ground: float
    population_edges_excited: float
    pattern_population: float
    phases: np.ndarray
    edge_parity: np.ndarray
    fringe_fit: CosineFit
    fidelity_bound: float


def bell_distribution_protocol(pulse_forward, pulse_reverse, terms,
                               preparation_shifts=None, edge_shift_mhz=6.0,
                               phases=None, initial_state=None, dt=DEFAULT_DT_US):
    """Distribute entanglement to the chain edges and read out the pair.

    Sequence: prepare a GHZ-like state with `pulse_forward` (skipped when
    `initial_state` is given), switch the edge sites to an isolating local
    shift, drive the detuning back down with `pulse_reverse` so the bulk
    disentangles toward |00...0>, leaving the edge pair in a one-excitation
    superposition.  A pi/2 rotation restricted to the edge atoms
    (BELL_READOUT_OMEGA_MHZ for BELL_READOUT_DURATION_US) at phase 0
    converts it to the 00/11 form whose patterns (all ground, both edges
    excited) are reported; a second pi/2 rotation at variable phase then
    produces the parity fringe whose amplitude bounds the pair coherence.

    The sweeps run through `evolve`, so an R-even state runs in the even
    sector.  Both rotations share one propagator U(0): the phase-phi edge
    drive is D C(0) D^dag with D = exp(-i phi (n_1 + n_N)), which commutes
    with the static diagonal, so U(phi) = D U(0) D^dag, and each fringe
    point is the edge parity S of U(0) D^dag x = Y c(phi) for the converted
    state x: Y = [U(0) x_e] holds its parts with e edge excitations and
    c_e = exp(i e phi), the parity scan's form with rate -e.  That is four
    walks of U(0) whatever the number of phases; dt spaces their Krylov
    stop times, as in apply_ux.
    """
    basis = terms.basis
    n = basis.n_sites
    if n < 4:
        raise ValidationError("edge distribution needs at least four sites")
    step_grid(BELL_READOUT_DURATION_US, dt)  # refuse a dt the rotations cannot take up front
    if initial_state is not None:
        psi = initial_state.in_full_basis()
        if pulse_forward is not None:
            raise ValidationError("give either a forward pulse or an initial state")
    else:
        if preparation_shifts is None:
            preparation_shifts = LocalShifts.preparation_default(n)
        psi = evolve(ground_state(basis), pulse_forward, terms,
                     shifts=preparation_shifts, dt=dt)
    if pulse_reverse is not None:
        isolation = LocalShifts.edge_isolation(n, edge_shift_mhz)
        psi = evolve(psi, pulse_reverse, terms, shifts=isolation, dt=dt)

    edge_rho = edge_pair_density_matrix(psi)
    edge_populations = np.diag(edge_rho).real
    purity = float(np.trace(edge_rho @ edge_rho).real)
    coherence = complex(edge_rho[1, 2])  # <01|rho|10>
    bits = basis.bits_matrix().astype(float)
    bulk_ground = 1.0 - psi.populations() @ bits[:, 1:-1]

    if phases is None:
        phases = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    else:
        phases = np.asarray(phases, dtype=float)
    drive = _ConstantDrive.resonant(basis, terms, BELL_READOUT_OMEGA_MHZ,
                                    drive_coupling(basis, sites=(1, n)))
    converted = drive.rotate(psi.amplitudes[:, None], BELL_READOUT_DURATION_US, dt)[:, 0]
    converted_probs = np.abs(converted) ** 2
    site_populations = converted_probs @ bits
    pop_ground = float(converted_probs[basis.index_of(0)])
    pop_edges = float(converted_probs[basis.index_of((1 << (n - 1)) | 1)])
    edge_excitations = bits[:, 0] + bits[:, -1]
    edge_parity_sign = np.where(edge_excitations % 2 == 0, 1.0, -1.0)
    _, images, rates = _rotated_components(
        converted, -edge_excitations,
        lambda block: (basis, drive.rotate(block, BELL_READOUT_DURATION_US, dt)))
    edge_parity = _diagonal_expectation(images, edge_parity_sign,
                                        np.exp(-1j * np.outer(phases, rates)))
    fringe_fit = _fit_cosine(phases, edge_parity, omega=2.0)
    pattern_population = pop_ground + pop_edges
    return BellDistributionResult(
        n_sites=n,
        state_after_sweep=psi,
        edge_density_matrix=edge_rho,
        edge_populations=edge_populations,
        purity=purity,
        exact_coherence=coherence,
        exact_bell_fidelity=edge_bell_fidelity(edge_rho),
        bulk_ground_min=float(bulk_ground.min()),
        bulk_ground_mean=float(bulk_ground.mean()),
        state_converted=StateVector(basis, converted),
        site_populations=site_populations,
        population_all_ground=pop_ground,
        population_edges_excited=pop_edges,
        pattern_population=pattern_population,
        phases=phases,
        edge_parity=edge_parity,
        fringe_fit=fringe_fit,
        fidelity_bound=(pattern_population + fringe_fit.amplitude) / 2.0,
    )
