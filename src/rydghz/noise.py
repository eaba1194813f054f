"""Quenched disorder and decay channels for chain preparation and holds.

Doppler shifts and trap-position spread are frozen per experimental shot,
so both are modeled as quenched draws: Gaussian per-site detuning offsets
and lognormal nearest-neighbor interaction multipliers. A draw changes
only the static diagonal of the chain Hamiltonian, so a noisy
preparation evolves its realizations together as one direct-sum run,
one copy per realization. Scattering and Rydberg decay enter as a global
survival weight rather than trajectory jumps; results that use the
weight say so in their metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError
from .fileio import TableData
from .hamiltonian import LocalShifts, interaction_diagonal
from .propagate import DEFAULT_DT_US, SampledEvolution, StateVector, ground_state, step_grid
from .protocols import exact_ghz_decomposition
from .units import TWO_PI

# Bond multipliers are clamped to keep a perturbative draw from inverting
# or erasing the blockade outright.
BOND_FACTOR_RANGE = (0.5, 2.0)
DEFAULT_REALIZATIONS = 256
# Rows (realizations x basis dimension) of one stacked noisy run: its
# Lanczos basis holds at most KRYLOV_MAX_DIM x _STACK_ROWS amplitudes.
_STACK_ROWS = 4096

_SURVIVAL_NOTE = (
    "scattering and lifetime decay applied as a global survival weight"
    " on the figure of merit, not as trajectory jumps"
)


@dataclass(frozen=True)
class NoiseModel:
    """Shot-to-shot noise strengths and decay timescales.

    doppler_sigma_mhz is the per-site detuning spread; position_sigma the
    relative spread of the nearest-neighbor interaction (lognormal sigma).
    Timescales are in microseconds and may be inf to switch a channel off.
    """

    doppler_sigma_mhz: float = 0.043
    position_sigma: float = 0.05
    scattering_time_us: float = 75.0
    rydberg_lifetime_us: float = 150.0
    seed: int = 0

    def __post_init__(self):
        for name in ("doppler_sigma_mhz", "position_sigma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be finite and nonnegative, got {value}")
        for name in ("scattering_time_us", "rydberg_lifetime_us"):
            value = getattr(self, name)
            if not value > 0:
                raise ValidationError(f"{name} must be positive, got {value}")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")

    @classmethod
    def doppler_only(cls, doppler_sigma_mhz=0.043, seed=0):
        """Model with decay channels switched off (infinite timescales)."""
        return cls(
            doppler_sigma_mhz=doppler_sigma_mhz,
            position_sigma=0.0,
            scattering_time_us=math.inf,
            rydberg_lifetime_us=math.inf,
            seed=seed,
        )

    @property
    def decay_free(self):
        return math.isinf(self.scattering_time_us) and math.isinf(self.rydberg_lifetime_us)


@dataclass(frozen=True)
class DisorderRealization:
    """One quenched draw: detuning offsets (MHz) and bond multipliers."""

    detuning_offsets_mhz: np.ndarray
    bond_multipliers: np.ndarray

    def __iter__(self):
        return iter((self.detuning_offsets_mhz, self.bond_multipliers))


def disorder_realization(model, geometry, realization):
    """Deterministic quenched draw number `realization` for this model.

    The stream is derived from (model.seed, realization), so realizations
    are reproducible individually and independent of evaluation order.
    """
    if realization < 0:
        raise ValidationError(f"realization index must be nonnegative, got {realization}")
    n = geometry.n_sites
    rng = np.random.default_rng(np.random.SeedSequence((model.seed, realization)))
    offsets = rng.normal(0.0, model.doppler_sigma_mhz, size=n)
    multipliers = rng.lognormal(0.0, model.position_sigma, size=max(n - 1, 0))
    np.clip(multipliers, *BOND_FACTOR_RANGE, out=multipliers)
    return DisorderRealization(offsets, multipliers)


def hold_survival(n_sites, model, times_us):
    """Survival weight of an N-site GHZ hold: exp(-t * (N/2) * total rate).

    Half the atoms sit in the Rydberg branch of either component, so both
    the lifetime and the scattering channel act on N/2 atoms.
    """
    times = np.asarray(times_us, dtype=float)
    rate = 0.5 * n_sites * (1.0 / model.scattering_time_us + 1.0 / model.rydberg_lifetime_us)
    return np.exp(-rate * times)


@dataclass(frozen=True)
class CoherenceDecay:
    """Monte Carlo staggered-coherence decay curve with fitted timescales.

    modulus is the realization-averaged |<A|rho(t)|Abar>| including the
    survival weight; the Gaussian and exponential fits are least squares
    on log(modulus) and their residuals are quoted in linear scale.
    """

    times_us: np.ndarray
    modulus: np.ndarray
    stderr: np.ndarray
    survival: np.ndarray
    initial_modulus: float
    gaussian_time_us: float
    gaussian_residual: float
    exponential_time_us: float
    exponential_residual: float
    n_realizations: int

    def to_table(self):
        return TableData.from_columns("rydghz-coherence-decay", [
            ("time_us", self.times_us), ("coherence", self.modulus), ("stderr", self.stderr),
        ]).to_text()


def _decay_fit(times, modulus, power, curve):
    """Fit modulus ~ amp * exp(-(t/T)**power); returns (T, rms residual)."""
    usable = np.isfinite(modulus) & (modulus > 1e-14)
    if int(usable.sum()) < 3:
        raise FitError(
            "decay fit needs at least 3 usable curve points,"
            f" got {int(usable.sum())}",
            curve=curve,
        )
    x = times[usable] ** power
    y = np.log(modulus[usable])
    slope, intercept = np.polyfit(x, y, 1)
    if slope > 1e-12:
        raise FitError(
            f"coherence curve grows with delay (log slope {slope!r}),"
            " decay fit is ill posed",
            curve=curve,
        )
    timescale = (-1.0 / slope) ** (1.0 / power) if slope < 0 else math.inf
    fitted = np.exp(intercept + slope * times**power)
    residual = float(np.sqrt(np.mean((modulus - fitted) ** 2)))
    return float(timescale), residual


def decohered_ghz_coherence(psi, model, delay_grid_us,
                            n_realizations=DEFAULT_REALIZATIONS):
    """Coherence of a held GHZ-like state under quenched Doppler dephasing.

    Each realization draws per-site detuning offsets; the two staggered
    components accumulate opposite phase on every site, so the relative
    phase walks as t * sum_i (+/-) delta_i and the realization average of
    exp(i phase) damps the coherence. Populations are untouched (the
    channel is diagonal); decay channels multiply the modulus by the
    hold survival weight.
    """
    times = np.asarray(delay_grid_us, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValidationError("delay grid must be a nonempty 1D array")
    if not np.all(np.isfinite(times)) or times[0] < 0:
        raise ValidationError("delay grid must be finite and nonnegative")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValidationError("delay grid must be strictly increasing")
    if not isinstance(psi, StateVector):
        raise ValidationError("decohered_ghz_coherence expects a StateVector")

    full = psi.in_full_basis()
    basis = full.space
    decomp = exact_ghz_decomposition(full)
    beta0 = abs(decomp.coherence)
    if beta0 < 1e-12:
        raise ValidationError("input state has no coherence between the orderings")

    i_a, _ = basis.ghz_indices()
    signs = 2.0 * basis.bits_matrix()[i_a].astype(float) - 1.0

    count = int(n_realizations)
    if count < 2:
        raise ValidationError(f"need at least 2 realizations, got {count}")
    walk = np.empty(count)
    for k in range(count):
        offsets, _ = disorder_realization(model, basis.geometry, k)
        walk[k] = float(signs @ offsets)

    # (realizations x delays) phase factors; averaging over axis 0 gives
    # the surviving coherence fraction at each delay.
    phases = np.exp(1j * TWO_PI * np.outer(walk, times))
    mean = phases.mean(axis=0)
    dephasing = np.abs(mean)
    direction = np.where(dephasing > 0, mean / np.where(dephasing > 0, dephasing, 1.0), 1.0)
    projected = (phases * np.conj(direction)[None, :]).real
    se = projected.std(axis=0, ddof=1) / math.sqrt(count)

    survival = hold_survival(basis.n_sites, model, times)
    modulus = beta0 * dephasing * survival
    stderr = beta0 * se * survival

    curve = (times, modulus, stderr)
    gaussian_time, gaussian_residual = _decay_fit(times, modulus, 2, curve)
    exponential_time, exponential_residual = _decay_fit(times, modulus, 1, curve)

    return CoherenceDecay(
        times_us=times,
        modulus=modulus,
        stderr=stderr,
        survival=survival,
        initial_modulus=beta0,
        gaussian_time_us=gaussian_time,
        gaussian_residual=gaussian_residual,
        exponential_time_us=exponential_time,
        exponential_residual=exponential_residual,
        n_realizations=count,
    )


@dataclass(frozen=True)
class NoisyPreparationResult:
    """Distribution of preparation outcomes over disorder realizations.

    fidelities are survival-weighted phase-0 GHZ fidelities in realization
    order; decompositions hold the unweighted per-realization analysis.
    """

    decompositions: tuple
    fidelities: np.ndarray
    survivals: np.ndarray
    mean_fidelity: float
    fidelity_stderr: float
    n_realizations: int
    simplifications: tuple = (_SURVIVAL_NOTE,)

    def __iter__(self):
        return iter((self.mean_fidelity, self.fidelity_stderr))


def noisy_preparation(pulse, terms, model, shifts=None,
                      n_realizations=DEFAULT_REALIZATIONS, dt=DEFAULT_DT_US):
    """Preparation fidelity distribution under quenched disorder and decay.

    Disorder changes only the static diagonal: each realization's detuning
    offsets and bond multipliers give its own interaction and shift
    diagonal under the shared drive coupling.  The realizations evolve
    from the ground state through the full pulse in the unsymmetrized
    space (disorder breaks reflection), as one direct-sum run of up to
    _STACK_ROWS rows at a time, one copy per realization
    (SampledEvolution._direct_sum); the Krylov error of any one
    realization is then at most KRYLOV_TOL * sqrt(copies) per step.
    The lifetime weight integrates the mean excitation over the pulse;
    the scattering weight uses N/2 atoms for the whole duration.
    """
    basis = terms.basis
    n, dim = basis.n_sites, basis.dim
    base_shifts = shifts if shifts is not None else LocalShifts.none(n)
    base_factors = (
        np.asarray(terms.bond_factors, dtype=float)
        if terms.bond_factors is not None
        else np.ones(max(n - 1, 0))
    )
    count = int(n_realizations)
    if count < 1:
        raise ValidationError(f"need at least 1 realization, got {count}")

    start = ground_state(basis).amplitudes
    # The lifetime integral sums over the run's own steps; a pulse of zero
    # duration takes none.
    h = step_grid(pulse.tau, dt)[1] if pulse.tau > 0 else 0.0
    engine = SampledEvolution(basis, terms, base_shifts)
    per_stack = max(1, _STACK_ROWS // dim)

    decomps = []
    fidelities = np.empty(count)
    survivals = np.empty(count)
    for first in range(0, count, per_stack):
        stacked = range(first, min(first + per_stack, count))
        diags = []
        for k in stacked:
            offsets, multipliers = disorder_realization(model, basis.geometry, k)
            diags.append(
                interaction_diagonal(basis, terms.v_mhz, base_factors * multipliers)
                - terms.shift_diagonal(base_shifts.plus(offsets))
            )
        excitation_time = np.zeros(len(stacked))

        def accumulate(_t, amps, _acc=excitation_time, _copies=len(stacked)):
            _acc += (np.abs(amps.reshape(_copies, dim)) ** 2 @ terms.excitations) * h

        amps = engine._direct_sum(diags).run(
            np.tile(start, len(stacked)), pulse, dt=dt, observer=accumulate
        ).reshape(len(stacked), dim)
        for k, row, excited in zip(stacked, amps, excitation_time.tolist()):
            survival = math.exp(
                -excited / model.rydberg_lifetime_us
                - pulse.tau * 0.5 * n / model.scattering_time_us
            )
            decomp = exact_ghz_decomposition(StateVector(basis, row))
            decomps.append(decomp)
            survivals[k] = survival
            fidelities[k] = survival * decomp.fidelity

    stderr = float(fidelities.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return NoisyPreparationResult(
        decompositions=tuple(decomps),
        fidelities=fidelities,
        survivals=survivals,
        mean_fidelity=float(fidelities.mean()),
        fidelity_stderr=stderr,
        n_realizations=count,
    )
