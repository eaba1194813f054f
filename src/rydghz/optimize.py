"""Pulse synthesis: dressed randomized-basis search and reference ramps.

Optimization maximizes a figure of merit scored on the state reached at
the end of a trial pulse.  Each dressing step appends one randomized
Fourier term per control and tunes the four new coefficients with a
Nelder-Mead simplex warm-started at the incumbent pulse, so the best
figure of merit never decreases.  Reference ramps share one sweep
parametrization (smooth-plateau drive, linear detuning in s); the
local-adiabatic variant reshapes s(t) to slow down where the diabatic
coupling weight is large.
"""

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.sparse.linalg import LinearOperator, minres

from .controls import (
    DELTA_BOUNDS_DEFAULT_MHZ,
    standard_guess_pulse,
    tabulated_pulse,
)
from .errors import (
    OptimizationError,
    ScheduleSingularityError,
    SpectralError,
    ValidationError,
)
from .fileio import TableData, report_text
from .propagate import (
    DEFAULT_DT_US,
    SampledEvolution,
    StateVector,
    drive_matvec,
    evolution_space,
    ground_state,
    lowest_spectrum,
)
from .protocols import edge_bell_fidelity, edge_pair_density_matrix
from .units import mhz_to_angular

FOM_KINDS = ("ghz_fidelity", "bell_edge_fidelity")
RAMP_KINDS = ("linear", "local_adiabatic", "optimal_control")
# Textbook downhill-simplex coefficients: reflection, expansion,
# contraction and shrink.
SIMPLEX_COEFFICIENTS = (1.0, 2.0, 0.5, 0.5)
# The diabatic weight's MINRES solve at each schedule point: its stopping
# tolerance (scipy's rtol, on |r| / (|A| |x|)), its iteration cap, and the
# largest true residual |r| / |dH/ds psi_0| it may return.
MINRES_TOL = 1e-10
MINRES_MAX_ITER = 1000
MINRES_RESIDUAL_BOUND = 1e-6
# Samples of a local-adiabatic pulse's controls along its schedule.
RAMP_TIME_POINTS = 2001
# A quench region's slew rate stays at or below this fraction of the peak.
QUENCH_SLEW_FRACTION = 0.5


@dataclass(frozen=True)
class FigureOfMerit:
    """Scalar in [0, 1] scored on a final state; larger is better.

    ghz_fidelity scores overlap with the staggered superposition state
    at relative phase `phase`; bell_edge_fidelity scores the edge-pair
    Bell fidelity (pattern populations plus best-phase coherence) of the
    reduced edge density matrix.  Both are invariant under a global phase
    of the evolved state.
    """

    kind: str = "ghz_fidelity"
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in FOM_KINDS:
            raise ValidationError(f"unknown figure of merit kind {self.kind!r}")

    def evaluate(self, state):
        psi = state.in_full_basis()
        if self.kind == "ghz_fidelity":
            i_a, i_abar = psi.space.ghz_indices()
            amp = (
                psi.amplitudes[i_a]
                + np.exp(-1j * self.phase) * psi.amplitudes[i_abar]
            ) / np.sqrt(2.0)
            value = abs(amp) ** 2
        else:
            value = edge_bell_fidelity(edge_pair_density_matrix(psi))
        return float(min(max(value, 0.0), 1.0))


@dataclass(frozen=True)
class DcrabConfig:
    """Dressing-loop and simplex settings for optimize_dcrab.

    max_evaluations caps figure-of-merit calls per dressing step; the
    loop over steps adds one randomized Fourier term per control each
    time.  Zero super_iterations is allowed and makes the optimizer a
    no-op that returns the initial pulse.
    """

    super_iterations: int = 8
    max_evaluations: int = 200
    simplex_scale_mhz: float = 1.0
    fom_tolerance: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.super_iterations < 0:
            raise ValidationError("super_iterations must be nonnegative")
        if self.max_evaluations < 1:
            raise ValidationError("max_evaluations must be positive")
        if not (np.isfinite(self.simplex_scale_mhz) and self.simplex_scale_mhz > 0):
            raise ValidationError("simplex_scale_mhz must be finite and positive")
        if not (np.isfinite(self.fom_tolerance) and self.fom_tolerance > 0):
            raise ValidationError("fom_tolerance must be finite and positive")


class _BudgetExhausted(Exception):
    """Internal: the evaluation budget ran out mid-iteration."""


@dataclass(frozen=True)
class NelderMeadResult:
    x: np.ndarray
    value: float
    n_evaluations: int
    values: np.ndarray
    converged: bool


def nelder_mead(objective, x0, scale=1.0, max_evaluations=200, tolerance=1e-5):
    """Minimize with the standard downhill simplex; returns the best seen.

    `objective` scores a stack of points: given an (m, n) array it returns
    m values, one per row.  The simplex starts at x0 plus one scaled step
    along each coordinate axis and moves by SIMPLEX_COEFFICIENTS; the
    starting simplex and each shrink are scored in one call, the other
    moves one point at a time.  The loop stops when the value spread
    across the simplex falls below `tolerance` or the evaluation budget
    runs out; a call that would pass the budget scores only the leading
    points that fit, and the loop stops after it.  The reported point is
    the best of every evaluation made, which can beat the surviving
    simplex.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValidationError("start point must be a nonempty 1d vector")
    if max_evaluations < 1:
        raise ValidationError("max_evaluations must be positive")
    n = x0.size
    scale = np.broadcast_to(np.asarray(scale, dtype=float), (n,)).copy()
    if np.any(scale == 0.0):
        raise ValidationError("simplex scale must be nonzero")
    reflection, expansion, contraction, shrink = SIMPLEX_COEFFICIENTS

    history = []
    best_x = None
    best_value = np.inf

    def call(points):
        nonlocal best_x, best_value
        room = max_evaluations - len(history)
        if room <= 0:
            raise _BudgetExhausted
        batch = points[:room]
        values = np.asarray(objective(batch), dtype=float)
        if values.shape != (len(batch),):
            raise ValidationError(
                f"objective gave values of shape {values.shape} for {len(batch)} points"
            )
        for x, value in zip(batch, values.tolist()):
            history.append(value)
            if value < best_value:
                best_value = value
                best_x = x.copy()
        if len(batch) < len(points):
            raise _BudgetExhausted
        return values

    def call_one(x):
        return float(call(x[None, :])[0])

    simplex = np.empty((n + 1, n))
    simplex[0] = x0
    for i in range(n):
        simplex[i + 1] = x0
        simplex[i + 1, i] += scale[i]
    converged = False
    try:
        values = call(simplex)
        while True:
            order = np.argsort(values, kind="stable")
            simplex, values = simplex[order], values[order]
            if float(values[-1] - values[0]) <= tolerance:
                converged = True
                break
            centroid = simplex[:-1].mean(axis=0)
            worst = simplex[-1]
            reflected = centroid + reflection * (centroid - worst)
            f_reflected = call_one(reflected)
            if f_reflected < values[0]:
                expanded = centroid + expansion * (reflected - centroid)
                f_expanded = call_one(expanded)
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            else:
                accepted = False
                if f_reflected < values[-1]:
                    contracted = centroid + contraction * (reflected - centroid)
                    f_contracted = call_one(contracted)
                    if f_contracted <= f_reflected:
                        simplex[-1], values[-1] = contracted, f_contracted
                        accepted = True
                else:
                    contracted = centroid - contraction * (centroid - worst)
                    f_contracted = call_one(contracted)
                    if f_contracted < values[-1]:
                        simplex[-1], values[-1] = contracted, f_contracted
                        accepted = True
                if not accepted:
                    simplex[1:] = simplex[0] + shrink * (simplex[1:] - simplex[0])
                    values[1:] = call(simplex[1:])
    except _BudgetExhausted:
        converged = False
    return NelderMeadResult(
        x=best_x, value=best_value, n_evaluations=len(history),
        values=np.asarray(history), converged=converged,
    )


class PreparationSimulator:
    """Reusable all-ground preparation propagator for trial pulses.

    `engine` holds H(omega, delta) once, so repeated figure-of-merit
    evaluations only pay for the stepping and spectra along a pulse read
    the same operator.  It runs in the space evolution_space picks for the
    all-ground start (the even sector also holds the staggered target).
    """

    def __init__(self, terms, shifts=None, dt=DEFAULT_DT_US):
        if dt <= 0 or not np.isfinite(dt):
            raise ValidationError(f"dt must be positive, got {dt}")
        self.terms = terms
        self.dt = float(dt)
        start = ground_state(terms.basis).amplitudes
        self.engine = SampledEvolution(evolution_space(terms, shifts, start),
                                       terms, shifts)
        self.space = self.engine.space
        self.initial = start if self.space is terms.basis else self.space.to_sector(start)

    def final_state(self, pulse):
        amps = self.engine.run(self.initial, pulse, dt=self.dt)
        return StateVector(self.space, amps)

    def evaluate(self, pulse, fom):
        """The figure of merit of `pulse`.  A sequence of pulses on one step
        grid runs as one stacked evolution (SampledEvolution.run) and gives
        a list of figures of merit."""
        if isinstance(pulse, Sequence):
            amps = self.engine.run(self.initial, pulse, dt=self.dt)
            return [fom.evaluate(StateVector(self.space, row)) for row in amps]
        return fom.evaluate(self.final_state(pulse))


@dataclass(frozen=True)
class FomEvaluation:
    """One figure-of-merit evaluation inside the dressing loop."""

    index: int
    super_iteration: int
    value: float
    best: float


@dataclass(frozen=True)
class DcrabResult:
    """Optimized pulse plus the complete evaluation history.

    super_best and accepted record, per dressing step, the incumbent
    figure of merit after the step and whether the step's new term was
    kept.
    """

    pulse: object
    trace: tuple
    initial_fom: float
    best_fom: float
    super_best: tuple
    accepted: tuple
    seed: int

    @property
    def n_evaluations(self):
        return len(self.trace)

    def trace_table(self):
        return TableData.from_columns("rydghz-fom-trace", [
            ("evaluation", [e.index for e in self.trace]),
            ("super_iteration", [e.super_iteration for e in self.trace]),
            ("fom", [e.value for e in self.trace]),
            ("best", [e.best for e in self.trace]),
        ]).to_text()

    def report(self):
        digest = hashlib.sha256(self.pulse.to_json().encode()).hexdigest()
        pairs = [
            ("seed", self.seed),
            ("fom_evaluations", self.n_evaluations),
            ("initial_fom", self.initial_fom),
        ]
        for j, (value, kept) in enumerate(zip(self.super_best, self.accepted), start=1):
            tag = "term accepted" if kept else "kept incumbent"
            pairs.append((f"super_iteration {j}", f"best_fom {value!r} ({tag})"))
        pairs += [
            ("final_fom", self.best_fom),
            ("final_pulse_terms_per_control", self.pulse.crab_omega.n_terms),
            ("final_pulse_sha256", digest),
        ]
        return report_text("rydghz-optimization-report", pairs)


def optimize_dcrab(initial, fom, cfg, simulator):
    """Dressed randomized-basis pulse search.

    Every super-iteration draws one fresh randomized frequency offset
    per control, appends the term with zero coefficients (so the trial
    family contains the incumbent exactly), and lets the simplex tune
    the four new coefficients.  A step's term is kept only when it
    strictly improves the figure of merit, hence the result never falls
    below the initial pulse.  The simplex's starting vertices and its
    shrinks are each scored as one stacked run on the simulator; the
    starting vertex at zero is the incumbent, so its known figure of
    merit is recorded instead of run again.  Identical seeds give
    identical traces.
    """
    rng = np.random.default_rng(cfg.seed)
    records = []
    best_seen = -np.inf

    def scored(pulses, super_iteration, known=None):
        """Record and return the figure of merit of each pulse, in order.

        The pulses run as one stack; a None entry is the incumbent, whose
        figure of merit `known` is recorded without running it again.
        """
        nonlocal best_seen
        fresh = [pulse for pulse in pulses if pulse is not None]
        try:
            computed = iter(simulator.evaluate(fresh, fom) if fresh else ())
        except Exception as exc:
            raise OptimizationError(
                f"figure of merit failed at super-iteration {super_iteration}, "
                f"evaluation {len(records)}: {exc}",
                super_iteration=super_iteration,
                evaluation_index=len(records),
            ) from exc
        values = [known if pulse is None else next(computed) for pulse in pulses]
        for value in values:
            best_seen = max(best_seen, value)
            records.append(
                FomEvaluation(len(records), super_iteration, value, best_seen)
            )
        return values

    incumbent = initial
    incumbent_fom = scored([initial], 0)[0]
    initial_fom = incumbent_fom
    super_best = []
    accepted = []
    for j in range(1, cfg.super_iterations + 1):
        r_omega = float(rng.uniform(-0.5, 0.5))
        r_delta = float(rng.uniform(-0.5, 0.5))
        crab_omega = incumbent.crab_omega.with_term(j, r_omega)
        crab_delta = incumbent.crab_delta.with_term(j, r_delta)

        def trial(x, _base=incumbent, _co=crab_omega, _cd=crab_delta):
            return replace(
                _base,
                crab_omega=_co.with_last_coefficients(x[0], x[1]),
                crab_delta=_cd.with_last_coefficients(x[2], x[3]),
            )

        def objective(points, _trial=trial, _j=j, _known=incumbent_fom):
            # x = 0 leaves the new term empty: that trial is the incumbent.
            pulses = [_trial(x) if x.any() else None for x in points]
            return -np.array(scored(pulses, _j, _known))

        step = nelder_mead(
            objective,
            x0=np.zeros(4),
            scale=cfg.simplex_scale_mhz,
            max_evaluations=cfg.max_evaluations,
            tolerance=cfg.fom_tolerance,
        )
        step_fom = -step.value
        if step_fom > incumbent_fom:
            incumbent = trial(step.x)
            incumbent_fom = step_fom
            accepted.append(True)
        else:
            accepted.append(False)
        super_best.append(incumbent_fom)
    return DcrabResult(
        pulse=incumbent,
        trace=tuple(records),
        initial_fom=initial_fom,
        best_fom=incumbent_fom,
        super_best=tuple(super_best),
        accepted=tuple(accepted),
        seed=cfg.seed,
    )


@dataclass(frozen=True)
class RampSpec:
    """Sweep parametrization shared by the reference ramps.

    The drive envelope is omega_max (1 - cos^12 pi s) and the detuning
    runs linearly from delta_start to delta_stop as s goes 0 -> 1; the
    kind fixes how s maps onto wall time.  grid_points sets the s-grid
    on which the local_adiabatic kind samples its diabatic weight
    |d psi_0/ds|, a sum over every excited state with no cut.
    """

    kind: str
    total_time_us: float
    delta_start_mhz: float = -20.0
    delta_stop_mhz: float = 20.0
    omega_max_mhz: float = 5.0
    grid_points: int = 201

    def __post_init__(self):
        if self.kind not in RAMP_KINDS:
            raise ValidationError(f"unknown ramp kind {self.kind!r}")
        if not np.all(np.isfinite((self.total_time_us, self.delta_start_mhz,
                                   self.delta_stop_mhz, self.omega_max_mhz))):
            raise ValidationError("ramp times and frequencies must be finite")
        if self.total_time_us <= 0:
            raise ValidationError("total ramp time must be positive")
        if not (self.delta_start_mhz < 0.0 < self.delta_stop_mhz):
            raise ValidationError("detuning must sweep from negative to positive")
        if self.omega_max_mhz <= 0:
            raise ValidationError("omega_max must be positive")
        if self.grid_points < 3:
            raise ValidationError("schedule grid needs at least 3 points")

    def omega_mhz(self, s):
        s = np.asarray(s, dtype=float)
        out = self.omega_max_mhz * (1.0 - np.cos(np.pi * s) ** 12)
        return out if out.ndim else float(out)

    def delta_mhz(self, s):
        s = np.asarray(s, dtype=float)
        out = (1.0 - s) * self.delta_start_mhz + s * self.delta_stop_mhz
        return out if out.ndim else float(out)

    def omega_slope_mhz(self, s):
        """d omega / d s of the drive envelope."""
        s = np.asarray(s, dtype=float)
        out = (
            12.0 * np.pi * self.omega_max_mhz
            * np.cos(np.pi * s) ** 11 * np.sin(np.pi * s)
        )
        return out if out.ndim else float(out)

    def delta_slope_mhz(self):
        return self.delta_stop_mhz - self.delta_start_mhz


@dataclass(frozen=True)
class Schedule:
    """Monotone ramp schedule with s(0) = 0 and s(T) = 1.

    times_us holds t(s) on the stored s-grid, and weights the diabatic
    weight |d psi_0/ds| that set ds/dt there.
    """

    total_time_us: float
    s_grid: np.ndarray
    times_us: np.ndarray
    weights: np.ndarray

    def s_of_t(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.total_time_us * (1.0 + 1e-12)):
            raise ValidationError("time outside the schedule span")
        out = np.interp(t, self.times_us, self.s_grid)
        return out if out.ndim else float(out)


def schedule_from_weight(s_grid, weights, total_time_us):
    """Schedule with ds/dt proportional to 1/weight, normalized to T.

    t(s) is the cumulative trapezoid integral of the weight rescaled so
    the last grid point lands at T; a constant weight therefore gives
    the plain linear schedule s = t/T exactly.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if s_grid.ndim != 1 or s_grid.size < 2 or np.any(np.diff(s_grid) <= 0):
        raise ValidationError("schedule grid must be strictly increasing")
    if s_grid[0] != 0.0 or abs(s_grid[-1] - 1.0) > 1e-12:
        raise ValidationError("schedule grid must span [0, 1]")
    if weights.shape != s_grid.shape:
        raise ValidationError("weights and grid differ in shape")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValidationError("weights must be finite and nonnegative")
    if total_time_us <= 0:
        raise ValidationError("total ramp time must be positive")
    raw = cumulative_trapezoid(weights, s_grid, initial=0.0)
    if raw[-1] <= 0.0:
        raise ValidationError("weight integrates to zero; schedule undefined")
    times = total_time_us * raw / raw[-1]
    return Schedule(float(total_time_us), s_grid, times, weights)


def diabaticity_weight(spec, terms, shifts=None, s_grid=None):
    """Diabatic coupling weight |d psi_0/ds|, the ground state's speed.

    |x| for x = (H - E_0)^+ Q dH/ds |psi_0>, Q = 1 - |psi_0><psi_0|, equals
    sqrt(sum_n |<E_n|dH/ds|E_0>|^2 / (E_n - E_0)^2) over every excited
    state, with no eigenstate cut: the ground state's Fubini-Study speed
    (Kolodrubetz, Sels, Mehta & Polkovnikov, Phys. Rep. 697, 1 (2017)).
    Each grid point takes psi_0 and E_0 alone from lowest_spectrum, by
    ARPACK's Lanczos solver started from the previous grid point's ground
    vector (the first from the uniform vector), and x from one MINRES
    solve (Paige & Saunders, SIAM J. Numer. Anal. 12, 617 (1975)) on the
    operator of the space evolution_space picks for the all-ground start.
    dH/ds follows analytically from the ramp parametrization.
    No second level is computed: the weight is defined wherever the
    deflated system is consistent, a degenerate ground cluster included
    when dH/ds is constant on it (the Omega = 0 end of the sweep, where
    dH/ds = -Delta' n).  A level degenerate with psi_0 that dH/ds couples
    to makes the system inconsistent, and the weight diverges there:
    _deflated_solve raises ScheduleSingularityError.

    Returns (s_grid, weights).
    """
    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, spec.grid_points)
    else:
        s_grid = np.asarray(s_grid, dtype=float)
    start = ground_state(terms.basis).amplitudes
    engine = SampledEvolution(evolution_space(terms, shifts, start), terms, shifts)
    coupling = engine.solver_coupling
    delta_slope_rad = mhz_to_angular(spec.delta_slope_mhz())
    ground = np.full(engine.space.dim, 1.0 / np.sqrt(engine.space.dim))
    weights = np.empty(s_grid.size)
    for i, s in enumerate(s_grid):
        omega_rad = mhz_to_angular(spec.omega_mhz(s))
        delta_rad = mhz_to_angular(spec.delta_mhz(s))
        sl = lowest_spectrum(engine, omega_rad, delta_rad, 1, param=float(s), start=ground)
        ground = sl.vectors[:, 0]
        b = (
            mhz_to_angular(spec.omega_slope_mhz(s)) * (coupling @ ground)
            - delta_slope_rad * (engine.excitations * ground)
        )
        shifted = drive_matvec(
            coupling, omega_rad,
            engine.static_diag - delta_rad * engine.excitations - sl.ground_energy,
        )
        x = _deflated_solve(shifted, ground, b, float(s))
        weights[i] = np.linalg.norm(x)
    return s_grid, weights


def _deflated_solve(shifted, ground, b, s):
    """x = (H - E_0)^+ Q b by MINRES on Q (H - E_0) Q, Q = 1 - |g><g|.

    `shifted` applies H - E_0, and b = dH/ds |g>.  b is projected twice:
    near Omega = 0, b is almost parallel to |g>, and one projection leaves
    a rounding-level component along the operator's null direction that
    the solve would amplify.  MINRES stops on a test relative to |A| |x|,
    and it reports a least-squares solution of an inconsistent system as
    success, so the true residual |Q b - Q (H - E_0) Q x| is checked too,
    relative to |b| before projection.  Q b carries rounding of order
    eps |b|, so a test relative to |Q b| fails on rounding alone where
    Q b vanishes, as at a degenerate Omega = 0 end; relative to |b| the
    test still catches a degenerate partner level that b couples to, whose
    component stays in the residual.  A solve that reaches
    MINRES_MAX_ITER raises SpectralError.  A converged solve whose
    residual exceeds MINRES_RESIDUAL_BOUND |b| is such an inconsistent
    system, a vanishing gap that dH/ds couples across, and raises
    ScheduleSingularityError at s.
    """

    def project(v):
        return v - ground * np.vdot(ground, v)

    def matvec(v):
        return project(shifted(project(v)))

    scale = np.linalg.norm(b)
    b = project(project(b))
    op = LinearOperator((b.size, b.size), matvec=matvec, dtype=b.dtype)
    x, info = minres(op, b, rtol=MINRES_TOL, maxiter=MINRES_MAX_ITER)
    residual = np.linalg.norm(b - matvec(x))
    if info != 0:
        raise SpectralError(
            f"MINRES missed its tolerance at s = {s:.6f} "
            f"(info {info}, residual {residual:.3e} of |b| {scale:.3e})"
        )
    if residual > MINRES_RESIDUAL_BOUND * scale:
        raise ScheduleSingularityError(
            f"instantaneous gap vanishes at s = {s:.6f}: the deflated system is "
            f"inconsistent (residual {residual:.3e} of |dH/ds psi_0| {scale:.3e})",
            s_star=s,
        )
    return x


def diabaticity_schedule(spec, terms, shifts=None):
    """Local-adiabatic schedule s(t) for a ramp spec."""
    if spec.kind != "local_adiabatic":
        raise ValidationError(
            f"schedule needs a local_adiabatic ramp spec, got kind {spec.kind!r}"
        )
    s_grid, weights = diabaticity_weight(spec, terms, shifts)
    return schedule_from_weight(s_grid, weights, spec.total_time_us)


def ramp_pulse(spec, schedule=None):
    """Build the pulse realizing a ramp spec.

    linear maps s = t/T directly onto the shared parametrization;
    local_adiabatic tabulates the controls at RAMP_TIME_POINTS times along
    `schedule`, which diabaticity_schedule computes.  optimal_control
    pulses come out of optimize_dcrab, not from a closed form, so that
    kind is rejected here.
    """
    if spec.kind == "optimal_control":
        raise ValidationError(
            "optimal_control pulses come from optimize_dcrab; "
            "build a linear guess and optimize it"
        )
    delta_bounds = (
        min(spec.delta_start_mhz, DELTA_BOUNDS_DEFAULT_MHZ[0]),
        max(spec.delta_stop_mhz, DELTA_BOUNDS_DEFAULT_MHZ[1]),
    )
    if spec.kind == "linear":
        return standard_guess_pulse(
            spec.total_time_us,
            delta_start_mhz=spec.delta_start_mhz,
            delta_stop_mhz=spec.delta_stop_mhz,
            omega_max_mhz=spec.omega_max_mhz,
            delta_bounds=delta_bounds,
        )
    if schedule is None:
        raise ValidationError(
            "a local_adiabatic ramp needs a schedule from diabaticity_schedule"
        )
    times = np.linspace(0.0, spec.total_time_us, RAMP_TIME_POINTS)
    s_values = schedule.s_of_t(times)
    return tabulated_pulse(
        spec.total_time_us,
        times,
        spec.omega_mhz(s_values),
        spec.delta_mhz(s_values),
        omega_max_mhz=spec.omega_max_mhz,
        delta_bounds=delta_bounds,
    )


@dataclass(frozen=True)
class EigenpopulationTrace:
    """Instantaneous-eigenbasis populations along a pulse.

    Behaves like a sequence of spectrum slices (one per grid time,
    including both endpoints); the sampled control values are kept for
    the quench-region diagnostic.
    """

    slices: tuple
    omega_mhz: np.ndarray
    delta_mhz: np.ndarray

    def __len__(self):
        return len(self.slices)

    def __iter__(self):
        return iter(self.slices)

    def __getitem__(self, index):
        return self.slices[index]

    @property
    def times_us(self):
        return np.array([sl.param for sl in self.slices])

    def ground_populations(self):
        return np.array([sl.ground_population() for sl in self.slices])

    def excited_populations(self):
        return 1.0 - self.ground_populations()

    def quench_regions(self):
        """Fast/slow/fast split of the pulse by control slew rate.

        Returns (t_enter, t_exit) bracketing the longest contiguous run
        of grid times whose combined slew rate stays at or below
        QUENCH_SLEW_FRACTION times the peak rate, or None when no sample
        qualifies.
        """
        times = self.times_us
        speed = np.hypot(
            np.gradient(self.omega_mhz, times), np.gradient(self.delta_mhz, times)
        )
        slow = speed <= QUENCH_SLEW_FRACTION * speed.max()
        best_length = 0
        best_start = None
        run_start = None
        for i, flag in enumerate(np.append(slow, False)):
            if flag and run_start is None:
                run_start = i
            elif not flag and run_start is not None:
                if i - run_start > best_length:
                    best_length, best_start = i - run_start, run_start
                run_start = None
        if best_start is None:
            return None
        return float(times[best_start]), float(times[best_start + best_length - 1])


def eigenpopulation_trace(pulse, terms, shifts=None, m=8, n_times=41,
                          dt=DEFAULT_DT_US):
    """Populations of the lowest m instantaneous eigenstates along a pulse.

    The state starts from all atoms in the ground state and is sampled
    on a uniform time grid with n_times points including both endpoints
    (the step size bends slightly from `dt` so the grid lands on whole
    steps).  Spectra come from the simulator's engine, so with a
    reflection-symmetric setup they live in the even sector with the
    dynamics, and eigenstate counting skips odd states the drive cannot
    reach.
    """
    if m < 1:
        raise ValidationError(f"need at least one eigenstate, got m={m}")
    if n_times < 2:
        raise ValidationError("need at least the two endpoint samples")
    if pulse.tau <= 0:
        raise ValidationError("the pulse must have a positive duration")
    simulator = PreparationSimulator(terms, shifts, dt=dt)
    engine = simulator.engine
    n_segments = n_times - 1
    steps_per_segment = max(1, int(round(pulse.tau / (dt * n_segments))))
    dt_effective = pulse.tau / (n_segments * steps_per_segment)

    slices = []

    def snapshot(t, amplitudes):
        omega_rad, delta_rad = pulse.sample(t)
        psi = StateVector(engine.space, np.array(amplitudes, dtype=complex))
        slices.append(lowest_spectrum(engine, float(omega_rad), float(delta_rad), m,
                                      psi=psi, param=float(t)))

    snapshot(0.0, simulator.initial)
    engine.run(
        simulator.initial, pulse, dt=dt_effective,
        observer=snapshot, observer_stride=steps_per_segment,
    )
    omega_mhz, delta_mhz = pulse.sample_mhz(np.array([sl.param for sl in slices]))
    return EigenpopulationTrace(
        tuple(slices), np.asarray(omega_mhz), np.asarray(delta_mhz)
    )


@dataclass(frozen=True)
class GateCircuitEstimate:
    """Layered two-qubit-gate construction reaching the same target."""

    layers: int
    total_time_us: float
    per_layer_fidelity: float | None = None


def gate_circuit_time_estimate(n_sites, omega_max_mhz=5.0, fidelity_target=None):
    """Depth and duration of the equivalent nearest-neighbor gate circuit.

    The first layer makes one Bell pair at the chain center with a
    blockade-enhanced pi pulse, pi/(sqrt(2) Omega); each following layer
    extends the entangled block by one site on both sides with plain pi
    pulses, so an N-site chain needs N/2 layers.  Given a target state
    fidelity, the per-layer fidelity needed is its layers-th root.
    """
    if n_sites < 2 or n_sites % 2:
        raise ValidationError(f"need an even chain of at least 2 sites, got {n_sites}")
    if omega_max_mhz <= 0:
        raise ValidationError("drive amplitude must be positive")
    layers = n_sites // 2
    pi_time_us = 0.5 / omega_max_mhz
    total = pi_time_us / np.sqrt(2.0) + (layers - 1) * pi_time_us
    per_layer = None
    if fidelity_target is not None:
        if not (0.0 < fidelity_target <= 1.0):
            raise ValidationError("fidelity target must lie in (0, 1]")
        per_layer = float(fidelity_target ** (1.0 / layers))
    return GateCircuitEstimate(layers, float(total), per_layer)
