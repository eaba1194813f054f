"""The three benchmark workloads: set-up, fixed work, and output checks.

Each workload class builds everything it needs in ``__init__`` (the
timed set-up), runs one round of fixed work per call to ``run_round``,
and judges that round's outputs in ``check`` against ``reference``.
Every input is drawn from ``numpy.random.SeedSequence((seed, round))``,
so a seed fixes the inputs of every round.  Rounds run the same calls
in the same order on inputs of the same size, and
``Workload.reference_round_s`` times them on a
``hostclock.ReferenceClock``.  ``SIZES`` holds the benchmark's work per
round and ``SMOKE`` a small copy used by the self-test.
"""

import json
import math
from dataclasses import replace

import numpy as np

import reference
from rydghz.basis import ChainGeometry, enumerate_basis
from rydghz.controls import CrabExpansion, standard_guess_pulse
from rydghz import detection
from rydghz.detection import (
    DetectionModel,
    MagnetizationExcitationGrouping,
    bootstrap_uncertainty,
    sample_shots,
)
from rydghz.errors import RydghzError
from rydghz.hamiltonian import LocalShifts, build_terms
from rydghz.noise import NoiseModel, decohered_ghz_coherence, noisy_preparation
from rydghz.optimize import (
    DcrabConfig,
    FigureOfMerit,
    PreparationSimulator,
    RampSpec,
    diabaticity_schedule,
    eigenpopulation_trace,
    optimize_dcrab,
    ramp_pulse,
)
from rydghz.protocols import (
    apply_ux,
    bell_distribution_protocol,
    coherence_lower_bound,
    optimal_ux_duration,
    parity_expectation,
    parity_oscillation_scan,
)

DT_US = 0.001
RAMP_US = 1.1
READOUT_OMEGA_MHZ = 5.0
# The readout drive is constant, so its Krylov steps are exact at any
# length; 37.5 ns steps (two per 75 ns readout at N=20) keep three
# rounds of the N=20 scan inside the run budget.
READOUT_DT_US = 0.0375
# The N=20 preparation steps 2 ns: its final state overlaps the 1 ns
# one to 1 - 1e-9, at 0.55 of the cost.
PREP_DT_N20_US = 0.002


def edge_shifts_mhz(n_sites):
    """Preparation shifts: -4.5 MHz on the edges for N <= 8; otherwise
    -6 MHz on the edges and -1.5 MHz on sites 4 and N-3."""
    values = np.zeros(n_sites)
    if n_sites <= 8:
        values[[0, -1]] = -4.5
    else:
        values[[0, -1]] = -6.0
        values[[3, n_sites - 4]] = -1.5
    return values


def seeded_sweep(rng):
    """Detuning end points of a round's ramp, drawn around +-20 MHz; the
    ramp's length, and so its number of steps, stays fixed."""
    return {"delta_start_mhz": float(rng.uniform(-22.0, -18.0)),
            "delta_stop_mhz": float(rng.uniform(18.0, 22.0))}


def round_rng(seed, round_index):
    return np.random.default_rng(np.random.SeedSequence((seed, round_index)))


def child_seed(rng):
    return int(rng.integers(0, 2**31))


class Workload:
    """Shared bookkeeping: calls into the program that succeeded or failed,
    and the time of each stretch of a round on ``self.clock``.

    A round stops at its first failed call; the calls it then skips are
    counted as failed too, since ``ops_per_round`` are attempted.
    """

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size
        self.succeeded = 0
        self.errors = []
        # A started hostclock.ReferenceClock while rounds are timed.
        self.clock = None
        # Per round, one (wall seconds, reference seconds) per stretch.
        self.stretches = []
        self._stretch_start = None

    def ops_per_round(self):
        raise NotImplementedError

    def _mark(self):
        now = self.clock.read()
        start, self._stretch_start = self._stretch_start, now
        if start is not None:
            self.stretches[-1].append((now[0] - start[0], now[1] - start[1]))

    def timed_round(self, inputs):
        """Run one round in stretches: from its start, or the end of a call
        into the program, to the end of the next call, or of the round."""
        self.stretches.append([])
        self._mark()
        try:
            return self.run_round(inputs)
        finally:
            self._mark()
            self._stretch_start = None

    def reference_round_s(self):
        """Seconds of one round at the clock's reference speed: each
        stretch at its median over the rounds, summed over the stretches."""
        longest = max(len(r) for r in self.stretches)
        return float(sum(
            np.median([r[k][1] for r in self.stretches if len(r) > k])
            for k in range(longest)
        ))

    def op(self, label, fn, *args, **kwargs):
        """Call into the program once."""
        try:
            result = fn(*args, **kwargs)
        except RydghzError as exc:
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            raise
        finally:
            if self._stretch_start is not None:
                self._mark()
        self.succeeded += 1
        return result

    def close(self):
        """Undo what set-up changed outside this object."""


class InferenceRecorder:
    """Keeps the inputs and output of every inference call of a round.

    The confusion matrix itself is not kept (thousands of 49x49 matrices
    would distort peak memory); the two entries that fix its misread
    rates are, and the check rebuilds the whole matrix from them.
    """

    def __init__(self, n_sites):
        self.n_sites = n_sites
        self.records = []

    def wrap(self, fn):
        groups = reference.sublattice_groups(self.n_sites)
        zero = groups.index((0, 0))
        full_even = groups.index((0, self.n_sites // 2))

        def recorded(observed, confusion, *args, **kwargs):
            result = fn(observed, confusion, *args, **kwargs)
            m = np.asarray(confusion)
            self.records.append((
                np.array(observed, dtype=float), result.distribution.copy(),
                float(m[zero, zero]), float(m[zero, full_even]), m.shape,
            ))
            return result

        return recorded


# ---------------------------------------------------------------------------


class SearchN8(Workload):
    """dCRAB search, trial-pulse screening and disorder check at N=8."""

    def __init__(self, seed, size):
        super().__init__(seed, size)
        n = size["n_sites"]
        self.shifts_mhz = edge_shifts_mhz(n)
        self.basis = enumerate_basis(ChainGeometry(n))
        self.terms = build_terms(self.basis)
        self.shifts = LocalShifts(tuple(self.shifts_mhz))
        self.simulator = PreparationSimulator(self.terms, self.shifts, dt=DT_US)
        self.fom = FigureOfMerit()
        self.guess = ramp_pulse(RampSpec(kind="linear", total_time_us=RAMP_US))
        self._guess_oracle = None

    def ops_per_round(self):
        return 2 + self.size["screen_batch"]

    def inputs(self, round_index):
        rng = round_rng(self.seed, round_index)
        s = self.size
        trials = []
        for _ in range(s["screen_batch"]):
            crabs = []
            for _control in range(2):
                crab = CrabExpansion()
                for k in range(1, s["screen_terms"] + 1):
                    crab = crab.with_term(
                        k, rng.uniform(-0.5, 0.5), rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)
                    )
                crabs.append(crab)
            trials.append(replace(self.guess, crab_omega=crabs[0], crab_delta=crabs[1]))
        config = DcrabConfig(
            super_iterations=s["super_iterations"],
            max_evaluations=s["max_evaluations"],
            fom_tolerance=1e-12,
            seed=child_seed(rng),
        )
        noise = NoiseModel(seed=child_seed(rng))
        return {"config": config, "trials": trials, "noise": noise}

    def run_round(self, inputs):
        result = self.op("optimize_dcrab", optimize_dcrab, self.guess, self.fom,
                         inputs["config"], self.simulator)
        screened = [
            self.op("evaluate", self.simulator.evaluate, pulse, self.fom)
            for pulse in inputs["trials"]
        ]
        noisy = self.op("noisy_preparation", noisy_preparation, result.pulse, self.terms,
                        inputs["noise"], shifts=self.shifts,
                        n_realizations=self.size["realizations"], dt=DT_US)
        return {"dcrab": result, "screened": screened, "noisy": noisy}

    def check(self, inputs, out):
        n = self.size["n_sites"]
        config = inputs["config"]
        result = out["dcrab"]
        fails = []

        def oracle(pulse):
            pulse_dict = json.loads(pulse.to_json())
            return reference.preparation_fidelity(n, pulse_dict, self.shifts_mhz, DT_US)

        # Every round starts from the same guess; its oracle runs once.
        if self._guess_oracle is None:
            self._guess_oracle = oracle(self.guess)

        for label, expected, value in (
            ("initial", self._guess_oracle, result.initial_fom),
            ("final", oracle(result.pulse), result.best_fom),
            ("first screened", oracle(inputs["trials"][0]), out["screened"][0]),
        ):
            if not abs(value - expected) <= 1e-6:
                fails.append(f"{label} FOM {value!r} differs from the dense oracle {expected!r}")
        if not result.best_fom >= result.initial_fom:
            fails.append("best FOM is below the initial FOM")
        steps = [result.initial_fom, *result.super_best]
        if any(b < a for a, b in zip(steps, steps[1:])):
            fails.append("best FOM per dressing step decreases")
        expected_count = 1 + config.super_iterations * config.max_evaluations
        if result.n_evaluations != expected_count:
            fails.append(f"{result.n_evaluations} evaluations, expected {expected_count}")
        if not all(0.0 <= v <= 1.0 for v in out["screened"]):
            fails.append("a screened FOM lies outside [0, 1]")

        noisy = out["noisy"]
        for k, (f, s) in enumerate(zip(noisy.fidelities, noisy.survivals)):
            if not 0.0 <= f <= s <= 1.0:
                fails.append(f"realization {k}: fidelity {f!r}, survival {s!r} out of order")
        model = inputs["noise"]
        offsets, bonds = reference.disorder_draw(
            model.seed, 0, n, model.doppler_sigma_mhz, model.position_sigma
        )
        fid0, surv0 = reference.noisy_realization(
            n, json.loads(result.pulse.to_json()), self.shifts_mhz, offsets, bonds, DT_US,
            model.rydberg_lifetime_us, model.scattering_time_us,
        )
        if not (abs(noisy.fidelities[0] - fid0) <= 1e-6
                and abs(noisy.survivals[0] - surv0) <= 1e-9):
            fails.append(
                f"realization 0 ({noisy.fidelities[0]!r}, {noisy.survivals[0]!r}) differs "
                f"from the oracle ({fid0!r}, {surv0!r})"
            )
        return fails


# ---------------------------------------------------------------------------


class ScanN20(Workload):
    """Linear-ramp preparation, Krylov-readout parity scan, C/2 bound and
    Doppler decay at the paper's largest chain."""

    def __init__(self, seed, size):
        super().__init__(seed, size)
        n = size["n_sites"]
        self.shifts_mhz = edge_shifts_mhz(n)
        self.basis = enumerate_basis(ChainGeometry(n))
        self.terms = build_terms(self.basis)
        self.simulator = PreparationSimulator(
            self.terms, LocalShifts(tuple(self.shifts_mhz)), dt=PREP_DT_N20_US
        )
        self.calibration = optimal_ux_duration(self.terms, omega_mhz=READOUT_OMEGA_MHZ)

    def readout(self, psi):
        """The scan's readout, rerun by the check on the scan's first state."""
        return apply_ux(psi, self.terms, self.calibration.duration_us,
                        omega_mhz=self.calibration.omega_mhz, dt=READOUT_DT_US)

    def ops_per_round(self):
        return 4

    def inputs(self, round_index):
        rng = round_rng(self.seed, round_index)
        n = self.size["n_sites"]
        sigma = 0.043
        gaussian_time = 1.0 / (reference.TWO_PI * sigma * math.sqrt(n / 2.0))
        return {
            "pulse": ramp_pulse(RampSpec(kind="linear", total_time_us=RAMP_US,
                                         **seeded_sweep(rng))),
            "delta_p_mhz": float(rng.uniform(3.0, 5.0)),
            "noise": NoiseModel.doppler_only(sigma, seed=child_seed(rng)),
            "delays_us": np.linspace(0.0, gaussian_time, 24),
            "gaussian_time_us": gaussian_time,
        }

    def run_round(self, inputs):
        state = self.op("prepare", self.simulator.final_state, inputs["pulse"])
        scan = self.op("parity_oscillation_scan", parity_oscillation_scan, state,
                       self.terms, inputs["delta_p_mhz"], readout=self.calibration,
                       n_times=2 * self.size["n_sites"] + 2, dt=READOUT_DT_US)
        bound = self.op("coherence_lower_bound", coherence_lower_bound, scan)
        decay = self.op("decohered_ghz_coherence", decohered_ghz_coherence, state,
                        inputs["noise"], inputs["delays_us"],
                        n_realizations=self.size["realizations"])
        return {"state": state, "scan": scan, "bound": bound, "decay": decay}

    def check(self, inputs, out):
        n = self.size["n_sites"]
        fails = []
        psi = out["state"].in_full_basis()
        norm = float(np.linalg.norm(psi.amplitudes))
        if not abs(norm - 1.0) <= 1e-9:
            fails.append(f"state norm {norm!r}")
        ops = reference.ChainOperators(n, dense=False)
        a_pat, abar_pat = reference.ghz_patterns(n)
        amps = psi.amplitudes
        beta = abs(amps[ops.index[a_pat]] * np.conj(amps[ops.index[abar_pat]]))
        expected = 2.0 * self.calibration.quality * beta
        if not abs(out["scan"].amplitude - expected) <= 1e-8:
            fails.append(
                f"fitted amplitude {out['scan'].amplitude!r} != 2 quality |beta| {expected!r}"
            )
        if not out["bound"].bound <= beta:
            fails.append(f"C/2 bound {out['bound'].bound!r} exceeds |beta| {beta!r}")

        # The scan's first time is 0, so its parity is that of the readout
        # applied to the state itself; rerun that readout and audit it.
        h = ops.hamiltonian(reference.TWO_PI * READOUT_OMEGA_MHZ, 0.0)
        rotated = self.readout(psi)
        before = float(np.vdot(psi.amplitudes, h @ psi.amplitudes).real)
        after = float(np.vdot(rotated.amplitudes, h @ rotated.amplitudes).real)
        if not abs(after - before) <= 1e-7 * max(1.0, abs(before)):
            fails.append(f"readout changes <H> from {before!r} to {after!r}")
        if not abs(np.linalg.norm(rotated.amplitudes) - 1.0) <= 1e-9:
            fails.append("readout does not conserve the norm")
        if not abs(parity_expectation(rotated) - out["scan"].parity[0]) <= 1e-9:
            fails.append("scan parity at T=0 differs from the rerun readout")

        decay = out["decay"]
        if not abs(decay.initial_modulus - beta) <= 1e-12:
            fails.append("decay starts from a coherence other than |beta|")
        ratio = decay.gaussian_time_us / inputs["gaussian_time_us"]
        if not 0.7 <= ratio <= 1.3:
            fails.append(f"Gaussian decay time is {ratio:.3f} of the 1/sqrt(N) law")
        return fails


# ---------------------------------------------------------------------------


class VerifyN12(Workload):
    """Local-adiabatic schedule, eigenpopulation trace, shot-inferred
    parity scan, bootstrap, and edge Bell-pair distribution at N=12."""

    def __init__(self, seed, size):
        super().__init__(seed, size)
        n = size["n_sites"]
        self.shifts_mhz = edge_shifts_mhz(n)
        self.basis = enumerate_basis(ChainGeometry(n))
        self.terms = build_terms(self.basis)
        self.shifts = LocalShifts(tuple(self.shifts_mhz))
        self.simulator = PreparationSimulator(self.terms, self.shifts, dt=DT_US)
        self.fom = FigureOfMerit()
        self.grouping = MagnetizationExcitationGrouping(n)
        self.model = DetectionModel()
        self.reverse = standard_guess_pulse(1.2, delta_start_mhz=20.0, delta_stop_mhz=-20.0)
        # Scans and bootstraps reach the inference through the module
        # attribute, so the recorder is installed there for this object's
        # lifetime.
        self.recorder = InferenceRecorder(n)
        self._unrecorded = detection.infer_true_distribution
        self.infer = self.recorder.wrap(self._unrecorded)
        detection.infer_true_distribution = self.infer

    def close(self):
        detection.infer_true_distribution = self._unrecorded

    def ops_per_round(self):
        return 10

    def inputs(self, round_index):
        rng = round_rng(self.seed, round_index)
        sweep = seeded_sweep(rng)
        return {
            "spec": RampSpec(kind="local_adiabatic", total_time_us=RAMP_US, **sweep),
            "linear": ramp_pulse(RampSpec(kind="linear", total_time_us=RAMP_US, **sweep)),
            "delta_p_mhz": float(rng.uniform(3.0, 5.0)),
            "scan_seed": child_seed(rng),
            "shot_seed": child_seed(rng),
            "bootstrap_seed": child_seed(rng),
        }

    def run_round(self, inputs):
        s = self.size
        schedule = self.op("diabaticity_schedule", diabaticity_schedule, inputs["spec"],
                           self.terms, self.shifts)
        shaped = self.op("ramp_pulse", ramp_pulse, inputs["spec"], schedule=schedule)
        state = self.op("prepare", self.simulator.final_state, shaped)
        f_linear = self.op("evaluate", self.simulator.evaluate, inputs["linear"], self.fom)
        trace = self.op("eigenpopulation_trace", eigenpopulation_trace, shaped,
                        self.terms, self.shifts, m=8, n_times=41, dt=DT_US)
        psi = state.in_full_basis()
        first_scan_record = len(self.recorder.records)
        scan = self.op("parity_oscillation_scan", parity_oscillation_scan, psi,
                       self.terms, inputs["delta_p_mhz"], mode="shots-inferred",
                       n_shots=s["scan_shots"], seed=inputs["scan_seed"],
                       grouping=self.grouping, detection=self.model, dt=DT_US)
        shots = self.op("sample_shots", sample_shots, psi, s["shots"], model=self.model,
                        seed=inputs["shot_seed"])
        observed = self.grouping.observed_distribution(shots)
        inferred = self.op("infer_true_distribution", self.infer, observed,
                           self.grouping.confusion(self.model))
        boot = self.op("bootstrap_uncertainty", bootstrap_uncertainty, shots,
                       self.grouping, model=self.model, n_resamples=s["resamples"],
                       seed=inputs["bootstrap_seed"])
        bell = self.op("bell_distribution_protocol", bell_distribution_protocol, None,
                       self.reverse, self.terms, initial_state=psi, dt=DT_US)
        return {
            "schedule": schedule, "state": state, "f_linear": f_linear, "trace": trace,
            "scan": scan, "inferred": inferred, "bootstrap": boot, "bell": bell,
            "records": self.recorder.records[first_scan_record:],
        }

    def check(self, inputs, out):
        n = self.size["n_sites"]
        fails = []
        schedule = out["schedule"]
        t = schedule.times_us
        if not (t[0] == 0.0 and abs(t[-1] - RAMP_US) <= 1e-12 and np.all(np.diff(t) >= 0.0)
                and schedule.s_grid[0] == 0.0 and abs(schedule.s_grid[-1] - 1.0) <= 1e-12):
            fails.append("schedule is not monotone from (0, 0) to (T, 1)")
        f_shaped = self.fom.evaluate(out["state"])
        if not f_shaped > out["f_linear"]:
            fails.append(f"local-adiabatic fidelity {f_shaped!r} <= linear {out['f_linear']!r}")
        for sl in out["trace"]:
            if not (np.all(sl.overlaps >= 0.0) and sl.overlaps.sum() <= 1.0 + 1e-9):
                fails.append(f"eigenpopulations at t={sl.param} are not a sub-distribution")
                break
        if not np.all(np.abs(out["scan"].parity) <= 1.0 + 1e-12):
            fails.append("an inferred parity lies outside [-1, 1]")

        worst = 0.0
        for observed, dist, zero_entry, full_entry, shape in out["records"]:
            confusion = reference.sublattice_confusion(
                n, *reference.misread_rates(n, zero_entry, full_entry)
            )
            if confusion.shape != shape:
                fails.append("confusion matrix has the wrong shape")
                break
            worst = max(worst, reference.kkt_violation(dist, observed, confusion))
        expected_calls = len(out["scan"].times_us) + 1 + self.size["resamples"]
        if len(out["records"]) != expected_calls:
            fails.append(f"{len(out['records'])} inference calls, expected {expected_calls}")
        if not worst <= 1e-8:
            fails.append(f"an inferred distribution violates the KKT conditions by {worst!r}")
        if out["records"]:
            scan_rates = reference.misread_rates(n, *out["records"][0][2:4])
            if not np.allclose(scan_rates, (self.model.p10, self.model.p01),
                               rtol=0.0, atol=1e-12):
                fails.append("the scan inferred with other misread rates than the model's")

        groups = reference.sublattice_groups(n)
        pattern_groups = [groups.index((0, n // 2)), groups.index((n // 2, 0))]
        exact = reference.sublattice_group_distribution(n, out["state"].in_full_basis().amplitudes)
        exact_pop = float(exact[pattern_groups].sum())
        inferred_pop = float(out["inferred"].distribution[pattern_groups].sum())
        sigma = float(out["bootstrap"].samples[:, pattern_groups].sum(axis=1).std(ddof=1))
        if not abs(inferred_pop - exact_pop) <= 5.0 * sigma:
            fails.append(
                f"inferred A+Abar population {inferred_pop!r} is more than 5 sigma "
                f"({sigma!r}) from {exact_pop!r}"
            )

        bell = out["bell"]
        rho = bell.edge_density_matrix
        own = reference.edge_partial_trace(n, bell.state_after_sweep.in_full_basis().amplitudes)
        if not np.allclose(rho, own, rtol=0.0, atol=1e-12):
            fails.append("edge density matrix differs from the independent partial trace")
        if not np.allclose(rho, rho.conj().T, rtol=0.0, atol=1e-14):
            fails.append("edge density matrix is not Hermitian")
        if not np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -1e-12:
            fails.append("edge density matrix is not positive semidefinite")
        if not abs(np.trace(rho).real - 1.0) <= 1e-9:
            fails.append("edge density matrix does not have trace 1")
        if not bell.fidelity_bound <= bell.exact_bell_fidelity + 1e-12:
            fails.append(
                f"Bell bound {bell.fidelity_bound!r} exceeds the exact fidelity "
                f"{bell.exact_bell_fidelity!r}"
            )
        return fails


WORKLOADS = {"search-n8": SearchN8, "scan-n20": ScanN20, "verify-n12": VerifyN12}

SIZES = {
    "search-n8": {"n_sites": 8, "super_iterations": 2, "max_evaluations": 8,
                  "screen_batch": 4, "screen_terms": 2, "realizations": 4},
    "scan-n20": {"n_sites": 20, "realizations": 512},
    "verify-n12": {"n_sites": 12, "scan_shots": 2000, "shots": 5000, "resamples": 600},
}

SMOKE = {
    "search-n8": {"n_sites": 8, "super_iterations": 1, "max_evaluations": 5,
                  "screen_batch": 1, "screen_terms": 1, "realizations": 2},
    "scan-n20": {"n_sites": 12, "realizations": 256},
    "verify-n12": {"n_sites": 8, "scan_shots": 500, "shots": 2000, "resamples": 40},
}
