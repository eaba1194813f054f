"""Command-line front end over the preparation and verification pipelines.

Only the standard library is imported at module scope: --threads must pin
the BLAS thread count before the first numerical import, so every command
pulls its dependencies lazily. Each command writes its artifacts plus a
run manifest into --out-dir; exit codes are 0 success, 2 validation,
3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .errors import RydghzError, ValidationError

_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _apply_threads(threads):
    if threads is None:
        return
    if threads < 1:
        raise ValidationError(f"--threads must be at least 1, got {threads}")
    for name in _THREAD_VARIABLES:
        os.environ[name] = str(threads)


def _comma_floats(text):
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty value list")
    return values


def _comma_names(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


class RunContext:
    """Output directory, resolved seed, and digest bookkeeping for one run."""

    def __init__(self, subcommand, argv, args, seed):
        self.subcommand = subcommand
        self.argv = tuple(argv)
        self.seed = int(seed)
        self.out_dir = args.out_dir
        self.config = self._snapshot(args)
        self.inputs = {}
        self.outputs = {}
        self._t0 = time.monotonic()
        os.makedirs(self.out_dir, exist_ok=True)

    def _snapshot(self, args):
        config = {}
        for key, value in sorted(vars(args).items()):
            if key == "command":
                continue
            config[key] = list(value) if isinstance(value, tuple) else value
        config["seed"] = int(self.seed)
        return config

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def add_input(self, path):
        from .fileio import sha256_of_file

        self.inputs[os.fspath(path)] = sha256_of_file(path)

    def emit_text(self, name, text):
        from .fileio import atomic_write_text, sha256_of_text

        atomic_write_text(self.path(name), text)
        self.outputs[name] = sha256_of_text(text)
        return self.path(name)

    def replay_argv(self):
        if "--seed" in self.argv:
            return self.argv
        return ("--seed", str(self.seed), *self.argv)

    def write_manifest(self):
        from .manifest import RunManifest

        manifest = RunManifest(
            subcommand=self.subcommand,
            argv=self.replay_argv(),
            config=self.config,
            seed=self.seed,
            inputs=self.inputs,
            outputs=self.outputs,
            duration_s=round(time.monotonic() - self._t0, 6),
        )
        name = self.subcommand.replace("-", "_") + "_manifest.json"
        manifest.write(self.path(name))
        return self.path(name)


def _report_text(name, pairs):
    from .fileio import report_text

    return report_text(f"rydghz-{name}-report", pairs)


def _chain(n_sites, v_nn_mhz):
    from .basis import ChainGeometry, enumerate_basis
    from .hamiltonian import build_terms

    basis = enumerate_basis(ChainGeometry(n_sites))
    return basis, build_terms(basis, v_mhz=v_nn_mhz)


def _shifts(name, n_sites):
    from .hamiltonian import LocalShifts

    if name == "preparation":
        return LocalShifts.preparation_default(n_sites)
    if name == "none":
        return LocalShifts.none(n_sites)
    raise ValidationError(f"unknown shift profile {name!r}")


def _load_pulse(ctx, path):
    from .controls import Pulse

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    ctx.add_input(path)
    return Pulse.from_json(text)


def _prepared_state(ctx, args, basis, terms):
    """State from --source: the two staggered orderings or a pulse file."""
    from .optimize import PreparationSimulator
    from .propagate import ghz_state

    if args.source == "ideal-ghz":
        return ghz_state(basis, 0.0)
    pulse = _load_pulse(ctx, args.source)
    simulator = PreparationSimulator(terms, _shifts(args.shifts, basis.n_sites),
                                     dt=args.dt)
    return simulator.final_state(pulse).in_full_basis()


# ---------------------------------------------------------------------------
# commands


def cmd_optimize(ctx, args):
    from .optimize import (
        DcrabConfig,
        FigureOfMerit,
        PreparationSimulator,
        RampSpec,
        optimize_dcrab,
        ramp_pulse,
    )

    _, terms = _chain(args.n_sites, args.v_nn)
    guess = ramp_pulse(RampSpec(
        kind="linear",
        total_time_us=args.total_time,
        delta_start_mhz=args.delta_start,
        delta_stop_mhz=args.delta_stop,
        omega_max_mhz=args.omega_max,
    ))
    fom = FigureOfMerit(kind=args.fom, phase=args.phase)
    config = DcrabConfig(
        super_iterations=args.super_iterations,
        max_evaluations=args.max_evaluations,
        simplex_scale_mhz=args.simplex_scale,
        fom_tolerance=args.fom_tolerance,
        seed=ctx.seed,
    )
    simulator = PreparationSimulator(terms, _shifts(args.shifts, args.n_sites),
                                     dt=args.dt)
    result = optimize_dcrab(guess, fom, config, simulator)

    ctx.emit_text("pulse_optimized.json", result.pulse.to_json())
    ctx.emit_text("fom_trace.csv", result.trace_table())
    ctx.emit_text("optimize_report.txt", result.report())
    print(f"optimize: final_fom {result.best_fom!r} "
          f"after {result.n_evaluations} evaluations")
    return EXIT_OK


def cmd_evolve(ctx, args):
    from .fileio import TableData
    from .optimize import PreparationSimulator, RampSpec, diabaticity_schedule, ramp_pulse
    from .protocols import exact_ghz_decomposition

    basis, terms = _chain(args.n_sites, args.v_nn)
    shifts = _shifts(args.shifts, args.n_sites)
    if (args.pulse is None) == (args.ramp is None):
        raise ValidationError("give exactly one of --pulse or --ramp")
    if args.pulse is not None:
        pulse = _load_pulse(ctx, args.pulse)
        source = f"pulse file {args.pulse}"
    else:
        spec = RampSpec(kind=args.ramp, total_time_us=args.total_time)
        if args.ramp == "local_adiabatic":
            schedule = diabaticity_schedule(spec, terms, shifts=shifts)
            pulse = ramp_pulse(spec, schedule=schedule)
        else:
            pulse = ramp_pulse(spec)
        source = f"{args.ramp} ramp, T={args.total_time!r} us"

    simulator = PreparationSimulator(terms, shifts, dt=args.dt)
    state = simulator.final_state(pulse).in_full_basis()
    decomposition = exact_ghz_decomposition(state)

    patterns = ["".join(str(b) for b in row) for row in basis.bits_matrix()]
    table = TableData.from_columns(
        "rydghz-populations",
        [("pattern", patterns), ("population", state.populations())],
        metadata=(("n_sites", str(args.n_sites)),),
    )
    ctx.emit_text("populations.csv", table.to_text())
    ctx.emit_text("evolve_report.txt", _report_text("evolve", [
        ("n_sites", args.n_sites),
        ("source", source),
        ("population_a", decomposition.population_a),
        ("population_abar", decomposition.population_abar),
        ("coherence_modulus", abs(decomposition.coherence)),
        ("fidelity_phase0", decomposition.fidelity),
        ("best_fidelity", decomposition.best_fidelity),
    ]))
    print(f"evolve: fidelity {decomposition.fidelity!r}")
    return EXIT_OK


def _target_population(inferred, boot, groups):
    """Inferred population summed over `groups`, and its bootstrap sigma
    (the group sigmas combined in quadrature; 0 when the spread is undefined)."""
    population = float(sum(inferred.distribution[g] for g in groups))
    sigma = float(math.hypot(*(boot.sigma[g] for g in groups))) if boot.sigma_defined else 0.0
    return population, sigma


def cmd_parity_scan(ctx, args):
    from .detection import (
        DetectionModel,
        MagnetizationExcitationGrouping,
        bootstrap_uncertainty,
        infer_true_distribution,
        sample_shots,
    )
    from .protocols import (
        coherence_lower_bound,
        dominant_frequency,
        optimal_ux_duration,
        parity_oscillation_scan,
    )

    if args.shots is not None and args.shots <= 0:
        raise ValidationError(f"n_shots must be positive, got {args.shots}")
    basis, terms = _chain(args.n_sites, args.v_nn)
    state = _prepared_state(ctx, args, basis, terms)
    # One calibrated readout serves the exact and the sampled scan.
    readout = optimal_ux_duration(terms)
    scan = parity_oscillation_scan(state, terms, args.delta_p, readout=readout,
                                   n_times=args.n_times, dt=args.dt)
    bound = coherence_lower_bound(scan)
    ctx.emit_text("parity_scan.csv", scan.to_table())

    report = [
        ("n_sites", args.n_sites),
        ("delta_p_mhz", args.delta_p),
        ("fit_frequency_mhz", dominant_frequency(scan.times_us, scan.parity)),
        ("expected_frequency_mhz", args.n_sites * args.delta_p),
        ("contrast", scan.amplitude),
        ("fit_phase", scan.phase),
        ("coherence_bound", bound.bound),
    ]

    if args.shots is not None:
        model = DetectionModel(args.p10, args.p01)
        sampled = parity_oscillation_scan(
            state, terms, args.delta_p, readout=readout, n_times=args.n_times, dt=args.dt,
            mode="shots-inferred", detection=model, n_shots=args.shots,
            seed=ctx.seed,
        )
        sampled_bound = coherence_lower_bound(sampled)
        ctx.emit_text("parity_scan_shots.csv", sampled.to_table())

        grouping = MagnetizationExcitationGrouping(args.n_sites)
        shots = sample_shots(state, args.shots, model=model, seed=ctx.seed + 1)
        observed = grouping.observed_distribution(shots)
        inferred = infer_true_distribution(observed, grouping.confusion(model))
        boot = bootstrap_uncertainty(shots, grouping, model=model,
                                     n_resamples=args.bootstrap, seed=ctx.seed + 2)
        population, sigma = _target_population(
            inferred, boot, (grouping.target_group_index(), grouping.mirror_group_index()))
        fidelity = population / 2.0 + sampled_bound.bound
        report += [
            ("n_shots", args.shots),
            ("sampled_contrast", sampled.amplitude),
            ("sampled_coherence_bound", sampled_bound.bound),
            ("inferred_pattern_population", population),
            ("pattern_population_sigma", sigma),
            ("fidelity_estimate", fidelity),
            ("summary_row",
             f"{args.n_sites},{population!r},{sigma!r},"
             f"{sampled.amplitude!r},{fidelity!r}"),
        ]
        print(f"parity-scan: contrast {sampled.amplitude!r}, "
              f"fidelity estimate {fidelity!r}")
    else:
        print(f"parity-scan: contrast {scan.amplitude!r}, "
              f"bound {bound.bound!r}")

    ctx.emit_text("parity_report.txt", _report_text("parity-scan", report))
    return EXIT_OK


def cmd_infer(ctx, args):
    from .detection import (
        DetectionModel,
        ExcitationGrouping,
        MagnetizationExcitationGrouping,
        ShotSet,
        bootstrap_uncertainty,
        infer_true_distribution,
    )
    from .fileio import TableData

    with open(args.shots, "r", encoding="utf-8") as handle:
        text = handle.read()
    ctx.add_input(args.shots)
    shots = ShotSet.from_text(text)

    if args.identity:
        model = DetectionModel.perfect()
    else:
        model = DetectionModel(args.p10, args.p01, args.p10_sigma, args.p01_sigma)
    if args.grouping == "magnetization":
        grouping = MagnetizationExcitationGrouping(shots.n_sites)
        target_groups = (grouping.target_group_index(), grouping.mirror_group_index())
    else:
        grouping = ExcitationGrouping(shots.n_sites)
        target_groups = (grouping.target_group_index(),)

    observed = grouping.observed_distribution(shots)
    inferred = infer_true_distribution(observed, grouping.confusion(model))
    boot = bootstrap_uncertainty(shots, grouping, model=model,
                                 n_resamples=args.bootstrap, seed=ctx.seed)

    labels = [label.replace(",", " ") for label in grouping.labels()]
    columns = [
        ("group", labels),
        ("raw", observed),
        ("inferred", inferred.distribution),
    ]
    if boot.sigma_defined:
        columns.append(("sigma", boot.sigma))
    table = TableData.from_columns(
        "rydghz-inference",
        columns,
        metadata=(
            ("n_sites", str(shots.n_sites)),
            ("n_shots", str(shots.n_shots)),
        ),
    )
    ctx.emit_text("infer_table.csv", table.to_text())

    population, sigma = _target_population(inferred, boot, target_groups)
    raw_population = float(sum(observed[g] for g in target_groups))
    ctx.emit_text("infer_report.txt", _report_text("infer", [
        ("n_sites", shots.n_sites),
        ("n_shots", shots.n_shots),
        ("grouping", args.grouping),
        ("p10", model.p10),
        ("p01", model.p01),
        ("raw_target_population", raw_population),
        ("inferred_target_population", population),
        ("target_population_sigma", sigma),
        ("kkt_residual", inferred.kkt_residual),
        ("inference_iterations", inferred.iterations),
        ("bootstrap_resamples", args.bootstrap),
        ("bootstrap_iterations", boot.iterations),
    ]))
    print(f"infer: target population {population!r} +/- {sigma!r}")
    return EXIT_OK


def cmd_ramp_compare(ctx, args):
    from .fileio import TableData
    from .optimize import (
        RAMP_KINDS,
        DcrabConfig,
        FigureOfMerit,
        PreparationSimulator,
        RampSpec,
        diabaticity_schedule,
        optimize_dcrab,
        ramp_pulse,
    )

    if args.n_sites % 2:
        raise ValidationError("fidelity comparison needs an even chain for the"
                              " staggered target")
    for kind in args.kinds:
        if kind not in RAMP_KINDS:
            raise ValidationError(f"unknown ramp kind {kind!r}")
    _, terms = _chain(args.n_sites, args.v_nn)
    shifts = _shifts(args.shifts, args.n_sites)
    simulator = PreparationSimulator(terms, shifts, dt=args.dt)
    fom = FigureOfMerit()

    fidelities = {kind: [] for kind in args.kinds}
    for total_time in args.times:
        linear_spec = RampSpec(kind="linear", total_time_us=total_time)
        linear_pulse = ramp_pulse(linear_spec)
        for kind in args.kinds:
            if kind == "linear":
                pulse = linear_pulse
            elif kind == "local_adiabatic":
                spec = RampSpec(kind=kind, total_time_us=total_time)
                schedule = diabaticity_schedule(spec, terms, shifts=shifts)
                pulse = ramp_pulse(spec, schedule=schedule)
            else:
                config = DcrabConfig(
                    super_iterations=args.super_iterations,
                    max_evaluations=args.max_evaluations,
                    seed=ctx.seed,
                )
                pulse = optimize_dcrab(linear_pulse, fom, config, simulator).pulse
            fidelities[kind].append(simulator.evaluate(pulse, fom))

    columns = [("time_us", list(args.times))]
    columns += [(kind, fidelities[kind]) for kind in args.kinds]
    table = TableData.from_columns(
        "rydghz-ramp-compare", columns,
        metadata=(("n_sites", str(args.n_sites)),),
    )
    ctx.emit_text("ramp_compare.csv", table.to_text())

    report = [("n_sites", args.n_sites), ("kinds", ",".join(args.kinds))]
    for j, total_time in enumerate(args.times):
        best = max(args.kinds, key=lambda kind: fidelities[kind][j])
        row = " ".join(f"{kind}={fidelities[kind][j]!r}" for kind in args.kinds)
        report.append((f"T={total_time!r}", f"{row} best={best}"))
    ctx.emit_text("ramp_compare_report.txt", _report_text("ramp-compare", report))
    print(f"ramp-compare: {len(args.times)} durations, kinds {','.join(args.kinds)}")
    return EXIT_OK


def cmd_bell_distribute(ctx, args):
    from .controls import standard_guess_pulse
    from .fileio import TableData
    from .propagate import ghz_state
    from .protocols import bell_distribution_protocol

    basis, terms = _chain(args.n_sites, args.v_nn)
    reverse = standard_guess_pulse(args.reverse_time, delta_start_mhz=20.0,
                                   delta_stop_mhz=-20.0)
    if args.source == "ideal-ghz":
        result = bell_distribution_protocol(
            None, reverse, terms, initial_state=ghz_state(basis, 0.0),
            edge_shift_mhz=args.edge_shift, dt=args.dt,
        )
    else:
        pulse = _load_pulse(ctx, args.source)
        result = bell_distribution_protocol(
            pulse, reverse, terms,
            preparation_shifts=_shifts(args.shifts, args.n_sites),
            edge_shift_mhz=args.edge_shift, dt=args.dt,
        )

    table = TableData.from_columns(
        "rydghz-bell-fringe",
        [("phase_rad", result.phases), ("edge_parity", result.edge_parity)],
        metadata=(("n_sites", str(args.n_sites)),),
    )
    ctx.emit_text("bell_fringe.csv", table.to_text())
    ctx.emit_text("bell_report.txt", _report_text("bell-distribute", [
        ("n_sites", args.n_sites),
        ("reverse_time_us", args.reverse_time),
        ("pattern_population", result.pattern_population),
        ("population_all_ground", result.population_all_ground),
        ("population_edges_excited", result.population_edges_excited),
        ("fringe_amplitude", result.fringe_fit.amplitude),
        ("fidelity_bound", result.fidelity_bound),
        ("exact_bell_fidelity", result.exact_bell_fidelity),
        ("edge_purity", result.purity),
        ("bulk_ground_min", result.bulk_ground_min),
    ]))
    print(f"bell-distribute: bound {result.fidelity_bound!r}, "
          f"exact {result.exact_bell_fidelity!r}")
    return EXIT_OK


def cmd_decay_scan(ctx, args):
    import numpy as np

    from .basis import ChainGeometry, enumerate_basis
    from .noise import NoiseModel, decohered_ghz_coherence
    from .propagate import ghz_state
    from .units import TWO_PI

    basis = enumerate_basis(ChainGeometry(args.n_sites))
    model = NoiseModel(
        doppler_sigma_mhz=args.doppler_sigma,
        position_sigma=0.0,
        scattering_time_us=args.scattering_time,
        rydberg_lifetime_us=args.rydberg_lifetime,
        seed=ctx.seed,
    )
    t_max = args.t_max
    if t_max is None:
        if args.doppler_sigma <= 0:
            raise ValidationError("give --t-max explicitly when --doppler-sigma is 0")
        t_max = 1.5 * math.sqrt(2.0 / args.n_sites) / (TWO_PI * args.doppler_sigma)
    grid = np.linspace(0.0, t_max, args.points)
    decay = decohered_ghz_coherence(ghz_state(basis, 0.0), model, grid,
                                    n_realizations=args.realizations)

    ctx.emit_text("decay.csv", decay.to_table())
    ctx.emit_text("decay_report.txt", _report_text("decay-scan", [
        ("n_sites", args.n_sites),
        ("doppler_sigma_mhz", args.doppler_sigma),
        ("n_realizations", decay.n_realizations),
        ("initial_modulus", decay.initial_modulus),
        ("gaussian_time_us", decay.gaussian_time_us),
        ("gaussian_residual", decay.gaussian_residual),
        ("exponential_time_us", decay.exponential_time_us),
        ("exponential_residual", decay.exponential_residual),
    ]))
    print(f"decay-scan: gaussian timescale {decay.gaussian_time_us!r} us")
    return EXIT_OK


def cmd_trace_eigenpop(ctx, args):
    from .fileio import TableData
    from .optimize import eigenpopulation_trace

    _, terms = _chain(args.n_sites, args.v_nn)
    pulse = _load_pulse(ctx, args.pulse)
    trace = eigenpopulation_trace(
        pulse, terms, shifts=_shifts(args.shifts, args.n_sites),
        m=args.m, n_times=args.n_times, dt=args.dt,
    )

    width = len(trace[0].overlaps)
    columns = [
        ("time_us", trace.times_us),
        ("omega_mhz", trace.omega_mhz),
        ("delta_mhz", trace.delta_mhz),
    ]
    for j in range(width):
        columns.append((f"p{j}", [float(sl.overlaps[j]) for sl in trace]))
    table = TableData.from_columns(
        "rydghz-eigenpopulations", columns,
        metadata=(("n_sites", str(args.n_sites)),),
    )
    ctx.emit_text("eigenpop.csv", table.to_text())

    ground = trace.ground_populations()
    excited = trace.excited_populations()
    quench = trace.quench_regions()
    report = [
        ("n_sites", args.n_sites),
        ("levels", width),
        ("final_ground_population", float(ground[-1])),
        ("max_transient_excitation", float(excited.max())),
        ("slow_region",
         f"[{quench[0]!r}, {quench[1]!r}]" if quench is not None else "none"),
    ]
    ctx.emit_text("eigenpop_report.txt", _report_text("trace-eigenpop", report))
    print(f"trace-eigenpop: final ground population {float(ground[-1])!r}")
    return EXIT_OK


COMMANDS = {
    "optimize": cmd_optimize,
    "evolve": cmd_evolve,
    "parity-scan": cmd_parity_scan,
    "infer": cmd_infer,
    "ramp-compare": cmd_ramp_compare,
    "bell-distribute": cmd_bell_distribute,
    "decay-scan": cmd_decay_scan,
    "trace-eigenpop": cmd_trace_eigenpop,
}


def _add_chain_flags(parser):
    parser.add_argument("--n-sites", type=int, required=True,
                        help="number of chain sites")
    parser.add_argument("--v-nn", type=float, default=24.0,
                        help="nearest-neighbor interaction in MHz")
    parser.add_argument("--dt", type=float, default=0.001,
                        help="integrator step in us")
    parser.add_argument("--shifts", choices=("preparation", "none"),
                        default="preparation",
                        help="local detuning shift profile")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rydghz",
        description="GHZ preparation, verification, and distribution on"
                    " blockaded chains",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed; auto-drawn and recorded when omitted")
    parser.add_argument("--threads", type=int, default=None,
                        help="pin the BLAS/OpenMP thread count")
    parser.add_argument("--out-dir", default=".",
                        help="directory for output files and the manifest")
    parser.add_argument("--config", default=None,
                        help="JSON file with defaults for the chosen subcommand")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("optimize", help="dressed randomized-basis pulse search")
    _add_chain_flags(sub)
    sub.add_argument("--total-time", type=float, default=1.1)
    sub.add_argument("--fom", choices=("ghz_fidelity", "bell_edge_fidelity"),
                     default="ghz_fidelity")
    sub.add_argument("--phase", type=float, default=0.0)
    sub.add_argument("--super-iterations", type=int, default=8)
    sub.add_argument("--max-evaluations", type=int, default=200)
    sub.add_argument("--simplex-scale", type=float, default=1.0)
    sub.add_argument("--fom-tolerance", type=float, default=1e-5)
    sub.add_argument("--omega-max", type=float, default=5.0)
    sub.add_argument("--delta-start", type=float, default=-20.0)
    sub.add_argument("--delta-stop", type=float, default=20.0)

    sub = subparsers.add_parser("evolve", help="propagate a pulse or reference ramp")
    _add_chain_flags(sub)
    sub.add_argument("--pulse", default=None, help="pulse JSON file")
    sub.add_argument("--ramp", choices=("linear", "local_adiabatic"), default=None)
    sub.add_argument("--total-time", type=float, default=1.1)

    sub = subparsers.add_parser("parity-scan",
                                help="parity oscillations and the coherence bound")
    _add_chain_flags(sub)
    sub.add_argument("--source", default="ideal-ghz",
                     help="'ideal-ghz' or a pulse JSON file")
    sub.add_argument("--delta-p", type=float, default=3.8,
                     help="staggered probe amplitude in MHz")
    sub.add_argument("--n-times", type=int, default=None)
    sub.add_argument("--shots", type=int, default=None,
                     help="sample this many shots through the detection model")
    sub.add_argument("--p10", type=float, default=0.0063)
    sub.add_argument("--p01", type=float, default=0.0227)
    sub.add_argument("--bootstrap", type=int, default=200)

    sub = subparsers.add_parser("infer", help="detection-corrected group inference")
    sub.add_argument("--shots", required=True, help="shot file (bitstring lines)")
    sub.add_argument("--grouping", choices=("magnetization", "excitation"),
                     default="magnetization")
    sub.add_argument("--identity", action="store_true",
                     help="use a perfect detection model")
    sub.add_argument("--p10", type=float, default=0.0063)
    sub.add_argument("--p01", type=float, default=0.0227)
    sub.add_argument("--p10-sigma", type=float, default=0.0001)
    sub.add_argument("--p01-sigma", type=float, default=0.0042)
    sub.add_argument("--bootstrap", type=int, default=200)

    sub = subparsers.add_parser("ramp-compare",
                                help="fidelity versus duration for ramp families")
    _add_chain_flags(sub)
    sub.add_argument("--times", type=_comma_floats, default=(0.6, 0.8, 1.1, 1.5, 2.0),
                     help="comma-separated durations in us")
    sub.add_argument("--kinds", type=_comma_names,
                     default=("linear", "local_adiabatic"),
                     help="subset of linear,local_adiabatic,optimal_control")
    sub.add_argument("--super-iterations", type=int, default=2,
                     help="optimal_control budget per duration")
    sub.add_argument("--max-evaluations", type=int, default=60)

    sub = subparsers.add_parser("bell-distribute",
                                help="edge Bell-pair conversion and readout")
    _add_chain_flags(sub)
    sub.add_argument("--source", default="ideal-ghz",
                     help="'ideal-ghz' or a forward pulse JSON file")
    sub.add_argument("--reverse-time", type=float, default=1.2)
    sub.add_argument("--edge-shift", type=float, default=6.0)

    sub = subparsers.add_parser("decay-scan",
                                help="held-coherence decay under quenched Doppler")
    sub.add_argument("--n-sites", type=int, required=True, help="number of chain sites")
    sub.add_argument("--doppler-sigma", type=float, default=0.043)
    sub.add_argument("--scattering-time", type=float, default=75.0)
    sub.add_argument("--rydberg-lifetime", type=float, default=150.0)
    sub.add_argument("--realizations", type=int, default=512)
    sub.add_argument("--t-max", type=float, default=None)
    sub.add_argument("--points", type=int, default=41)

    sub = subparsers.add_parser("trace-eigenpop",
                                help="instantaneous eigenpopulations along a pulse")
    _add_chain_flags(sub)
    sub.add_argument("--pulse", required=True, help="pulse JSON file")
    sub.add_argument("--m", type=int, default=8, help="levels to track")
    sub.add_argument("--n-times", type=int, default=41)

    return parser, subparsers.choices


def _apply_config_file(parser, subcommands, args, argv):
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            overrides = json.load(handle)
    except OSError as exc:
        print(f"i/o error: cannot read config: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except json.JSONDecodeError as exc:
        parser.error(f"config file {args.config}: {exc}")
    if not isinstance(overrides, dict):
        parser.error(f"config file {args.config} must hold a JSON object")
    sub = subcommands[args.command]
    valid = {action.dest for action in sub._actions}
    defaults = {}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in valid:
            parser.error(f"config field {args.command}.{key} is not a recognized"
                         " option")
        defaults[dest] = tuple(value) if isinstance(value, list) else value
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser, subcommands = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        args = _apply_config_file(parser, subcommands, args, argv)

    try:
        _apply_threads(args.threads)
        seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(4), "big")
        if seed < 0:
            raise ValidationError(f"--seed must be nonnegative, got {seed}")
        context = RunContext(args.command, argv, args, seed)
        status = COMMANDS[args.command](context, args)
        context.write_manifest()
        return status
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RydghzError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
