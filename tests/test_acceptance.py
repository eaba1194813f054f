"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run with `pytest
tests/test_acceptance.py -s` to see them as they complete) and asserts
both the physical claim and its wall-clock budget.
"""

import time

import numpy as np

from rydghz.basis import ChainGeometry, enumerate_basis
from rydghz.controls import CrabExpansion, Pulse, Waveform
from rydghz.detection import (
    DetectionModel,
    MagnetizationExcitationGrouping,
    bootstrap_uncertainty,
    infer_true_distribution,
    sample_shots,
    sample_shots_from_distribution,
)
from rydghz.hamiltonian import LocalShifts, build_terms
from rydghz.noise import NoiseModel, decohered_ghz_coherence
from rydghz.optimize import (
    DcrabConfig,
    FigureOfMerit,
    PreparationSimulator,
    RampSpec,
    diabaticity_schedule,
    gate_circuit_time_estimate,
    optimize_dcrab,
    ramp_pulse,
)
from rydghz.propagate import evolve, ghz_state, ground_state
from rydghz.protocols import (
    coherence_lower_bound,
    dimer_model_contrast,
    dominant_frequency,
    optimal_ux_duration,
    parity_oscillation_scan,
)
from rydghz.units import TWO_PI

from _oracles import (
    brute_force_patterns,
    dense_evolve,
    gaussian_coherence_modulus,
    random_ghz_like_density_matrix,
)


def _verdict(number, limit_s, started, ok, detail):
    elapsed = time.perf_counter() - started
    status = "PASS" if (ok and elapsed < limit_s) else "FAIL"
    line = (f"criterion {number:2d}: {status}  {detail}  "
            f"[{elapsed:.1f}s / {limit_s:.0f}s]")
    print(line)
    assert status == "PASS", line


def _chain(n_sites):
    basis = enumerate_basis(ChainGeometry(n_sites))
    return basis, build_terms(basis)


def _dressed_pulse(tau, seed):
    rng = np.random.default_rng(seed)
    crab_o = CrabExpansion((1, 2), tuple(rng.uniform(-0.5, 0.5, 2)),
                           tuple(rng.uniform(-1.5, 1.5, 2)),
                           tuple(rng.uniform(-1.5, 1.5, 2)))
    crab_d = CrabExpansion((1, 2), tuple(rng.uniform(-0.5, 0.5, 2)),
                           tuple(rng.uniform(-3.0, 3.0, 2)),
                           tuple(rng.uniform(-3.0, 3.0, 2)))
    return Pulse(
        tau=tau,
        guess_omega=Waveform("cos12_plateau", {"amplitude": 5.0}),
        guess_delta=Waveform("linear", {"start": -20.0, "stop": 20.0}),
        crab_omega=crab_o,
        crab_delta=crab_d,
    )


def test_criterion_01_basis_counts():
    started = time.perf_counter()
    ok = True
    for n in range(2, 17):
        expected = brute_force_patterns(n)
        basis = enumerate_basis(ChainGeometry(n))
        got = [basis.pattern_string(i) for i in range(basis.dim)]
        ok = ok and got == expected
    dim20 = enumerate_basis(ChainGeometry(20)).dim
    ok = ok and dim20 == 17711
    _verdict(1, 1.0, started, ok,
             f"enumeration matches brute force for N=2..16, dim(20)={dim20}")


def test_criterion_02_dense_propagation_oracle():
    started = time.perf_counter()
    worst = 0.0
    cases = [
        (4, 4 - 1, 0.4),   # 4 sites, no blockade truncation
        (8, 0, 0.4),       # 8 sites, blockaded space
        (8, 8 - 1, 0.3),   # 8 sites, all 256 configurations
    ]
    for n, pairs, tau in cases:
        basis = enumerate_basis(ChainGeometry(n, max_adjacent_pairs=pairs))
        terms = build_terms(basis)
        shifts = LocalShifts.preparation_default(n)
        pulse = _dressed_pulse(tau, seed=n + pairs)
        got = evolve(ground_state(basis), pulse, terms, shifts, dt=0.002)
        ref = dense_evolve(basis, pulse, shifts.as_array(),
                           ground_state(basis).amplitudes, dt=0.002)
        worst = max(worst, abs(1.0 - abs(np.vdot(ref, got.amplitudes))))
    _verdict(2, 10.0, started, worst < 1e-8,
             f"worst overlap error {worst:.2e} over {len(cases)} cases")


def test_criterion_03_detection_transmission():
    started = time.perf_counter()
    model = DetectionModel()
    transmission = (1.0 - model.p10) ** 10 * (1.0 - model.p01) ** 10
    raw_over_corrected = 0.585 / 0.782
    analytic_ok = abs(transmission - raw_over_corrected) < 0.02

    basis = enumerate_basis(ChainGeometry(20))
    target_index = basis.ghz_indices()[0]
    probs = np.zeros(basis.dim)
    probs[target_index] = 1.0
    n_shots = 100_000
    shots = sample_shots_from_distribution(basis, probs, n_shots, model=model,
                                           seed=7)
    pattern = basis.bits_matrix()[target_index]
    observed = float(np.mean(np.all(shots.bits == pattern, axis=1)))
    sigma = np.sqrt(transmission * (1.0 - transmission) / n_shots)
    mc_ok = abs(observed - transmission) <= 3.0 * sigma
    _verdict(3, 30.0, started, analytic_ok and mc_ok,
             f"transmission {transmission:.4f} vs ratio {raw_over_corrected:.4f}, "
             f"MC {observed:.4f} ({abs(observed - transmission) / sigma:.2f} sigma)")


def test_criterion_04_inference_recovery():
    started = time.perf_counter()
    basis, terms = _chain(8)
    shifts = LocalShifts.preparation_default(8)
    pulse = ramp_pulse(RampSpec(kind="linear", total_time_us=1.1))
    psi = evolve(ground_state(basis), pulse, terms, shifts).in_full_basis()

    grouping = MagnetizationExcitationGrouping(8)
    truth = grouping.distribution_of_state(psi)
    model = DetectionModel()
    shots = sample_shots(psi, 100_000, model=model, seed=11)
    observed = grouping.observed_distribution(shots)
    inferred = infer_true_distribution(observed, grouping.confusion(model))
    boot = bootstrap_uncertainty(shots, grouping, model=model,
                                 n_resamples=200, seed=12)
    g = grouping.target_group_index()
    error = abs(inferred.distribution[g] - truth[g])
    ok = boot.sigma_defined and error <= 3.0 * boot.sigma[g]
    _verdict(4, 60.0, started, ok,
             f"target group error {error:.5f} vs 3 sigma "
             f"{3.0 * boot.sigma[g]:.5f}")


def test_criterion_05_bound_soundness():
    started = time.perf_counter()
    basis, terms = _chain(4)
    i_a, i_abar = basis.ghz_indices()
    readout = optimal_ux_duration(terms)
    rng = np.random.default_rng(2024)
    worst_margin = -np.inf
    n_cases = 1000
    for _ in range(n_cases):
        rho = random_ghz_like_density_matrix(rng, basis.dim, i_a, i_abar)
        scan = parity_oscillation_scan(rho, terms, 3.8, readout=readout, basis=basis)
        beta = abs(rho[i_a, i_abar])
        worst_margin = max(worst_margin, coherence_lower_bound(scan).bound - beta)
    _verdict(5, 300.0, started, worst_margin <= 1e-6,
             f"max(C/2 - |coherence|) = {worst_margin:.3e} over {n_cases} states")


def test_criterion_06_parity_frequency_scaling():
    started = time.perf_counter()
    worst_rel = 0.0
    for n in (4, 8, 12):
        basis, terms = _chain(n)
        scan = parity_oscillation_scan(ghz_state(basis, 0.0), terms, 3.8)
        fitted = dominant_frequency(scan.times_us, scan.parity)
        worst_rel = max(worst_rel, abs(fitted / (n * 3.8) - 1.0))
    _verdict(6, 300.0, started, worst_rel < 0.01,
             f"worst relative frequency error {worst_rel:.2e} for N in 4,8,12")


def test_criterion_07_ramp_ordering_and_budget():
    started = time.perf_counter()
    fom = FigureOfMerit()
    total_evaluations = 0

    basis12, terms12 = _chain(12)
    shifts12 = LocalShifts.preparation_default(12)
    simulator12 = PreparationSimulator(terms12, shifts12)
    linear_pulse = ramp_pulse(RampSpec(kind="linear", total_time_us=1.1))
    f_linear = simulator12.evaluate(linear_pulse, fom)
    la_spec = RampSpec(kind="local_adiabatic", total_time_us=1.1)
    la_schedule = diabaticity_schedule(la_spec, terms12, shifts=shifts12)
    la_pulse = ramp_pulse(la_spec, schedule=la_schedule)
    f_la = simulator12.evaluate(la_pulse, fom)
    result12 = optimize_dcrab(
        linear_pulse, fom,
        DcrabConfig(super_iterations=2, max_evaluations=200, seed=0),
        simulator12,
    )
    total_evaluations += result12.n_evaluations
    ordering_ok = result12.best_fom > f_la > f_linear

    small_targets = {4: 0.99, 8: 0.95}
    small_ok = True
    small_detail = []
    for n, floor in small_targets.items():
        basis, terms = _chain(n)
        simulator = PreparationSimulator(terms, LocalShifts.preparation_default(n))
        result = optimize_dcrab(
            ramp_pulse(RampSpec(kind="linear", total_time_us=1.1)), fom,
            DcrabConfig(super_iterations=2, max_evaluations=200, seed=0),
            simulator,
        )
        total_evaluations += result.n_evaluations
        small_ok = small_ok and result.best_fom >= floor
        small_detail.append(f"F({n})={result.best_fom:.4f}")

    # reference-scale pattern population and fringe contrast combine to the
    # quoted fidelity: F = P/2 + C/2
    identity_ok = abs(0.782 / 2.0 + 0.301 / 2.0 - 0.542) < 1e-3

    budget_ok = total_evaluations <= 20_000
    ok = ordering_ok and small_ok and identity_ok and budget_ok
    _verdict(7, 7200.0, started, ok,
             f"N=12: OC {result12.best_fom:.4f} > LA {f_la:.4f} > "
             f"linear {f_linear:.4f}; {', '.join(small_detail)}; "
             f"{total_evaluations} evaluations")


def test_criterion_08_doppler_decay_scaling():
    started = time.perf_counter()
    sigma_mhz = 0.043
    fitted = {}
    shapes_ok = True
    mc_ok = True
    for n in (8, 20):
        basis = enumerate_basis(ChainGeometry(n))
        psi = ghz_state(basis, 0.0)
        analytic_t = np.sqrt(2.0) / (TWO_PI * sigma_mhz * np.sqrt(n))
        grid = np.linspace(0.0, 1.2 * analytic_t, 25)
        model = NoiseModel.doppler_only(seed=5)
        decay = decohered_ghz_coherence(psi, model, grid, n_realizations=1000)
        fitted[n] = decay.gaussian_time_us
        shapes_ok = shapes_ok and decay.gaussian_residual < decay.exponential_residual
        oracle = decay.initial_modulus * gaussian_coherence_modulus(
            grid, sigma_mhz, n)
        deviation = np.abs(decay.modulus - oracle)
        mc_ok = mc_ok and deviation[0] < 1e-12
        mc_ok = mc_ok and np.all(deviation[1:] <= 3.0 * decay.stderr[1:])
    ratio = fitted[8] / fitted[20]
    ratio_ok = abs(ratio / np.sqrt(2.5) - 1.0) < 0.10
    _verdict(8, 600.0, started, shapes_ok and ratio_ok and mc_ok,
             f"Gaussian beats exponential; T8/T20 = {ratio:.3f} "
             f"(target {np.sqrt(2.5):.3f}); MC within 3 SE")


def test_criterion_09_dimer_rotation():
    started = time.perf_counter()
    free = dimer_model_contrast(3, v_mhz=0.0, v2_mhz=0.0)
    predicted = (np.pi / np.sqrt(2.0)) / (TWO_PI * free.omega_mhz)
    grid_step = float(free.times_us[1] - free.times_us[0])
    optimum_ok = abs(free.optimal_time_us - predicted) <= grid_step

    blockaded = dimer_model_contrast(3, v_mhz=24.0, v2_mhz=0.0)
    coupled = dimer_model_contrast(3, v_mhz=24.0, v2_mhz=24.0 / 64.0)
    reduction_ok = coupled.optimal_contrast < blockaded.optimal_contrast
    _verdict(9, 60.0, started, optimum_ok and reduction_ok,
             f"free optimum {free.optimal_time_us:.4f} us vs pi/(sqrt(2) O) "
             f"{predicted:.4f}; contrast {blockaded.optimal_contrast:.4f} -> "
             f"{coupled.optimal_contrast:.4f} with V2 on")


def test_criterion_10_gate_circuit_estimate():
    started = time.perf_counter()
    estimate = gate_circuit_time_estimate(20, omega_max_mhz=5.0,
                                          fidelity_target=0.542)
    layers_ok = estimate.layers == 10
    time_ok = abs(estimate.total_time_us - 0.97) < 0.01
    exact_time_ok = estimate.total_time_us == 0.1 / np.sqrt(2.0) + 0.9
    per_layer_ok = (estimate.per_layer_fidelity == 0.542 ** 0.1
                    and estimate.per_layer_fidelity > 0.94)
    _verdict(10, 1.0, started,
             layers_ok and time_ok and exact_time_ok and per_layer_ok,
             f"{estimate.layers} layers, {estimate.total_time_us:.4f} us, "
             f"per-layer fidelity {estimate.per_layer_fidelity:.5f}")
