"""Measurement-protocol behavior: decompositions, scans, bounds, dimers."""

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from rydghz import propagate, protocols
from rydghz.basis import ChainGeometry, enumerate_basis
from rydghz.controls import constant_pulse, standard_guess_pulse
from rydghz.detection import DetectionModel, sample_shots
from rydghz.errors import FitError, PropagationError, ValidationError
from rydghz.hamiltonian import (
    LocalShifts,
    build_terms,
    drive_coupling,
    staggered_field_generator,
)
from rydghz.optimize import PreparationSimulator, RampSpec, ramp_pulse
from rydghz.propagate import (
    SampledEvolution,
    StateVector,
    basis_state,
    evolve,
    ghz_state,
    ground_state,
)
from rydghz.protocols import (
    apply_ux,
    bell_distribution_protocol,
    bounded_ghz_decomposition,
    coherence_lower_bound,
    default_scan_times,
    dimer_model_contrast,
    dominant_frequency,
    edge_pair_density_matrix,
    exact_ghz_decomposition,
    fit_fixed_frequency,
    g2_correlations,
    optimal_ux_duration,
    parity_expectation,
    parity_oscillation_scan,
)
from rydghz.units import TWO_PI

from _oracles import (
    constant_drive_propagator,
    dense_hamiltonian,
    evolve_under_diagonal,
    ideal_rotation_readout,
    random_ghz_like_density_matrix,
)


@pytest.fixture(scope="module")
def chain4():
    basis = enumerate_basis(ChainGeometry(4))
    return basis, build_terms(basis)


@pytest.fixture(scope="module")
def chain8():
    basis = enumerate_basis(ChainGeometry(8))
    return basis, build_terms(basis)


@pytest.fixture(scope="module")
def ux4(chain4):
    _, terms = chain4
    return optimal_ux_duration(terms)


@pytest.fixture
def engine_matvecs(monkeypatch):
    """Products of every matvec SampledEvolution.matvec_at hands out, one
    list entry each: readout, calibration and Bell rotations take theirs
    from it."""
    calls = []
    matvec_at = SampledEvolution.matvec_at

    def counted(self, omega_rad, delta_rad):
        inner = matvec_at(self, omega_rad, delta_rad)

        def matvec(x):
            calls.append(1)
            return inner(x)

        return matvec

    monkeypatch.setattr(SampledEvolution, "matvec_at", counted)
    return calls


class TestGhzDecomposition:
    def test_perfect_ghz(self, chain4):
        basis, _ = chain4
        d = exact_ghz_decomposition(ghz_state(basis))
        assert d.population_a == pytest.approx(0.5)
        assert d.population_abar == pytest.approx(0.5)
        assert d.coherence == pytest.approx(0.5)
        assert d.fidelity == pytest.approx(1.0)

    def test_incoherent_mixture(self, chain4):
        basis, _ = chain4
        i_a, i_abar = basis.ghz_indices()
        rho = np.zeros((basis.dim, basis.dim), dtype=complex)
        rho[i_a, i_a] = rho[i_abar, i_abar] = 0.5
        d = exact_ghz_decomposition(rho, basis=basis)
        assert d.coherence == 0.0
        assert d.fidelity == pytest.approx(0.5)

    def test_reported_identity(self):
        # populations 0.782 with fitted amplitude 0.301 combine to 0.542
        d = bounded_ghz_decomposition(0.391, 0.391, bound=0.301 / 2.0)
        assert not d.exact
        assert d.fidelity == pytest.approx(0.5415, abs=1e-12)
        assert round(d.fidelity, 2) == 0.54

    def test_fidelity_identity_random_states(self, chain8):
        basis, _ = chain8
        rng = np.random.default_rng(7)
        target = ghz_state(basis).amplitudes
        for _ in range(20):
            amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
            amps /= np.linalg.norm(amps)
            psi = StateVector(basis, amps)
            direct = abs(np.vdot(target, amps)) ** 2
            assert exact_ghz_decomposition(psi).fidelity == pytest.approx(
                direct, abs=1e-12
            )

    def test_fidelity_identity_random_rho(self, chain4):
        basis, _ = chain4
        rng = np.random.default_rng(8)
        i_a, i_abar = basis.ghz_indices()
        target = ghz_state(basis).amplitudes
        for _ in range(20):
            rho = random_ghz_like_density_matrix(rng, basis.dim, i_a, i_abar)
            direct = float(np.real(target.conj() @ rho @ target))
            d = exact_ghz_decomposition(rho, basis=basis)
            assert d.fidelity == pytest.approx(direct, abs=1e-12)

    def test_phase_recovery(self, chain4):
        basis, _ = chain4
        d = exact_ghz_decomposition(ghz_state(basis, phi=0.9))
        assert d.best_phase == pytest.approx(0.9)
        assert d.best_fidelity == pytest.approx(1.0)
        assert d.fidelity < 1.0

    def test_pure_equals_projector(self, chain4):
        basis, _ = chain4
        rng = np.random.default_rng(9)
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        amps /= np.linalg.norm(amps)
        psi = StateVector(basis, amps)
        rho = np.outer(amps, amps.conj())
        a = exact_ghz_decomposition(psi)
        b = exact_ghz_decomposition(rho, basis=basis)
        assert a.coherence == pytest.approx(b.coherence, abs=1e-14)

    def test_text_output(self, chain4):
        basis, _ = chain4
        text = exact_ghz_decomposition(ghz_state(basis)).to_text()
        assert "fidelity: " in text
        fidelity_line = [l for l in text.splitlines() if l.startswith("fidelity")][0]
        assert float(fidelity_line.split(":")[1]) == pytest.approx(1.0)

    def test_rho_needs_basis(self, chain4):
        basis, _ = chain4
        with pytest.raises(ValidationError):
            exact_ghz_decomposition(np.eye(basis.dim) / basis.dim)


class TestParityExpectation:
    def test_ordered_pattern_20(self):
        basis = enumerate_basis(ChainGeometry(20))
        assert parity_expectation(basis_state(basis, "01" * 10)) == pytest.approx(1.0)

    def test_even_superposition(self, chain4):
        basis, _ = chain4
        amps = np.zeros(basis.dim, dtype=complex)
        amps[basis.index_of("0000")] = 1 / np.sqrt(2)
        amps[basis.index_of("0101")] = 1 / np.sqrt(2)
        assert parity_expectation(StateVector(basis, amps)) == pytest.approx(1.0)

    def test_rotated_phases_differ(self, chain4, ux4):
        basis, terms = chain4
        plus = apply_ux(ghz_state(basis, 0.0), terms, ux4.duration_us)
        minus = apply_ux(ghz_state(basis, np.pi), terms, ux4.duration_us)
        assert parity_expectation(ghz_state(basis)) == pytest.approx(1.0)
        gap = parity_expectation(plus) - parity_expectation(minus)
        assert gap == pytest.approx(2 * ux4.contrast, abs=1e-6)


class TestUxCalibration:
    def test_duration_near_dimer_prediction(self, ux4):
        predicted = (np.pi / np.sqrt(2.0)) / TWO_PI / 5.0
        assert abs(ux4.duration_us - predicted) < 0.005
        assert 0.0 < ux4.contrast < 1.0
        assert ux4.contrast <= ux4.quality <= 1.0 + 1e-12
        assert abs(ux4.phase_offset) < 1e-9

    def test_two_site_contrast_saturates(self):
        basis = enumerate_basis(ChainGeometry(2))
        ux = optimal_ux_duration(build_terms(basis))
        assert ux.contrast == pytest.approx(1.0, abs=1e-4)

    def test_ceiling_decreases_with_size(self, ux4, chain8):
        _, terms8 = chain8
        basis12 = enumerate_basis(ChainGeometry(12))
        contrasts = [
            ux4.contrast,
            optimal_ux_duration(terms8).contrast,
            optimal_ux_duration(build_terms(basis12)).contrast,
        ]
        assert contrasts[0] > contrasts[1] > contrasts[2]

    def test_quality_and_phase_match_rotated_orderings(self, chain8):
        basis, terms = chain8
        ux = optimal_ux_duration(terms)
        i_a, i_abar = basis.ghz_indices()
        rotated = []
        for index in (i_a, i_abar):
            amps = np.zeros(basis.dim, dtype=complex)
            amps[index] = 1.0
            rotated.append(apply_ux(StateVector(basis, amps), terms, ux.duration_us))
        ua, uabar = (psi.amplitudes for psi in rotated)
        q = np.vdot(uabar, basis.parity * ua)
        assert ux.quality * np.exp(1j * ux.phase_offset) == pytest.approx(q, abs=1e-10)
        assert ux.contrast == pytest.approx(q.real, abs=1e-10)

    @pytest.mark.parametrize("dt", [0.004, 0.007])
    def test_curve_times_are_stepped_times(self, chain8, dt, monkeypatch):
        # round(t_max/dt) steps of t_max/round(t_max/dt): the reported
        # duration is the time the curve point was stepped to.
        basis, terms = chain8
        monkeypatch.setattr(protocols, "CALIBRATION_DT_US", dt)
        ux = optimal_ux_duration(terms)
        n_steps = round(0.15 / dt)
        np.testing.assert_allclose(ux.times_us, 0.15 * np.arange(1, n_steps + 1) / n_steps,
                                   rtol=0, atol=1e-15)
        i_a, i_abar = basis.ghz_indices()
        rotated = []
        for index in (i_a, i_abar):
            amps = np.zeros(basis.dim, dtype=complex)
            amps[index] = 1.0
            rotated.append(apply_ux(StateVector(basis, amps), terms, ux.duration_us))
        q = np.vdot(rotated[1].amplitudes, basis.parity * rotated[0].amplitudes)
        assert ux.quality * np.exp(1j * ux.phase_offset) == pytest.approx(q, abs=1e-10)
        assert ux.contrast == pytest.approx(q.real, abs=1e-10)

    def test_calibration_keeps_no_history(self):
        import tracemalloc

        basis = enumerate_basis(ChainGeometry(16))
        terms = build_terms(basis)
        terms.static_diagonal(None)
        tracemalloc.start()
        try:
            optimal_ux_duration(terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # below one stored vector per step: 150 steps of 2584 amplitudes
        assert peak < 150 * basis.dim * 16

    @pytest.mark.parametrize("n_sites, bond_factors", [
        (8, None),
        (12, None),
        (8, np.linspace(0.8, 1.2, 7)),
    ], ids=["n8", "n12", "n8-asymmetric"])
    def test_curve_matches_exact_propagation(self, n_sites, bond_factors):
        # Asymmetric bond factors act only on adjacent excitations, so that
        # basis admits one pair; it takes the path evolving both orderings.
        adjacent = 0 if bond_factors is None else 1
        basis = enumerate_basis(ChainGeometry(n_sites, max_adjacent_pairs=adjacent))
        terms = build_terms(basis, bond_factors=bond_factors)
        assert terms.static_is_reflection_symmetric() == (bond_factors is None)
        ux = optimal_ux_duration(terms)
        h = dense_hamiltonian(basis, None, TWO_PI * 5.0, 0.0, bond_factors=bond_factors)
        w, v = np.linalg.eigh(h)
        phases = np.exp(-1j * np.outer(ux.times_us, w))
        i_a, i_abar = basis.ghz_indices()
        ua, uabar = ((phases * v[i]) @ v.T for i in (i_a, i_abar))
        parity = np.array([(-1.0) ** (n_sites - basis.pattern_string(i).count("1"))
                           for i in range(basis.dim)])
        q = np.einsum("tx,x,tx->t", uabar.conj(), parity, ua)
        assert np.abs(ux.contrast_curve - q.real).max() <= 1e-12
        best = int(np.argmax(q.real))
        assert ux.duration_us == ux.times_us[best]
        assert ux.quality * np.exp(1j * ux.phase_offset) == pytest.approx(q[best], abs=1e-12)

    def test_calibration_builds_one_basis(self, engine_matvecs):
        # A reflection-symmetric chain evolves |A> alone, and one Lanczos
        # basis reaches the whole 150 ns grid.
        optimal_ux_duration(build_terms(enumerate_basis(ChainGeometry(12))))
        assert 0 < len(engine_matvecs) <= 2 * propagate.KRYLOV_MAX_DIM

    def test_krylov_settings_read_at_call_time(self, monkeypatch):
        basis = enumerate_basis(ChainGeometry(16))
        terms = build_terms(basis)
        monkeypatch.setattr(propagate, "KRYLOV_MAX_DIM", 2)
        with pytest.raises(PropagationError):
            apply_ux(ghz_state(basis), terms, 0.07)
        with pytest.raises(PropagationError):
            optimal_ux_duration(terms)

    def test_zero_duration_identity(self, chain4):
        basis, terms = chain4
        psi = ghz_state(basis)
        assert np.array_equal(apply_ux(psi, terms, 0.0).amplitudes, psi.amplitudes)

    def test_odd_chain_rejected(self):
        basis = enumerate_basis(ChainGeometry(3))
        with pytest.raises(ValidationError):
            optimal_ux_duration(build_terms(basis))


class TestFits:
    def test_exact_cosine_recovery(self):
        t = np.linspace(0.0, 0.9, 41)
        f = 3.1
        y = 0.2 + 0.7 * np.cos(TWO_PI * f * t - 1.1)
        fit = fit_fixed_frequency(t, y, f)
        assert fit.amplitude == pytest.approx(0.7, abs=1e-10)
        assert fit.phase == pytest.approx(1.1, abs=1e-10)
        assert fit.offset == pytest.approx(0.2, abs=1e-10)
        assert fit.residual_rms < 1e-10

    def test_singular_design_raises(self):
        with pytest.raises(FitError):
            fit_fixed_frequency(np.zeros(8), np.ones(8), 1.0)
        with pytest.raises(FitError):
            fit_fixed_frequency(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 1.0)

    def test_dominant_frequency_synthetic(self):
        t = np.linspace(0.0, 1.0, 200, endpoint=False)
        y = 0.1 + 0.5 * np.cos(TWO_PI * 7.3 * t + 0.4)
        assert dominant_frequency(t, y) == pytest.approx(7.3, rel=1e-4)

    def test_dominant_frequency_needs_spread(self):
        with pytest.raises(FitError):
            dominant_frequency(np.zeros(8), np.ones(8))

    def test_dominant_frequency_repeated_time(self):
        # The default Nyquist limit comes from the smallest positive spacing.
        t = np.array([0.0, 0.1, 0.1, 0.2, 0.3, 0.4])
        y = np.cos(TWO_PI * 1.5 * t + 0.2)
        assert dominant_frequency(t, y) == pytest.approx(1.5, rel=1e-4)


class TestParityScan:
    def test_default_grid(self):
        times = default_scan_times(8, 3.8)
        assert times.size == max(64, 32)
        assert times[0] == 0.0
        assert times[-1] < 1.0 / 3.8
        assert np.allclose(np.diff(times), times[1] - times[0])
        with pytest.raises(ValidationError):
            default_scan_times(8, 3.8, n_times=10)
        with pytest.raises(ValidationError):
            default_scan_times(8, 0.0)

    def test_zero_grid_points_rejected(self):
        # 0 is a requested grid size, not a request for the default grid
        with pytest.raises(ValidationError):
            default_scan_times(8, 3.8, n_times=0)

    @pytest.mark.parametrize("delta_p", [float("nan"), float("inf")])
    def test_non_finite_probe_rejected(self, delta_p):
        with pytest.raises(ValidationError):
            default_scan_times(8, delta_p)

    def test_amplitude_equals_quality_for_ghz(self, chain4, ux4):
        basis, terms = chain4
        scan = parity_oscillation_scan(ghz_state(basis), terms, 3.8, readout=ux4)
        # C = 2*quality*|beta| with |beta| = 1/2 on the leakage-free grid
        assert scan.amplitude == pytest.approx(ux4.quality, abs=1e-8)
        assert scan.frequency_mhz == pytest.approx(4 * 3.8)
        assert np.all(np.abs(scan.parity) <= 1.0 + 1e-9)

    def test_phase_matches_coherence_argument(self, chain4, ux4):
        basis, terms = chain4
        for phi in (0.6, -1.3):
            psi = ghz_state(basis, phi=phi)
            scan = parity_oscillation_scan(psi, terms, 3.8, readout=ux4)
            expected = np.angle(exact_ghz_decomposition(psi).coherence)
            assert scan.phase == pytest.approx(expected, abs=1e-6)

    def test_ideal_readout_saturates(self, chain4):
        basis, terms = chain4
        ideal = ideal_rotation_readout(basis)
        scan = parity_oscillation_scan(ghz_state(basis), terms, 3.8, readout=ideal)
        assert scan.amplitude == pytest.approx(1.0, abs=1e-9)
        bound = coherence_lower_bound(scan)
        assert bound.bound == pytest.approx(0.5, abs=1e-9)

    def test_mixed_state_gives_no_oscillation(self, chain4, ux4):
        basis, terms = chain4
        i_a, i_abar = basis.ghz_indices()
        rho = np.zeros((basis.dim, basis.dim), dtype=complex)
        rho[i_a, i_a] = rho[i_abar, i_abar] = 0.5
        scan = parity_oscillation_scan(rho, terms, 3.8, readout=ux4, basis=basis)
        assert scan.amplitude < 1e-10

    def test_bound_soundness_random_rho(self, ux4):
        for n, n_cases in ((4, 120), (6, 60)):
            basis = enumerate_basis(ChainGeometry(n))
            terms = build_terms(basis)
            ux = ux4 if n == 4 else optimal_ux_duration(terms)
            i_a, i_abar = basis.ghz_indices()
            rng = np.random.default_rng(100 + n)
            for _ in range(n_cases):
                rho = random_ghz_like_density_matrix(rng, basis.dim, i_a, i_abar)
                beta = abs(rho[i_a, i_abar])
                scan = parity_oscillation_scan(rho, terms, 3.8, readout=ux,
                                               basis=basis)
                bound = coherence_lower_bound(scan)
                assert bound.bound <= beta + 1e-6
                assert bound.bound <= 0.5 + 1e-12

    def test_shots_raw_mode(self, chain4, ux4):
        basis, terms = chain4
        scan = parity_oscillation_scan(
            ghz_state(basis), terms, 3.8, readout=ux4, mode="shots-raw",
            detection=DetectionModel().perfect(), n_shots=4000, seed=2,
        )
        assert scan.parity_sigma is not None
        assert scan.n_shots == 4000
        assert scan.amplitude == pytest.approx(ux4.quality, abs=0.05)

    def test_shots_inferred_mode(self, chain4, ux4):
        basis, terms = chain4
        exact = parity_oscillation_scan(ghz_state(basis), terms, 3.8, readout=ux4)
        noisy = parity_oscillation_scan(
            ghz_state(basis), terms, 3.8, readout=ux4, mode="shots-raw",
            n_shots=3000, seed=3,
        )
        inferred = parity_oscillation_scan(
            ghz_state(basis), terms, 3.8, readout=ux4, mode="shots-inferred",
            n_shots=3000, seed=3,
        )
        # detection errors shrink the raw amplitude; inference restores it
        assert noisy.amplitude < exact.amplitude
        assert abs(inferred.amplitude - exact.amplitude) < abs(
            noisy.amplitude - exact.amplitude
        )
        assert inferred.amplitude == pytest.approx(exact.amplitude, abs=0.06)

    def test_frequency_diagnostic_within_one_percent(self, chain8):
        basis, terms = chain8
        scan = parity_oscillation_scan(ghz_state(basis), terms, 3.8)
        found = dominant_frequency(scan.times_us, scan.parity)
        assert abs(found - 8 * 3.8) / (8 * 3.8) < 0.01

    def test_bound_tuple_unpacking(self, chain4, ux4):
        basis, terms = chain4
        scan = parity_oscillation_scan(ghz_state(basis), terms, 3.8, readout=ux4)
        bound, phase = coherence_lower_bound(scan)
        assert isinstance(bound, float) and isinstance(phase, float)
        assert 0.0 <= bound <= 0.5

    def test_validation(self, chain4, ux4):
        basis, terms = chain4
        with pytest.raises(ValidationError):
            parity_oscillation_scan(ghz_state(basis), terms, 3.8, readout=ux4,
                                    mode="telepathy")
        odd = enumerate_basis(ChainGeometry(3))
        with pytest.raises(ValidationError):
            parity_oscillation_scan(
                basis_state(odd, "000"), build_terms(odd), 3.8, readout=0.07
            )
        rho = np.eye(basis.dim) / basis.dim
        with pytest.raises(ValidationError):
            parity_oscillation_scan(rho, terms, 3.8, readout=ux4)
        with pytest.raises(ValidationError):
            parity_oscillation_scan(rho, terms, 3.8, readout=ux4, basis=basis,
                                    mode="shots-raw")

    def test_table_output(self, chain4, ux4):
        basis, terms = chain4
        scan = parity_oscillation_scan(ghz_state(basis), terms, 3.8, readout=ux4)
        table = scan.to_table()
        assert "# columns: time_us,parity" in table
        data_lines = [l for l in table.splitlines() if not l.startswith("#")]
        assert len(data_lines) == scan.times_us.size
        first_time = float(data_lines[0].split(",")[0])
        assert first_time == scan.times_us[0]


def _prepared_state(basis, terms):
    """Short linear-ramp preparation; it runs in the even sector."""
    sim = PreparationSimulator(terms, LocalShifts.preparation_default(basis.n_sites),
                               dt=0.005)
    return sim.final_state(ramp_pulse(RampSpec(kind="linear", total_time_us=0.4)))


def _even_random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    amps = amps + amps[basis.reflection]
    return StateVector(basis, amps / np.linalg.norm(amps))


def _dense_readout(terms, duration_us, omega_mhz=5.0):
    h = TWO_PI * omega_mhz * terms.coupling.toarray() + np.diag(terms.static_diagonal())
    u = expm(-1j * duration_us * h)
    return lambda psi: StateVector(psi.space, u @ psi.amplitudes)


def _krylov_readout(terms, duration_us, dt, omega_mhz=5.0):
    return lambda psi: apply_ux(psi, terms, duration_us, omega_mhz=omega_mhz, dt=dt)


def _per_time_parities(state, delta_p_mhz, times_us, rotate):
    """Reference: accumulate the probe phase, rotate, and measure, per time."""
    psi = state.in_full_basis()
    generator = staggered_field_generator(psi.space, delta_p_mhz)
    return np.array([
        parity_expectation(rotate(evolve_under_diagonal(psi, generator, t)))
        for t in times_us
    ])


class TestHarmonicScan:
    """The component-wise scan against a per-time readout loop."""

    DURATION_US = 0.07

    def _check(self, state, terms, rotate, dt=0.001, n_times=None):
        n = terms.basis.n_sites
        scan = parity_oscillation_scan(state, terms, 3.7, readout=self.DURATION_US,
                                       n_times=n_times or 2 * n + 2, dt=dt)
        expected = _per_time_parities(state, 3.7, scan.times_us, rotate)
        assert np.max(np.abs(scan.parity - expected)) <= 1e-10

    def test_dense_readout_n8(self, chain8):
        basis, terms = chain8
        rotate = _dense_readout(terms, self.DURATION_US)
        self._check(_prepared_state(basis, terms), terms, rotate)
        self._check(ghz_state(basis, phi=0.6), terms, rotate)

    def test_krylov_readout_n16(self):
        basis = enumerate_basis(ChainGeometry(16))
        terms = build_terms(basis)
        assert basis.dim == 2584
        rotate = _krylov_readout(terms, self.DURATION_US, dt=0.035)
        self._check(_prepared_state(basis, terms), terms, rotate, dt=0.035)
        self._check(ghz_state(basis, phi=0.6), terms, rotate, dt=0.035)

    def test_asymmetric_bond_factors(self):
        # Bond factors only act on adjacent excitations, so the basis must
        # admit one such pair for them to break the reflection symmetry.
        for n, dt in ((8, 0.001), (16, 0.035)):
            basis = enumerate_basis(ChainGeometry(n, max_adjacent_pairs=1))
            terms = build_terms(basis, bond_factors=np.linspace(0.8, 1.2, n - 1))
            assert not terms.static_is_reflection_symmetric()
            if basis.dim <= 1200:
                rotate = _dense_readout(terms, self.DURATION_US)
            else:
                rotate = _krylov_readout(terms, self.DURATION_US, dt)
            self._check(_even_random_state(basis, seed=n), terms, rotate, dt=dt)

    def test_callable_readout(self, chain8):
        basis, terms = chain8
        ideal = ideal_rotation_readout(basis)
        for psi in (_prepared_state(basis, terms), ghz_state(basis, phi=0.6)):
            scan = parity_oscillation_scan(psi, terms, 3.7, readout=ideal, n_times=18)
            expected = _per_time_parities(psi, 3.7, scan.times_us, ideal)
            assert np.max(np.abs(scan.parity - expected)) <= 1e-10

    def test_readouts_per_component_not_per_time(self, monkeypatch):
        import rydghz.protocols as protocols

        basis = enumerate_basis(ChainGeometry(16))
        terms = build_terms(basis)
        psi = _prepared_state(basis, terms)
        calls = []
        original = protocols._ConstantDrive.rotate

        def counting(self, block, *args, **kwargs):
            calls.append(block.shape[1])
            return original(self, block, *args, **kwargs)

        monkeypatch.setattr(protocols._ConstantDrive, "rotate", counting)
        counts = []
        for n_times in (34, 50):
            calls.clear()
            parity_oscillation_scan(psi, terms, 3.7, readout=self.DURATION_US,
                                    n_times=n_times, dt=0.035)
            counts.append(sum(calls))
        assert counts[0] <= 16 // 2 + 1
        assert counts[0] == counts[1]

    def test_shots_raw_matches_per_time_sampling(self, chain8):
        basis, terms = chain8
        psi = _prepared_state(basis, terms).in_full_basis()
        model = DetectionModel()
        scan = parity_oscillation_scan(psi, terms, 3.7, readout=self.DURATION_US,
                                       n_times=18, mode="shots-raw", detection=model,
                                       n_shots=500, seed=40)
        rotate = _dense_readout(terms, self.DURATION_US)
        generator = staggered_field_generator(basis, 3.7)
        expected = [
            sample_shots(rotate(evolve_under_diagonal(psi, generator, t)), 500,
                         model=model, seed=40 + j).parities().mean()
            for j, t in enumerate(scan.times_us)
        ]
        np.testing.assert_array_equal(scan.parity, expected)

    def test_mode_checked_before_calibration(self, chain8, monkeypatch):
        import rydghz.protocols as protocols

        def no_calibration(*args, **kwargs):
            raise AssertionError("calibrated before checking the mode")

        monkeypatch.setattr(protocols, "optimal_ux_duration", no_calibration)
        basis, terms = chain8
        with pytest.raises(ValidationError, match="unknown scan mode"):
            parity_oscillation_scan(ghz_state(basis), terms, 3.7, mode="telepathy")


@pytest.fixture(scope="module")
def chain14():
    basis = enumerate_basis(ChainGeometry(14))
    return basis, build_terms(basis)


@pytest.fixture(scope="module")
def chain16():
    basis = enumerate_basis(ChainGeometry(16))
    return basis, build_terms(basis)


class TestConstantDriveWalk:
    """Readout and Bell rotations: one Krylov dense-output walk at every size."""

    DURATION_US = 0.07

    def test_coarse_dt_refused(self, chain8):
        # dt = 0.5 leaves no whole step in the 50-70 ns rotations.
        basis, terms = chain8
        psi = ghz_state(basis)
        with pytest.raises(ValidationError, match="does not divide"):
            apply_ux(psi, terms, 0.05, dt=0.5)
        with pytest.raises(ValidationError, match="does not divide"):
            bell_distribution_protocol(None, None, terms, initial_state=psi, dt=0.5)
        with pytest.raises(ValidationError, match="does not divide"):
            parity_oscillation_scan(psi, terms, 3.7, readout=self.DURATION_US, dt=0.5)

    def test_readout_matches_dense_exponential_n14(self, chain14):
        basis, terms = chain14
        assert basis.dim == 987
        u = constant_drive_propagator(basis, TWO_PI * 5.0, self.DURATION_US)
        states = (_prepared_state(basis, terms).in_full_basis(), ghz_state(basis, phi=0.6),
                  _even_random_state(basis, seed=14))
        for psi in states:
            rotated = apply_ux(psi, terms, self.DURATION_US)
            assert np.abs(rotated.amplitudes - u @ psi.amplitudes).max() <= 1e-10
            scan = parity_oscillation_scan(psi, terms, 3.7, readout=self.DURATION_US,
                                           n_times=30)
            expected = _per_time_parities(
                psi, 3.7, scan.times_us, lambda s: StateVector(s.space, u @ s.amplitudes))
            assert np.abs(scan.parity - expected).max() <= 1e-10

    def test_bell_fringe_matches_dense_exponential_n14(self, chain14):
        basis, terms = chain14
        n = basis.n_sites
        rng = np.random.default_rng(14)
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        psi = StateVector(basis, amps / np.linalg.norm(amps))
        phases = np.array([0.4, 1.3, 2.9])
        out = bell_distribution_protocol(None, None, terms, initial_state=psi, phases=phases)
        duration = 0.25 / 5.0
        u0 = constant_drive_propagator(basis, TWO_PI * 5.0, duration, drive_sites=(1, n))
        converted = out.state_converted.amplitudes
        assert np.abs(converted - u0 @ psi.amplitudes).max() <= 1e-10
        bits = basis.bits_matrix()
        sign = np.where((bits[:, 0] + bits[:, -1]) % 2 == 0, 1.0, -1.0)
        for phi, value in zip(phases, out.edge_parity):
            u = constant_drive_propagator(basis, TWO_PI * 5.0, duration, drive_sites=(1, n),
                                          drive_phase=phi)
            assert abs(value - sign @ (np.abs(u @ converted) ** 2)) <= 1e-10

    def test_walk_builds_few_bases(self, chain16, engine_matvecs):
        # 70 stops of 1 ns: at most two Lanczos bases per column.
        basis, terms = chain16
        apply_ux(ghz_state(basis, phi=0.6), terms, self.DURATION_US, dt=0.001)
        assert 0 < len(engine_matvecs) <= 2 * propagate.KRYLOV_MAX_DIM
        engine_matvecs.clear()
        phases = np.array([0.4, 1.3, 2.9])
        bell_distribution_protocol(None, None, terms, initial_state=ghz_state(basis),
                                   phases=phases)
        assert 0 < len(engine_matvecs) <= 4 * 2 * propagate.KRYLOV_MAX_DIM

    def test_fringe_rotations_do_not_grow_with_the_phases(self, chain16, monkeypatch):
        # The conversion and at most three edge-excitation parts are walked,
        # whatever the number of fringe phases.
        basis, terms = chain16
        columns = []
        rotate = protocols._ConstantDrive.rotate

        def counting(self, block, *args, **kwargs):
            columns.append(block.shape[1])
            return rotate(self, block, *args, **kwargs)

        monkeypatch.setattr(protocols._ConstantDrive, "rotate", counting)
        counts = []
        for n_phases in (3, 48):
            columns.clear()
            bell_distribution_protocol(
                None, None, terms, initial_state=ghz_state(basis),
                phases=np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False))
            counts.append(sum(columns))
        assert counts[0] <= 4
        assert counts[0] == counts[1]

    def test_resonant_drive_matvec_is_the_engines(self, chain16, engine_matvecs):
        # Readout and Bell rotations take their matvec from
        # SampledEvolution.matvec_at, where a caller can count it.
        basis, terms = chain16
        apply_ux(ghz_state(basis), terms, self.DURATION_US)
        assert 0 < len(engine_matvecs) <= 2 * propagate.KRYLOV_MAX_DIM
        engine_matvecs.clear()
        bell_distribution_protocol(None, None, terms, initial_state=ghz_state(basis),
                                   phases=np.array([0.4, 1.3, 2.9]))
        assert engine_matvecs

    def test_stop_spacing_does_not_change_the_result(self, chain16):
        basis, terms = chain16
        for psi in (_prepared_state(basis, terms).in_full_basis(),
                    _even_random_state(basis, seed=16)):
            fine = apply_ux(psi, terms, self.DURATION_US, dt=0.001).amplitudes
            coarse = apply_ux(psi, terms, self.DURATION_US, dt=0.035).amplitudes
            assert np.abs(fine - coarse).max() <= 1e-12


class TestCorrelations:
    def test_ghz_pattern(self, chain8):
        basis, _ = chain8
        result = g2_correlations(ghz_state(basis))
        for i in range(8):
            for j in range(8):
                if i == j:
                    continue
                expected = 0.25 if (i - j) % 2 == 0 else -0.25
                assert result.matrix[i, j] == pytest.approx(expected, abs=1e-12)
        assert np.allclose(result.matrix, result.matrix.T, atol=1e-14)
        assert result.radial[0] == pytest.approx(-0.25)
        assert result.radial[1] == pytest.approx(0.25)

    def test_product_states_are_flat(self, chain4):
        basis, _ = chain4
        zeros = g2_correlations(basis_state(basis, "0000"))
        ordered = g2_correlations(basis_state(basis, "0101"))
        assert np.allclose(zeros.matrix, 0.0, atol=1e-14)
        assert np.allclose(ordered.matrix, 0.0, atol=1e-14)

    def test_shots_path(self, chain8):
        from rydghz.detection import sample_shots

        basis, _ = chain8
        shots = sample_shots(ghz_state(basis), 20_000,
                             model=DetectionModel().perfect(), seed=4)
        result = g2_correlations(shots)
        assert result.radial[1] == pytest.approx(0.25, abs=0.02)
        assert result.radial[0] == pytest.approx(-0.25, abs=0.02)


class TestDimerModel:
    def test_free_optimum_at_pi_over_sqrt2(self):
        for n_dimers in (1, 3):
            result = dimer_model_contrast(n_dimers, v_mhz=0.0, v2_mhz=0.0)
            predicted = (np.pi / np.sqrt(2.0)) / TWO_PI / 5.0
            assert abs(result.optimal_time_us - predicted) <= 0.001
            assert result.optimal_contrast == pytest.approx(1.0, abs=1e-3)

    def test_single_dimer_matches_two_site_chain(self):
        from rydghz.controls import constant_pulse
        from rydghz.propagate import evolve

        basis = enumerate_basis(ChainGeometry(2))
        terms = build_terms(basis)
        dimer = dimer_model_contrast(1)
        times = dimer.times_us
        np.testing.assert_allclose(times, 0.001 * np.arange(1, 151), rtol=0, atol=1e-15)
        chain = np.empty(times.size)
        for j, t in enumerate(times):
            pulse = constant_pulse(t, 5.0)
            plus = evolve(ghz_state(basis, 0.0), pulse, terms, dt=0.0005)
            minus = evolve(ghz_state(basis, np.pi), pulse, terms, dt=0.0005)
            chain[j] = (parity_expectation(plus) - parity_expectation(minus)) / 2.0
        assert np.max(np.abs(dimer.contrast - chain)) < 1e-8

    def test_sparse_grid_walks_through_stops(self):
        # No single Lanczos basis reaches 0.15 us at N=7 dimers (dim 2187):
        # the walk passes the 1 ns grid stops, one basis after another.
        full = dimer_model_contrast(7)
        assert abs(full.times_us[-1] - 0.15) <= 1e-12
        coupling, diagonal, parity = protocols._dimer_operators(
            7, TWO_PI * full.v_mhz, TWO_PI * full.v2_mhz)
        h = TWO_PI * full.omega_mhz * coupling + sparse.diags(diagonal)
        plus, minus = np.zeros((2, diagonal.size), dtype=complex)
        plus[0] = minus[-1] = 1.0
        u_plus, u_minus = (expm_multiply(-1j * full.times_us[-1] * h, v) for v in (plus, minus))
        assert abs(full.contrast[-1] - np.vdot(u_minus, parity * u_plus).real) <= 1e-10

    def test_v2_strictly_reduces_contrast(self):
        free = dimer_model_contrast(3, v_mhz=24.0, v2_mhz=0.0)
        coupled = dimer_model_contrast(3, v_mhz=24.0, v2_mhz=0.375)
        assert coupled.optimal_contrast < free.optimal_contrast

    def test_validation(self):
        with pytest.raises(ValidationError):
            dimer_model_contrast(0)


@pytest.fixture(scope="module")
def distributed(chain8):
    _, terms = chain8
    basis = terms.basis
    reverse = standard_guess_pulse(1.2, delta_start_mhz=20.0,
                                   delta_stop_mhz=-20.0)
    return bell_distribution_protocol(
        None, reverse, terms, initial_state=ghz_state(basis)
    )


class TestBellDistribution:
    def test_bulk_returns_to_ground(self, distributed):
        assert distributed.bulk_ground_min > 0.95

    def test_edge_pair_is_entangled(self, distributed):
        assert distributed.purity > 0.6
        assert distributed.edge_populations[1] > 0.4
        assert distributed.edge_populations[2] > 0.4
        assert abs(distributed.exact_coherence) > 0.3
        assert distributed.exact_bell_fidelity > 0.8

    def test_conversion_patterns(self, distributed):
        assert distributed.population_all_ground > 0.35
        assert distributed.population_edges_excited > 0.35
        assert distributed.pattern_population > 0.75
        # converted edge populations show up on the two edge sites
        assert distributed.site_populations[0] > 0.35
        assert distributed.site_populations[-1] > 0.35
        assert distributed.site_populations[1:-1].max() < 0.05

    def test_fringe(self, distributed):
        fit = distributed.fringe_fit
        assert fit.amplitude > 0.75
        # extremum at phase zero: fitted E = offset + C cos(2 phi - pi)
        assert abs(abs(fit.phase) - np.pi) < 0.1
        predicted_at_zero = fit.offset + fit.amplitude * np.cos(-fit.phase)
        assert distributed.edge_parity[0] == pytest.approx(predicted_at_zero,
                                                           abs=0.05)
        # the model explains the whole fringe, so it is 2 pi periodic
        assert fit.residual_rms < 0.05

    def test_fringe_matches_per_phase_rotation(self, distributed, chain8):
        # each fringe point against its own dense phase-phi propagator
        basis, terms = chain8
        n = basis.n_sites
        omega = TWO_PI * 5.0
        duration = 0.25 / 5.0
        static = np.diag(terms.static_diagonal(None))
        bits = basis.bits_matrix()
        sign = np.where((bits[:, 0] + bits[:, -1]) % 2 == 0, 1.0, -1.0)
        converted = distributed.state_converted.amplitudes
        for phi, value in zip(distributed.phases, distributed.edge_parity):
            coupling = drive_coupling(basis, sites=(1, n), phase=phi).toarray()
            u = expm(-1j * duration * (omega * coupling + static))
            expected = sign @ (np.abs(u @ converted) ** 2)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_krylov_fringe_matches_rephased_drive(self):
        basis = enumerate_basis(ChainGeometry(16))  # dim 2584
        terms = build_terms(basis)
        n = basis.n_sites
        rng = np.random.default_rng(3)
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        phases = np.array([0.4, 1.3, 2.9])
        out = bell_distribution_protocol(
            None, None, terms, initial_state=StateVector(basis, amps).normalized(),
            phases=phases,
        )
        bits = basis.bits_matrix()
        sign = np.where((bits[:, 0] + bits[:, -1]) % 2 == 0, 1.0, -1.0)
        pulse = constant_pulse(0.25 / 5.0, 5.0)
        for phi, value in zip(phases, out.edge_parity):
            engine = SampledEvolution(basis, terms,
                                      coupling=drive_coupling(basis, sites=(1, n), phase=phi))
            probed = engine.run(out.state_converted.amplitudes, pulse)
            assert value == pytest.approx(sign @ np.abs(probed) ** 2, abs=1e-10)

    def test_forward_pulse_matches_full_basis_sweeps(self):
        # The sweeps of an even state run in the even sector; the outputs
        # match sweeps forced onto the full basis and a fringe that rotates
        # every rephased copy of the converted state.
        n = 12
        basis = enumerate_basis(ChainGeometry(n))
        terms = build_terms(basis)
        forward = ramp_pulse(RampSpec(kind="linear", total_time_us=0.6))
        reverse = standard_guess_pulse(0.6, delta_start_mhz=20.0, delta_stop_mhz=-20.0)
        phases = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        out = bell_distribution_protocol(forward, reverse, terms, phases=phases, dt=0.002)

        start = ground_state(basis).amplitudes
        prepared = SampledEvolution(basis, terms, LocalShifts.preparation_default(n)).run(
            start, forward, dt=0.002)
        swept = SampledEvolution(basis, terms, LocalShifts.edge_isolation(n)).run(
            prepared, reverse, dt=0.002)
        assert out.state_after_sweep.space is basis
        assert np.abs(out.state_after_sweep.amplitudes - swept).max() <= 1e-12
        edges = protocols._ConstantDrive.resonant(basis, terms, 5.0,
                                                  drive_coupling(basis, sites=(1, n)))

        def rotate(amps):
            return edges.rotate(amps[:, None], 0.05, 0.002)[:, 0]

        converted = rotate(swept)
        assert np.abs(out.state_converted.amplitudes - converted).max() <= 1e-12
        bits = basis.bits_matrix()
        excitations = bits[:, 0] + bits[:, -1]
        sign = np.where(excitations % 2 == 0, 1.0, -1.0)
        fringe = np.array([sign @ np.abs(rotate(np.exp(1j * excitations * phi) * converted)) ** 2
                           for phi in phases])
        assert np.abs(out.edge_parity - fringe).max() <= 1e-12
        fit = protocols._fit_cosine(phases, fringe, omega=2.0)
        assert abs(out.fringe_fit.amplitude - fit.amplitude) <= 1e-12
        assert abs(out.fringe_fit.phase - fit.phase) <= 1e-12
        pattern = np.abs(converted[basis.index_of(0)]) ** 2 + np.abs(
            converted[basis.index_of((1 << (n - 1)) | 1)]) ** 2
        assert abs(out.fidelity_bound - (pattern + fit.amplitude) / 2.0) <= 1e-12

    @pytest.mark.parametrize("n_sites", [8, 12])
    def test_no_dense_exponential_per_protocol(self, n_sites, monkeypatch):
        # State-vector readouts and the Bell rotations walk Krylov dense
        # output; only a density-matrix scan exponentiates H densely.
        basis = enumerate_basis(ChainGeometry(n_sites))
        terms = build_terms(basis)
        calls = []

        def counting_expm(a):
            calls.append(a.shape)
            return expm(a)

        monkeypatch.setattr(protocols, "expm", counting_expm)
        psi = ghz_state(basis, phi=0.6)
        apply_ux(psi, terms, 0.07)
        parity_oscillation_scan(psi, terms, 3.7, readout=0.07, n_times=2 * n_sites + 2)
        bell_distribution_protocol(None, None, terms, initial_state=psi)
        assert calls == []
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        parity_oscillation_scan(rho, terms, 3.7, readout=0.07, n_times=2 * n_sites + 2,
                                basis=basis)
        assert calls == [(basis.dim, basis.dim)]

    def test_bound_below_exact(self, distributed):
        assert distributed.fidelity_bound <= distributed.exact_bell_fidelity + 0.01
        assert distributed.fidelity_bound > 0.8

    def test_skipping_reverse_leaves_mixed_edges(self, chain8):
        basis, terms = chain8
        out = bell_distribution_protocol(None, None, terms,
                                         initial_state=ghz_state(basis))
        assert out.purity == pytest.approx(0.5, abs=1e-9)
        assert out.exact_coherence == pytest.approx(0.0, abs=1e-12)

    def test_ghz_edge_reduction(self, chain8):
        basis, _ = chain8
        rho = edge_pair_density_matrix(ghz_state(basis))
        assert np.allclose(np.diag(rho).real, [0.0, 0.5, 0.5, 0.0], atol=1e-14)
        assert np.allclose(rho, rho.conj().T, atol=1e-14)
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_validation(self, chain8):
        basis, terms = chain8
        pulse = standard_guess_pulse(0.5)
        with pytest.raises(ValidationError):
            bell_distribution_protocol(pulse, None, terms,
                                       initial_state=ghz_state(basis))


class TestIdealRotationReadout:
    def test_unitary_embedding(self, chain4):
        basis, _ = chain4
        apply = ideal_rotation_readout(basis)
        out = apply(ghz_state(basis))
        assert out.space.dim == 16
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_size_limit(self):
        basis = enumerate_basis(ChainGeometry(16))
        with pytest.raises(ValidationError):
            ideal_rotation_readout(basis)
