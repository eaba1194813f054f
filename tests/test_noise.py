"""Quenched disorder draws, coherence decay curves, noisy preparation."""

import math

import numpy as np
import pytest

from _oracles import evolve_under_diagonal, gaussian_coherence_modulus
from rydghz.basis import ChainGeometry, enumerate_basis, symmetry_sector
from rydghz.controls import standard_guess_pulse
from rydghz.errors import FitError, ValidationError
from rydghz.hamiltonian import LocalShifts, build_terms
from rydghz import noise
from rydghz.noise import (
    BOND_FACTOR_RANGE,
    CoherenceDecay,
    NoiseModel,
    decohered_ghz_coherence,
    disorder_realization,
    hold_survival,
    noisy_preparation,
)
from rydghz.propagate import (
    SampledEvolution,
    StateVector,
    ghz_state,
    ground_state,
)
from rydghz.protocols import exact_ghz_decomposition
from rydghz.units import TWO_PI

SIGMA_DEFAULT = 0.043


@pytest.fixture(scope="module")
def chain4():
    basis = enumerate_basis(ChainGeometry(4))
    return basis, build_terms(basis), LocalShifts.preparation_default(4)


@pytest.fixture(scope="module")
def ghz4(chain4):
    basis, _, _ = chain4
    return ghz_state(basis, 0.0)


def analytic_dephasing_time(n_sites, sigma_mhz=SIGMA_DEFAULT):
    # |beta| = exp(-(2 pi sigma t)^2 N / 2) = exp(-(t/T)^2) at T below.
    return math.sqrt(2.0) / (TWO_PI * sigma_mhz * math.sqrt(n_sites))


class TestNoiseModel:
    def test_defaults(self):
        model = NoiseModel()
        assert model.doppler_sigma_mhz == 0.043
        assert model.position_sigma == 0.05
        assert model.scattering_time_us == 75.0
        assert model.rydberg_lifetime_us == 150.0
        assert model.seed == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            NoiseModel(doppler_sigma_mhz=-0.01)
        with pytest.raises(ValidationError):
            NoiseModel(position_sigma=-1.0)
        with pytest.raises(ValidationError):
            NoiseModel(doppler_sigma_mhz=math.inf)
        with pytest.raises(ValidationError):
            NoiseModel(scattering_time_us=0.0)
        with pytest.raises(ValidationError):
            NoiseModel(rydberg_lifetime_us=-5.0)
        with pytest.raises(ValidationError):
            NoiseModel(seed=-1)

    def test_doppler_only_switches_decay_off(self):
        model = NoiseModel.doppler_only(doppler_sigma_mhz=0.1, seed=3)
        assert math.isinf(model.scattering_time_us)
        assert math.isinf(model.rydberg_lifetime_us)
        assert model.position_sigma == 0.0
        assert model.doppler_sigma_mhz == 0.1
        assert model.seed == 3


class TestDisorderRealization:
    def test_shapes(self, chain4):
        basis, _, _ = chain4
        draw = disorder_realization(NoiseModel(), basis.geometry, 0)
        assert draw.detuning_offsets_mhz.shape == (4,)
        assert draw.bond_multipliers.shape == (3,)

    def test_deterministic_per_seed_and_index(self, chain4):
        basis, _, _ = chain4
        model = NoiseModel(seed=11)
        first = disorder_realization(model, basis.geometry, 5)
        again = disorder_realization(model, basis.geometry, 5)
        assert np.array_equal(first.detuning_offsets_mhz, again.detuning_offsets_mhz)
        assert np.array_equal(first.bond_multipliers, again.bond_multipliers)
        other_k = disorder_realization(model, basis.geometry, 6)
        other_seed = disorder_realization(NoiseModel(seed=12), basis.geometry, 5)
        assert not np.array_equal(first.detuning_offsets_mhz, other_k.detuning_offsets_mhz)
        assert not np.array_equal(first.detuning_offsets_mhz, other_seed.detuning_offsets_mhz)

    def test_zero_sigma_draws_are_exact_identity(self, chain4):
        basis, _, _ = chain4
        model = NoiseModel(doppler_sigma_mhz=0.0, position_sigma=0.0)
        draw = disorder_realization(model, basis.geometry, 3)
        assert np.all(draw.detuning_offsets_mhz == 0.0)
        assert np.all(draw.bond_multipliers == 1.0)

    def test_sample_statistics_match_model(self, chain4):
        basis, _, _ = chain4
        model = NoiseModel(seed=2)
        draws = [disorder_realization(model, basis.geometry, k) for k in range(10_000)]
        offsets = np.concatenate([d.detuning_offsets_mhz for d in draws])
        log_mult = np.log(np.concatenate([d.bond_multipliers for d in draws]))
        assert abs(offsets.std() / model.doppler_sigma_mhz - 1.0) < 0.05
        assert abs(log_mult.std() / model.position_sigma - 1.0) < 0.05
        assert abs(offsets.mean()) < 3.0 * model.doppler_sigma_mhz / math.sqrt(offsets.size)

    def test_consecutive_realizations_uncorrelated(self, chain4):
        basis, _, _ = chain4
        model = NoiseModel(seed=4)
        first_site = np.array([
            disorder_realization(model, basis.geometry, k).detuning_offsets_mhz[0]
            for k in range(10_000)
        ])
        corr = np.corrcoef(first_site[:-1], first_site[1:])[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(first_site.size - 1)

    def test_bond_multipliers_clamped(self, chain4):
        basis, _, _ = chain4
        model = NoiseModel(position_sigma=2.0, seed=0)
        multipliers = np.concatenate([
            disorder_realization(model, basis.geometry, k).bond_multipliers
            for k in range(2000)
        ])
        low, high = BOND_FACTOR_RANGE
        assert multipliers.min() == low
        assert multipliers.max() == high

    def test_negative_index_rejected(self, chain4):
        basis, _, _ = chain4
        with pytest.raises(ValidationError):
            disorder_realization(NoiseModel(), basis.geometry, -1)


class TestHoldSurvival:
    def test_ghz_hold_rate(self):
        model = NoiseModel()
        times = np.linspace(0.0, 10.0, 11)
        expected = np.exp(-times * 4.0 * (1.0 / 75.0 + 1.0 / 150.0))
        assert np.allclose(hold_survival(8, model, times), expected, atol=1e-14)

    def test_monotone_in_time_and_sites(self):
        model = NoiseModel()
        times = np.linspace(0.0, 20.0, 41)
        for n in (4, 8, 12, 20):
            curve = hold_survival(n, model, times)
            assert np.all(np.diff(curve) < 0)
        t_fixed = np.array([5.0])
        by_n = [hold_survival(n, model, t_fixed)[0] for n in (4, 8, 12, 20)]
        assert all(a > b for a, b in zip(by_n, by_n[1:]))

    def test_decay_free_is_unit(self):
        model = NoiseModel.doppler_only()
        assert np.all(hold_survival(12, model, np.linspace(0, 50, 7)) == 1.0)


class TestDecoheredGhzCoherence:
    def test_matches_closed_form_within_three_se(self):
        # Monte Carlo mean must straddle the quenched-average oracle.
        basis = enumerate_basis(ChainGeometry(8))
        psi = ghz_state(basis, 0.0)
        grid = np.linspace(0.0, 1.3 * analytic_dephasing_time(8), 27)
        decay = decohered_ghz_coherence(psi, NoiseModel.doppler_only(), grid,
                                        n_realizations=1000)
        oracle = 0.5 * gaussian_coherence_modulus(grid, SIGMA_DEFAULT, 8)
        dev = np.abs(decay.modulus - oracle)
        assert dev[0] < 1e-14
        assert np.all(dev[1:] <= 3.0 * decay.stderr[1:])

    def test_matches_brute_force_realization_average(self, chain4, ghz4):
        # The vectorized phase average must equal evolving each disorder
        # diagonal (interaction included; its phase is common to A, Abar).
        basis, terms, _ = chain4
        model = NoiseModel.doppler_only()
        times = np.array([0.0, 0.4, 0.9, 1.7])
        decay = decohered_ghz_coherence(ghz4, model, times, n_realizations=50)
        bits = basis.bits_matrix().astype(float)
        for j, t in enumerate(times):
            acc = 0.0 + 0.0j
            for k in range(50):
                offsets = disorder_realization(model, basis.geometry, k).detuning_offsets_mhz
                diag = terms.interaction_diagonal - TWO_PI * (bits @ offsets)
                held = evolve_under_diagonal(ghz4, diag, t)
                drift = np.abs(held.amplitudes) ** 2 - np.abs(ghz4.amplitudes) ** 2
                assert np.max(np.abs(drift)) < 1e-12
                acc += exact_ghz_decomposition(held).coherence
            assert abs(abs(acc / 50.0) - decay.modulus[j]) < 1e-12

    def test_gaussian_fits_better_than_exponential(self, ghz4):
        grid = np.linspace(0.0, 1.2 * analytic_dephasing_time(4), 25)
        decay = decohered_ghz_coherence(ghz4, NoiseModel.doppler_only(), grid,
                                        n_realizations=800)
        assert decay.gaussian_residual < decay.exponential_residual
        assert abs(decay.gaussian_time_us / analytic_dephasing_time(4) - 1.0) < 0.1

    def test_timescale_ratio_follows_root_sites(self):
        fitted = {}
        for n in (8, 20):
            basis = enumerate_basis(ChainGeometry(n))
            psi = ghz_state(basis, 0.0)
            grid = np.linspace(0.0, 1.2 * analytic_dephasing_time(n), 25)
            fitted[n] = decohered_ghz_coherence(psi, NoiseModel.doppler_only(), grid,
                                                n_realizations=1000).gaussian_time_us
        assert abs(fitted[8] / fitted[20] / math.sqrt(2.5) - 1.0) < 0.1

    def test_survival_scales_modulus(self, ghz4):
        grid = np.linspace(0.0, 2.0, 9)
        free = decohered_ghz_coherence(ghz4, NoiseModel.doppler_only(), grid, n_realizations=64)
        lossy_model = NoiseModel(position_sigma=0.0)
        lossy = decohered_ghz_coherence(ghz4, lossy_model, grid, n_realizations=64)
        weight = hold_survival(4, lossy_model, grid)
        assert np.array_equal(lossy.modulus, free.modulus * weight)
        assert np.array_equal(lossy.stderr, free.stderr * weight)

    def test_sector_input_matches_full_basis(self, chain4, ghz4):
        basis, _, _ = chain4
        sym = symmetry_sector(basis, "even")
        psi_sector = StateVector(sym, sym.to_sector(ghz4.amplitudes))
        grid = np.linspace(0.0, 2.0, 9)
        model = NoiseModel.doppler_only()
        from_sector = decohered_ghz_coherence(psi_sector, model, grid, n_realizations=64)
        from_full = decohered_ghz_coherence(ghz4, model, grid, n_realizations=64)
        assert np.allclose(from_sector.modulus, from_full.modulus, atol=1e-14)

    def test_zero_sigma_keeps_coherence_constant(self, ghz4):
        model = NoiseModel.doppler_only(doppler_sigma_mhz=0.0)
        decay = decohered_ghz_coherence(ghz4, model, np.linspace(0.0, 5.0, 6), n_realizations=16)
        assert np.allclose(decay.modulus, 0.5, atol=1e-15)
        assert np.all(decay.stderr == 0.0)

    def test_fit_failure_attaches_curve(self, ghz4):
        with pytest.raises(FitError) as excinfo:
            decohered_ghz_coherence(
                ghz4, NoiseModel.doppler_only(), np.array([0.0, 1.0]), n_realizations=16
            )
        times, modulus, stderr = excinfo.value.curve
        assert times.shape == modulus.shape == stderr.shape == (2,)

    def test_validation(self, chain4, ghz4):
        basis, _, _ = chain4
        model = NoiseModel.doppler_only()
        with pytest.raises(ValidationError):
            decohered_ghz_coherence(ghz4, model, np.array([]))
        with pytest.raises(ValidationError):
            decohered_ghz_coherence(ghz4, model, np.array([-0.5, 1.0]))
        with pytest.raises(ValidationError):
            decohered_ghz_coherence(ghz4, model, np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValidationError):
            decohered_ghz_coherence(ghz4.amplitudes, model, np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValidationError):
            decohered_ghz_coherence(ground_state(basis), model, np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValidationError):
            decohered_ghz_coherence(ghz4, model, np.linspace(0, 1, 5), n_realizations=1)

    def test_table_output(self, ghz4):
        decay = decohered_ghz_coherence(
            ghz4, NoiseModel.doppler_only(), np.linspace(0.0, 2.0, 5), n_realizations=16
        )
        lines = decay.to_table().strip().split("\n")
        assert lines[0] == "# rydghz-coherence-decay"
        assert lines[1] == "# columns: time_us,coherence,stderr"
        assert len(lines) == 2 + 5
        t, m, s = (float(x) for x in lines[2].split(","))
        assert (t, m, s) == (0.0, decay.modulus[0], decay.stderr[0])

    def test_realization_count_override(self, ghz4):
        model = NoiseModel.doppler_only()
        decay = decohered_ghz_coherence(ghz4, model, np.linspace(0.0, 2.0, 5), n_realizations=48)
        assert decay.n_realizations == 48
        assert isinstance(decay, CoherenceDecay)


class TestNoisyPreparation:
    def test_zero_noise_reproduces_noiseless_exactly(self, chain4):
        basis, terms, shifts = chain4
        pulse = standard_guess_pulse(0.5)
        silent = NoiseModel(
            doppler_sigma_mhz=0.0, position_sigma=0.0,
            scattering_time_us=math.inf, rydberg_lifetime_us=math.inf,
        )
        result = noisy_preparation(pulse, terms, silent, shifts=shifts, n_realizations=3,
                                   dt=0.002)
        # The realizations run as one direct sum; without noise every copy's
        # diagonal is the engine's own, bit for bit, as in a stack of three
        # noiseless pulses, so realization k equals stacked row k exactly.
        # (Rows of one stack may differ from each other at rounding level.)
        reference = SampledEvolution(basis, terms, shifts).run(
            ground_state(basis).amplitudes, [pulse] * 3, dt=0.002
        )
        fidelities = np.array([exact_ghz_decomposition(StateVector(basis, row)).fidelity
                               for row in reference])
        assert np.all(result.fidelities == fidelities)
        assert np.all(result.survivals == 1.0)
        assert result.mean_fidelity == pytest.approx(fidelities[0], abs=1e-15)

    def test_stacked_realizations_match_single_runs(self):
        # More realizations than one stack holds, so the run is split.
        basis = enumerate_basis(ChainGeometry(8))
        terms = build_terms(basis)
        shifts = LocalShifts.preparation_default(8)
        pulse = standard_guess_pulse(0.3)
        model = NoiseModel(seed=4)
        count = noise._STACK_ROWS // basis.dim + 3
        result = noisy_preparation(pulse, terms, model, shifts=shifts, n_realizations=count,
                                   dt=0.005)
        start = ground_state(basis).amplitudes
        for k in range(count):
            draw = disorder_realization(model, basis.geometry, k)
            terms_k = build_terms(basis, bond_factors=draw.bond_multipliers)
            excited = []

            def accumulate(_t, amps, _exc=terms_k.excitations):
                excited.append(float(_exc @ np.abs(amps) ** 2) * 0.005)

            engine = SampledEvolution(basis, terms_k, shifts.plus(draw.detuning_offsets_mhz))
            amps = engine.run(start, pulse, dt=0.005, observer=accumulate)
            survival = math.exp(-sum(excited) / model.rydberg_lifetime_us
                                - pulse.tau * 4.0 / model.scattering_time_us)
            fidelity = exact_ghz_decomposition(StateVector(basis, amps)).fidelity
            assert result.survivals[k] == pytest.approx(survival, abs=1e-10)
            assert result.fidelities[k] == pytest.approx(survival * fidelity, abs=1e-10)

    def test_noiseless_bounds_noisy_mean(self, chain4):
        basis, terms, shifts = chain4
        pulse = standard_guess_pulse(0.5)
        noisy = noisy_preparation(
            pulse, terms, NoiseModel(), shifts=shifts, n_realizations=8, dt=0.002
        )
        reference = SampledEvolution(basis, terms, shifts).run(
            ground_state(basis).amplitudes, pulse, dt=0.002
        )
        noiseless = exact_ghz_decomposition(StateVector(basis, reference)).fidelity
        assert noisy.mean_fidelity < noiseless
        assert 0.0 < noisy.mean_fidelity <= 1.0

    def test_se_halves_when_realizations_quadruple(self, chain4):
        # CLT scaling of the stderr estimator; the fidelity distribution is
        # heavy-tailed, so the sample std needs hundreds of realizations.
        _, terms, shifts = chain4
        pulse = standard_guess_pulse(0.24)
        model = NoiseModel(seed=0)
        small = noisy_preparation(pulse, terms, model, shifts=shifts,
                                  n_realizations=500, dt=0.02)
        large = noisy_preparation(pulse, terms, model, shifts=shifts,
                                  n_realizations=2000, dt=0.02)
        ratio = small.fidelity_stderr / large.fidelity_stderr
        assert abs(ratio / 2.0 - 1.0) < 0.2

    def test_deterministic_by_model_seed(self, chain4):
        _, terms, shifts = chain4
        pulse = standard_guess_pulse(0.3)
        model = NoiseModel(seed=9)
        first = noisy_preparation(pulse, terms, model, shifts=shifts, n_realizations=4, dt=0.005)
        again = noisy_preparation(pulse, terms, model, shifts=shifts, n_realizations=4, dt=0.005)
        assert np.array_equal(first.fidelities, again.fidelities)
        assert np.array_equal(first.survivals, again.survivals)

    def test_fidelities_are_survival_weighted(self, chain4):
        _, terms, shifts = chain4
        pulse = standard_guess_pulse(0.3)
        result = noisy_preparation(
            pulse, terms, NoiseModel(), shifts=shifts, n_realizations=5, dt=0.005
        )
        assert len(result.decompositions) == 5
        assert np.all(result.survivals > 0.0) and np.all(result.survivals < 1.0)
        rebuilt = result.survivals * np.array([d.fidelity for d in result.decompositions])
        assert np.array_equal(result.fidelities, rebuilt)
        assert all(d.exact for d in result.decompositions)

    def test_metadata_flags_survival_simplification(self, chain4):
        _, terms, shifts = chain4
        result = noisy_preparation(
            standard_guess_pulse(0.3), terms, NoiseModel(), shifts=shifts,
            n_realizations=2, dt=0.005,
        )
        assert any("survival weight" in note for note in result.simplifications)

    def test_realization_count_sets_result_size(self, chain4):
        _, terms, shifts = chain4
        result = noisy_preparation(
            standard_guess_pulse(0.3), terms, NoiseModel(), shifts=shifts,
            n_realizations=3, dt=0.005,
        )
        assert result.n_realizations == 3
        assert result.fidelities.shape == (3,)
        assert result.mean_fidelity == result.fidelities.mean()

    @pytest.mark.parametrize("count", [0, -1])
    def test_realization_count_below_one_is_refused(self, chain4, count):
        _, terms, shifts = chain4
        with pytest.raises(ValidationError):
            noisy_preparation(standard_guess_pulse(0.3), terms, NoiseModel(), shifts=shifts,
                              n_realizations=count, dt=0.005)

    @pytest.mark.parametrize("dt", [0.0, math.nan, -0.005])
    def test_bad_dt_is_refused(self, chain4, dt):
        _, terms, shifts = chain4
        with pytest.raises(ValidationError):
            noisy_preparation(standard_guess_pulse(0.3), terms, NoiseModel(), shifts=shifts,
                              n_realizations=2, dt=dt)

    def test_zero_duration_pulse_leaves_the_ground_state(self, chain4):
        _, terms, shifts = chain4
        result = noisy_preparation(standard_guess_pulse(0.0), terms, NoiseModel(),
                                   shifts=shifts, n_realizations=2)
        assert np.all(result.survivals == 1.0)
        assert all(d.population_a == d.population_abar == 0.0 for d in result.decompositions)
