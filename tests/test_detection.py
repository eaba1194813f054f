"""Detection model, grouped confusion matrices, and simplex inference."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from rydghz import detection
from rydghz.basis import ChainGeometry, enumerate_basis
from rydghz.detection import (
    DetectionModel,
    ExcitationGrouping,
    MagnetizationExcitationGrouping,
    ShotSet,
    bootstrap_uncertainty,
    infer_true_distribution,
    parity_from_distribution,
    sample_shots,
    sample_shots_from_distribution,
)
from rydghz.errors import InferenceError, ValidationError
from rydghz.hamiltonian import build_terms
from rydghz.propagate import StateVector, ghz_state
from rydghz.protocols import parity_oscillation_scan

from _oracles import simplex_kkt_violation


def brute_force_count_confusion(n_sites, p10, p01):
    """Enumerate every detected bitstring for one representative per count."""
    t = np.zeros((n_sites + 1, n_sites + 1))
    for n_true in range(n_sites + 1):
        true_bits = [1] * n_true + [0] * (n_sites - n_true)
        for detected in range(2 ** n_sites):
            prob = 1.0
            ones = 0
            for site in range(n_sites):
                bit = (detected >> site) & 1
                ones += bit
                if true_bits[site] == 1:
                    prob *= p01 if bit == 0 else 1.0 - p01
                else:
                    prob *= p10 if bit == 1 else 1.0 - p10
            t[ones, n_true] += prob
    return t


def loop_count_confusion(n_slots, p10, p01):
    """The count transfer built one true count at a time, in the same arithmetic."""

    def pmf(n, p):
        k = np.arange(n + 1)
        return np.array([math.comb(n, j) for j in k], dtype=float) * p**k * (1.0 - p) ** (n - k)

    return np.column_stack([np.convolve(pmf(n, 1.0 - p01), pmf(n_slots - n, p10))
                            for n in range(n_slots + 1)])


class TestDetectionModel:
    def test_defaults(self):
        model = DetectionModel()
        assert model.p10 == 0.0063
        assert model.p01 == 0.0227
        assert model.p10_uncertainty == 0.0001
        assert model.p01_uncertainty == 0.0042

    def test_validation(self):
        with pytest.raises(ValidationError):
            DetectionModel(p10=0.5)
        with pytest.raises(ValidationError):
            DetectionModel(p01=-0.01)
        with pytest.raises(ValidationError):
            DetectionModel(p10_uncertainty=-1.0)

    def test_perfect(self):
        perfect = DetectionModel().perfect()
        assert perfect.p10 == 0.0 and perfect.p01 == 0.0


class TestCountConfusion:
    def test_matches_brute_force(self):
        model = DetectionModel()
        grouping = ExcitationGrouping(5)
        expected = brute_force_count_confusion(5, model.p10, model.p01)
        assert np.allclose(grouping.confusion(model), expected, atol=1e-14)

    def test_columns_stochastic(self):
        confusion = ExcitationGrouping(12).confusion(DetectionModel())
        assert np.allclose(confusion.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(confusion >= 0)

    def test_perfect_model_is_identity(self):
        confusion = ExcitationGrouping(8).confusion(DetectionModel().perfect())
        assert np.allclose(confusion, np.eye(9))

    def test_closed_form_matches_scipy_binomial(self):
        from scipy.stats import binom

        from rydghz.detection import _binomial_count_confusion

        for p10, p01 in ((0.0063, 0.0227), (0.0, 0.0), (0.3, 0.45), (1e-4, 0.2)):
            for n_slots in range(11):
                confusion = _binomial_count_confusion(n_slots, p10, p01)
                expected = np.column_stack([
                    np.convolve(binom.pmf(np.arange(n + 1), n, 1.0 - p01),
                                binom.pmf(np.arange(n_slots - n + 1), n_slots - n, p10))
                    for n in range(n_slots + 1)
                ])
                assert np.max(np.abs(confusion - expected)) <= 1e-14
                assert np.allclose(confusion.sum(axis=0), 1.0, rtol=0.0, atol=1e-14)


    def test_equals_the_per_count_loop_exactly(self):
        from rydghz.detection import _binomial_count_confusion

        rng = np.random.default_rng(8)
        for n_slots in range(11):
            for p10, p01 in [(0.0063, 0.0227), (0.0, 0.0), *rng.uniform(0.0, 0.5, (5, 2))]:
                assert np.array_equal(_binomial_count_confusion(n_slots, p10, p01),
                                      loop_count_confusion(n_slots, p10, p01))


class TestJointGrouping:
    def test_group_count_and_order(self):
        grouping = MagnetizationExcitationGrouping(4)
        assert grouping.n_groups == 9
        assert grouping.groups == sorted(grouping.groups)
        # one representative pair per (k_odd, k_even) on a half-chain of 2
        assert grouping.groups[0] == (0, 0)
        assert grouping.groups[-1] == (4, 0)

    def test_target_groups_are_the_orderings(self):
        basis = enumerate_basis(ChainGeometry(4))
        grouping = MagnetizationExcitationGrouping(4)
        psi = ghz_state(basis)
        dist = grouping.distribution_of_state(psi)
        i_a = grouping.target_group_index()
        i_abar = grouping.mirror_group_index()
        assert grouping.groups[i_a] == (2, 4)
        assert grouping.groups[i_abar] == (2, -4)
        assert dist[i_a] == pytest.approx(0.5)
        assert dist[i_abar] == pytest.approx(0.5)
        assert dist.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("n_sites", [2, 8, 12, 20])
    def test_confusion_equals_permuted_kronecker_product_exactly(self, n_sites):
        grouping = MagnetizationExcitationGrouping(n_sites)
        size = n_sites // 2 + 1
        perm = np.empty(grouping.n_groups, dtype=np.int64)
        for k_odd in range(size):
            for k_even in range(size):
                perm[grouping._sub_index[k_odd, k_even]] = k_odd * size + k_even
        for model in (DetectionModel(), DetectionModel(p10=0.21, p01=0.37)):
            t = loop_count_confusion(size - 1, model.p10, model.p01)
            assert np.array_equal(grouping.confusion(model), np.kron(t, t)[np.ix_(perm, perm)])

    def test_confusion_matches_brute_force(self):
        model = DetectionModel(p10=0.05, p01=0.11)
        grouping = MagnetizationExcitationGrouping(4)
        confusion = grouping.confusion(model)
        expected = np.zeros_like(confusion)
        for g_true, (_, _) in enumerate(grouping.groups):
            # representative bitstring with the group's sublattice counts
            k_odd = next(
                ko for ko in range(3) for ke in range(3)
                if grouping._sub_index[ko, ke] == g_true
            )
            k_even = next(
                ke for ko in range(3) for ke in range(3)
                if grouping._sub_index[ko, ke] == g_true
            )
            bits_true = np.zeros(4, dtype=int)
            bits_true[0:2 * k_odd:2] = 1
            bits_true[1:2 * k_even:2] = 1
            for detected in range(16):
                det = [(detected >> s) & 1 for s in range(4)]
                prob = 1.0
                for s in range(4):
                    if bits_true[s] == 1:
                        prob *= model.p01 if det[s] == 0 else 1.0 - model.p01
                    else:
                        prob *= model.p10 if det[s] == 1 else 1.0 - model.p10
                shot = ShotSet(4, np.asarray([det], dtype=np.uint8))
                g_det = grouping.group_of_shots(shot)[0]
                expected[g_det, g_true] += prob
        assert np.allclose(confusion, expected, atol=1e-13)

    def test_ordering_retention_value(self):
        # perfectly ordered 20-site pattern read back unchanged
        model = DetectionModel()
        grouping = MagnetizationExcitationGrouping(20)
        confusion = grouping.confusion(model)
        i_a = grouping.target_group_index()
        expected = (1.0 - model.p10) ** 10 * (1.0 - model.p01) ** 10
        assert confusion[i_a, i_a] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.74616, abs=5e-5)

    def test_rejects_odd_chain(self):
        with pytest.raises(ValidationError):
            MagnetizationExcitationGrouping(5)

    def test_monte_carlo_agrees_with_confusion(self):
        basis = enumerate_basis(ChainGeometry(8))
        grouping = MagnetizationExcitationGrouping(8)
        model = DetectionModel()
        psi = ghz_state(basis)
        v_true = grouping.distribution_of_state(psi)
        predicted = grouping.confusion(model) @ v_true
        n_shots = 40_000
        shots = sample_shots(psi, n_shots, model=model, seed=11)
        observed = grouping.observed_distribution(shots)
        sigma = np.sqrt(np.clip(predicted * (1 - predicted), 1e-12, None) / n_shots)
        assert np.all(np.abs(observed - predicted) < 3.5 * sigma + 5e-4)


class TestShots:
    def test_perfect_readout_of_ghz(self):
        basis = enumerate_basis(ChainGeometry(6))
        psi = ghz_state(basis)
        shots = sample_shots(psi, 500, model=DetectionModel().perfect(), seed=3)
        values = {"".join(map(str, row)) for row in shots.bits}
        assert values <= {"010101", "101010"}
        assert len(values) == 2

    def test_flip_rate(self):
        basis = enumerate_basis(ChainGeometry(10))
        probs = np.zeros(basis.dim)
        probs[0] = 1.0  # all zeros
        model = DetectionModel()
        shots = sample_shots_from_distribution(basis, probs, 20_000, model=model, seed=7)
        rate = shots.bits.mean()
        sigma = np.sqrt(model.p10 * (1 - model.p10) / (20_000 * 10))
        assert abs(rate - model.p10) < 4 * sigma

    def test_deterministic_by_seed(self):
        basis = enumerate_basis(ChainGeometry(4))
        psi = ghz_state(basis)
        a = sample_shots(psi, 64, seed=5)
        b = sample_shots(psi, 64, seed=5)
        assert np.array_equal(a.bits, b.bits)

    def test_bad_probability_vectors_refused(self):
        basis = enumerate_basis(ChainGeometry(4))
        probs = np.zeros(basis.dim)
        with pytest.raises(ValidationError, match="sums to zero"):
            sample_shots_from_distribution(basis, probs, 10)
        probs[0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            sample_shots_from_distribution(basis, probs, 10)
        probs[0] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            sample_shots_from_distribution(basis, probs, 10)

    def test_parities(self):
        shots = ShotSet(4, np.asarray([[0, 1, 0, 1], [1, 1, 1, 0], [0, 0, 0, 0]],
                                      dtype=np.uint8))
        assert list(shots.parities()) == [1, -1, 1]

    def test_text_round_trip(self):
        shots = ShotSet(3, np.asarray([[0, 1, 0], [1, 1, 1]], dtype=np.uint8),
                        metadata={"seed": 9, "hold_us": 0.25})
        loaded = ShotSet.from_text(shots.to_text())
        assert loaded.n_sites == 3
        assert np.array_equal(loaded.bits, shots.bits)
        assert loaded.metadata["seed"] == "9"
        assert loaded.metadata["hold_us"] == "0.25"

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValidationError, match="line 3"):
            ShotSet.from_text("# rydghz-shots\n0101\n01x1\n")
        with pytest.raises(ValidationError, match="line 3"):
            ShotSet.from_text("# rydghz-shots\n0101\n011\n")
        with pytest.raises(ValidationError, match="line 2"):
            ShotSet.from_text("# n_sites: 5\n0101\n")
        with pytest.raises(ValidationError):
            ShotSet.from_text("# only headers, no rows\n")


def _simplex_problems(grouping_class):
    """Seeded (observed, confusion) pairs over N = 4..20 and misread rates
    up to 0.3: frequencies of 2000 shots of a sparse parent distribution."""
    for n_sites in range(4, 21, 2):
        grouping = grouping_class(n_sites)
        n = grouping.n_groups
        for rate in (0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
            for seed in range(4):
                rng = np.random.default_rng([n_sites, round(100 * rate), seed])
                confusion = grouping.confusion(DetectionModel(rate * rng.uniform(0.3, 1.0), rate))
                parent = np.zeros(n)
                support = rng.choice(n, size=max(2, n // 5), replace=False)
                parent[support] = rng.dirichlet(np.ones(support.size))
                yield rng.multinomial(2000, confusion @ parent) / 2000, confusion


def _exchanges_alone_finish(observed, confusion):
    """Whether block exchanges from the all-free start, with no walk to
    finish, reach an optimal partition within 10 n + 100 solves.  Each
    swaps every free group below -1e-12 and every bound group whose
    multiplier is below -KKT_TOL."""
    n = confusion.shape[1]
    mtm = confusion.T @ confusion
    mtw = confusion.T @ observed
    free = np.ones(n, dtype=bool)
    for _ in range(10 * n + 100):
        idx = np.flatnonzero(free)
        kkt = np.ones((idx.size + 1, idx.size + 1))
        kkt[:-1, :-1] = mtm[np.ix_(idx, idx)]
        kkt[-1, -1] = 0.0
        solution = np.linalg.solve(kkt, np.append(mtw[idx], 1.0))
        v = np.zeros(n)
        v[idx] = solution[:-1]
        mu = mtm @ v - mtw + solution[-1]
        swap = (free & (v < -1e-12)) | (~free & (mu < -detection.KKT_TOL))
        if not swap.any():
            return True
        free ^= swap
    return False


class TestInference:
    def test_exact_recovery_from_forward_model(self):
        grouping = ExcitationGrouping(8)
        model = DetectionModel()
        rng = np.random.default_rng(0)
        v_true = rng.dirichlet(np.ones(grouping.n_groups))
        confusion = grouping.confusion(model)
        result = infer_true_distribution(confusion @ v_true, confusion)
        assert np.allclose(result.distribution, v_true, atol=1e-9)
        assert result.kkt_residual < 1e-10
        assert result.residual_norm < 1e-12

    def test_noisy_recovery_stays_on_simplex(self):
        grouping = MagnetizationExcitationGrouping(8)
        confusion = grouping.confusion(DetectionModel())
        rng = np.random.default_rng(1)
        v_true = np.zeros(grouping.n_groups)
        v_true[grouping.target_group_index()] = 0.45
        v_true[grouping.mirror_group_index()] = 0.45
        v_true[0] = 0.10
        w = confusion @ v_true + rng.normal(0.0, 0.004, grouping.n_groups)
        result = infer_true_distribution(w, confusion)
        v = result.distribution
        assert np.all(v >= 0)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert result.kkt_residual < 1e-10
        assert len(result.active_set) > 0  # noise pushes empty groups to the bound

    def test_objective_beats_reference_solver(self):
        grouping = ExcitationGrouping(6)
        confusion = grouping.confusion(DetectionModel(p10=0.03, p01=0.08))
        rng = np.random.default_rng(2)
        for _ in range(5):
            w = rng.dirichlet(np.ones(grouping.n_groups) * 0.4)
            result = infer_true_distribution(w, confusion)

            def objective(v):
                r = confusion @ v - w
                return r @ r

            n = grouping.n_groups
            reference = minimize(
                objective,
                np.full(n, 1.0 / n),
                method="SLSQP",
                bounds=[(0.0, 1.0)] * n,
                constraints={"type": "eq", "fun": lambda v: v.sum() - 1.0},
                options={"ftol": 1e-14, "maxiter": 500},
            )
            assert objective(result.distribution) <= reference.fun + 1e-10

    def test_deterministic(self):
        grouping = MagnetizationExcitationGrouping(6)
        confusion = grouping.confusion(DetectionModel())
        rng = np.random.default_rng(3)
        w = rng.dirichlet(np.ones(grouping.n_groups) * 0.2)
        first = infer_true_distribution(w, confusion)
        second = infer_true_distribution(w, confusion)
        assert np.array_equal(first.distribution, second.distribution)
        assert first.active_set == second.active_set
        assert first.iterations == second.iterations

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            infer_true_distribution(np.ones(3), np.eye(4))

    @pytest.mark.parametrize("grouping_class",
                             [ExcitationGrouping, MagnetizationExcitationGrouping])
    def test_grid_where_exchanges_alone_cycle(self, grouping_class):
        exchanges_stall = 0
        previous = None
        for observed, confusion in _simplex_problems(grouping_class):
            cold = infer_true_distribution(observed, confusion)
            assert simplex_kkt_violation(cold.distribution, observed, confusion) <= 1e-10
            if previous is not None and len(previous.distribution) == len(observed):
                warm = infer_true_distribution(observed, confusion,
                                               active_set=previous.active_set)
                assert np.array_equal(warm.distribution, cold.distribution)
                assert warm.active_set == cold.active_set
            previous = cold
            exchanges_stall += not _exchanges_alone_finish(observed, confusion)
        # the walk finishes these; without it the exchanges would cycle
        assert exchanges_stall > 0

    @pytest.mark.parametrize("exchanges_finish", [True, False])
    def test_iteration_cap_counts_every_kkt_solve(self, monkeypatch, exchanges_finish):
        observed, confusion = next(
            (w, m) for w, m in _simplex_problems(ExcitationGrouping)
            if _exchanges_alone_finish(w, m) == exchanges_finish
            and infer_true_distribution(w, m).iterations > 2)
        result = infer_true_distribution(observed, confusion)
        monkeypatch.setattr(detection, "INFERENCE_ITERATIONS_PER_GROUP", 0)
        monkeypatch.setattr(detection, "INFERENCE_ITERATIONS_FLOOR", result.iterations - 1)
        with pytest.raises(InferenceError):
            infer_true_distribution(observed, confusion)
        monkeypatch.setattr(detection, "INFERENCE_ITERATIONS_FLOOR", result.iterations)
        capped = infer_true_distribution(observed, confusion)
        assert np.array_equal(capped.distribution, result.distribution)
        assert capped.iterations == result.iterations

    def test_iteration_cap_raises(self, monkeypatch):
        confusion = ExcitationGrouping(4).confusion(DetectionModel())
        monkeypatch.setattr(detection, "INFERENCE_ITERATIONS_PER_GROUP", 0)
        monkeypatch.setattr(detection, "INFERENCE_ITERATIONS_FLOOR", 0)
        with pytest.raises(InferenceError):
            infer_true_distribution(np.ones(5) / 5, confusion)

    def test_non_finite_input_refused(self):
        confusion = ExcitationGrouping(4).confusion(DetectionModel())
        w = np.ones(5) / 5
        w[2] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            infer_true_distribution(w, confusion)
        bad = confusion.copy()
        bad[1, 3] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            infer_true_distribution(np.ones(5) / 5, bad)

    def test_bad_active_set_refused(self):
        confusion = ExcitationGrouping(4).confusion(DetectionModel())
        w = np.ones(5) / 5
        for active_set in ((0, 5), (-1,), (1.0, 2.0), (True, False)):
            with pytest.raises(ValidationError, match="active set"):
                infer_true_distribution(w, confusion, active_set=active_set)

    def test_warm_start_reaches_the_cold_minimizer(self):
        grouping = MagnetizationExcitationGrouping(8)
        confusion = grouping.confusion(DetectionModel())
        rng = np.random.default_rng(4)
        n = grouping.n_groups
        for _ in range(10):
            w = rng.dirichlet(np.ones(n) * 0.2)
            cold = infer_true_distribution(w, confusion)
            for active_set in ((), cold.active_set, tuple(range(0, n, 2)),
                               tuple(range(n)), np.arange(n - 1)):
                warm = infer_true_distribution(w, confusion, active_set=active_set)
                assert np.allclose(warm.distribution, cold.distribution, rtol=0, atol=1e-12)
                assert warm.active_set == cold.active_set
                assert warm.kkt_residual < 1e-10
            # starting from the solution's own active set ends on the first solve
            assert infer_true_distribution(
                w, confusion, active_set=cold.active_set).iterations == 1

    def test_active_set_of_every_group_is_the_cold_start(self):
        grouping = MagnetizationExcitationGrouping(6)
        confusion = grouping.confusion(DetectionModel())
        w = np.random.default_rng(5).dirichlet(np.ones(grouping.n_groups) * 0.3)
        cold = infer_true_distribution(w, confusion)
        full = infer_true_distribution(w, confusion, active_set=range(grouping.n_groups))
        assert np.array_equal(full.distribution, cold.distribution)
        assert full.active_set == cold.active_set
        assert full.iterations == cold.iterations


class TestBootstrap:
    def _shots(self):
        basis = enumerate_basis(ChainGeometry(4))
        psi = ghz_state(basis)
        return sample_shots(psi, 600, model=DetectionModel(), seed=21)

    def test_sigma_positive_and_deterministic(self):
        shots = self._shots()
        grouping = ExcitationGrouping(4)
        a = bootstrap_uncertainty(shots, grouping, n_resamples=40, seed=5)
        b = bootstrap_uncertainty(shots, grouping, n_resamples=40, seed=5)
        assert a.sigma_defined
        assert a.sigma.shape == (grouping.n_groups,)
        assert np.all(a.sigma >= 0) and a.sigma.max() > 0
        assert np.array_equal(a.samples, b.samples)

    def test_single_resample_flagged(self):
        result = bootstrap_uncertainty(self._shots(), ExcitationGrouping(4),
                                       n_resamples=1, seed=0)
        assert result.sigma is None
        assert not result.sigma_defined
        with pytest.raises(ValidationError):
            bootstrap_uncertainty(self._shots(), ExcitationGrouping(4), n_resamples=0)


def _recording_inference(monkeypatch, warm):
    """Route detection.infer_true_distribution through a recorder.

    With warm=False the given active set is dropped, so every call starts
    cold, as before warm starts existed.  Returns the list of results.
    """
    original = detection.infer_true_distribution
    results = []

    def recorded(observed, confusion, *args, active_set=None, **kwargs):
        if warm and active_set is not None:
            kwargs["active_set"] = active_set
        result = original(observed, confusion, *args, **kwargs)
        results.append((active_set, result))
        return result

    monkeypatch.setattr(detection, "infer_true_distribution", recorded)
    return results


def _ghz_like_state(basis, spread, seed):
    """A GHZ state with some weight on every other configuration."""
    amplitudes = ghz_state(basis).amplitudes + spread * np.random.default_rng(seed).normal(
        size=basis.dim)
    return StateVector(basis, amplitudes / np.linalg.norm(amplitudes))


def _ghz_shots(n_sites, n_shots, seed):
    psi = _ghz_like_state(enumerate_basis(ChainGeometry(n_sites)), 0.08, seed)
    return sample_shots(psi, n_shots, model=DetectionModel(), seed=seed)


class TestWarmStartedCallers:
    @pytest.mark.parametrize("n_sites", [8, 12])
    def test_bootstrap_samples_match_cold_starts(self, monkeypatch, n_sites):
        shots = _ghz_shots(n_sites, 3000, seed=n_sites)
        grouping = MagnetizationExcitationGrouping(n_sites)
        with monkeypatch.context() as patch:
            _recording_inference(patch, warm=False)
            cold = bootstrap_uncertainty(shots, grouping, n_resamples=60, seed=2)
        warm = bootstrap_uncertainty(shots, grouping, n_resamples=60, seed=2)
        assert np.array_equal(warm.samples, cold.samples)
        assert np.array_equal(warm.sigma, cold.sigma)

    def test_bootstrap_warm_starts_save_iterations(self, monkeypatch):
        shots = _ghz_shots(12, 3000, seed=1)
        grouping = MagnetizationExcitationGrouping(12)
        with monkeypatch.context() as patch:
            cold = _recording_inference(patch, warm=False)
            bootstrap_uncertainty(shots, grouping, n_resamples=50, seed=3)
        with monkeypatch.context() as patch:
            warm = _recording_inference(patch, warm=True)
            bootstrap_uncertainty(shots, grouping, n_resamples=50, seed=3)
        assert len(warm) == len(cold) == 50
        # every resample after the first starts from its neighbour's active set
        assert warm[0][0] is None
        assert all(warm[b][0] == warm[b - 1][1].active_set for b in range(1, 50))
        assert sum(r.iterations for _, r in warm) < sum(r.iterations for _, r in cold)

    def test_bootstrap_counts_every_kkt_solve(self, monkeypatch):
        shots = _ghz_shots(12, 3000, seed=1)
        calls = _recording_inference(monkeypatch, warm=True)
        boot = bootstrap_uncertainty(shots, MagnetizationExcitationGrouping(12),
                                     n_resamples=50, seed=3)
        assert boot.iterations == sum(r.iterations for _, r in calls)
        assert boot.iterations >= 50

    def test_inferred_scan_matches_cold_starts(self, monkeypatch):
        basis = enumerate_basis(ChainGeometry(8))
        terms = build_terms(basis)
        psi = _ghz_like_state(basis, 0.05, seed=6)
        kwargs = dict(readout=0.075, n_times=20, mode="shots-inferred", n_shots=1500, seed=7)
        with monkeypatch.context() as patch:
            cold_calls = _recording_inference(patch, warm=False)
            cold = parity_oscillation_scan(psi, terms, 4.0, **kwargs)
        with monkeypatch.context() as patch:
            warm_calls = _recording_inference(patch, warm=True)
            warm = parity_oscillation_scan(psi, terms, 4.0, **kwargs)
        assert np.array_equal(warm.parity, cold.parity)
        assert len(warm_calls) == len(cold_calls) == 20
        assert all(warm_calls[j][0] == warm_calls[j - 1][1].active_set for j in range(1, 20))


class TestParityFromDistribution:
    def test_ghz_parity(self):
        basis = enumerate_basis(ChainGeometry(4))
        grouping = ExcitationGrouping(4)
        dist = grouping.distribution_of_state(ghz_state(basis))
        assert parity_from_distribution(dist, grouping) == pytest.approx(1.0)

    def test_single_excitation_parity(self):
        grouping = ExcitationGrouping(4)
        dist = np.zeros(5)
        dist[1] = 1.0
        assert parity_from_distribution(dist, grouping) == pytest.approx(-1.0)
        with pytest.raises(ValidationError):
            parity_from_distribution(np.ones(3), grouping)
