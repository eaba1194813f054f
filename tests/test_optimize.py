import numpy as np
import pytest
from scipy import sparse

from rydghz import optimize
from rydghz.basis import ChainGeometry, enumerate_basis, symmetry_sector
from rydghz.controls import standard_guess_pulse
from rydghz.errors import (
    OptimizationError,
    ScheduleSingularityError,
    SpectralError,
    ValidationError,
)
from rydghz.hamiltonian import LocalShifts, build_hamiltonian, build_terms
from rydghz.optimize import (
    DcrabConfig,
    FigureOfMerit,
    PreparationSimulator,
    RampSpec,
    diabaticity_schedule,
    diabaticity_weight,
    eigenpopulation_trace,
    gate_circuit_time_estimate,
    nelder_mead,
    optimize_dcrab,
    ramp_pulse,
    schedule_from_weight,
)
from rydghz.propagate import (
    DEGENERACY_TOL,
    SampledEvolution,
    StateVector,
    drive_matvec,
    ghz_state,
    ground_state,
)

from _oracles import TWO_PI, dense_diabatic_weight, dense_evolve


@pytest.fixture(scope="module")
def chain4():
    basis = enumerate_basis(ChainGeometry(4))
    terms = build_terms(basis)
    return basis, terms, LocalShifts.preparation_default(4)


@pytest.fixture(scope="module")
def sim4(chain4):
    _, terms, shifts = chain4
    return PreparationSimulator(terms, shifts, dt=0.0025)


class _CountingSimulator(PreparationSimulator):
    """Counts the pulses it propagates."""

    propagated = 0

    def evaluate(self, pulse, fom):
        self.propagated += len(pulse) if isinstance(pulse, list) else 1
        return super().evaluate(pulse, fom)


class _FailingFom:
    """The GHZ fidelity for `limit` calls, then a failure."""

    def __init__(self, limit):
        self.limit = limit
        self.calls = 0

    def evaluate(self, state):
        self.calls += 1
        if self.calls > self.limit:
            raise ValueError("figure of merit broke")
        return FigureOfMerit().evaluate(state)


@pytest.fixture(scope="module")
def dcrab8():
    """The seeded 2 x 8 dCRAB search at N = 8, on a counting simulator."""
    basis = enumerate_basis(ChainGeometry(8))
    shifts = LocalShifts.edges(8, -4.5)
    simulator = _CountingSimulator(build_terms(basis), shifts, dt=0.001)
    guess = ramp_pulse(RampSpec(kind="linear", total_time_us=1.1))
    cfg = DcrabConfig(super_iterations=2, max_evaluations=8, fom_tolerance=1e-12, seed=7)
    return basis, shifts, simulator, optimize_dcrab(guess, FigureOfMerit(), cfg, simulator)


@pytest.fixture(scope="module")
def dcrab4(chain4, sim4):
    guess = standard_guess_pulse(0.5)
    cfg = DcrabConfig(super_iterations=2, max_evaluations=30, seed=3)
    return guess, cfg, optimize_dcrab(guess, FigureOfMerit(), cfg, sim4)


class TestFigureOfMerit:
    def test_ghz_target_scores_one(self, chain4):
        basis, _, _ = chain4
        assert FigureOfMerit().evaluate(ghz_state(basis)) == pytest.approx(1.0)
        assert FigureOfMerit().evaluate(ground_state(basis)) == pytest.approx(0.0)

    def test_phase_convention(self, chain4):
        basis, _, _ = chain4
        state = ghz_state(basis, phi=0.9)
        assert FigureOfMerit(phase=0.9).evaluate(state) == pytest.approx(1.0)
        assert FigureOfMerit(phase=0.9 + np.pi).evaluate(state) == pytest.approx(0.0, abs=1e-12)

    def test_global_phase_invariance(self, chain4):
        basis, _, _ = chain4
        rng = np.random.default_rng(8)
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        psi = StateVector(basis, amps / np.linalg.norm(amps))
        rotated = StateVector(basis, psi.amplitudes * np.exp(1j * 1.234))
        for fom in (FigureOfMerit(), FigureOfMerit("bell_edge_fidelity")):
            assert fom.evaluate(rotated) == pytest.approx(fom.evaluate(psi), abs=1e-14)

    def test_matches_direct_overlap(self, chain4):
        basis, _, _ = chain4
        rng = np.random.default_rng(11)
        target = ghz_state(basis)
        for _ in range(10):
            amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
            psi = StateVector(basis, amps / np.linalg.norm(amps))
            expected = abs(np.vdot(target.amplitudes, psi.amplitudes)) ** 2
            assert FigureOfMerit().evaluate(psi) == pytest.approx(expected, abs=1e-12)

    def test_sector_state_expands(self, chain4):
        basis, _, _ = chain4
        sector = symmetry_sector(basis, "even")
        reduced = StateVector(sector, sector.to_sector(ghz_state(basis).amplitudes))
        assert FigureOfMerit().evaluate(reduced) == pytest.approx(1.0)

    def test_bell_edge_kind(self, chain4):
        basis, _, _ = chain4
        amps = np.zeros(basis.dim, dtype=complex)
        amps[basis.index_of(0b1000)] = 1.0 / np.sqrt(2.0)
        amps[basis.index_of(0b0001)] = 1.0 / np.sqrt(2.0)
        fom = FigureOfMerit("bell_edge_fidelity")
        assert fom.evaluate(StateVector(basis, amps)) == pytest.approx(1.0)
        assert fom.evaluate(ground_state(basis)) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            FigureOfMerit("maximal_cleverness")
        with pytest.raises(ValidationError):
            FigureOfMerit("state_overlap")


def _bowl(target):
    """Squared distance to `target`, scored for a stack of points."""
    return lambda points: np.sum((points - target) ** 2, axis=1)


class TestNelderMead:
    def test_quadratic_bowl_converges(self):
        target = np.array([0.3, -0.7])
        result = nelder_mead(
            _bowl(target),
            np.array([2.0, 2.0]),
            scale=1.0,
            max_evaluations=200,
            tolerance=1e-16,
        )
        assert result.n_evaluations <= 200
        assert np.linalg.norm(result.x - target) <= 1e-6

    def test_reports_best_of_history(self):
        target = np.array([1.0, 1.0, -2.0])
        result = nelder_mead(
            _bowl(target),
            np.zeros(3),
            max_evaluations=120,
            tolerance=1e-16,
        )
        assert result.value == result.values.min()
        assert float(np.sum((result.x - target) ** 2)) == result.value

    def test_budget_is_hard(self):
        calls = []

        def objective(points):
            calls.append(len(points))
            return np.sum(points**2, axis=1)

        result = nelder_mead(objective, np.array([3.0, 4.0]), max_evaluations=17,
                             tolerance=0.0)
        assert sum(calls) == 17
        assert result.n_evaluations == 17
        assert not result.converged

    def test_starting_simplex_is_one_call(self):
        calls = []

        def objective(points):
            calls.append(points.copy())
            return np.sum(points**2, axis=1)

        nelder_mead(objective, np.array([1.0, 2.0, 3.0]), max_evaluations=40)
        assert np.array_equal(calls[0], [[1, 2, 3], [2, 2, 3], [1, 3, 3], [1, 2, 4]])

    def test_budget_smaller_than_the_simplex(self):
        calls = []
        target = np.array([0.0, 1.0, 0.0, 0.0])

        def objective(points):
            calls.append(len(points))
            return _bowl(target)(points)

        result = nelder_mead(objective, np.zeros(4), max_evaluations=3)
        assert calls == [3]
        assert result.n_evaluations == 3
        assert np.array_equal(result.x, target)
        assert result.value == 0.0
        assert not result.converged

    def test_shrink_cut_by_the_budget(self):
        # 0 at the start point, 1 at the two axis vertices and 5 elsewhere:
        # reflection and contraction both fail, so the simplex shrinks.
        calls = []

        def objective(points):
            calls.append(points.copy())
            return np.array([
                0.0 if not x.any() else 1.0 if sorted(x) == [0.0, 1.0] else 5.0
                for x in points
            ])

        result = nelder_mead(objective, np.zeros(2), max_evaluations=6, tolerance=0.0)
        assert [len(c) for c in calls] == [3, 1, 1, 1]
        assert np.array_equal(calls[-1], [[0.5, 0.0]])
        assert result.n_evaluations == 6
        assert result.value == 0.0 and not result.x.any()
        assert not result.converged

    def test_tolerance_stops_early(self):
        result = nelder_mead(
            _bowl(np.zeros(2)), np.array([1.0, 1.0]),
            max_evaluations=200, tolerance=1e-2,
        )
        assert result.converged
        assert result.n_evaluations < 200

    def test_validation(self):
        objective = _bowl(0.0)
        with pytest.raises(ValidationError):
            nelder_mead(objective, np.array([]))
        with pytest.raises(ValidationError):
            nelder_mead(objective, np.array([1.0]), scale=0.0)
        with pytest.raises(ValidationError):
            nelder_mead(objective, np.array([1.0]), max_evaluations=0)
        with pytest.raises(ValidationError):
            nelder_mead(lambda points: 0.0, np.array([1.0]))


class TestDcrabConfig:
    def test_defaults(self):
        cfg = DcrabConfig()
        assert cfg.super_iterations == 8
        assert cfg.max_evaluations == 200
        assert cfg.fom_tolerance == pytest.approx(1e-5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            DcrabConfig(super_iterations=-1)
        with pytest.raises(ValidationError):
            DcrabConfig(max_evaluations=0)
        with pytest.raises(ValidationError):
            DcrabConfig(fom_tolerance=0.0)
        with pytest.raises(ValidationError):
            DcrabConfig(simplex_scale_mhz=-1.0)

    @pytest.mark.parametrize("field", ["simplex_scale_mhz", "fom_tolerance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValidationError):
            DcrabConfig(**{field: value})


class TestDcrab:
    def test_monotone_best_so_far(self, dcrab4):
        _, cfg, result = dcrab4
        bests = [e.best for e in result.trace]
        assert all(b >= a for a, b in zip(bests, bests[1:]))
        assert result.best_fom == max(e.value for e in result.trace)
        assert result.best_fom >= result.initial_fom
        assert result.n_evaluations <= 1 + cfg.super_iterations * cfg.max_evaluations

    def test_improves_the_linear_guess(self, dcrab4):
        _, _, result = dcrab4
        assert result.best_fom > result.initial_fom + 0.01
        assert len(result.super_best) == 2
        assert list(result.super_best) == sorted(result.super_best)

    def test_zero_super_iterations_is_identity(self, chain4, sim4):
        guess = standard_guess_pulse(0.5)
        result = optimize_dcrab(
            guess, FigureOfMerit(), DcrabConfig(super_iterations=0), sim4
        )
        assert result.pulse is guess
        assert result.n_evaluations == 1
        assert result.best_fom == result.initial_fom

    def test_deterministic_by_seed(self, dcrab4, sim4):
        guess, cfg, first = dcrab4
        second = optimize_dcrab(guess, FigureOfMerit(), cfg, sim4)
        assert len(first.trace) == len(second.trace)
        for a, b in zip(first.trace, second.trace):
            assert (a.index, a.super_iteration) == (b.index, b.super_iteration)
            assert a.value == b.value
            assert a.best == b.best
        assert first.pulse.to_json() == second.pulse.to_json()

    def test_seed_changes_the_draws(self, dcrab4, sim4):
        guess, cfg, first = dcrab4
        cfg_other = DcrabConfig(
            super_iterations=1, max_evaluations=6, seed=cfg.seed + 1
        )
        other = optimize_dcrab(guess, FigureOfMerit(), cfg_other, sim4)
        assert other.pulse.crab_omega.r != first.pulse.crab_omega.r

    def test_failure_carries_iteration_context(self, sim4):
        with pytest.raises(OptimizationError) as excinfo:
            optimize_dcrab(standard_guess_pulse(0.5), _FailingFom(limit=0), DcrabConfig(), sim4)
        assert excinfo.value.super_iteration == 0
        assert excinfo.value.evaluation_index == 0
        assert "super-iteration 0" in str(excinfo.value)

    def test_report_and_trace_table(self, dcrab4):
        _, _, result = dcrab4
        table = result.trace_table()
        lines = table.strip().split("\n")
        assert lines[0] == "# rydghz-fom-trace"
        assert lines[1] == "# columns: evaluation,super_iteration,fom,best"
        assert len(lines) == result.n_evaluations + 2
        first = lines[2].split(",")
        assert int(first[0]) == 0 and float(first[2]) == result.trace[0].value
        report = result.report()
        assert report.startswith("# rydghz-optimization-report")
        assert "seed: 3" in report
        assert "super_iteration 1: best_fom" in report
        assert "super_iteration 2: best_fom" in report
        digest = report.rsplit("final_pulse_sha256: ", 1)[1].strip()
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")

    def test_failure_inside_a_stacked_simplex(self, sim4):
        # The initial pulse and step 1's five evaluations (the incumbent
        # vertex reused, four stacked, one reflection) score; step 2's
        # stack fails, and its batch starts at evaluation 1 + 6.
        fom = _FailingFom(limit=6)
        cfg = DcrabConfig(super_iterations=2, max_evaluations=6, seed=3)
        with pytest.raises(OptimizationError) as excinfo:
            optimize_dcrab(standard_guess_pulse(0.5), fom, cfg, sim4)
        assert excinfo.value.super_iteration == 2
        assert excinfo.value.evaluation_index == 7
        assert "super-iteration 2, evaluation 7" in str(excinfo.value)
        assert fom.calls == 7

    def test_incumbent_vertex_is_not_rerun(self, dcrab8):
        _, _, simulator, result = dcrab8
        assert result.n_evaluations == 17
        assert simulator.propagated == 15
        assert result.trace[1].value == result.trace[0].value
        assert result.trace[1].super_iteration == 1

    def test_n8_search_matches_dense_oracle(self, dcrab8):
        basis, shifts, _, result = dcrab8
        assert result.n_evaluations == 17
        psi = dense_evolve(basis, result.pulse, shifts.as_array(),
                           ground_state(basis).amplitudes, dt=0.001)
        i_a, i_abar = basis.ghz_indices()
        oracle = abs(psi[i_a] + psi[i_abar]) ** 2 / 2.0
        assert abs(result.best_fom - oracle) <= 1e-8


class TestRampSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RampSpec("sideways", 1.0)
        with pytest.raises(ValidationError):
            RampSpec("linear", 0.0)
        with pytest.raises(ValidationError):
            RampSpec("linear", 1.0, delta_start_mhz=5.0)
        with pytest.raises(ValidationError):
            RampSpec("linear", 1.0, delta_stop_mhz=-5.0)
        with pytest.raises(ValidationError):
            RampSpec("linear", 1.0, omega_max_mhz=0.0)
        with pytest.raises(ValidationError):
            RampSpec("local_adiabatic", 1.0, grid_points=2)

    @pytest.mark.parametrize(
        "field", ["total_time_us", "delta_start_mhz", "delta_stop_mhz", "omega_max_mhz"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, field, value):
        fields = {"kind": "linear", "total_time_us": 1.0, field: value}
        with pytest.raises(ValidationError):
            RampSpec(**fields)

    def test_control_parametrization(self):
        spec = RampSpec("linear", 1.0)
        assert spec.omega_mhz(0.0) == pytest.approx(0.0, abs=1e-15)
        assert spec.omega_mhz(1.0) == pytest.approx(0.0, abs=1e-12)
        assert spec.omega_mhz(0.5) == pytest.approx(5.0)
        assert spec.delta_mhz(0.0) == pytest.approx(-20.0)
        assert spec.delta_mhz(1.0) == pytest.approx(20.0)
        assert spec.delta_slope_mhz() == pytest.approx(40.0)

    def test_omega_slope_matches_numerical_derivative(self):
        spec = RampSpec("linear", 1.0)
        eps = 1e-7
        for s in (0.2, 0.37, 0.5, 0.81):
            numeric = (spec.omega_mhz(s + eps) - spec.omega_mhz(s - eps)) / (2 * eps)
            assert spec.omega_slope_mhz(s) == pytest.approx(numeric, rel=1e-6, abs=1e-6)


class TestScheduleFromWeight:
    def test_constant_weight_gives_linear_schedule(self):
        s_grid = np.linspace(0.0, 1.0, 33)
        schedule = schedule_from_weight(s_grid, np.ones(33), 2.5)
        times = np.linspace(0.0, 2.5, 17)
        assert np.allclose(schedule.s_of_t(times), times / 2.5, atol=1e-14)
        assert np.allclose(schedule.times_us, 2.5 * s_grid, atol=1e-14)

    def test_heavy_weight_slows_the_ramp(self):
        s_grid = np.linspace(0.0, 1.0, 201)
        weights = 1.0 + 50.0 * np.exp(-((s_grid - 0.7) ** 2) / 0.002)
        schedule = schedule_from_weight(s_grid, weights, 1.0)
        # More than half the wall time is spent crossing the weight spike.
        inside = (schedule.s_grid > 0.6) & (schedule.s_grid < 0.8)
        span = schedule.times_us[inside][-1] - schedule.times_us[inside][0]
        assert span > 0.5
        assert np.all(np.diff(schedule.times_us) > 0)

    def test_validation(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValidationError):
            schedule_from_weight(grid[::-1], np.ones(5), 1.0)
        with pytest.raises(ValidationError):
            schedule_from_weight(grid + 0.1, np.ones(5), 1.0)
        with pytest.raises(ValidationError):
            schedule_from_weight(grid, np.ones(4), 1.0)
        with pytest.raises(ValidationError):
            schedule_from_weight(grid, -np.ones(5), 1.0)
        with pytest.raises(ValidationError):
            schedule_from_weight(grid, np.zeros(5), 1.0)
        with pytest.raises(ValidationError):
            schedule_from_weight(grid, np.ones(5), 0.0)

    def test_schedule_rejects_out_of_span_times(self):
        schedule = schedule_from_weight(np.linspace(0, 1, 9), np.ones(9), 1.0)
        with pytest.raises(ValidationError):
            schedule.s_of_t(1.5)


class TestDiabaticitySchedule:
    def test_endpoints_and_monotonicity(self, chain4):
        _, terms, shifts = chain4
        spec = RampSpec("local_adiabatic", 1.1, grid_points=101)
        schedule = diabaticity_schedule(spec, terms, shifts)
        assert schedule.s_of_t(0.0) == 0.0
        assert schedule.s_of_t(1.1) == pytest.approx(1.0, abs=1e-12)
        samples = schedule.s_of_t(np.linspace(0.0, 1.1, 64))
        assert np.all(np.diff(samples) > 0)

    def test_total_time_rescaling_keeps_the_profile(self, chain4):
        _, terms, shifts = chain4
        short = diabaticity_schedule(
            RampSpec("local_adiabatic", 0.8, grid_points=81), terms, shifts
        )
        long = diabaticity_schedule(
            RampSpec("local_adiabatic", 1.6, grid_points=81), terms, shifts
        )
        probe = np.linspace(0.0, 0.8, 40)
        assert np.allclose(long.s_of_t(2.0 * probe), short.s_of_t(probe), atol=1e-8)

    def test_requires_local_adiabatic_kind(self, chain4):
        _, terms, shifts = chain4
        with pytest.raises(ValidationError):
            diabaticity_schedule(RampSpec("linear", 1.0), terms, shifts)

    def test_degenerate_endpoint_gives_a_finite_schedule(self, chain4):
        # These shifts break the reflection symmetry of the static diagonal,
        # so the weight is taken in the full basis, yet both staggered
        # orderings carry the same -6 MHz of shift: they become an exactly
        # degenerate ground doublet as the drive envelope closes at s = 1.
        # dH/ds = -Delta' n is constant on that doublet, so Q dH/ds psi_0 is
        # rounding and the weight is defined there.
        basis, terms, _ = chain4
        shifts_mhz = (-6.0, -1.5, 0.0, -4.5)
        shifts = LocalShifts(shifts_mhz)
        assert not terms.static_is_reflection_symmetric(shifts)
        spec = RampSpec("local_adiabatic", 1.0)
        schedule = diabaticity_schedule(spec, terms, shifts)
        weights = schedule.weights
        assert np.all(np.isfinite(weights))
        assert weights[-1] <= 1e-10 * weights.max()
        assert schedule.times_us[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(schedule.times_us) > 0)
        # Away from the doublet's closing gap the weight is the dense one.
        s_grid = schedule.s_grid
        away = np.flatnonzero(s_grid <= 0.9)
        reference = np.array([
            dense_diabatic_weight(
                basis, shifts_mhz, TWO_PI * spec.omega_mhz(s), TWO_PI * spec.delta_mhz(s),
                TWO_PI * spec.omega_slope_mhz(s), TWO_PI * spec.delta_slope_mhz(),
            )
            for s in s_grid[away]
        ])
        assert np.allclose(weights[away], reference, rtol=1e-10,
                           atol=1e-13 * reference.max())

    def test_inconsistent_deflated_system_raises(self):
        # H = diag(0, 0, 1, 2) on (g, p, e1, e2): p is exactly degenerate
        # with the ground state g, and b = dH/ds g couples to it, so
        # Q (H - E_0) Q x = Q b has no solution and the weight diverges.
        # MINRES returns the least-squares x as converged; the residual test
        # relative to |b| catches it.
        shifted = drive_matvec(sparse.csr_matrix((4, 4)), 0.0, np.array([0.0, 0.0, 1.0, 2.0]))
        ground = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.3, 0.5, 1.0, -1.0])
        with pytest.raises(ScheduleSingularityError, match="inconsistent") as excinfo:
            optimize._deflated_solve(shifted, ground, b, 0.25)
        assert excinfo.value.s_star == 0.25
        # Without the partner's coupling the same system is consistent.
        x = optimize._deflated_solve(shifted, ground, b * [1.0, 0.0, 1.0, 1.0], 0.25)
        assert np.allclose(x, [0.0, 0.0, 1.0, -0.5], rtol=0.0, atol=1e-12)

    def test_unconverged_solve_raises(self, chain4, monkeypatch):
        _, terms, shifts = chain4
        monkeypatch.setattr(optimize, "MINRES_MAX_ITER", 1)
        spec = RampSpec("local_adiabatic", 1.0, grid_points=21)
        with pytest.raises(SpectralError, match="MINRES"):
            diabaticity_schedule(spec, terms, shifts)

    @pytest.mark.parametrize("n_sites, shifts_mhz, s_grid", [
        # Reflection-symmetric preparation shifts: the even sector.
        (8, LocalShifts.preparation_default(8).values_mhz, np.linspace(0.0, 1.0, 41)),
        # Reflection-breaking shifts: the full basis.
        (6, (-4.5, 0.0, -1.0, 0.0, 0.0, -3.0), np.linspace(0.0, 1.0, 41)),
        # The benchmark's N=12 preparation shifts: an even sector of dim 195,
        # below the dense cutoff, where the ground state once came from a
        # dense eigensolver.
        (12, LocalShifts.preparation_default(12).values_mhz, np.linspace(0.0, 1.0, 41)),
        # Even sector of dim 1309, above the dense cutoff: at both omega = 0
        # ends, a weak drive and near the weight's peak.
        (16, LocalShifts.preparation_default(16).values_mhz,
         np.array([0.0, 0.05, 0.55, 1.0])),
    ], ids=["n8-even-sector", "n6-full-basis", "n12-benchmark-shifts", "n16-lanczos"])
    def test_weight_matches_dense_all_states_oracle(self, n_sites, shifts_mhz, s_grid):
        basis = enumerate_basis(ChainGeometry(n_sites))
        terms = build_terms(basis)
        shifts = LocalShifts(tuple(shifts_mhz))
        even = terms.static_is_reflection_symmetric(shifts)
        assert even == (n_sites != 6)
        spec = RampSpec("local_adiabatic", 1.1)
        _, weights = diabaticity_weight(spec, terms, shifts, s_grid=s_grid)
        reference = np.array([
            dense_diabatic_weight(
                basis, shifts_mhz, TWO_PI * spec.omega_mhz(s), TWO_PI * spec.delta_mhz(s),
                TWO_PI * spec.omega_slope_mhz(s), TWO_PI * spec.delta_slope_mhz(),
                even_sector=even,
            )
            for s in s_grid
        ])
        assert reference.max() > 1.0
        assert np.allclose(weights, reference, rtol=1e-10, atol=1e-13 * reference.max())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_sites, dim", [(2, 2), (3, 4)])
    def test_spaces_at_or_below_the_lanczos_subspace(self, n_sites, dim):
        # Even sectors of dim 2 and 4: ARPACK's subspace is the whole space.
        basis = enumerate_basis(ChainGeometry(n_sites))
        terms = build_terms(basis)
        shifts = LocalShifts.preparation_default(n_sites)
        assert symmetry_sector(basis, "even").dim == dim
        spec = RampSpec("local_adiabatic", 1.1, grid_points=41)
        schedule = diabaticity_schedule(spec, terms, shifts)
        assert np.all(np.isfinite(schedule.weights))
        assert schedule.weights.max() > 1.0
        assert np.all(np.diff(schedule.times_us) > 0)

    def test_beats_linear_ramp_at_eight_sites(self):
        basis = enumerate_basis(ChainGeometry(8))
        terms = build_terms(basis)
        shifts = LocalShifts.preparation_default(8)
        sim = PreparationSimulator(terms, shifts, dt=0.002)
        fom = FigureOfMerit()
        spec = RampSpec("local_adiabatic", 1.1)
        f_linear = sim.evaluate(ramp_pulse(RampSpec("linear", 1.1)), fom)
        f_local = sim.evaluate(
            ramp_pulse(spec, schedule=diabaticity_schedule(spec, terms, shifts)), fom
        )
        assert f_local > f_linear + 0.05


class TestRampPulse:
    def test_linear_matches_standard_guess(self):
        spec = RampSpec("linear", 1.1)
        pulse = ramp_pulse(spec)
        reference = standard_guess_pulse(1.1)
        for t in (0.0, 0.3, 0.55, 0.9, 1.1):
            assert pulse.sample_mhz(t) == reference.sample_mhz(t)

    def test_local_adiabatic_endpoint_values(self, chain4):
        _, terms, shifts = chain4
        spec = RampSpec("local_adiabatic", 1.1, grid_points=101)
        pulse = ramp_pulse(spec, schedule=diabaticity_schedule(spec, terms, shifts))
        omega0, delta0 = pulse.sample_mhz(0.0)
        omega1, delta1 = pulse.sample_mhz(1.1)
        assert omega0 == pytest.approx(0.0, abs=1e-9)
        assert delta0 == pytest.approx(-20.0, abs=1e-9)
        assert omega1 == pytest.approx(0.0, abs=1e-9)
        assert delta1 == pytest.approx(20.0, abs=1e-9)

    def test_optimal_control_kind_is_rejected(self):
        with pytest.raises(ValidationError):
            ramp_pulse(RampSpec("optimal_control", 1.1))

    def test_local_adiabatic_needs_a_schedule(self):
        with pytest.raises(ValidationError):
            ramp_pulse(RampSpec("local_adiabatic", 1.1))


class TestEigenpopulationTrace:
    def test_adiabatic_limit_stays_in_the_ground_state(self, chain4):
        _, terms, shifts = chain4
        pulse = ramp_pulse(RampSpec("linear", 20.0))
        trace = eigenpopulation_trace(pulse, terms, shifts, m=4, n_times=21, dt=0.004)
        assert len(trace) == 21
        ground = trace.ground_populations()
        assert ground[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(ground >= 0.99)
        assert np.allclose(trace.times_us, np.linspace(0.0, 20.0, 21), atol=1e-9)

    def test_optimized_pulse_recaptures_population(self, chain4, dcrab4):
        _, terms, shifts = chain4
        _, _, result = dcrab4
        trace = eigenpopulation_trace(
            result.pulse, terms, shifts, m=4, n_times=41, dt=0.0025
        )
        excited = trace.excited_populations()
        assert excited.max() > excited[-1]

    def test_quench_regions_bracket_the_slow_middle(self, chain4):
        _, terms, shifts = chain4
        spec = RampSpec("local_adiabatic", 1.1)
        pulse = ramp_pulse(spec, schedule=diabaticity_schedule(spec, terms, shifts))
        trace = eigenpopulation_trace(pulse, terms, shifts, m=3, n_times=41, dt=0.0025)
        region = trace.quench_regions()
        assert region is not None
        t_enter, t_exit = region
        assert 0.0 < t_enter < t_exit < 1.1

    def test_eigenstate_count_clamps_to_the_space(self, chain4):
        _, terms, shifts = chain4
        pulse = standard_guess_pulse(0.1)
        trace = eigenpopulation_trace(pulse, terms, shifts, m=50, n_times=3, dt=0.002)
        assert trace[0].energies.size == 5  # even-sector dimension at N=4

    def test_matches_a_projected_full_basis_reference(self):
        basis = enumerate_basis(ChainGeometry(8))
        terms = build_terms(basis)
        shifts = LocalShifts.preparation_default(8)
        pulse = standard_guess_pulse(0.8)
        m, n_times, dt = 6, 21, 0.002  # 20 whole steps per segment
        trace = eigenpopulation_trace(pulse, terms, shifts, m=m, n_times=n_times, dt=dt)
        # States from the same sector propagation, so only the spectra differ.
        sector = symmetry_sector(basis, "even")
        start = sector.to_sector(ground_state(basis).amplitudes)
        states = [start]
        SampledEvolution(sector, terms, shifts).run(
            start, pulse, dt=dt, observer=lambda _t, amps: states.append(amps.copy()),
            observer_stride=20,
        )
        assert len(states) == len(trace) == n_times
        for sl, psi in zip(trace, states):
            omega, delta = pulse.sample(sl.param)
            h = sector.reduce_operator(build_hamiltonian(terms, shifts, omega, delta))
            evals, vecs = np.linalg.eigh(h.toarray())
            assert sl.ground_energy == pytest.approx(evals[0], abs=1e-10)
            assert np.allclose(sl.energies, evals[:m] - evals[0], rtol=0.0, atol=1e-10)
            pops = np.abs(vecs.conj().T @ psi) ** 2
            # Compare populations summed over each degenerate cluster that
            # lies wholly inside the m tracked levels.
            edges = np.flatnonzero(np.diff(evals) > DEGENERACY_TOL) + 1
            for lo, hi in zip(np.r_[0, edges], np.r_[edges, evals.size]):
                if hi <= m:
                    assert sl.overlaps[lo:hi].sum() == pytest.approx(
                        pops[lo:hi].sum(), abs=1e-10
                    )

    def test_validation(self, chain4):
        _, terms, shifts = chain4
        pulse = standard_guess_pulse(0.1)
        with pytest.raises(ValidationError):
            eigenpopulation_trace(pulse, terms, shifts, m=0)
        with pytest.raises(ValidationError):
            eigenpopulation_trace(pulse, terms, shifts, n_times=1)


class TestGateCircuitEstimate:
    def test_twenty_sites(self):
        estimate = gate_circuit_time_estimate(20, fidelity_target=0.542)
        assert estimate.layers == 10
        assert estimate.total_time_us == pytest.approx(0.1 / np.sqrt(2.0) + 0.9)
        assert estimate.total_time_us == pytest.approx(0.97, abs=0.01)
        assert estimate.per_layer_fidelity == pytest.approx(0.542 ** 0.1)
        assert estimate.per_layer_fidelity == pytest.approx(0.9406, abs=5e-4)

    def test_single_bell_layer(self):
        estimate = gate_circuit_time_estimate(2)
        assert estimate.layers == 1
        assert estimate.total_time_us == pytest.approx(0.1 / np.sqrt(2.0))
        assert estimate.per_layer_fidelity is None

    def test_drive_scaling(self):
        slow = gate_circuit_time_estimate(4, omega_max_mhz=2.5)
        fast = gate_circuit_time_estimate(4, omega_max_mhz=5.0)
        assert slow.total_time_us == pytest.approx(2.0 * fast.total_time_us)

    def test_validation(self):
        with pytest.raises(ValidationError):
            gate_circuit_time_estimate(5)
        with pytest.raises(ValidationError):
            gate_circuit_time_estimate(0)
        with pytest.raises(ValidationError):
            gate_circuit_time_estimate(4, omega_max_mhz=0.0)
        with pytest.raises(ValidationError):
            gate_circuit_time_estimate(4, fidelity_target=1.5)


class TestPreparationSimulator:
    def test_uses_even_sector_when_symmetric(self, chain4, sim4):
        basis, _, _ = chain4
        assert sim4.space.dim == 5

    def test_asymmetric_shifts_fall_back_to_full_basis(self, chain4):
        basis, terms, _ = chain4
        lopsided = LocalShifts((3.0, 0.0, 0.0, 0.0))
        sim = PreparationSimulator(terms, lopsided)
        assert sim.space is basis

    def test_final_state_is_normalized(self, chain4, sim4):
        state = sim4.final_state(standard_guess_pulse(0.2))
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-9)
