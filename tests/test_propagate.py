import numpy as np
import pytest
import scipy.linalg

from rydghz import propagate
from rydghz.basis import ChainGeometry, enumerate_basis, symmetry_sector
from rydghz.controls import CrabExpansion, Pulse, Waveform, constant_pulse, standard_guess_pulse
from rydghz.errors import PropagationError, ValidationError
from rydghz.hamiltonian import (
    LocalShifts,
    build_terms,
    drive_coupling,
    staggered_field_generator,
)
from rydghz.propagate import (
    SampledEvolution,
    StateVector,
    basis_state,
    evolution_space,
    evolve,
    ghz_state,
    ground_state,
    krylov_dense_output,
    krylov_expm_apply,
    lowest_spectrum,
)
from rydghz.units import TWO_PI, mhz_to_angular

from _oracles import classical_diagonal_energies, dense_evolve, evolve_under_diagonal


def _random_crab_pulse(tau, seed):
    rng = np.random.default_rng(seed)
    crab_o = CrabExpansion((1, 2), tuple(rng.uniform(-0.5, 0.5, 2)),
                           tuple(rng.uniform(-1.5, 1.5, 2)), tuple(rng.uniform(-1.5, 1.5, 2)))
    crab_d = CrabExpansion((1, 2), tuple(rng.uniform(-0.5, 0.5, 2)),
                           tuple(rng.uniform(-3.0, 3.0, 2)), tuple(rng.uniform(-3.0, 3.0, 2)))
    return Pulse(
        tau=tau,
        guess_omega=Waveform("cos12_plateau", {"amplitude": 5.0}),
        guess_delta=Waveform("linear", {"start": -20.0, "stop": 20.0}),
        crab_omega=crab_o,
        crab_delta=crab_d,
    )


def test_single_site_pi_pulse():
    basis = enumerate_basis(ChainGeometry(1))
    terms = build_terms(basis)
    out = evolve(ground_state(basis), constant_pulse(0.1, 5.0), terms)
    assert abs(out.amplitudes[basis.index_of(1)]) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_blockaded_pair_collective_enhancement():
    basis = enumerate_basis(ChainGeometry(2))
    terms = build_terms(basis)
    out = evolve(ground_state(basis), constant_pulse(0.1 / np.sqrt(2), 5.0), terms)
    w = np.zeros(basis.dim, dtype=complex)
    w[basis.index_of("01")] = w[basis.index_of("10")] = 1 / np.sqrt(2)
    assert abs(np.vdot(w, out.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n_sites", [4, 6, 8])
def test_matches_dense_exponential_oracle(n_sites):
    basis = enumerate_basis(ChainGeometry(n_sites))
    terms = build_terms(basis)
    shifts = LocalShifts.preparation_default(n_sites)
    pulse = _random_crab_pulse(0.4, seed=n_sites)
    got = evolve(ground_state(basis), pulse, terms, shifts, dt=0.002)
    ref = dense_evolve(basis, pulse, shifts.as_array(), ground_state(basis).amplitudes, dt=0.002)
    overlap = abs(np.vdot(ref, got.amplitudes))
    assert abs(1.0 - overlap) < 1e-8


def test_unitarity_and_zero_duration():
    basis = enumerate_basis(ChainGeometry(6))
    terms = build_terms(basis)
    pulse = _random_crab_pulse(1.1, seed=3)
    out = evolve(ground_state(basis), pulse, terms, LocalShifts.preparation_default(6))
    assert out.norm() == pytest.approx(1.0, abs=1e-9)
    frozen = evolve(out, constant_pulse(0.0, 5.0), terms)
    assert np.array_equal(frozen.amplitudes, out.amplitudes)


def test_step_halving_converges():
    basis = enumerate_basis(ChainGeometry(4))
    terms = build_terms(basis)
    shifts = LocalShifts.preparation_default(4)
    pulse = standard_guess_pulse(1.1)
    fine = evolve(ground_state(basis), pulse, terms, shifts, dt=0.0005)
    base = evolve(ground_state(basis), pulse, terms, shifts, dt=0.001)
    assert abs(1.0 - abs(base.overlap(fine))) < 1e-8


def test_krylov_nonconvergence_reports_step(monkeypatch):
    basis = enumerate_basis(ChainGeometry(6))
    terms = build_terms(basis)
    monkeypatch.setattr(propagate, "KRYLOV_MAX_DIM", 2)
    with pytest.raises(PropagationError) as err:
        evolve(ground_state(basis), standard_guess_pulse(1.0), terms, dt=0.5)
    assert err.value.step_index is not None


def test_krylov_apply_against_dense():
    rng = np.random.default_rng(11)
    dim = 40
    a = rng.standard_normal((dim, dim))
    h = (a + a.T) / 2
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    import scipy.linalg

    ref = scipy.linalg.expm(-1j * 0.05 * h) @ v
    got, m = krylov_expm_apply(lambda x: h @ x, v, 0.05)
    assert np.allclose(got, ref, atol=1e-10)
    assert m <= dim


def _complex_chain_hamiltonian(n_sites):
    """Dense complex Hermitian H: a phase-0.7 drive plus the static diagonal."""
    basis = enumerate_basis(ChainGeometry(n_sites))
    terms = build_terms(basis)
    diag = terms.static_diagonal(LocalShifts.preparation_default(n_sites))
    diag = diag - mhz_to_angular(3.0) * terms.excitations
    h = mhz_to_angular(4.0) * drive_coupling(basis, phase=0.7).toarray() + np.diag(diag)
    assert np.iscomplexobj(h) and np.abs(h.imag).max() > 0.1
    return h


def test_krylov_apply_complex_hermitian_against_expm():
    import scipy.linalg

    h = _complex_chain_hamiltonian(8)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    for dt in (0.001, 0.02):
        got, m = krylov_expm_apply(lambda x: h @ x, v, dt)
        ref = scipy.linalg.expm(-1j * dt * h) @ v
        assert np.abs(got - ref).max() <= 1e-10
        assert 1 <= m < h.shape[0]


@pytest.mark.parametrize("complex_drive", [False, True])
def test_dense_output_long_recurrence_matches_expm(complex_drive):
    # N=14 (dim 987): the later time needs about 60 Lanczos vectors, far
    # enough for the three-term recurrence to lose orthogonality of its
    # basis, which must not show in the propagated states.
    import scipy.linalg

    if complex_drive:
        h = _complex_chain_hamiltonian(14)
    else:
        terms = build_terms(enumerate_basis(ChainGeometry(14)))
        h = mhz_to_angular(5.0) * terms.coupling.toarray() + np.diag(terms.static_diagonal())
    rng = np.random.default_rng(14)
    v = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    v /= np.linalg.norm(v)
    times = (0.1, 0.25)
    basis, coeffs = krylov_dense_output(lambda x: h @ x, v, times)
    assert basis.shape[0] >= 50 and coeffs.shape[0] == len(times)
    for t, row in zip(times, coeffs):
        ref = scipy.linalg.expm(-1j * t * h) @ v
        assert np.abs(row @ basis - ref).max() <= 1e-12


def test_engine_coupling_is_complex_and_shares_indices():
    # The drive template is converted to complex values once, when the
    # engine is built, and keeps the terms' index arrays.
    basis = enumerate_basis(ChainGeometry(8))
    terms = build_terms(basis)
    engine = SampledEvolution(basis, terms, LocalShifts.preparation_default(8))
    assert engine.coupling.dtype == complex
    assert np.shares_memory(engine.coupling.indices, terms.coupling.indices)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    omega, delta = mhz_to_angular(4.0), mhz_to_angular(-2.5)
    expected = (omega * (terms.coupling @ x)
                + (engine.static_diag - delta * engine.excitations) * x)
    assert np.abs(engine.matvec_at(omega, delta)(x) - expected).max() <= 1e-12


def test_krylov_apply_backward_step():
    # The error estimate scales with |dt|: a negative step must converge
    # to exp(+i |dt| H) v or raise, never stop early on a negative estimate.
    import scipy.linalg

    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    h = (a + a.T) / 2
    v = rng.standard_normal(200) + 0j
    got, m = krylov_expm_apply(lambda x: h @ x, v, -0.05)
    ref = scipy.linalg.expm(0.05j * h) @ v
    assert np.abs(got - ref).max() <= 1e-10 * np.linalg.norm(v)
    assert 3 < m < 64
    for dt in (0.5, -0.5):
        with pytest.raises(PropagationError):
            krylov_expm_apply(lambda x: h @ x, v, dt, max_dim=20)


def test_krylov_apply_eigenvector_takes_invariant_exit():
    # Configurations are exact eigenvectors of the undriven chain: the
    # first residual vanishes, so the step returns at dimension 1, before
    # the first scheduled error check, with the exact phase.
    basis = enumerate_basis(ChainGeometry(8))
    terms = build_terms(basis)
    engine = SampledEvolution(basis, terms, LocalShifts.preparation_default(8))
    matvec = engine.matvec_at(0.0, mhz_to_angular(-7.0))
    start = basis_state(basis, "10010001").amplitudes * 0.6
    k = basis.index_of("10010001")
    energy = engine.static_diag[k] + mhz_to_angular(7.0) * engine.excitations[k]
    assert abs(energy) > 10.0
    got, m = krylov_expm_apply(matvec, start, 0.3, start_check=3)
    assert m == 1
    assert np.abs(got - np.exp(-0.3j * energy) * start).max() <= 1e-15


def test_krylov_apply_full_dimension():
    import scipy.linalg

    h = _complex_chain_hamiltonian(4)
    dim = h.shape[0]
    v = np.random.default_rng(2).standard_normal(dim) + 0j
    ref = scipy.linalg.expm(-1j * 0.5 * h) @ v
    # dt * |H| far exceeds the dimension, so only the whole space converges.
    for max_dim in (dim, dim + 5):
        got, m = krylov_expm_apply(lambda x: h @ x, v, 0.5, max_dim=max_dim)
        assert m == dim
        assert np.abs(got - ref).max() <= 1e-10
    with pytest.raises(PropagationError):
        krylov_expm_apply(lambda x: h @ x, v, 0.5, max_dim=dim - 1)


class TestDriveProduct:
    """drive_matvec against scipy's own product on every input it serves."""

    @staticmethod
    def _check(matvec, coupling, omega, diag, x):
        got = matvec(x)
        expected = omega * (coupling @ x) + diag * x
        assert got.dtype == expected.dtype
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
        # A new array on every call, which the Lanczos recurrence may overwrite.
        again = matvec(x)
        assert again is not got and not np.shares_memory(again, got)
        assert not np.shares_memory(got, x)

    @staticmethod
    def _engine(space_kind):
        basis = enumerate_basis(ChainGeometry(8))
        terms = build_terms(basis)
        space = symmetry_sector(basis, "even") if space_kind == "sector" else basis
        return SampledEvolution(space, terms, LocalShifts.preparation_default(8))

    @pytest.mark.parametrize("space_kind", ["sector", "full"])
    def test_engine_matvec(self, space_kind):
        engine = self._engine(space_kind)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(engine.space.dim) + 1j * rng.standard_normal(engine.space.dim)
        omega, delta = mhz_to_angular(3.5), mhz_to_angular(-6.0)
        self._check(engine.matvec_at(omega, delta), engine.coupling, omega,
                    engine.static_diag - delta * engine.excitations, x)

    def test_direct_sum_with_per_row_controls(self):
        engine = self._engine("sector")
        dim = engine.space.dim
        rng = np.random.default_rng(2)
        diags = [engine.static_diag + rng.normal(0.0, 3.0, dim) for _ in range(3)]
        stacked = engine._direct_sum(diags)
        omegas = np.repeat(mhz_to_angular(np.array([1.0, 4.0, 5.5])), dim)
        deltas = np.repeat(mhz_to_angular(np.array([-9.0, 0.5, 12.0])), dim)
        x = rng.standard_normal(3 * dim) + 1j * rng.standard_normal(3 * dim)
        self._check(stacked.matvec_at(omegas, deltas), stacked.coupling, omegas,
                    stacked.static_diag - deltas * stacked.excitations, x)
        got = stacked.matvec_at(omegas, deltas)(x)
        for k in range(3):
            rows = slice(k * dim, (k + 1) * dim)
            one = propagate.drive_matvec(engine.coupling, omegas[k * dim],
                                         diags[k] - deltas[k * dim] * engine.excitations)
            expected = one(x[rows])
            assert np.abs(got[rows] - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_only_the_pulse_stack_is_kept(self):
        engine = self._engine("sector")
        start = np.zeros(engine.space.dim, dtype=complex)
        start[0] = 1.0
        engine._direct_sum([engine.static_diag] * 2)
        assert engine._direct_sums == {}
        engine.run(start, [standard_guess_pulse(0.05)] * 2, dt=0.01)
        kept = engine._direct_sums[2]
        engine.run(start, [standard_guess_pulse(0.05)] * 2, dt=0.01)
        assert list(engine._direct_sums) == [2] and engine._direct_sums[2] is kept

    def test_dimer_complex_coupling(self):
        from rydghz.protocols import _dimer_operators

        coupling, diagonal, _ = _dimer_operators(3, mhz_to_angular(24.0), mhz_to_angular(0.375))
        assert coupling.dtype == complex
        x = np.random.default_rng(3).standard_normal(coupling.shape[0]) + 0.5j
        omega = mhz_to_angular(5.0)
        self._check(propagate.drive_matvec(coupling, omega, diagonal), coupling, omega,
                    diagonal, x)

    def test_real_solver_coupling_keeps_real_vectors_real(self):
        engine = self._engine("sector")
        coupling = engine.solver_coupling
        assert coupling.dtype == float  # _check pins a real output for it
        diag = engine.static_diag - mhz_to_angular(2.0) * engine.excitations
        x = np.random.default_rng(4).standard_normal(engine.space.dim)
        matvec = propagate.drive_matvec(coupling, mhz_to_angular(3.0), diag)
        self._check(matvec, coupling, mhz_to_angular(3.0), diag, x)


class TestLanczosKernel:
    """krylov_expm_apply and krylov_dense_output against scipy.linalg.expm."""

    @staticmethod
    def _real_hamiltonian():
        terms = build_terms(enumerate_basis(ChainGeometry(8)))
        diag = terms.static_diagonal(LocalShifts.preparation_default(8))
        return mhz_to_angular(4.0) * terms.coupling.toarray() + np.diag(diag)

    @staticmethod
    def _start(dim, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("dt", [0.01, -0.03])
    def test_step_matches_expm(self, kind, dt):
        h = self._real_hamiltonian() if kind == "real" else _complex_chain_hamiltonian(8)
        assert np.allclose(h, h.conj().T)
        v = self._start(h.shape[0], seed=7)
        got, m = krylov_expm_apply(lambda x: h @ x, v, dt)
        ref = scipy.linalg.expm(-1j * dt * h) @ v
        assert np.abs(got - ref).max() <= 1e-12
        assert 3 <= m < h.shape[0]

    def test_multi_time_dense_output_matches_expm(self):
        h = _complex_chain_hamiltonian(8)
        v = self._start(h.shape[0], seed=8)
        times = (0.004, 0.011, -0.007, 0.02)
        basis, coeffs = krylov_dense_output(lambda x: h @ x, v, times)
        assert coeffs.shape == (len(times), basis.shape[0])
        for t, row in zip(times, coeffs):
            ref = scipy.linalg.expm(-1j * t * h) @ v
            assert np.abs(row @ basis - ref).max() <= 1e-12

    def test_eigenvector_start_exits_at_one_vector(self):
        # The last state is uncoupled, so its first residual is exactly zero.
        h = scipy.linalg.block_diag(self._real_hamiltonian(), [[2.5]])
        v = np.zeros(h.shape[0], dtype=complex)
        v[-1] = 0.6 - 0.8j
        got, m = krylov_expm_apply(lambda x: h @ x, v, 0.05)
        assert m == 1
        assert np.abs(got - np.exp(-0.05j * 2.5) * v).max() <= 1e-15
        basis, coeffs = krylov_dense_output(lambda x: h @ x, v, (0.01, 0.05))
        assert basis.shape[0] == 1 and coeffs.shape == (2, 1)

    def test_one_state_space(self):
        h = np.array([[3.7]])
        v = np.array([0.6 + 0.8j])
        for dt in (0.2, -1.3):
            got, m = krylov_expm_apply(lambda x: h @ x, v, dt)
            assert m == 1
            assert np.abs(got - np.exp(-1j * dt * 3.7) * v).max() <= 1e-15

    @pytest.mark.parametrize("layout", ["strided", "real"])
    def test_matvec_output_layout_does_not_matter(self, layout):
        # BLAS wrappers copy an output that is not contiguous complex128;
        # the recurrence must use the copy, not lose the update.  From a
        # real start under a real H every Lanczos vector is real, so the
        # "real" matvec may drop the zero imaginary part.
        h = self._real_hamiltonian()
        v = self._start(h.shape[0], seed=9).real.copy()
        if layout == "strided":
            def matvec(x):
                return np.repeat(h @ x, 2)[::2]
        else:
            def matvec(x):
                return h @ x.real
        got, _ = krylov_expm_apply(matvec, v, 0.01)
        ref = scipy.linalg.expm(-0.01j * h) @ v
        assert np.abs(got - ref).max() <= 1e-12

    def test_tridiagonal_solver_failure_raises(self, monkeypatch):
        h = self._real_hamiltonian()
        v = self._start(h.shape[0], seed=10)
        monkeypatch.setattr(propagate, "_dstev", lambda d, e: (d, None, 2))
        with pytest.raises(PropagationError, match="dstev"):
            krylov_expm_apply(lambda x: h @ x, v, 0.01)


def test_run_samples_controls_once(monkeypatch):
    basis = enumerate_basis(ChainGeometry(6))
    terms = build_terms(basis)
    calls = []
    sample = Pulse.sample

    def counted(self, t):
        calls.append(np.size(t))
        return sample(self, t)

    engine = SampledEvolution(basis, terms, LocalShifts.preparation_default(6))
    monkeypatch.setattr(Pulse, "sample", counted)
    engine.run(ground_state(basis).amplitudes, _random_crab_pulse(1.1, seed=4), dt=0.001)
    assert calls == [1100]


def test_stacked_run_matches_single_runs_in_the_even_sector():
    basis = enumerate_basis(ChainGeometry(8))
    terms = build_terms(basis)
    even = symmetry_sector(basis, "even")
    engine = SampledEvolution(even, terms, LocalShifts.edges(8, -4.5))
    start = even.to_sector(ground_state(basis).amplitudes)
    pulses = [_random_crab_pulse(0.6, seed=s) for s in range(4)]
    stacked = engine.run(start, pulses, dt=0.001)
    assert stacked.shape == (4, even.dim)
    for row, pulse in zip(stacked, pulses):
        assert np.abs(row - engine.run(start, pulse, dt=0.001)).max() <= 1e-10


def test_stacked_run_matches_single_runs_on_a_full_basis():
    basis = enumerate_basis(ChainGeometry(6))
    terms = build_terms(basis)
    shifts = LocalShifts((-6.0, -1.5, 0.0, 0.0, 0.0, -4.5))
    assert not terms.static_is_reflection_symmetric(shifts)
    engine = SampledEvolution(basis, terms, shifts)
    rng = np.random.default_rng(5)
    start = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    start /= np.linalg.norm(start)
    pulses = [_random_crab_pulse(0.5, seed=s) for s in (11, 12, 13)]
    stacked = engine.run(start, pulses, dt=0.002)
    for row, pulse in zip(stacked, pulses):
        assert np.abs(row - engine.run(start, pulse, dt=0.002)).max() <= 1e-10


def test_one_pulse_stack_is_the_single_run_bit_for_bit():
    basis = enumerate_basis(ChainGeometry(6))
    terms = build_terms(basis)
    engine = SampledEvolution(basis, terms, LocalShifts.preparation_default(6))
    start = ground_state(basis).amplitudes
    pulse = _random_crab_pulse(0.4, seed=8)
    stacked = engine.run(start, [pulse], dt=0.001)
    assert stacked.shape == (1, basis.dim)
    assert np.array_equal(stacked[0], engine.run(start, pulse, dt=0.001))


def test_stack_refuses_pulses_of_unequal_duration():
    basis = enumerate_basis(ChainGeometry(4))
    terms = build_terms(basis)
    engine = SampledEvolution(basis, terms)
    start = ground_state(basis).amplitudes
    with pytest.raises(ValidationError):
        engine.run(start, [standard_guess_pulse(0.5), standard_guess_pulse(0.6)])
    with pytest.raises(ValidationError):
        engine.run(start, [standard_guess_pulse(0.5), constant_pulse(0.0, 5.0)])


def test_diagonal_evolution_exact_phases():
    basis = enumerate_basis(ChainGeometry(6))
    gen = staggered_field_generator(basis, 3.8)
    psi = ghz_state(basis)
    out = evolve_under_diagonal(psi, gen, 0.37)
    i_a, i_abar = basis.ghz_indices()
    rel = out.amplitudes[i_abar] / out.amplitudes[i_a]
    assert np.angle(rel) == pytest.approx(
        np.angle(np.exp(-1j * (gen[i_abar] - gen[i_a]) * 0.37)), abs=1e-12
    )
    assert out.norm() == pytest.approx(1.0, abs=1e-14)


def test_sector_evolution_matches_full():
    basis = enumerate_basis(ChainGeometry(8))
    terms = build_terms(basis)
    shifts = LocalShifts.preparation_default(8)
    even = symmetry_sector(basis, "even")
    pulse = standard_guess_pulse(0.6)
    full = evolve(ground_state(basis), pulse, terms, shifts, dt=0.001)
    psi0 = StateVector(even, even.to_sector(ground_state(basis).amplitudes))
    sec = evolve(psi0, pulse, terms, shifts, dt=0.001).in_full_basis()
    assert abs(1.0 - abs(full.overlap(sec))) < 1e-9
    # the even sector is preserved: expanding back loses nothing
    assert sec.norm() == pytest.approx(1.0, abs=1e-9)


def test_sector_rejects_asymmetric_shifts():
    basis = enumerate_basis(ChainGeometry(6))
    terms = build_terms(basis)
    even = symmetry_sector(basis, "even")
    psi0 = StateVector(even, even.to_sector(ground_state(basis).amplitudes))
    with pytest.raises(ValidationError):
        SampledEvolution(even, terms, LocalShifts.staggered(6, 3.8))
    assert psi0.space is even


def test_sector_refuses_a_reflection_breaking_coupling():
    # A drive on site 1 alone does not commute with the reflection, so no
    # sector run under it may stand in for the full-basis one.
    basis = enumerate_basis(ChainGeometry(6))
    terms = build_terms(basis)
    even = symmetry_sector(basis, "even")
    psi0 = StateVector(even, even.to_sector(ground_state(basis).amplitudes))
    coupling = drive_coupling(basis, sites=(1,))
    with pytest.raises(ValidationError, match="reflection"):
        even.reduce_operator(coupling)
    with pytest.raises(ValidationError, match="reflection"):
        SampledEvolution(psi0.space, terms, coupling=coupling)
    edges = drive_coupling(basis, sites=(1, 6))
    assert even.reduce_operator(edges).shape == (even.dim, even.dim)


def _even_state(basis, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    amps = amps + amps[basis.reflection]
    return amps / np.linalg.norm(amps)


class TestEvolutionSpace:
    """The one rule that decides whether a run may use the reflection."""

    @pytest.fixture
    def run_spaces(self, monkeypatch):
        spaces = []
        run = SampledEvolution.run

        def recording(self, *args, **kwargs):
            spaces.append(self.space)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(SampledEvolution, "run", recording)
        return spaces

    def test_even_state_runs_in_the_even_sector(self, run_spaces):
        basis = enumerate_basis(ChainGeometry(8))
        terms = build_terms(basis)
        shifts = LocalShifts.preparation_default(8)
        amps = _even_state(basis, seed=8)
        assert evolution_space(terms, shifts, amps).sector == "even"
        pulse = _random_crab_pulse(0.4, seed=8)
        out = evolve(StateVector(basis, amps), pulse, terms, shifts, dt=0.002)
        assert [space.dim for space in run_spaces] == [symmetry_sector(basis, "even").dim]
        assert out.space is basis
        forced = SampledEvolution(basis, terms, shifts).run(amps, pulse, dt=0.002)
        assert np.abs(out.amplitudes - forced).max() <= 1e-12

    def test_asymmetric_state_or_shifts_stay_on_the_full_basis(self, run_spaces):
        basis = enumerate_basis(ChainGeometry(6))
        terms = build_terms(basis)
        symmetric = LocalShifts.preparation_default(6)
        breaking = LocalShifts((-6.0, -1.5, 0.0, 0.0, 0.0, -4.5))
        even = _even_state(basis, seed=6)
        rng = np.random.default_rng(7)
        uneven = even + 1e-9 * rng.normal(size=basis.dim)
        assert evolution_space(terms, symmetric, even).sector == "even"
        assert evolution_space(terms, symmetric, even + 1e-14).sector == "even"
        pulse = _random_crab_pulse(0.3, seed=6)
        for amps, shifts in ((uneven, symmetric), (even, breaking)):
            assert evolution_space(terms, shifts, amps) is basis
            run_spaces.clear()
            out = evolve(StateVector(basis, amps), pulse, terms, shifts, dt=0.002)
            assert run_spaces == [basis]
            forced = SampledEvolution(basis, terms, shifts)
            assert np.array_equal(out.amplitudes, forced.run(amps, pulse, dt=0.002))


def test_ghz_state_and_basis_state():
    basis = enumerate_basis(ChainGeometry(4))
    psi = ghz_state(basis, phi=np.pi / 3)
    i_a, i_abar = basis.ghz_indices()
    assert psi.amplitudes[i_a] == pytest.approx(1 / np.sqrt(2))
    assert psi.amplitudes[i_abar] == pytest.approx(np.exp(1j * np.pi / 3) / np.sqrt(2))
    assert basis_state(basis, "0101").overlap(psi) == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ValidationError):
        StateVector(basis, np.zeros(3))


def test_spectrum_classical_limit():
    # omega = 0 diagonal Hamiltonian: compare with direct classical minimization
    basis = enumerate_basis(ChainGeometry(4))
    terms = build_terms(basis)
    shifts = LocalShifts.preparation_default(4)
    energies = classical_diagonal_energies(basis, shifts.as_array(), mhz_to_angular(20.0))
    order = np.argsort(energies)
    sl = lowest_spectrum(SampledEvolution(basis, terms, shifts), 0.0, mhz_to_angular(20.0), m=4)
    assert sl.ground_energy == pytest.approx(energies[order[0]], abs=1e-9)
    assert sl.ground_degeneracy == 2
    i_a, i_abar = basis.ghz_indices()
    assert set(order[:2]) == {i_a, i_abar}
    support = np.abs(sl.vectors[:, :2]) ** 2
    assert support[[i_a, i_abar], :].sum() == pytest.approx(2.0, abs=1e-9)


def test_spectrum_negative_delta_gap():
    basis = enumerate_basis(ChainGeometry(4))
    terms = build_terms(basis)
    shifts = LocalShifts.preparation_default(4)
    engine = SampledEvolution(basis, terms, shifts)
    sl = lowest_spectrum(engine, 0.0, mhz_to_angular(-20.0), m=3)
    assert sl.ground_degeneracy == 1
    assert sl.energies[1] == pytest.approx(TWO_PI * 20.0, abs=1e-9)
    psi = ground_state(basis)
    sl2 = lowest_spectrum(engine, 0.0, mhz_to_angular(-20.0), m=3, psi=psi)
    assert sl2.overlaps[0] == pytest.approx(1.0, abs=1e-12)
    assert sl2.ground_population() == pytest.approx(1.0, abs=1e-12)


def test_spectrum_sparse_path_finds_an_exactly_zero_ground_energy():
    # omega = 0 at negative detuning: the all-ground state has energy exactly
    # 0 and a basis vector as eigenvector, which ARPACK alone misses.
    basis = enumerate_basis(ChainGeometry(16))
    terms = build_terms(basis)
    shifts = LocalShifts.preparation_default(16)
    sector = symmetry_sector(basis, "even")
    delta = mhz_to_angular(-20.0)
    sl = lowest_spectrum(SampledEvolution(sector, terms, shifts), 0.0, delta, m=2)
    levels = np.unique(classical_diagonal_energies(basis, shifts.as_array(), delta))
    assert sector.dim > 600
    assert levels[0] == 0.0
    assert sl.ground_energy == pytest.approx(0.0, abs=1e-9)
    assert sl.energies[1] == pytest.approx(levels[1], abs=1e-9)
    start = sector.to_sector(ground_state(basis).amplitudes)
    assert abs(np.vdot(start, sl.vectors[:, 0])) == pytest.approx(1.0, abs=1e-9)


def test_spectrum_sparse_path_matches_dense():
    basis = enumerate_basis(ChainGeometry(16))  # dim 2584 forces the sparse path
    terms = build_terms(basis)
    shifts = LocalShifts.preparation_default(16)
    sl = lowest_spectrum(SampledEvolution(basis, terms, shifts), TWO_PI * 5.0, TWO_PI * 2.0, m=4)
    import scipy.sparse

    from rydghz.hamiltonian import build_hamiltonian

    h = build_hamiltonian(terms, shifts, TWO_PI * 5.0, TWO_PI * 2.0).toarray()
    ref = np.linalg.eigvalsh(h)[:4]
    assert np.allclose(sl.ground_energy + sl.energies, ref, atol=1e-6)


def test_spectrum_of_a_complex_coupling_matches_dense():
    basis = enumerate_basis(ChainGeometry(6))
    terms = build_terms(basis)
    shifts = LocalShifts.preparation_default(6)
    coupling = drive_coupling(basis, phase=0.7)
    engine = SampledEvolution(basis, terms, shifts, coupling=coupling)
    omega, delta = TWO_PI * 3.0, TWO_PI * 1.5
    sl = lowest_spectrum(engine, omega, delta, m=6)
    h = omega * coupling.toarray() + np.diag(
        terms.static_diagonal(shifts) - delta * terms.excitations
    )
    assert np.abs(h.imag).max() > 0.1
    evals = np.linalg.eigh(h)[0][:6]
    levels = sl.ground_energy + sl.energies
    assert np.allclose(levels, evals, rtol=0.0, atol=1e-10)
    assert np.abs(h @ sl.vectors - sl.vectors * levels).max() < 1e-10


@pytest.mark.parametrize("phase, real", [(0.0, True), (0.7, False)])
@pytest.mark.parametrize("lanczos", [False, True])
def test_spectrum_solver_input(monkeypatch, phase, real, lanczos):
    # A real coupling reaches either solver as a real matrix with
    # contiguous values; a complex one stays complex.
    basis = enumerate_basis(ChainGeometry(8))
    terms = build_terms(basis)
    engine = SampledEvolution(basis, terms, coupling=drive_coupling(basis, phase=phase))
    seen = []
    if lanczos:
        monkeypatch.setattr(propagate, "_DENSE_SPECTRUM_CUTOFF", 10)
        eigsh = propagate.eigsh

        def spy(h, **kwargs):
            seen.append((np.isrealobj(h.data), h.data.flags.c_contiguous))
            return eigsh(h, **kwargs)

        monkeypatch.setattr(propagate, "eigsh", spy)
    else:
        eigh = scipy.linalg.eigh

        def spy(a, **kwargs):
            seen.append((np.isrealobj(a), a.flags.c_contiguous))
            return eigh(a, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", spy)
    lowest_spectrum(engine, TWO_PI * 3.0, TWO_PI * 1.5, m=4)
    assert seen == [(real, True)]


def test_spectrum_sparse_path_converges_at_weak_drive():
    # s = 0.005 of the default local-adiabatic ramp: omega ~ 0 leaves a
    # clustered low spectrum in the N=16 even sector (above the dense cutoff)
    from rydghz.hamiltonian import build_hamiltonian
    from rydghz.optimize import RampSpec

    basis = enumerate_basis(ChainGeometry(16))
    terms = build_terms(basis)
    shifts = LocalShifts.preparation_default(16)
    sector = symmetry_sector(basis, "even")
    spec = RampSpec(kind="local_adiabatic", total_time_us=1.1)
    omega = mhz_to_angular(spec.omega_mhz(0.005))
    delta = mhz_to_angular(spec.delta_mhz(0.005))
    sl = lowest_spectrum(SampledEvolution(sector, terms, shifts), omega, delta, m=16)
    h = sector.reduce_operator(build_hamiltonian(terms, shifts, omega, delta))
    ref = np.linalg.eigvalsh(h.toarray())[:16]
    assert sector.dim > 600
    assert np.allclose(sl.ground_energy + sl.energies, ref, rtol=0.0, atol=1e-8)
