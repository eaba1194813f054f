import numpy as np
import pytest

from rydghz.basis import ChainGeometry, enumerate_basis, symmetry_sector
from rydghz.errors import ValidationError
from rydghz.hamiltonian import (
    LocalShifts,
    build_hamiltonian,
    build_terms,
    drive_coupling,
    staggered_field_generator,
)
from rydghz.units import TWO_PI, mhz_to_angular

from _oracles import dense_hamiltonian, staggered_shifts


@pytest.fixture(scope="module")
def basis6():
    return enumerate_basis(ChainGeometry(6))


def test_matches_dense_reference(basis6):
    shifts = LocalShifts.preparation_default(6)
    terms = build_terms(basis6)
    got = build_hamiltonian(terms, shifts, mhz_to_angular(3.0), mhz_to_angular(-7.0)).toarray()
    ref = dense_hamiltonian(basis6, shifts.as_array(), mhz_to_angular(3.0), mhz_to_angular(-7.0))
    assert np.allclose(got, ref, atol=1e-12)


def test_hermitian_and_real(basis6):
    terms = build_terms(basis6)
    h = build_hamiltonian(terms, staggered_shifts(6, 3.8), TWO_PI * 5, TWO_PI * 2)
    dense = h.toarray()
    assert np.allclose(dense, dense.T, atol=0)
    assert np.isrealobj(dense)


def test_coupling_entries_are_single_flips(basis6):
    terms = build_terms(basis6)
    coo = terms.coupling.tocoo()
    assert np.all(coo.data == 0.5)
    for i, j in zip(coo.row, coo.col):
        diff = int(basis6.configs[i]) ^ int(basis6.configs[j])
        assert bin(diff).count("1") == 1
    # flips leaving the truncated space are absent: row sums bounded by N/2
    row_counts = np.diff(terms.coupling.indptr)
    assert row_counts.max() <= 6


@pytest.mark.parametrize("n_sites", [8, 12])
def test_coupling_is_the_phase_zero_drive_template(n_sites):
    basis = enumerate_basis(ChainGeometry(n_sites))
    coupling = build_terms(basis).coupling
    assert np.array_equal(coupling.toarray(), drive_coupling(basis).toarray())
    # and both equal the oracle's drive part (omega = 1, no diagonal)
    ref = dense_hamiltonian(basis, None, 1.0, 0.0, v_mhz=0.0)
    assert np.array_equal(coupling.toarray(), ref)


def test_interaction_diagonal_values():
    basis3 = enumerate_basis(ChainGeometry(3))
    terms = build_terms(basis3)
    i101 = basis3.index_of("101")
    assert terms.interaction_diagonal[i101] == pytest.approx(TWO_PI * 24.0 / 2**6)
    i100 = basis3.index_of("100")
    assert terms.interaction_diagonal[i100] == 0.0
    # adjacent pair appears when the truncation allows it
    loose = build_terms(enumerate_basis(ChainGeometry(2, max_adjacent_pairs=1)))
    i11 = loose.basis.index_of("11")
    assert loose.interaction_diagonal[i11] == pytest.approx(TWO_PI * 24.0)


def test_interaction_range_truncates_tails():
    basis = enumerate_basis(ChainGeometry(5, interaction_range=1))
    terms = build_terms(basis)
    i = basis.index_of("10100")
    assert terms.interaction_diagonal[i] == 0.0
    wide = build_terms(enumerate_basis(ChainGeometry(5, interaction_range=4)))
    j = wide.basis.index_of("10001")
    assert wide.interaction_diagonal[j] == pytest.approx(TWO_PI * 24.0 / 4**6)


def test_reflection_symmetry_commutes(basis6):
    terms = build_terms(basis6)
    shifts = LocalShifts.preparation_default(6)
    h = build_hamiltonian(terms, shifts, TWO_PI * 4, TWO_PI * 1.5).toarray()
    refl = basis6.reflection
    assert np.allclose(h[np.ix_(refl, refl)], h, atol=1e-12)
    # sector reduction block-diagonalizes it
    even = symmetry_sector(basis6, "even")
    odd = symmetry_sector(basis6, "odd")
    cross = (even.mapping.T @ h @ odd.mapping)
    assert np.max(np.abs(cross)) < 1e-12


def test_shift_presets():
    assert LocalShifts.preparation_default(8).values_mhz == (-4.5, 0, 0, 0, 0, 0, 0, -4.5)
    long = LocalShifts.preparation_default(12)
    assert long.values_mhz[0] == long.values_mhz[11] == -6.0
    assert long.values_mhz[3] == long.values_mhz[8] == -1.5
    assert sum(v != 0 for v in long.values_mhz) == 4
    assert long.values_mhz == long.values_mhz[::-1]
    iso = LocalShifts.edges(8, 6.0)
    assert iso.values_mhz == (6.0, 0, 0, 0, 0, 0, 0, 6.0)
    with pytest.raises(ValidationError):
        LocalShifts.none(4).plus([1.0, 2.0])


def test_shift_sign_penalizes_edges(basis6):
    # negative edge shift raises the energy of an edge excitation
    terms = build_terms(basis6)
    shifts = LocalShifts.edges(6, -4.5)
    h = build_hamiltonian(terms, shifts, 0.0, 0.0).toarray()
    e_edge = h[basis6.index_of("100000"), basis6.index_of("100000")]
    e_bulk = h[basis6.index_of("010000"), basis6.index_of("010000")]
    assert e_edge - e_bulk == pytest.approx(TWO_PI * 4.5)


def test_staggered_generator_phase_rate(basis6):
    gen = staggered_field_generator(basis6, 3.8)
    i_a, i_abar = basis6.ghz_indices()
    # relative phase rate between the two orderings is N * delta_p
    assert gen[i_a] - gen[i_abar] == pytest.approx(TWO_PI * 3.8 * 6)
    assert np.allclose(gen, TWO_PI * 3.8 * basis6.staggered_m / 2.0)


def test_bond_factors_scale_nearest_neighbors_only():
    basis = enumerate_basis(ChainGeometry(4, max_adjacent_pairs=1))
    factors = np.array([2.0, 1.0, 0.5])
    terms = build_terms(basis, bond_factors=factors)
    i1100 = basis.index_of("1100")
    assert terms.interaction_diagonal[i1100] == pytest.approx(TWO_PI * 24.0 * 2.0)
    i0011 = basis.index_of("0011")
    assert terms.interaction_diagonal[i0011] == pytest.approx(TWO_PI * 24.0 * 0.5)
    i0101 = basis.index_of("0101")
    assert terms.interaction_diagonal[i0101] == pytest.approx(TWO_PI * 24.0 / 2**6)
    with pytest.raises(ValidationError):
        build_terms(basis, bond_factors=np.ones(2))


def test_number_diagonal(basis6):
    # The diagonal of n_i is column i - 1 of the occupation matrix.
    bits = basis6.bits_matrix()
    n1 = bits[:, 0]
    assert n1[basis6.index_of("100000")] == 1
    assert n1[basis6.index_of("010000")] == 0
    for site in range(1, 7):
        expected = [int(basis6.pattern_string(j)[site - 1]) for j in range(basis6.dim)]
        assert np.array_equal(bits[:, site - 1], expected)


@pytest.mark.parametrize("v_mhz", [float("nan"), float("inf"), -1.0])
def test_interaction_must_be_finite_and_nonnegative(basis6, v_mhz):
    with pytest.raises(ValidationError):
        build_terms(basis6, v_mhz=v_mhz)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_local_shifts_must_be_finite(value):
    with pytest.raises(ValidationError):
        LocalShifts((0.0, value, 0.0))
    with pytest.raises(ValidationError):
        LocalShifts.edges(4, value)
