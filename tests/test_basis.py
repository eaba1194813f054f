import numpy as np
import pytest

from rydghz.basis import (
    ChainGeometry,
    count_configs,
    enumerate_basis,
    ghz_component_values,
    pattern_to_int,
    symmetry_sector,
)
from rydghz.errors import CapacityError, ValidationError

from _oracles import brute_force_patterns, brute_force_sector_dims


@pytest.mark.parametrize("n_sites", range(1, 13))
@pytest.mark.parametrize("max_pairs", [0, 1, 2])
def test_enumeration_matches_brute_force(n_sites, max_pairs):
    if max_pairs > n_sites - 1:
        pytest.skip("truncation exceeds pair count")
    basis = enumerate_basis(ChainGeometry(n_sites, max_adjacent_pairs=max_pairs))
    expected = brute_force_patterns(n_sites, max_pairs)
    got = [basis.pattern_string(i) for i in range(basis.dim)]
    assert got == expected
    assert count_configs(n_sites, max_pairs) == len(expected)


def test_hard_blockade_counts_follow_fibonacci():
    dims = [enumerate_basis(ChainGeometry(n)).dim for n in range(1, 21)]
    assert dims[0] == 2 and dims[1] == 3
    for n in range(2, 20):
        assert dims[n] == dims[n - 1] + dims[n - 2]
    assert dims[19] == 17711


def test_ascending_order_and_index_round_trip():
    basis = enumerate_basis(ChainGeometry(10, max_adjacent_pairs=1))
    assert np.all(np.diff(basis.configs) > 0)
    for j in [0, 1, basis.dim // 2, basis.dim - 1]:
        assert basis.index_of(basis.pattern_string(j)) == j
        assert basis.index_of(int(basis.configs[j])) == j


def test_blocked_pattern_rejected():
    basis = enumerate_basis(ChainGeometry(4))
    with pytest.raises(ValidationError):
        basis.index_of("0110")
    with pytest.raises(ValidationError):
        basis.index_of("01010")  # wrong length


def test_capacity_cap_raises_before_allocation():
    # 14,930,352 configurations at N=34: counted, refused, never built.
    with pytest.raises(CapacityError) as err:
        enumerate_basis(ChainGeometry(34))
    assert "14930352" in str(err.value)


def test_geometry_validation():
    with pytest.raises(ValidationError):
        ChainGeometry(0)
    with pytest.raises(ValidationError):
        ChainGeometry(4, max_adjacent_pairs=4)
    with pytest.raises(ValidationError):
        ChainGeometry(4, interaction_range=0)


def _staggered_m(basis, pattern):
    return basis.staggered_m[basis.index_of(pattern)]


def test_staggered_magnetization_convention():
    # M = sum_i (-1)^i (2 n_i - 1), site 1 leftmost: 0101...01 attains +N
    # and its complement -N.
    for n in [2, 4, 8, 20]:
        basis = enumerate_basis(ChainGeometry(n))
        a_val, abar_val = ghz_component_values(n)
        assert _staggered_m(basis, a_val) == n
        assert _staggered_m(basis, abar_val) == -n
    basis = enumerate_basis(ChainGeometry(4))
    assert _staggered_m(basis, "0101") == 4
    assert _staggered_m(basis, "0000") == 0
    assert _staggered_m(basis, "1000") == -2


def test_staggered_magnetization_bounds_and_complement():
    basis = enumerate_basis(ChainGeometry(8))
    i_a, i_abar = basis.ghz_indices()
    assert basis.staggered_m[i_a] == 8
    assert basis.staggered_m[i_abar] == -8
    others = np.delete(basis.staggered_m, [i_a, i_abar])
    assert np.max(np.abs(others)) < 8
    # flipping every site negates M (checked on the untruncated space)
    full = enumerate_basis(ChainGeometry(6, max_adjacent_pairs=5))
    for v in full.configs[:20]:
        comp = (~v) & ((1 << 6) - 1)
        assert _staggered_m(full, int(v)) == -_staggered_m(full, int(comp))


def test_parity_convention():
    basis = enumerate_basis(ChainGeometry(20))
    i_a, i_abar = basis.ghz_indices()
    assert basis.parity[i_a] == 1
    assert basis.parity[i_abar] == 1
    assert basis.parity[basis.index_of(0)] == 1
    one = basis.index_of(1 << 10)
    assert basis.parity[one] == -1


def test_reflection_is_an_involution_preserving_observables():
    basis = enumerate_basis(ChainGeometry(9, max_adjacent_pairs=1))
    refl = basis.reflection
    assert np.all(refl[refl] == np.arange(basis.dim))
    assert np.all(basis.excitations[refl] == basis.excitations)
    assert np.all(basis.parity[refl] == basis.parity)


@pytest.mark.parametrize("n_sites,max_pairs", [(4, 0), (5, 0), (6, 1), (8, 0), (2, 1)])
def test_sector_dimensions_match_brute_force(n_sites, max_pairs):
    basis = enumerate_basis(ChainGeometry(n_sites, max_adjacent_pairs=max_pairs))
    even = symmetry_sector(basis, "even")
    odd = symmetry_sector(basis, "odd")
    exp_even, exp_odd = brute_force_sector_dims(n_sites, max_pairs)
    assert even.dim == exp_even
    assert odd.dim == exp_odd
    assert even.dim + odd.dim == basis.dim


def test_sector_n4_frozen_values():
    # Brute-force symmetrization of the 8 hard-blockade configs:
    # palindromes 0000 and 1001, plus pairs (0001,1000), (0010,0100),
    # (0101,1010) -> 5 even, 3 odd.
    basis = enumerate_basis(ChainGeometry(4))
    assert symmetry_sector(basis, "even").dim == 5
    assert symmetry_sector(basis, "odd").dim == 3


def test_n2_untruncated_sectors():
    basis = enumerate_basis(ChainGeometry(2, max_adjacent_pairs=1))
    assert symmetry_sector(basis, "even").dim == 3
    assert symmetry_sector(basis, "odd").dim == 1


def test_sector_mapping_is_orthonormal():
    basis = enumerate_basis(ChainGeometry(8))
    for name in ("even", "odd"):
        sec = symmetry_sector(basis, name)
        gram = (sec.mapping.T @ sec.mapping).toarray()
        assert np.allclose(gram, np.eye(sec.dim), atol=1e-14)


def test_sector_round_trip_and_diagonal_reduction():
    basis = enumerate_basis(ChainGeometry(6))
    even = symmetry_sector(basis, "even")
    rng = np.random.default_rng(7)
    v = rng.standard_normal(even.dim) + 1j * rng.standard_normal(even.dim)
    back = even.to_sector(even.from_sector(v))
    assert np.allclose(back, v, atol=1e-14)
    sym_diag = basis.excitations.astype(float)
    assert np.allclose(even.reduce_diagonal(sym_diag), sym_diag[even.representatives])
    asym = np.arange(basis.dim, dtype=float)
    with pytest.raises(ValidationError):
        even.reduce_diagonal(asym)


def test_pattern_to_int_validation():
    assert pattern_to_int("0101") == 5
    with pytest.raises(ValidationError):
        pattern_to_int("01x1")
    with pytest.raises(ValidationError):
        pattern_to_int(16, n_sites=4)
    with pytest.raises(ValidationError):
        ghz_component_values(5)
