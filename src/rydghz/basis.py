"""Blockade-truncated computational bases for 1D chains.

Sites are indexed 1..N from the left.  A configuration is stored as an
integer whose most significant bit is site 1, and a basis holds the
configurations with at most `max_adjacent_pairs` adjacent excited pairs,
sorted ascending by integer value.  `max_adjacent_pairs = 0` is the hard
blockade limit, whose dimension follows the Fibonacci recurrence
L(N) = L(N-1) + L(N-2) with L(1) = 2, L(2) = 3.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import CapacityError, ValidationError

# Largest basis enumerate_basis builds.
MAX_CONFIGS = 4_000_000
# Largest difference between reflected entries of a diagonal that still
# counts as reflection symmetric.
REFLECTION_TOL = 1e-9


@dataclass(frozen=True)
class ChainGeometry:
    """Chain length plus truncation and interaction-range settings."""

    n_sites: int
    max_adjacent_pairs: int = 0
    interaction_range: int = 3

    def __post_init__(self):
        if int(self.n_sites) != self.n_sites or self.n_sites < 1:
            raise ValidationError(f"n_sites must be a positive integer, got {self.n_sites}")
        limit = max(self.n_sites - 1, 0)
        if not 0 <= self.max_adjacent_pairs <= limit:
            raise ValidationError(
                f"max_adjacent_pairs must lie in [0, {limit}], got {self.max_adjacent_pairs}"
            )
        if int(self.interaction_range) != self.interaction_range or self.interaction_range < 1:
            raise ValidationError(
                f"interaction_range must be a positive integer, got {self.interaction_range}"
            )


def count_configs(n_sites, max_adjacent_pairs=0):
    """Number of length-`n_sites` patterns with at most the given number of
    adjacent excited pairs, counted by transfer over (last bit, pairs used)."""
    counts = {(0, 0): 1, (1, 0): 1}
    for _ in range(n_sites - 1):
        nxt = {}
        for (last, used), c in counts.items():
            key0 = (0, used)
            nxt[key0] = nxt.get(key0, 0) + c
            used1 = used + last
            if used1 <= max_adjacent_pairs:
                key1 = (1, used1)
                nxt[key1] = nxt.get(key1, 0) + c
        counts = nxt
    return sum(counts.values())


def _enumerate_values(n_sites, max_adjacent_pairs):
    # Grow site by site, emitting children of each parent in place so the
    # value order stays ascending without a sort.
    values = np.array([0, 1], dtype=np.int64)
    last = np.array([0, 1], dtype=np.int8)
    pairs = np.zeros(2, dtype=np.int8)
    for _ in range(n_sites - 1):
        allowed = pairs + last <= max_adjacent_pairs
        n_children = 1 + allowed.astype(np.int64)
        starts = np.cumsum(n_children) - n_children
        total = int(starts[-1] + n_children[-1])
        new_values = np.empty(total, dtype=np.int64)
        new_last = np.empty(total, dtype=np.int8)
        new_pairs = np.empty(total, dtype=np.int8)
        new_values[starts] = values << 1
        new_last[starts] = 0
        new_pairs[starts] = pairs
        ones = starts[allowed] + 1
        new_values[ones] = (values[allowed] << 1) | 1
        new_last[ones] = 1
        new_pairs[ones] = pairs[allowed] + last[allowed]
        values, last, pairs = new_values, new_last, new_pairs
    return values


def _popcount(values, n_sites):
    k = np.zeros(values.shape, dtype=np.int64)
    for b in range(n_sites):
        k += (values >> b) & 1
    return k


def _reverse_bits(values, n_sites):
    rev = np.zeros(values.shape, dtype=np.int64)
    for b in range(n_sites):
        rev |= ((values >> b) & 1) << (n_sites - 1 - b)
    return rev


def pattern_to_int(pattern, n_sites=None):
    """Accept an integer or a '0101'-style string; return the integer form."""
    if isinstance(pattern, str):
        if n_sites is not None and len(pattern) != n_sites:
            raise ValidationError(f"pattern '{pattern}' does not have {n_sites} sites")
        if set(pattern) - {"0", "1"}:
            raise ValidationError(f"pattern '{pattern}' is not a bitstring")
        return int(pattern, 2)
    value = int(pattern)
    if value < 0 or (n_sites is not None and value >= (1 << n_sites)):
        raise ValidationError(f"pattern {pattern} out of range for {n_sites} sites")
    return value


def ghz_component_values(n_sites):
    """Integer forms of the two antiferromagnetic orderings (A, Abar).

    A = 0101...01 (even sites excited, staggered magnetization +N) and
    Abar = 1010...10.  Defined for even chains.
    """
    if n_sites % 2 != 0:
        raise ValidationError("GHZ component patterns need an even number of sites")
    a_val = sum(1 << (n_sites - i) for i in range(2, n_sites + 1, 2))
    abar_val = sum(1 << (n_sites - i) for i in range(1, n_sites + 1, 2))
    return a_val, abar_val


class Basis:
    """Sorted configuration list plus cached per-configuration observables."""

    def __init__(self, geometry, configs):
        self.geometry = geometry
        self.n_sites = geometry.n_sites
        self.configs = configs
        self.dim = configs.size
        n = self.n_sites
        self.excitations = _popcount(configs, n)
        # (-1)^i site signs with site 1 leftmost: odd sites -1, even +1.
        rev = _reverse_bits(configs, n)
        self.reflection = np.searchsorted(configs, rev)
        signs = np.array([(-1) ** i for i in range(1, n + 1)], dtype=np.int64)
        bits = self.bits_matrix()
        self.staggered_m = (2 * bits.astype(np.int64) - 1) @ signs
        self.parity = np.where((n - self.excitations) % 2 == 0, 1, -1).astype(np.int64)

    _bits_cache = None

    def bits_matrix(self):
        """(dim, n_sites) matrix of occupations; column j is site j+1."""
        if self._bits_cache is None:
            shifts = np.arange(self.n_sites - 1, -1, -1, dtype=np.int64)
            self._bits_cache = ((self.configs[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        return self._bits_cache

    def index_of(self, pattern):
        value = pattern_to_int(pattern, self.n_sites)
        j = int(np.searchsorted(self.configs, value))
        if j >= self.dim or self.configs[j] != value:
            raise ValidationError(
                f"pattern {value:0{self.n_sites}b} is not in the truncated basis"
            )
        return j

    def pattern_string(self, index):
        return format(int(self.configs[index]), f"0{self.n_sites}b")

    def ghz_indices(self):
        a_val, abar_val = ghz_component_values(self.n_sites)
        return self.index_of(a_val), self.index_of(abar_val)

    def symmetric_under_reflection(self, x):
        """Whether a diagonal or a sparse operator over this basis is invariant
        under the chain reflection R (R x R = x for an operator), entry by
        entry within REFLECTION_TOL."""
        r = self.reflection
        if sparse.issparse(x):
            op = sparse.csr_matrix(x)
            diff = op[r][:, r] - op
            return not diff.nnz or bool(abs(diff).max() <= REFLECTION_TOL)
        x = np.asarray(x)
        return bool(np.allclose(x[r], x, rtol=0.0, atol=REFLECTION_TOL))

    def __repr__(self):
        g = self.geometry
        return (
            f"Basis(n_sites={g.n_sites}, max_adjacent_pairs={g.max_adjacent_pairs}, "
            f"dim={self.dim})"
        )


def enumerate_basis(geometry):
    """Enumerate the truncated basis for `geometry`, ascending by value.

    Counts first by transfer matrix and raises CapacityError before
    allocating anything when the basis would exceed MAX_CONFIGS.
    """
    size = count_configs(geometry.n_sites, geometry.max_adjacent_pairs)
    if size > MAX_CONFIGS:
        raise CapacityError(
            f"basis of {size} configurations exceeds the cap of {MAX_CONFIGS}"
        )
    values = _enumerate_values(geometry.n_sites, geometry.max_adjacent_pairs)
    return Basis(geometry, values)


class SymmetrizedBasis:
    """Reflection-adapted combinations of a truncated basis.

    Even-sector states are reflection-fixed configurations plus symmetric
    pair combinations (c + Rc)/sqrt(2); odd-sector states are the
    antisymmetric pair combinations.  Orbits are ordered by their smaller
    member's ordinal in the parent basis.
    """

    def __init__(self, basis, sector):
        if sector not in ("even", "odd"):
            raise ValidationError(f"sector must be 'even' or 'odd', got {sector!r}")
        self.basis = basis
        self.sector = sector
        refl = basis.reflection
        idx = np.arange(basis.dim)
        keep = idx <= refl if sector == "even" else idx < refl
        self.representatives = idx[keep]
        self.partners = refl[keep]
        self.dim = self.representatives.size
        cols = np.arange(self.dim)
        paired = self.representatives != self.partners
        vals = np.where(paired, 1.0 / np.sqrt(2.0), 1.0)
        sign = 1.0 if sector == "even" else -1.0
        self.mapping = sparse.csr_matrix(
            (np.concatenate([vals, sign * vals[paired]]),
             (np.concatenate([self.representatives, self.partners[paired]]),
              np.concatenate([cols, cols[paired]]))),
            shape=(basis.dim, self.dim),
        )

    def to_sector(self, amplitudes):
        return self.mapping.T @ amplitudes

    def from_sector(self, amplitudes):
        return self.mapping @ amplitudes

    def reduce_operator(self, op):
        if not self.basis.symmetric_under_reflection(op):
            raise ValidationError(
                "operator does not commute with the reflection; cannot restrict to a sector"
            )
        return sparse.csr_matrix(self.mapping.T @ op @ self.mapping)

    def reduce_diagonal(self, diag):
        diag = np.asarray(diag)
        if not self.basis.symmetric_under_reflection(diag):
            raise ValidationError(
                "diagonal is not reflection symmetric; cannot restrict to a sector"
            )
        return diag[self.representatives]

    def __repr__(self):
        return f"SymmetrizedBasis(sector={self.sector!r}, dim={self.dim})"


def symmetry_sector(basis, sector):
    """Build the reflection-symmetric ('even') or antisymmetric ('odd') sector."""
    return SymmetrizedBasis(basis, sector)
