"""Chain Hamiltonian pieces on a truncated basis.

The generator is H/hbar = (omega/2) sum_i sigma_x^(i)
- sum_i (delta + shift_i) n_i + sum_{i<j} V/|i-j|^6 n_i n_j, with all
angular frequencies in rad/us.  The drive term keeps only spin flips that
stay inside the truncated basis; van der Waals tails are kept out to the
geometry's interaction range in units of the lattice spacing.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ValidationError
from .units import mhz_to_angular

V_NN_DEFAULT_MHZ = 24.0


@dataclass(frozen=True)
class LocalShifts:
    """Static per-site detuning offsets, in MHz (site 1 first)."""

    values_mhz: tuple

    def __post_init__(self):
        object.__setattr__(self, "values_mhz", tuple(float(v) for v in self.values_mhz))
        if not np.all(np.isfinite(self.values_mhz)):
            raise ValidationError(f"local shifts must be finite, got {self.values_mhz}")

    @property
    def n_sites(self):
        return len(self.values_mhz)

    def as_array(self):
        return np.asarray(self.values_mhz, dtype=float)

    @property
    def is_reflection_symmetric(self):
        return self.values_mhz == self.values_mhz[::-1]

    def plus(self, offsets_mhz):
        """New shifts with per-site offsets added (used for disorder draws)."""
        offsets = np.asarray(offsets_mhz, dtype=float)
        if offsets.shape != (self.n_sites,):
            raise ValidationError("offset length does not match site count")
        return LocalShifts(tuple(self.as_array() + offsets))

    @classmethod
    def none(cls, n_sites):
        return cls((0.0,) * n_sites)

    @classmethod
    def edges(cls, n_sites, value_mhz):
        values = np.zeros(n_sites)
        values[0] = values[-1] = value_mhz
        return cls(tuple(values))

    @classmethod
    def preparation_default(cls, n_sites):
        """Edge-penalty recipe used for GHZ sweeps.

        Short chains (N <= 8) get -4.5 MHz on the two edge sites; longer
        chains get -6 MHz on the edges plus -1.5 MHz on sites 4 and N-3.
        """
        if n_sites <= 8:
            return cls.edges(n_sites, -4.5)
        values = np.zeros(n_sites)
        values[0] = values[-1] = -6.0
        values[3] = values[n_sites - 4] = -1.5
        return cls(tuple(values))

    @classmethod
    def staggered(cls, n_sites, delta_p_mhz):
        """(-1)^i * delta_p pattern: -delta_p on odd sites, +delta_p on even."""
        values = [((-1) ** i) * delta_p_mhz for i in range(1, n_sites + 1)]
        return cls(tuple(values))

    @classmethod
    def edge_isolation(cls, n_sites, value_mhz=6.0):
        return cls.edges(n_sites, value_mhz)


class HamiltonianTerms:
    """Precomputed operator pieces for one basis.

    coupling is the drive template sum_i sigma_x^(i)/2 restricted to the
    basis; interaction_diagonal is the full van der Waals diagonal in
    rad/us; excitations is the diagonal of the total number operator.
    """

    def __init__(self, basis, v_mhz=V_NN_DEFAULT_MHZ, bond_factors=None):
        if not (np.isfinite(v_mhz) and v_mhz >= 0):
            raise ValidationError(f"blockade interaction must be finite and nonnegative, got {v_mhz}")
        n = basis.n_sites
        if bond_factors is not None:
            bond_factors = np.asarray(bond_factors, dtype=float)
            if bond_factors.shape != (max(n - 1, 0),):
                raise ValidationError("bond_factors must have one entry per nearest-neighbor bond")
        self.basis = basis
        self.v_mhz = float(v_mhz)
        self.bond_factors = bond_factors
        self.coupling = drive_coupling(basis)
        self.excitations = basis.excitations.astype(float)
        self.interaction_diagonal = interaction_diagonal(basis, self.v_mhz, bond_factors)

    def number_diagonal(self, site):
        """Diagonal of n_i for 1-based site index."""
        if not 1 <= site <= self.basis.n_sites:
            raise ValidationError(f"site {site} outside 1..{self.basis.n_sites}")
        return self.basis.bits_matrix()[:, site - 1].astype(float)

    def shift_diagonal(self, shifts):
        """sum_i shift_i n_i in rad/us for a LocalShifts pattern."""
        if shifts is None:
            return np.zeros(self.basis.dim)
        if shifts.n_sites != self.basis.n_sites:
            raise ValidationError("shift pattern length does not match the chain")
        return self.basis.bits_matrix() @ mhz_to_angular(shifts.as_array())

    def static_diagonal(self, shifts=None):
        """Interaction minus local-shift part (everything but the sweep detuning)."""
        return self.interaction_diagonal - self.shift_diagonal(shifts)

    def static_is_reflection_symmetric(self, shifts=None):
        """Whether the static diagonal is invariant under the chain reflection."""
        return self.basis.symmetric_under_reflection(self.static_diagonal(shifts))


def interaction_diagonal(basis, v_mhz, bond_factors):
    """The van der Waals diagonal sum_{i<j} V/|i-j|^6 n_i n_j in rad/us,
    out to the geometry's interaction range; bond_factors (or None) scale
    the nearest-neighbor bonds one by one."""
    bits = basis.bits_matrix().astype(float)
    n = basis.n_sites
    diag = np.zeros(basis.dim)
    v_rad = mhz_to_angular(v_mhz)
    for d in range(1, basis.geometry.interaction_range + 1):
        if d > n - 1:
            break
        strength = v_rad / d**6
        for i in range(n - d):
            pair = bits[:, i] * bits[:, i + d]
            if d == 1 and bond_factors is not None:
                diag += strength * bond_factors[i] * pair
            else:
                diag += strength * pair
    return diag


def build_terms(basis, v_mhz=V_NN_DEFAULT_MHZ, bond_factors=None):
    return HamiltonianTerms(basis, v_mhz=v_mhz, bond_factors=bond_factors)


def build_hamiltonian(terms, shifts, omega_rad, delta_rad):
    """Sparse H at one control sample (angular units)."""
    diag = terms.static_diagonal(shifts) - delta_rad * terms.excitations
    h = omega_rad * terms.coupling + sparse.diags(diag)
    return sparse.csr_matrix(h)


def drive_coupling(basis, sites=None, phase=0.0):
    """Drive template for a subset of sites with a laser phase.

    Returns sum over the requested 1-based sites of
    (e^{-i phase} |1><0| + e^{+i phase} |0><1|)/2 restricted to the basis;
    phase 0 recovers the sigma_x/2 template on those sites.  The matrix is
    real when the phase is 0 modulo pi.
    """
    if sites is None:
        sites = range(1, basis.n_sites + 1)
    sites = sorted(set(int(s) for s in sites))
    if not sites:
        raise ValidationError("drive needs at least one site")
    if sites[0] < 1 or sites[-1] > basis.n_sites:
        raise ValidationError(f"drive sites must lie in 1..{basis.n_sites}")
    configs = basis.configs
    n = basis.n_sites
    rows = []
    cols = []
    data = []
    up = 0.5 * np.exp(-1j * phase)
    for site in sites:
        bit = 1 << (n - site)
        flipped = configs ^ bit
        pos = np.searchsorted(configs, flipped)
        pos = np.clip(pos, 0, basis.dim - 1)
        ok = configs[pos] == flipped
        idx = np.nonzero(ok)[0]
        partner = pos[ok]
        raised = (configs[idx] & bit) != 0  # row has the excitation
        rows.append(idx)
        cols.append(partner)
        data.append(np.where(raised, up, np.conj(up)))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    if np.allclose(data.imag, 0.0):
        data = data.real
    return sparse.csr_matrix((data, (rows, cols)), shape=(basis.dim, basis.dim))


def staggered_field_generator(basis, delta_p_mhz):
    """Diagonal generator of the staggered probe field, in rad/us.

    Entries are delta_p * M_n / 2 with M_n the staggered magnetization, so
    exp(-i g T) advances the relative phase of the two antiferromagnetic
    orderings at angular rate N * delta_p.
    """
    return mhz_to_angular(delta_p_mhz) * basis.staggered_m.astype(float) / 2.0
