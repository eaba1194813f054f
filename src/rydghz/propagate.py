"""Time evolution and low-lying spectra on truncated bases.

Pulses are integrated with piecewise-constant midpoint sampling: the
controls are sampled once per run, at the center of every dt step, and
held there for the step.  Each step is applied with a Lanczos (Krylov)
matrix exponential at a fixed per-step tolerance.  The Lanczos basis is
built by the Hermitian three-term recurrence alone, without
reorthogonalization: the Krylov approximation of exp(-i t H) v stays
accurate in finite precision even when the basis loses orthogonality
(Druskin, Greenbaum & Knizhnerman, SIAM J. Sci. Comput. 19, 38 (1998);
Musco, Musco & Sidford, SODA 2018).
At the small dimensions of a pulse search a Lanczos iteration costs more
in call dispatch than in flops, so the loop calls the compiled kernels
directly: the drive product is scipy's CSR product (sparsetools
csr_matvec) on arrays bound once per matvec, which returns a new array;
the recurrence updates it in place with BLAS level 1 (zaxpy, zdotc); and
the small tridiagonal is solved by LAPACK dstev.
The same Lanczos loop gives dense output under a constant generator:
one basis yields exp(-i t H) v at every requested time it reaches, and a
single step is its one-time case.  Independent runs on one step grid
run as one evolution of their direct sum, since exp(-i h (+)_k H_k) is
(+)_k exp(-i h H_k): one Lanczos basis per step serves them all.  Each
copy of the direct sum has its own static diagonal, so it stacks K
pulses under one diagonal as well as one pulse under K diagonals (the
quenched disorder realizations of noise.noisy_preparation).
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.linalg import blas, lapack
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .basis import SymmetrizedBasis, symmetry_sector
from .errors import PropagationError, SpectralError, ValidationError

DEFAULT_DT_US = 0.001
KRYLOV_TOL = 1e-12
KRYLOV_MAX_DIM = 64
# Eigenvalues this close to the ground energy count as degenerate with it.
DEGENERACY_TOL = 1e-8
_DENSE_SPECTRUM_CUTOFF = 600
# Compiled kernels of the Lanczos loop and the drive product, bound once.
_zaxpy, _zdotc, _dstev = blas.zaxpy, blas.zdotc, lapack.dstev
_csr_matvec = _sparsetools.csr_matvec
_ONE_BY_ONE = np.ones((1, 1))


@dataclass
class StateVector:
    """Amplitudes over a Basis or a SymmetrizedBasis."""

    space: object
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise ValidationError(
                f"amplitude vector of shape {amps.shape} does not match dim {self.space.dim}"
            )
        self.amplitudes = amps

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self):
        n = self.norm()
        if n == 0:
            raise ValidationError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / n)

    def overlap(self, other):
        """<self|other>."""
        if other.space.dim != self.space.dim:
            raise ValidationError("states live in different spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def populations(self):
        return np.abs(self.amplitudes) ** 2

    def copy(self):
        return StateVector(self.space, self.amplitudes.copy())

    def in_full_basis(self):
        """Expand a sector state back to its parent basis (no-op otherwise)."""
        if isinstance(self.space, SymmetrizedBasis):
            return StateVector(self.space.basis, self.space.from_sector(self.amplitudes))
        return self


def ground_state(basis):
    """All sites in |0>: the configuration with integer value 0."""
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(0)] = 1.0
    return StateVector(basis, amps)


def basis_state(basis, pattern):
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(pattern)] = 1.0
    return StateVector(basis, amps)


def ghz_state(basis, phi=0.0):
    """(|A> + e^{i phi} |Abar>)/sqrt(2) over the two staggered orderings."""
    i_a, i_abar = basis.ghz_indices()
    amps = np.zeros(basis.dim, dtype=complex)
    amps[i_a] = 1.0 / np.sqrt(2.0)
    amps[i_abar] = np.exp(1j * phi) / np.sqrt(2.0)
    return StateVector(basis, amps)


def krylov_dense_output(matvec, vec, times, tol=KRYLOV_TOL, max_dim=KRYLOV_MAX_DIM,
                        start_check=3):
    """exp(-1j*t*H) @ vec at the leading `times` one Lanczos basis reaches.

    Lanczos for Hermitian H given through `matvec`, which must return a
    new array that the recurrence may overwrite, by the three-term
    recurrence w = H v_j - alpha_j v_j - beta_{j-1} v_{j-1},
    alpha_j = Re<v_j|w>, beta_j = |w|, with no reorthogonalization: the
    approximation of exp(-i t H) v stays accurate when the basis loses
    orthogonality (Druskin, Greenbaum & Knizhnerman, SIAM J. Sci. Comput.
    19, 38 (1998); Musco, Musco & Sidford, SODA 2018).  alpha and beta
    stay in 1-D arrays; the updates and inner products are BLAS level-1
    calls (zaxpy, zdotc) on w in place, and the small tridiagonal is
    solved by LAPACK dstev.  The basis grows until the last of `times`
    (any order or sign) meets the a-posteriori estimate
    |t| * beta_m * |u_m(t)| <= `tol` (relative to |vec|), or until
    `max_dim` vectors; convergence is first checked at `start_check`
    vectors.  Returns (basis, coeffs): the m basis vectors as rows and one
    row of m coefficients for each leading time whose estimate meets
    `tol`, so the state at times[k] is coeffs[k] @ basis (Park & Light,
    J. Chem. Phys. 85, 5870 (1986)).  When not even times[0] meets `tol`,
    or dstev fails, PropagationError is raised.
    """
    nrm = math.sqrt(np.vdot(vec, vec).real)
    if nrm == 0.0:
        return np.zeros((1, vec.size), dtype=complex), np.zeros((len(times), 1), dtype=complex)
    t_last = times[-1]
    abs_last = abs(t_last)
    dim = vec.size
    max_dim = min(max_dim, dim)
    v = np.empty((max_dim, dim), dtype=complex)
    np.divide(vec, nrm, out=v[0])
    alpha = np.empty(max_dim)
    beta = np.empty(max_dim)
    for j in range(max_dim):
        # f2py copies a w that is not contiguous complex128, so each
        # update keeps the array zaxpy returns.
        w = matvec(v[j])
        if j:
            w = _zaxpy(v[j - 1], w, a=-b)
        a = alpha[j] = _zdotc(v[j], w).real
        w = _zaxpy(v[j], w, a=-a)
        b = beta[j] = math.sqrt(_zdotc(w, w).real)
        m = j + 1
        if m >= start_check or b < 1e-14 or m == max_dim:
            evals, q = _tridiagonal_eigh(alpha, beta, m)
            u = q @ (np.exp(-1j * t_last * evals) * q[0])
            converged = abs_last * b * abs(u[-1]) <= tol or b < 1e-14
            if converged or m == max_dim:
                break
        np.divide(w, b, out=v[j + 1])
    if len(times) == 1:
        n_met, rows = int(converged), u[None, :]
    else:
        times = np.asarray(times, dtype=float)
        rows = (np.exp(-1j * np.multiply.outer(times, evals)) * q[0]) @ q.T
        met = (np.abs(times) * b * np.abs(rows[:, -1]) <= tol) | (b < 1e-14)
        n_met = times.size if met.all() else int(np.argmin(met))
    if n_met == 0:
        raise PropagationError(
            f"Krylov step did not reach tolerance {tol} within dimension {max_dim}"
        )
    return v[:m], rows[:n_met] * nrm


def _tridiagonal_eigh(alpha, beta, m):
    """Eigenpairs (evals, q with eigenvectors as columns) of the m x m
    symmetric tridiagonal with diagonal alpha[:m] and off-diagonal
    beta[:m-1], by LAPACK dstev; dstev needs m >= 2, and m = 1 is its own
    eigenpair."""
    if m == 1:
        return alpha[:1], _ONE_BY_ONE
    evals, q, info = _dstev(alpha[:m], beta[:m - 1])
    if info:
        raise PropagationError(f"tridiagonal eigensolver dstev failed with info {info}")
    return evals, q


def krylov_expm_apply(matvec, vec, dt, tol=KRYLOV_TOL, max_dim=KRYLOV_MAX_DIM,
                      start_check=3):
    """exp(-1j*dt*H) @ vec: the one-time case of krylov_dense_output.

    dt may be negative (backward in time).  Returns (result, krylov_dim).
    """
    if dt == 0.0:
        return vec.astype(complex, copy=True), 0
    basis, coeffs = krylov_dense_output(matvec, vec, (dt,), tol=tol, max_dim=max_dim,
                                        start_check=start_check)
    return coeffs[0] @ basis, basis.shape[0]


def step_grid(tau, dt):
    """(n_steps, h): the requested dt rounded to n_steps = round(tau/dt)
    equal steps of length h spanning tau.

    A dt that is not a positive number, or that leaves no whole step in
    tau, is refused.
    """
    if dt <= 0 or not np.isfinite(dt):
        raise ValidationError(f"dt must be positive, got {dt}")
    n_steps = int(round(tau / dt))
    if n_steps < 1:
        raise ValidationError(
            f"dt={dt} does not divide the duration {tau} within rounding"
        )
    return n_steps, tau / n_steps


def drive_matvec(coupling, omega_rad, diag):
    """x -> omega * (coupling @ x) + diag * x for a CSR coupling.

    omega and diag may be scalars or per-row arrays.  The CSR arrays are
    bound once, and each call runs scipy's compiled CSR product
    (sparsetools csr_matvec) into a new zeroed output, then scales it and
    adds the diagonal in place; it returns that new array.  The output is
    complex for a complex coupling, and has x's dtype for a real one, so
    a real coupling keeps real vectors real.
    """
    n_row, n_col = coupling.shape
    indptr, indices, data = coupling.indptr, coupling.indices, coupling.data
    out_dtype = complex if data.dtype.kind == "c" else None

    def matvec(x):
        w = np.zeros(n_row, dtype=out_dtype or x.dtype)
        _csr_matvec(n_row, n_col, indptr, indices, data, x, w)
        w *= omega_rad
        w += diag * x
        return w

    return matvec


class SampledEvolution:
    """Prepared midpoint-sampled propagator for one space.

    Holds the pieces of H = omega * coupling + diag(static - delta *
    excitations) so that repeated pulse evaluations (optimization loops)
    skip the setup cost; lowest_spectrum reads the same pieces.  The
    coupling is a CSR matrix with complex values (its index arrays shared
    with the one given), so no product converts it.  Works on a full Basis
    or, when the coupling and every diagonal term are reflection symmetric,
    on a SymmetrizedBasis: the one place the pieces are reduced into a sector.
    K pulses that share a step grid run as one evolution of the direct sum
    of K copies (see run); _direct_sum builds such a sum with one static
    diagonal per copy, and running one pulse on it evolves K Hamiltonians
    that differ only in that diagonal.
    """

    def __init__(self, space, terms, shifts=None, coupling=None):
        self.space = space
        self.terms = terms
        if coupling is None:
            coupling = terms.coupling
        if isinstance(space, SymmetrizedBasis):
            if space.basis is not terms.basis:
                raise ValidationError("sector does not belong to the terms' basis")
            self.coupling = sparse.csr_matrix(space.reduce_operator(coupling), dtype=complex)
            self.static_diag = space.reduce_diagonal(terms.static_diagonal(shifts))
            self.excitations = space.reduce_diagonal(terms.excitations)
        else:
            if space is not terms.basis:
                raise ValidationError("state space does not match the terms' basis")
            self.coupling = sparse.csr_matrix(coupling, dtype=complex)
            self.static_diag = terms.static_diagonal(shifts)
            self.excitations = terms.excitations
        self._direct_sums = {}

    @cached_property
    def solver_coupling(self):
        """The coupling as eigensolvers and linear solvers take it: a real
        matrix when its imaginary part is all zero, else the complex one.
        The real values are copied out contiguous, since the compiled CSR
        product would copy a strided view at every call."""
        if self.coupling.data.imag.any():
            return self.coupling
        real = self.coupling.real
        real.data = np.ascontiguousarray(real.data)
        return real

    def matvec_at(self, omega_rad, delta_rad):
        return drive_matvec(self.coupling, omega_rad,
                            self.static_diag - delta_rad * self.excitations)

    def _direct_sum(self, static_diags):
        """The engine of K uncoupled copies of this one, copy k with the
        static diagonal static_diags[k]: a block-diagonal coupling and
        stacked diagonals, so one stacked vector of K * dim rows carries K
        states, and scalar or per-row omega and delta arrays drive them.
        Nothing is kept; run keeps the pulse stack's sums per K."""
        k = len(static_diags)
        coupling, dim = self.coupling, self.coupling.shape[0]
        # The arrays sparse.block_diag would give, without its COO round trip.
        offsets = np.arange(k)[:, None]
        indptr = np.concatenate(([0], (coupling.indptr[1:] + coupling.nnz * offsets).ravel()))
        indices = (coupling.indices + dim * offsets).ravel()
        engine = object.__new__(SampledEvolution)
        engine.space, engine.terms = self.space, self.terms
        engine.coupling = sparse.csr_matrix(
            (np.tile(coupling.data, k), indices, indptr), shape=(k * dim, k * dim)
        )
        engine.static_diag = np.concatenate(static_diags)
        engine.excitations = np.tile(self.excitations, k)
        engine._direct_sums = {}
        return engine

    def run(self, amplitudes, pulse, dt=DEFAULT_DT_US, observer=None, observer_stride=1):
        """Amplitudes after `pulse`, from the start `amplitudes`.

        `pulse` may be a sequence of K pulses instead.  They must share one
        step grid (the same number of steps of the same length; anything
        else raises ValidationError) and run as one evolution of the direct
        sum of K copies of this engine (kept per K), each copy driven by its
        own pulse's controls: one Krylov step per dt advances all K states
        from the one start `amplitudes`.  The result, like the observer's
        argument, is then a (K, dim) array.  A one-pulse sequence takes the
        single-pulse path, bit for bit.  On an engine from _direct_sum, one
        pulse drives every copy from a stacked start of K * dim amplitudes,
        and the result is the stacked vector.  Either way the Krylov
        tolerance applies to the stacked vector's norm, sqrt(K) for unit
        starts, so a step's error in any one copy is at most
        KRYLOV_TOL * sqrt(K).
        """
        stack = isinstance(pulse, Sequence)
        pulses = list(pulse) if stack else [pulse]
        if not pulses:
            raise ValidationError("need at least one pulse")
        k, dim = len(pulses), self.static_diag.size
        shape = (k, dim) if stack else (dim,)
        amps = np.tile(np.asarray(amplitudes, dtype=complex), k)
        grids = {None if p.tau == 0.0 else step_grid(p.tau, dt) for p in pulses}
        if len(grids) > 1:
            raise ValidationError(
                "stacked pulses must share one step grid; got durations "
                f"{sorted({p.tau for p in pulses})} at dt={dt}"
            )
        grid = grids.pop()
        if grid is None:
            return amps.reshape(shape)
        n_steps, h = grid
        # Read once per run, outside the step loop.
        tol, max_dim = KRYLOV_TOL, KRYLOV_MAX_DIM
        samples = [p.sample((np.arange(n_steps) + 0.5) * h) for p in pulses]
        if k == 1:
            engine = self
            controls = zip(samples[0][0].tolist(), samples[0][1].tolist())
        else:
            engine = self._direct_sums.get(k)
            if engine is None:
                engine = self._direct_sums[k] = self._direct_sum([self.static_diag] * k)
            omegas = np.array([omega for omega, _ in samples]).T
            deltas = np.array([delta for _, delta in samples]).T
            controls = (
                (np.repeat(omega, dim), np.repeat(delta, dim))
                for omega, delta in zip(omegas, deltas)
            )
        start_check = 3
        for step, (omega, delta) in enumerate(controls):
            matvec = engine.matvec_at(omega, delta)
            try:
                amps, m = krylov_expm_apply(
                    matvec, amps, h, tol=tol, max_dim=max_dim, start_check=start_check,
                )
            except PropagationError as exc:
                raise PropagationError(str(exc), step_index=step) from None
            start_check = max(3, m - 1)
            if observer is not None and (step + 1) % observer_stride == 0:
                observer((step + 1) * h, amps.reshape(shape))
        return amps.reshape(shape)


def evolution_space(terms, shifts, amplitudes):
    """The even reflection sector if a run from the full-basis `amplitudes`
    under terms and shifts stays in it, else terms.basis.  It stays when
    the static diagonal is reflection symmetric and |R psi - psi| <= 1e-12,
    which bounds what the sector run drops; the all-site drive
    terms.coupling commutes with the reflection R by construction."""
    basis = terms.basis
    if (np.linalg.norm(amplitudes[basis.reflection] - amplitudes) <= 1e-12
            and terms.static_is_reflection_symmetric(shifts)):
        return symmetry_sector(basis, "even")
    return basis


def evolve(psi, pulse, terms, shifts=None, dt=DEFAULT_DT_US):
    """Propagate `psi` through `pulse`; returns a new StateVector in psi's space.

    A full-basis state runs in the space evolution_space picks (a pulse of
    zero duration leaves it bit for bit); a sector state runs in its
    sector, which refuses terms that would leave it.
    """
    space = psi.space
    if space is terms.basis and pulse.tau > 0:
        space = evolution_space(terms, shifts, psi.amplitudes)
    engine = SampledEvolution(space, terms, shifts)
    if space is psi.space:
        return StateVector(space, engine.run(psi.amplitudes, pulse, dt=dt))
    amps = engine.run(space.to_sector(psi.amplitudes), pulse, dt=dt)
    return StateVector(psi.space, space.from_sector(amps))


@dataclass
class SpectrumSlice:
    """Lowest part of the spectrum at one control sample.

    energies are relative to the ground energy; vectors holds the
    eigenvectors as columns.  Near-degenerate ground spaces are reported
    through ground_degeneracy, and overlap diagnostics should be summed
    over that subspace rather than read off a single vector.
    """

    param: float
    ground_energy: float
    energies: np.ndarray
    vectors: np.ndarray
    overlaps: np.ndarray | None = None
    ground_degeneracy: int = 1

    def ground_population(self):
        if self.overlaps is None:
            return None
        return float(np.sum(self.overlaps[: self.ground_degeneracy]))


def lowest_spectrum(engine, omega_rad, delta_rad, m, psi=None, param=0.0, start=None):
    """Lowest m eigenpairs of H(omega, delta) from a SampledEvolution's pieces.

    The spectrum lives in the engine's (possibly sector-reduced) space, with
    the operator the evolution uses; a coupling with zero imaginary part
    reaches the solver as a real operator.  Small problems are solved
    densely for the m requested levels only.  Larger ones, and every call
    given a `start` vector, go to ARPACK's Lanczos eigensolver, which
    applies the engine's drive product (drive_matvec) and starts from
    `start`, or from the deterministic uniform vector without one.  A start
    close to the wanted eigenvectors, such as the ground vector of a nearby
    control sample, is a warm start that ARPACK refines in one or two
    Lanczos factorizations (Lehoucq, Sorensen & Yang, ARPACK Users' Guide,
    SIAM 1998).  A start needs m below the dimension.
    """
    if m < 1:
        raise ValidationError(f"need at least one eigenpair, got m={m}")
    diag_dim = engine.space.dim
    m = min(m, diag_dim)
    coupling = engine.solver_coupling
    diag = engine.static_diag - delta_rad * engine.excitations
    lanczos = start is not None or (diag_dim > _DENSE_SPECTRUM_CUTOFF and m <= diag_dim // 2)
    if not lanczos:
        h = omega_rad * coupling + sparse.diags(diag)
        evals, vecs = scipy.linalg.eigh(h.toarray(), subset_by_index=[0, m - 1])
        shift = 0.0
    else:
        # ARPACK misses an eigenvalue that is exactly zero with a basis
        # vector as eigenvector, as the all-ground state's is at omega = 0;
        # a Gershgorin shift puts the whole spectrum at 1 rad/us or above.
        shift = diag.min() - abs(omega_rad) * abs(coupling).sum(axis=1).max() - 1.0
        h = LinearOperator((diag_dim, diag_dim), dtype=coupling.dtype,
                           matvec=drive_matvec(coupling, omega_rad, diag - shift))
        if start is None:
            start = np.full(diag_dim, 1.0 / np.sqrt(diag_dim))
        # ARPACK's default subspace (2m+1) stalls on the clustered spectra
        # of weak drives.  20 vectors per level, up to 128, converge there:
        # 40 converge fastest for a ground pair, and 20 for a ground state
        # from a warm start.  The tolerance sits two orders below the 1e-10
        # to which the diabatic weight built on these vectors is checked.
        ncv = min(diag_dim, max(2 * m + 1, min(128, 20 * m)))
        try:
            evals, vecs = eigsh(h, k=m, which="SA", v0=start, tol=1e-12, ncv=ncv)
        except ArpackNoConvergence as exc:
            raise SpectralError(f"eigensolver did not converge: {exc}") from exc
        order = np.argsort(evals)
        evals, vecs = evals[order], vecs[:, order]
    e0 = float(evals[0]) + shift
    rel = evals - evals[0]
    degeneracy = int(np.sum(rel <= DEGENERACY_TOL))
    overlaps = None
    if psi is not None:
        if psi.space.dim != diag_dim:
            raise ValidationError("state space does not match the spectrum space")
        overlaps = np.abs(vecs.conj().T @ psi.amplitudes) ** 2
    return SpectrumSlice(
        param=param, ground_energy=e0, energies=rel, vectors=vecs,
        overlaps=overlaps, ground_degeneracy=degeneracy,
    )
