"""State-detection error model and detection-corrected inference.

Readout errors act independently per site: a true 0 is read as 1 with
probability p10 and a true 1 as 0 with probability p01.  Populations are
compared at the level of grouped distributions (by excitation number, or
by staggered magnetization and excitation number jointly), whose group-to
-group confusion matrices are exact binomial convolutions.  The parent
distribution is recovered by least squares on the probability simplex:
block principal-pivoting exchanges (Judice & Pires 1994; Kim & Park 2011)
find the bound groups in a few solves, and a primal active-set walk
finishes wherever the exchanges stop improving.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import Basis
from .errors import InferenceError, ValidationError

P10_DEFAULT = 0.0063
P01_DEFAULT = 0.0227
P10_UNCERTAINTY_DEFAULT = 0.0001
P01_UNCERTAINTY_DEFAULT = 0.0042
# A bound group whose KKT multiplier is below -KKT_TOL is released.
KKT_TOL = 1e-10
# The inference gives up after this many KKT solves per group, plus a
# floor: 10 n + 100 for n groups.
INFERENCE_ITERATIONS_PER_GROUP = 10
INFERENCE_ITERATIONS_FLOOR = 100


@dataclass(frozen=True)
class DetectionModel:
    """Per-site misread probabilities: p10 = P(read 1 | true 0)."""

    p10: float = P10_DEFAULT
    p01: float = P01_DEFAULT
    p10_uncertainty: float = P10_UNCERTAINTY_DEFAULT
    p01_uncertainty: float = P01_UNCERTAINTY_DEFAULT

    def __post_init__(self):
        for name in ("p10", "p01"):
            p = getattr(self, name)
            if not 0.0 <= p < 0.5:
                raise ValidationError(f"{name} must lie in [0, 0.5), got {p}")
        if self.p10_uncertainty < 0 or self.p01_uncertainty < 0:
            raise ValidationError("uncertainties must be nonnegative")

    @classmethod
    def perfect(cls):
        return cls(0.0, 0.0, 0.0, 0.0)


@dataclass
class ShotSet:
    """Measured bitstrings: rows are shots, columns are sites (site 1 first)."""

    n_sites: int
    bits: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[1] != self.n_sites:
            raise ValidationError("shot array must be (n_shots, n_sites)")
        if bits.size and bits.max() > 1:
            raise ValidationError("shots must be 0/1 valued")
        self.bits = bits

    @property
    def n_shots(self):
        return self.bits.shape[0]

    def excitation_counts(self):
        return self.bits.sum(axis=1).astype(np.int64)

    def parities(self):
        """(-1)^(N - k) per shot."""
        k = self.excitation_counts()
        return np.where((self.n_sites - k) % 2 == 0, 1, -1).astype(np.int64)

    def to_text(self):
        lines = ["# rydghz-shots", f"# n_sites: {self.n_sites}", f"# n_shots: {self.n_shots}"]
        for key in sorted(self.metadata):
            lines.append(f"# {key}: {self.metadata[key]}")
        for row in self.bits:
            lines.append("".join("1" if b else "0" for b in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        metadata = {}
        n_sites = None
        rows = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    metadata[key.strip()] = value.strip()
                continue
            if set(line) - {"0", "1"}:
                raise ValidationError(f"line {ln}: not a bitstring: {line!r}")
            if n_sites is None:
                n_sites = len(line)
                declared = metadata.get("n_sites")
                if declared is not None and int(declared) != n_sites:
                    raise ValidationError(
                        f"line {ln}: bitstring width {n_sites} contradicts header n_sites={declared}"
                    )
            elif len(line) != n_sites:
                raise ValidationError(f"line {ln}: inconsistent bitstring length")
            rows.append([int(c) for c in line])
        if n_sites is None:
            raise ValidationError("shot file contains no data rows")
        metadata.pop("n_sites", None)
        metadata.pop("n_shots", None)
        return cls(n_sites, np.asarray(rows, dtype=np.uint8), metadata)


def sample_shots(psi, n_shots, model=None, seed=0):
    """Projective shots from |psi|^2 with per-site readout flips applied."""
    basis = psi.space
    if not isinstance(basis, Basis):
        raise ValidationError("sample_shots needs a state over a full Basis")
    probs = psi.populations()
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValidationError(f"state is not normalized (sum of populations {total})")
    return sample_shots_from_distribution(basis, probs / total, n_shots, model=model, seed=seed)


def sample_shots_from_distribution(basis, probs, n_shots, model=None, seed=0):
    """Shots from an explicit configuration distribution over a basis,
    stamped with the seed and misread rates."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (basis.dim,) or not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise ValidationError("probability vector must be finite and nonnegative over the basis")
    total = probs.sum()
    if not total > 0.0:
        raise ValidationError("probability vector sums to zero")
    if n_shots < 1:
        raise ValidationError("need at least one shot")
    model = model or DetectionModel()
    rng = np.random.default_rng(seed)
    idx = rng.choice(basis.dim, size=n_shots, p=probs / total)
    bits = basis.bits_matrix()[idx].astype(np.uint8)
    u = rng.random(bits.shape)
    flip = np.where(bits == 1, u < model.p01, u < model.p10)
    bits = bits ^ flip.astype(np.uint8)
    return ShotSet(basis.n_sites, bits, {"seed": seed, "p10": model.p10, "p01": model.p01})


@lru_cache(maxsize=None)
def _binomial_tables(n):
    """Binomial coefficients C(r, j) and exponents max(r - j, 0), r, j = 0..n."""
    comb = np.array([[math.comb(r, j) for j in range(n + 1)] for r in range(n + 1)],
                    dtype=float)
    k = np.arange(n + 1)
    rest = np.clip(k[:, None] - k[None, :], 0, None)
    comb.flags.writeable = rest.flags.writeable = False  # shared by every caller
    return comb, rest


def _binomial_pmf_table(n, p):
    """Row r: P(j successes in r trials), j = 0..r, in closed form (zero past r)."""
    comb, rest = _binomial_tables(n)
    k = np.arange(n + 1)
    return comb * p**k * ((1.0 - p) ** k)[rest]


def _binomial_count_confusion(n_slots, p10, p01):
    """T[m, n] = P(detect m ones | n true ones) over `n_slots` sites."""
    kept = _binomial_pmf_table(n_slots, 1.0 - p01)
    raised = _binomial_pmf_table(n_slots, p10)
    t = np.empty((n_slots + 1, n_slots + 1))
    for n in range(n_slots + 1):
        t[:, n] = np.convolve(kept[n, :n + 1], raised[n_slots - n, :n_slots - n + 1])
    return t


class ExcitationGrouping:
    """Group configurations by total excitation number k = 0..N."""

    def __init__(self, n_sites):
        self.n_sites = n_sites
        self.n_groups = n_sites + 1

    def labels(self):
        return [f"k={k}" for k in range(self.n_groups)]

    def parity_signs(self):
        k = np.arange(self.n_groups)
        return np.where((self.n_sites - k) % 2 == 0, 1.0, -1.0)

    def group_of_shots(self, shots):
        return shots.excitation_counts()

    def distribution_of_state(self, psi):
        basis = psi.space
        return np.bincount(
            basis.excitations, weights=psi.populations(), minlength=self.n_groups
        )

    def observed_distribution(self, shots):
        counts = np.bincount(self.group_of_shots(shots), minlength=self.n_groups)
        return counts / shots.n_shots

    def confusion(self, model):
        return _binomial_count_confusion(self.n_sites, model.p10, model.p01)

    def target_group_index(self):
        """Group containing the antiferromagnetic orderings (k = N/2)."""
        if self.n_sites % 2:
            raise ValidationError("target group needs an even chain")
        return self.n_sites // 2


class MagnetizationExcitationGrouping:
    """Group by (excitation number k, staggered magnetization M) jointly.

    For even chains the pair (k, M) is equivalent to the per-sublattice
    excitation counts (k_odd, k_even) via k = k_odd + k_even and
    M = 2 (k_even - k_odd); readout errors act independently on the two
    sublattices, so the exact confusion matrix is a product of two
    binomial-convolution transfers, one per sublattice:
    M[g, h] = T[k_odd(g), k_odd(h)] T[k_even(g), k_even(h)].  Groups are
    ordered lexicographically in (k, M).
    """

    def __init__(self, n_sites):
        if n_sites % 2:
            raise ValidationError("joint (M, k) grouping needs an even chain")
        self.n_sites = n_sites
        self.half = n_sites // 2
        pairs = []
        for k_odd in range(self.half + 1):
            for k_even in range(self.half + 1):
                k = k_odd + k_even
                m = 2 * (k_even - k_odd)
                pairs.append((k, m, k_odd, k_even))
        pairs.sort(key=lambda t: (t[0], t[1]))
        self.groups = [(k, m) for k, m, _, _ in pairs]
        self.n_groups = len(self.groups)
        self._sub_index = np.full((self.half + 1, self.half + 1), -1, dtype=np.int64)
        for g, (_, _, k_odd, k_even) in enumerate(pairs):
            self._sub_index[k_odd, k_even] = g
        # group -> sublattice counts, as index grids into the count transfer
        k_odd = np.array([t[2] for t in pairs])
        k_even = np.array([t[3] for t in pairs])
        self._odd_grid = np.ix_(k_odd, k_odd)
        self._even_grid = np.ix_(k_even, k_even)

    def labels(self):
        return [f"k={k},M={m:+d}" for k, m in self.groups]

    def parity_signs(self):
        return np.array([1.0 if (self.n_sites - k) % 2 == 0 else -1.0
                         for k, _ in self.groups])

    def _sublattice_counts_from_bits(self, bits):
        k_odd = bits[:, 0::2].sum(axis=1).astype(np.int64)
        k_even = bits[:, 1::2].sum(axis=1).astype(np.int64)
        return k_odd, k_even

    def group_of_shots(self, shots):
        k_odd, k_even = self._sublattice_counts_from_bits(shots.bits)
        return self._sub_index[k_odd, k_even]

    def distribution_of_state(self, psi):
        basis = psi.space
        k_odd, k_even = self._sublattice_counts_from_bits(basis.bits_matrix())
        groups = self._sub_index[k_odd, k_even]
        return np.bincount(groups, weights=psi.populations(), minlength=self.n_groups)

    def observed_distribution(self, shots):
        counts = np.bincount(self.group_of_shots(shots), minlength=self.n_groups)
        return counts / shots.n_shots

    def confusion(self, model):
        t = _binomial_count_confusion(self.half, model.p10, model.p01)
        return t[self._odd_grid] * t[self._even_grid]

    def target_group_index(self):
        """Singleton group of the A ordering: (k, M) = (N/2, +N)."""
        return self.groups.index((self.half, self.n_sites))

    def mirror_group_index(self):
        return self.groups.index((self.half, -self.n_sites))


@dataclass
class InferenceResult:
    distribution: np.ndarray
    residual_norm: float
    kkt_residual: float
    active_set: tuple
    iterations: int

    def __iter__(self):
        yield from (self.distribution, self.residual_norm)


def _equality_solve(mtm, mtw, free):
    idx = np.flatnonzero(free)
    nf = idx.size
    kkt = np.zeros((nf + 1, nf + 1))
    kkt[:nf, :nf] = mtm[idx[:, None], idx]
    kkt[:nf, nf] = 1.0
    kkt[nf, :nf] = 1.0
    rhs = np.empty(nf + 1)
    rhs[:nf] = mtw[idx]
    rhs[nf] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:nf], float(sol[nf])


def infer_true_distribution(observed, confusion, active_set=None):
    """Least-squares parent distribution on the probability simplex.

    Minimizes ||confusion @ V - observed||^2 subject to V >= 0 and
    sum(V) = 1 in two stages, each step of which solves the
    equality-constrained KKT system on the current free groups.

    1. Block principal pivoting (Judice & Pires, Comput. Oper. Res. 21,
       587 (1994); Kim & Park, SIAM J. Sci. Comput. 33, 3261 (2011)):
       every infeasible group is exchanged at once, free groups with
       V < -1e-12 becoming bound and bound groups with KKT multiplier
       below -KKT_TOL becoming free.  An optimal partition is returned
       as solved.  Exchanges can cycle, so after 3 that do not lower the
       number of infeasible groups the stage ends.
    2. The primal active-set walk finishes from the feasible point that
       is uniform on the groups the exchanges left free; it releases
       binding constraints with negative multipliers lowest index first,
       which makes the solution path deterministic.

    `iterations` counts the KKT solves of both stages.  After
    INFERENCE_ITERATIONS_PER_GROUP * n + INFERENCE_ITERATIONS_FLOOR solves
    for n groups (read at call time) InferenceError is raised.

    Parameters
    ----------
    observed : observed group distribution W (need not be normalized
        perfectly; it is used as given).
    confusion : column-stochastic group confusion matrix M.
    active_set : optional group indices to start bound at zero, typically
        the `active_set` of a previous result on nearby data; by default
        every group starts free.  When M^T M is positive definite (square
        M with misread rates below 0.5) the minimizer is unique, so a warm
        start changes only the number of solves; the path from a given
        start stays deterministic.  A set that binds every group falls
        back to the cold start.
    """
    w_obs = np.asarray(observed, dtype=float)
    m = np.asarray(confusion, dtype=float)
    if m.ndim != 2 or w_obs.shape != (m.shape[0],):
        raise ValidationError("confusion matrix and observation shapes disagree")
    if not (np.all(np.isfinite(w_obs)) and np.all(np.isfinite(m))):
        raise ValidationError("observed distribution and confusion matrix must be finite")
    n = m.shape[1]
    free = np.ones(n, dtype=bool)
    if active_set is not None:
        bound = np.asarray(active_set)
        if bound.size and (bound.ndim != 1 or bound.dtype.kind not in "iu"
                           or bound.min() < 0 or bound.max() >= n):
            raise ValidationError(f"active set must hold group indices in [0, {n})")
        free[bound.astype(np.int64)] = False
        if not free.any():
            free[:] = True
    mtm = m.T @ m
    mtw = m.T @ w_obs
    max_iterations = INFERENCE_ITERATIONS_PER_GROUP * n + INFERENCE_ITERATIONS_FLOOR
    v = free / np.count_nonzero(free)
    exchanging, fewest_infeasible, stalls = True, n + 1, 0
    for iteration in range(1, max_iterations + 1):
        v_free, lam = _equality_solve(mtm, mtw, free)
        target = np.zeros(n)
        feasible = bool(np.all(v_free >= -1e-12))
        target[free] = np.clip(v_free, 0.0, None) if feasible else v_free
        grad = mtm @ target - mtw
        mu = grad + lam
        bound = np.nonzero(~free)[0]
        negative = bound[mu[bound] < -KKT_TOL]
        if feasible and negative.size == 0:
            kkt_parts = [abs(target.sum() - 1.0)]
            if free.any():
                kkt_parts.append(np.max(np.abs(grad[free] + lam)))
            if bound.size:
                kkt_parts.append(max(0.0, -float(mu[bound].min())))
            return InferenceResult(
                distribution=target,
                residual_norm=float(np.linalg.norm(m @ target - w_obs)),
                kkt_residual=float(max(kkt_parts)),
                active_set=tuple(int(i) for i in bound),
                iterations=iteration,
            )
        if exchanging:
            binding = np.nonzero(free & (target < -1e-12))[0]
            infeasible = binding.size + negative.size
            if infeasible < fewest_infeasible:
                fewest_infeasible, stalls = infeasible, 0
            else:
                stalls += 1
            if stalls < 3:
                free[binding] = False
                free[negative] = True
                continue
            # The walk starts here, from the point uniform on this partition;
            # its first step is the one this solve gives.
            exchanging = False
            v = free / np.count_nonzero(free)
        if feasible:
            v = target
            free[negative[0]] = True  # lowest index released first
            continue
        # infeasible target: walk until the first coordinate hits zero
        direction = target - v
        shrinking = np.nonzero(free & (target < -1e-15))[0]
        steps = v[shrinking] / (v[shrinking] - target[shrinking])
        alpha = float(np.min(steps))
        blocking = shrinking[np.nonzero(steps <= alpha + 1e-12)[0][0]]
        v = np.clip(v + alpha * direction, 0.0, None)
        v[blocking] = 0.0
        free[blocking] = False
    raise InferenceError(
        f"inference did not converge in {max_iterations} KKT solves",
        residual=float(np.linalg.norm(m @ v - w_obs)),
    )


@dataclass
class BootstrapResult:
    sigma: np.ndarray | None
    samples: np.ndarray
    n_resamples: int
    sigma_defined: bool
    iterations: int  # KKT solves summed over the resamples' inferences


def _truncated_normal(rng, mean, sd, lo=0.0, hi=0.5):
    if sd == 0.0:
        return float(np.clip(mean, lo, hi))
    for _ in range(1000):
        draw = rng.normal(mean, sd)
        if lo <= draw < hi:
            return float(draw)
    return float(np.clip(mean, lo, hi - 1e-12))


def bootstrap_uncertainty(shots, grouping, model=None, n_resamples=200, seed=0):
    """Bootstrap sigma of the inferred distribution.

    Each resample redraws the detection probabilities from their stated
    uncertainties (normal, truncated to [0, 0.5)) and the shot counts
    multinomially, then reruns the inference.  With a single resample the
    spread is undefined and flagged as such.  Each inference runs block
    principal-pivoting exchanges (Judice & Pires 1994; Kim & Park 2011),
    finished by the active-set walk where they stall, and starts them from
    the previous resample's active set.  That leaves the samples unchanged
    (see `infer_true_distribution`) but saves most of the KKT solves;
    `iterations` sums them over the resamples.
    """
    model = model or DetectionModel()
    if n_resamples < 1:
        raise ValidationError("need at least one bootstrap resample")
    rng = np.random.default_rng(seed)
    w_hat = grouping.observed_distribution(shots)
    n_shots = shots.n_shots
    samples = np.empty((n_resamples, len(w_hat)))
    active_set = None
    iterations = 0
    for b in range(n_resamples):
        p10 = _truncated_normal(rng, model.p10, model.p10_uncertainty)
        p01 = _truncated_normal(rng, model.p01, model.p01_uncertainty)
        model_b = DetectionModel(p10, p01, model.p10_uncertainty, model.p01_uncertainty)
        counts = rng.multinomial(n_shots, w_hat)
        w_b = counts / n_shots
        confusion_b = grouping.confusion(model_b)
        result = infer_true_distribution(w_b, confusion_b, active_set=active_set)
        samples[b] = result.distribution
        active_set = result.active_set
        iterations += result.iterations
    if n_resamples == 1:
        return BootstrapResult(None, samples, 1, False, iterations)
    sigma = samples.std(axis=0, ddof=1)
    return BootstrapResult(sigma, samples, n_resamples, True, iterations)


def parity_from_distribution(distribution, grouping):
    """Net parity sum_g (-1)^(N - k_g) V_g of a grouped distribution."""
    v = np.asarray(distribution, dtype=float)
    if v.shape != (grouping.n_groups,):
        raise ValidationError("distribution does not match the grouping")
    return float(v @ grouping.parity_signs())
