"""ADMM solvers for low-rank plus sparse self-expressive representations.

Given a data matrix X (columns are points), every solver looks for a
representation C with X ~= XC whose affinity |C| + |C|^T feeds spectral
clustering.  The three-block solvers split the representation into a
low-rank block C1 (thresholded singular values) and a sparse block C2
(thresholded entries, zero diagonal), with firm thresholds in gmc and soft
ones in the convex baseline.  The two-block s0l0 solver keeps a single C
and averages rank and sparsity hard-threshold prox maps.  All three run one
ADMM loop over the splits J = C_k of one :class:`State`; they differ only in
their C maps, their penalty and their number of splits.  :data:`ALGORITHMS`
holds each of them once, under its command-line name: its solve function,
the config field of each split's initial mu, C maps, Lagrangian penalty,
settings rule, tuned defaults and the grid ``lrssc tune`` searches.

The J, dual and mu steps, the augmented Lagrangian and the stationarity
(KKT) residuals live here, outside the package's top-level names, so that
the solvers can be probed piece by piece; they are internals, not a stable
interface.  Each algorithm's C step exists once, as the per-split maps of
its record: ``c_map(J, split, cfg)`` for each ``(mu_init, c_map)`` in
``ALGORITHMS[name].splits``.  Each settings rule is written once, as its
record's ``check``: :func:`_solve` runs it before the loop, and the probes
:func:`lagrangian_value` and :func:`kkt_residuals` run it at their one gate,
:func:`_algorithm`; the maps and penalties behind them check nothing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import prox
from .exceptions import NumericalError
from .parallel import numpy_blas_single_thread

GMC = "gmc"
S0L0 = "s0l0"
CONVEX = "lrssc-convex"

# gamma = 1 collapses the firm knee onto the threshold; nudge it apart.
_GAMMA_KNEE_NUDGE = 1e-9
# What a SolverConfig field holds, by the type of its default, and its name in
# errors (the CLI's too); tau, whose default is None, holds a number.
_KINDS = {bool: (bool, "a boolean"), int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a number")}


@dataclass
class SolverConfig:
    """Hyperparameters shared by the ADMM solvers.

    tau defaults to 1 - lam.  The penalty weights used by the updates are
    always lam * mu2_init and tau * mu2_init (:func:`effective_weights`); the
    proximal average in the two-block solver keeps (lam, tau) as its
    combination weights.  ``normalize_j`` rescales the columns of J to unit
    l2 norm after each J update.  gmc's firm knees and MC penalty scale b
    follow the current mu and gamma by one rule, written only in
    :func:`_mc_shape`.  Every numeric setting must be a finite number (not a
    bool), ``max_iters`` an integer and ``normalize_j`` a bool.

    The numeric defaults are gmc_lrssc_solve's tuned values on the synthetic
    benchmark (grid search over lam, gamma, and mu2_init); the overrides of
    the other solvers live in :data:`ALGORITHMS`.  ``lrssc tune --trials 10
    --var 0.0``, which runs :func:`lrssc.evaluation.grid_search`, picks the
    shipped values for gmc and lrssc-convex.  For s0l0 it picks
    lam 0.8 (median error 0.070) over the shipped 0.5 (0.087 in the same
    run).
    """

    lam: float = 1.0 / 1.1
    tau: float | None = None
    gamma: float = 1.0
    rho: float = 3.0
    mu1_init: float = 0.1
    mu2_init: float = 3.0
    mu_max: float = 1e6
    epsilon: float = 1e-4
    max_iters: int = 100
    normalize_j: bool = True

    def __post_init__(self):
        for name, value in vars(self).items():
            if name == "tau" and value is None:
                continue  # 1 - lam, set once lam is checked
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            kind, words = _KINDS.get(type(getattr(SolverConfig, name)), _KINDS[float])
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {words}, got {value!r}")
        if self.tau is None:
            self.tau = 1.0 - self.lam
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if self.tau < 0.0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not self.rho > 1.0:
            raise ValueError(f"rho must exceed 1, got {self.rho}")
        if self.mu1_init <= 0 or self.mu2_init <= 0:
            raise ValueError("mu1_init and mu2_init must be positive")
        if self.mu_max < max(self.mu1_init, self.mu2_init):
            raise ValueError("mu_max must be at least the initial mu values")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


def effective_weights(cfg: SolverConfig) -> tuple[float, float]:
    """Penalty weights the updates actually use: (lam * mu2_init, tau * mu2_init)."""
    return cfg.lam * cfg.mu2_init, cfg.tau * cfg.mu2_init


@dataclass
class Split:
    """One split J = C of the ADMM iterate: its block C, multiplier Lambda and mu."""

    C: np.ndarray
    Lambda: np.ndarray
    mu: float


@dataclass
class State:
    """ADMM iterate: J and its splits J = C_k, in update order.

    gmc and lrssc-convex have two splits, the low-rank C1 and the sparse C2;
    s0l0 has one, its single C.
    """

    J: np.ndarray
    splits: list[Split]

    @classmethod
    def zeros(cls, n_points: int, mus) -> "State":
        """J, every C and every Lambda zero; one split per initial mu in ``mus``."""
        z = lambda: np.zeros((n_points, n_points))
        return cls(J=z(), splits=[Split(C=z(), Lambda=z(), mu=mu) for mu in mus])


@dataclass
class KktResiduals:
    """Frobenius norms of the stationarity conditions at a state.

    ``gaps`` holds the primal feasibility ||J - C_k|| of each split and
    ``fixed`` the fixed-point residual ||C_k - map_k|| of each split's C
    update, both in update order; ``grad`` is the gradient condition on J.
    """

    gaps: list[float]
    grad: float
    fixed: list[float]

    def max_residual(self) -> float:
        return max(*self.gaps, self.grad, *self.fixed)


@dataclass
class SolverTrace:
    """Per-iteration diagnostics: residuals, Lagrangian, mu schedule, exit info.

    ``variant`` is the algorithm's key in :data:`ALGORITHMS`.  ``r_jc[k]``
    holds the max-abs entry of J - C_k of split k per iteration and ``mu[k]``
    the mu that split used, in update order; r_jj is the change in J between
    iterations.  The Lagrangian is evaluated at the end of each iteration,
    after the multiplier update, with the mu values used during that
    iteration.  Each split's gap and multiplier step share one residual
    J - C_k, formed right after that split's C map; the Lagrangian forms its
    own, one split at a time.  ``lagrangian_value`` takes the stats of every
    split's C map, in update order.  The J step uses the thin SVD of X taken
    once per solve (:class:`GramSolver`), so three-block runs, which take the
    singular values of C1 from the C1 step, cost one decomposition of the
    N x N Gram matrix of the SVT per iteration and no SVD (a tridiagonal
    reduction and the eigenvectors of the smaller side; see
    :mod:`lrssc.prox`).  The value agrees with :func:`lagrangian_value`,
    which runs its own SVD, to rounding, not always to the last digit.
    Two-block (s0l0) runs take their penalty from counts the C step already
    has, the singular values its hard SVT kept and the nonzero entries of
    its hard-thresholded sparsity map, so they run no SVD per iteration
    either.  ``kkt`` holds the exit :class:`KktResiduals`;
    it is None only in the partial trace a NumericalError carries and in the
    command line's one-row trace of closed-form LRR, which has no splits.
    """

    variant: str
    r_jc: list[list] = field(default_factory=list)
    r_jj: list = field(default_factory=list)
    lagrangian: list = field(default_factory=list)
    mu: list[list] = field(default_factory=list)
    termination: str = "max_iters"
    kkt: KktResiduals | None = None

    @property
    def n_iters(self) -> int:
        return len(self.r_jj)


class GramSolver:
    """Solve the J step's ridge system from the thin SVD of X, never forming X^T X.

    With X = U diag(s) V^T (V is N x r, r = min(d, N)) and f = s^2/(s^2 + shift),
    ``solve(shift, R)`` returns (X^T X + shift*I)^-1 (X^T X + R), which is
    (R + V diag(f) V^T (shift*I - R)) / shift: two N x N x r products and no
    N x N factorization.  It keeps ``s``, ``s2`` = s^2 and ``Vt`` = V^T, and
    is the one thin SVD of X in the package: the closed-form LRR baselines
    take theirs from it too.  The SVD is numpy's and runs with numpy's BLAS
    held at one thread (:func:`lrssc.parallel.numpy_blas_single_thread`),
    where gesdd of the short, wide X is fastest.

    It is also the one check of X for every solve, the J step and both LRRs:
    before its SVD it raises ValueError on an X that is not a 2-d matrix,
    has a non-finite entry or has no nonzero entry (an all-zero X, or one
    with no rows).  A rule that only some callers have, a solver's two
    columns, stays with them.
    """

    def __init__(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be a 2-d matrix, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        if not np.any(X):
            raise ValueError("X must contain at least one nonzero entry")
        try:
            with numpy_blas_single_thread():
                _, self.s, self.Vt = np.linalg.svd(X, full_matrices=False)
        except np.linalg.LinAlgError as err:  # pragma: no cover
            raise NumericalError(f"SVD of X failed: {err}") from err
        self.s2 = self.s * self.s

    def solve(self, shift: float, rhs: np.ndarray) -> np.ndarray:
        W = prox._gemm(self.Vt, rhs)
        np.subtract(shift * self.Vt, W, out=W)
        W *= (self.s2 / (self.s2 + shift))[:, None]
        out = prox._gemm(self.Vt.T, W)
        out += rhs
        out /= shift
        return out


def _check_mus(state) -> None:
    """The mu rule of the J step and the gate :func:`_algorithm`."""
    if not all(split.mu > 0 for split in state.splits):
        raise ValueError("every mu must be positive")


def j_update(X, state, gram: GramSolver | None = None) -> np.ndarray:
    """Exact minimizer of the augmented Lagrangian over J (ridge-type solve).

    J = (X^T X + sum_k mu_k I)^-1 (X^T X + sum_k mu_k C_k - sum_k Lambda_k),
    solved by :class:`GramSolver`; without ``gram`` it builds one from X,
    which checks X, and X is not read otherwise.
    """
    gram = GramSolver(X) if gram is None else gram
    _check_mus(state)
    rhs = np.zeros_like(state.J)
    for split in state.splits:
        rhs += split.mu * split.C
        rhs -= split.Lambda
    return gram.solve(sum(split.mu for split in state.splits), rhs)


def normalize_columns(J) -> np.ndarray:
    """Rescale nonzero columns to unit l2 norm; zero columns stay zero."""
    J = np.array(J, dtype=float)
    norms = np.linalg.norm(J, axis=0)
    J /= np.where(norms > 0, norms, 1.0)
    return J


def _mc_shape(weight: float, mu: float, gamma: float) -> tuple[prox.ThresholdParams, float]:
    """The "b tracks mu" rule: the firm step's thresholds and the MC penalty's b.

    A split with penalty weight ``weight`` and step ``mu`` is thresholded at
    weight/mu with knee weight/(gamma*mu), and its MC penalty takes
    b = sqrt(mu*gamma/weight), the largest b that keeps the mu-quadratic
    subproblem convex; so knee * b^2 = 1, except at gamma = 1, where the knee
    is nudged off the threshold by a factor 1 + _GAMMA_KNEE_NUDGE.  This is
    the only place the gmc steps and the gmc penalty get their shape from.
    It checks nothing: every caller is reached through gmc's settings rule
    and a positive mu (:func:`_solve`, or the gate :func:`_algorithm`), which
    give weight > 0, mu > 0 and gamma in (0, 1].
    """
    thr = weight / mu
    knee = weight / (gamma * mu)
    if not knee > thr:
        knee = thr * (1.0 + _GAMMA_KNEE_NUDGE)
    return prox.ThresholdParams(lam=thr, a=knee), math.sqrt(mu * gamma / weight)


def _check_positive_weights(cfg):
    """Settings rule of the three-block solvers (gmc adds the gamma range)."""
    if cfg.lam <= 0 or cfg.tau <= 0:
        raise ValueError(f"needs lam > 0 and tau > 0, got lam={cfg.lam}, tau={cfg.tau}")


def _check_gmc(cfg):
    _check_positive_weights(cfg)
    if not 0.0 < cfg.gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1] for firm-threshold updates, got {cfg.gamma}")


def _check_average_weights(cfg):
    """Settings rule of the proximal average: lam + tau = 1, both nonnegative."""
    if cfg.lam < 0 or cfg.tau < 0 or abs(cfg.lam + cfg.tau - 1.0) > 1e-12:
        raise ValueError(
            f"needs lam + tau = 1 with both nonnegative, got lam={cfg.lam}, tau={cfg.tau}")


def _prox_point(J, split: Split) -> np.ndarray:
    """J + Lambda/mu of a split, the point its C step thresholds, as one new array."""
    point = split.Lambda / split.mu
    point += J
    return point


def _hollow(C):
    """C with its diagonal zeroed, in place: the one home of the sparse maps'
    zero-diagonal rule."""
    np.fill_diagonal(C, 0.0)
    return C


def _gmc_low_rank(J, split, cfg):
    """C1: firm SVT of J + Lambda1/mu1 at the :func:`_mc_shape` of lam_eff,
    returned with its spectrum."""
    return prox.svt_firm(_prox_point(J, split),
                         _mc_shape(effective_weights(cfg)[0], split.mu, cfg.gamma)[0],
                         return_spectrum=True)


def _gmc_sparse(J, split, cfg):
    """C2: firm threshold of the entries of J + Lambda2/mu2 at the
    :func:`_mc_shape` of tau_eff, diagonal zeroed."""
    return _hollow(prox.entrywise_firm(
        _prox_point(J, split), _mc_shape(effective_weights(cfg)[1], split.mu, cfg.gamma)[0])), None


def _s0l0_c_map(J, split, cfg):
    """Proximal average of the rank and sparsity hard-threshold maps, with the
    counts its penalty takes: (C, (rank, nnz)).

    C is lam * svt_hard(V) + tau * entrywise_hard(V) at V = J + Lambda/mu,
    with the diagonal of the sparsity component zeroed.  Assumes
    lam + tau = 1, s0l0's settings rule, which its callers have run; the
    pure-rank (tau = 0) and pure-sparsity (lam = 0) cases degenerate to the
    single prox map.  rank is the number of singular
    values the rank map keeps and nnz the number of nonzero entries of the
    sparsity map's output; a map the weights leave out counts 0.
    """
    lam_eff, tau_eff = effective_weights(cfg)
    V = _prox_point(J, split)
    if cfg.tau == 0.0:
        P_rank, sv = prox.svt_hard(V, lam_eff / split.mu, return_spectrum=True)
        return P_rank, (np.count_nonzero(sv), 0)
    P_sparse = _hollow(prox.entrywise_hard(V, tau_eff / split.mu))
    nnz = np.count_nonzero(P_sparse)
    if cfg.lam == 0.0:
        return P_sparse, (0, nnz)
    P_rank, sv = prox.svt_hard(V, lam_eff / split.mu, return_spectrum=True)
    del V
    P_rank *= cfg.lam  # lam * P_rank + tau * P_sparse, with no temporaries
    P_sparse *= cfg.tau
    P_rank += P_sparse
    return P_rank, (np.count_nonzero(sv), nnz)


def _convex_low_rank(J, split, cfg):
    """Soft-threshold twin of :func:`_gmc_low_rank` (nuclear-norm prox)."""
    return prox.svt_soft(_prox_point(J, split), effective_weights(cfg)[0] / split.mu,
                         return_spectrum=True)


def _convex_sparse(J, split, cfg):
    """Soft-threshold twin of :func:`_gmc_sparse` (l1 prox)."""
    return _hollow(prox.soft_threshold(_prox_point(J, split),
                                       effective_weights(cfg)[1] / split.mu)), None


def _linf(M) -> float:
    return float(np.maximum(M.max(), -M.min()))


def _dual_step(J, split: Split) -> float:
    """Lambda += mu (J - C) of one split, in place; returns max |J - C|.

    The residual is formed once and becomes mu (J - C) in place, so the
    step's one N x N temporary gives the rounding of mu (J - C) + Lambda.
    """
    R = J - split.C
    gap = _linf(R)
    R *= split.mu
    split.Lambda += R
    return gap


def dual_update(state) -> list:
    """Multiplier ascent step Lambda_k += mu_k (J - C_k) of each split, in place.

    Returns the multipliers, in update order.  One residual lives at a time.
    """
    for split in state.splits:
        _dual_step(state.J, split)
    return [split.Lambda for split in state.splits]


def mu_update(mu: float, cfg: SolverConfig) -> float:
    """Geometric growth capped at mu_max: min(rho * mu, mu_max)."""
    return min(cfg.rho * mu, cfg.mu_max)


def stopping_check(residuals, cfg: SolverConfig) -> bool:
    """True iff every residual is <= cfg.epsilon (non-strict)."""
    return all(r <= cfg.epsilon for r in residuals)


def _mc_penalty(state, cfg, c_stats, b1: float, b2: float) -> float:
    """Scaled MC penalty on the singular values of C1 (scale b1) and on the
    entries of C2 (scale b2).

    b1 = b2 = 0 is the nuclear norm plus l1 of the convex baseline.
    ``c_stats`` is the stats of each split's C map, the first being the
    singular values of C1; without it they come from an SVD of C1.
    """
    import scipy.linalg

    lam_eff, tau_eff = effective_weights(cfg)
    low_rank, sparse = state.splits
    sv = scipy.linalg.svd(low_rank.C, compute_uv=False) if c_stats is None else c_stats[0]
    return (lam_eff * prox.gmc_penalty_separable(sv, b1)
            + tau_eff * prox.gmc_penalty_separable(sparse.C, b2))

def _gmc_penalty(state, cfg, c_stats) -> float:
    """:func:`_mc_penalty` with each block's b from :func:`_mc_shape` at its
    split's weight and current mu."""
    b1, b2 = (_mc_shape(weight, split.mu, cfg.gamma)[1]
              for weight, split in zip(effective_weights(cfg), state.splits, strict=True))
    return _mc_penalty(state, cfg, c_stats, b1, b2)


def _count_penalty(state, cfg, c_stats) -> float:
    """lam_eff * rank + tau_eff * nnz, from the (rank, nnz) counts of the C map."""
    if c_stats is None:
        raise ValueError("s0l0 needs the (rank, nnz) counts of its C step")
    ((rank, nnz),) = c_stats
    lam_eff, tau_eff = effective_weights(cfg)
    return lam_eff * rank + tau_eff * nnz


def _algorithm(state, variant: str, cfg: SolverConfig) -> Algorithm:
    """The record of a variant, once the state and the config may enter its
    steps: the one entry check of :func:`lagrangian_value` and
    :func:`kkt_residuals`.

    ValueError, in this order, for an unknown variant, a state whose number
    of splits is not the variant's, a config the record's ``check`` rejects,
    and a split whose mu is not positive.  Past it, the C maps and the
    penalty check nothing themselves.
    """
    if variant not in ALGORITHMS:
        raise ValueError(f"unknown variant {variant!r}")
    algorithm = ALGORITHMS[variant]
    if len(state.splits) != len(algorithm.splits):
        raise ValueError(f"variant {variant!r} needs a state with {len(algorithm.splits)} "
                         f"split(s), got {len(state.splits)}")
    algorithm.check(cfg)
    _check_mus(state)
    return algorithm


def lagrangian_value(X, state, cfg: SolverConfig, variant: str, *, c_stats=None) -> float:
    """Full augmented Lagrangian (fidelity, penalties, quadratic and dual terms).

    The state and config pass :func:`_algorithm` first: a variant, split
    count, config or mu the record rejects raises ValueError there.  The
    penalty is the ``penalty`` of the variant's :data:`ALGORITHMS`
    record.  gmc takes the scaled MC penalty on the singular values of C1
    and on the entries of C2, with each block's b from :func:`_mc_shape`,
    the one home of the "b tracks mu" rule; lrssc-convex is its b = 0
    (nuclear norm / l1) case; s0l0 takes lam_eff times the rank its rank map
    kept plus tau_eff times the nonzero entries of its sparsity map.

    ``c_stats`` holds what each split's C map reported beside its C, one
    entry per split in update order.  For gmc and lrssc-convex the first is
    the singular values of C1 and the second None; without ``c_stats`` the
    spectrum comes from an SVD of C1.  For s0l0 it is ``((rank, nnz),)`` and
    is required: C alone does not give the counts.

    Each split's quadratic and dual terms take the full residual J - C_k,
    diagonal included, the one :func:`_dual_step` and :func:`kkt_residuals`
    use; a sparse map's zero diagonal lives in its C (:func:`_hollow`).  The
    residual of one split at a time is the only N x N temporary.
    """
    algorithm = _algorithm(state, variant, cfg)
    X = np.asarray(X, dtype=float)
    fid = 0.5 * np.linalg.norm(X - prox._gemm(X, state.J), "fro") ** 2
    pen = algorithm.penalty(state, cfg, c_stats)

    quadratic, dual = [], []
    for split in state.splits:
        R = state.J - split.C
        quadratic.append(0.5 * split.mu * np.linalg.norm(R, "fro") ** 2)
        R *= split.Lambda
        dual.append(np.sum(R))
    return float(sum(quadratic + dual, pen + fid))


def kkt_residuals(X, state, cfg: SolverConfig, variant: str) -> KktResiduals:
    """Stationarity residuals (Frobenius norms) at a state.

    The state and config pass :func:`_algorithm` first, as in
    :func:`lagrangian_value`.  The fixed-point residuals reuse the variant's
    own C maps, evaluated with the state's current multipliers and mu
    values, one split at a time: a map's output dies with its norm, before
    the next map runs, and before the gradient, which takes each multiplier
    in place, is formed.
    """
    algorithm = _algorithm(state, variant, cfg)
    X = np.asarray(X, dtype=float)
    gaps, fixed = [], []
    for split, (_, c_map) in zip(state.splits, algorithm.splits):
        fixed.append(float(np.linalg.norm(split.C - c_map(state.J, split, cfg)[0], "fro")))
        gaps.append(float(np.linalg.norm(state.J - split.C, "fro")))
    grad = prox._gemm(X.T, prox._gemm(X, state.J) - X)  # -X^T (X - XJ)
    for split in state.splits:
        grad += split.Lambda
    return KktResiduals(gaps=gaps, grad=float(np.linalg.norm(grad, "fro")), fixed=fixed)


@numpy_blas_single_thread()
def _solve(X, cfg: SolverConfig | None, variant: str):
    """The ADMM loop of every variant; returns (C of the first split, trace).

    Checks run before the loop, in this order: the record's settings rule,
    then X at the one door of the data matrix, :class:`GramSolver` (a
    finite 2-d matrix with a nonzero entry), then the loop's own rule of at
    least 2 columns.

    Its dense kernels run on scipy's BLAS, with numpy's held at one thread,
    for the Frobenius norms of the loop and the exit KKT (numpy's ``ddot``)
    and for the thin SVD of X, which is numpy's.

    Live set, in N x N arrays: between steps only the state, J and each
    split's C and Lambda (five arrays, three for s0l0), and Vt of X (r x N).
    Each step adds its own temporaries, and each dies at its last use:

    * J step: the right side and the new J; the previous J becomes
      J_new - J_prev in place, for r_jj, and dies.
    * C and dual steps, one split at a time: the old C of every split is
      dropped first, because a C map reads only J and its split's Lambda and
      mu.  A map holds its point J + Lambda/mu and its SVT's Gram matrix,
      the kept eigenvectors and two products.  Its split's residual
      J - C_k is then formed once, for the gap and the dual step.
    * Lagrangian: one residual J - C_k at a time.
    * Exit KKT: one split's C map at a time, beside the whole state.  Each
      map's output dies with its norm, before the next map runs.  This is
      still the peak of a solve, 8.4 (gmc), 7.5 (s0l0) and 9.5
      (lrssc-convex) arrays at N = 300 by tracemalloc, but for gmc only by
      0.01 array over the loop's own C step (tests/test_solvers.py holds
      the budgets).
    """
    algorithm = ALGORITHMS[variant]
    cfg = cfg or SolverConfig(**algorithm.defaults)
    algorithm.check(cfg)
    X = np.asarray(X, dtype=float)
    gram = GramSolver(X)
    if X.shape[1] < 2:
        raise ValueError(f"X must have at least 2 columns, got shape {X.shape}")
    state = State.zeros(X.shape[1], [getattr(cfg, name) for name, _ in algorithm.splits])
    trace = SolverTrace(variant=variant, r_jc=[[] for _ in state.splits],
                        mu=[[] for _ in state.splits])

    try:
        for _ in range(cfg.max_iters):
            J = j_update(X, state, gram)
            if cfg.normalize_j:
                J = normalize_columns(J)
            rj = _linf(np.subtract(J, state.J, out=state.J))  # the previous J dies here
            state.J = J
            for split in state.splits:
                split.C = None  # a C map reads only J, Lambda and mu
            gaps, c_stats = [], []
            for split, (_, c_map), r_jc, mu in zip(state.splits, algorithm.splits,
                                                   trace.r_jc, trace.mu):
                split.C, stats = c_map(state.J, split, cfg)
                c_stats.append(stats)
                gaps.append(_dual_step(state.J, split))
                r_jc.append(gaps[-1])
                mu.append(split.mu)
            trace.r_jj.append(rj)
            trace.lagrangian.append(lagrangian_value(X, state, cfg, variant, c_stats=c_stats))

            converged = stopping_check(gaps + [rj], cfg)
            for split in state.splits:
                split.mu = mu_update(split.mu, cfg)
            if converged:
                trace.termination = "converged"
                break
    except NumericalError as err:
        err.trace = trace
        raise
    del gaps, c_stats, stats  # the last iteration's spectrum dies before the exit KKT
    trace.kkt = kkt_residuals(X, state, cfg, variant)
    return state.splits[0].C, trace


def gmc_lrssc_solve(X, cfg: SolverConfig | None = None):
    """Three-block solver with firm-threshold (scaled MC penalty) updates.

    Parameters
    ----------
    X : (n_features, n_points) array
    cfg : SolverConfig, optional
        Without it each solver runs at its own tuned defaults, the
        ``defaults`` of its record in :data:`ALGORITHMS`.

    Returns
    -------
    C : (n_points, n_points) array
        The low-rank block C1 of the converged splitting; feed
        ``spectral.build_affinity(C)`` to cluster.
    trace : SolverTrace
    """
    return _solve(X, cfg, GMC)


def convex_lrssc(X, cfg: SolverConfig | None = None):
    """Three-block solver with soft-threshold updates (nuclear norm + l1).

    Same loop and return contract as :func:`gmc_lrssc_solve`; gamma in the
    config is ignored.
    """
    return _solve(X, cfg, CONVEX)


def s0l0_lrssc_solve(X, cfg: SolverConfig | None = None):
    """Two-block solver with hard-threshold prox maps combined by proximal averaging.

    Same return contract as :func:`gmc_lrssc_solve`; the returned matrix is
    the single representation block C.
    """
    return _solve(X, cfg, S0L0)


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grid: lambdas (with taus = 1 - lam), initial mus, gammas.

    An empty gamma tuple keeps the base config's gamma fixed.  The search
    (:func:`lrssc.evaluation.grid_search`) sweeps (lam, gamma) first at the
    base initial mu, then mu at the winner.  Each :data:`ALGORITHMS` record
    holds the grid ``lrssc tune`` searches for it.
    """

    lambdas: tuple
    mu_inits: tuple = (1.0, 3.0, 5.0, 10.0, 20.0)
    gammas: tuple = ()


# lam = 1/(1+alpha) for alpha = 1e-3 ... 1e3 by decades: the split between the
# rank and sparsity weights of the three-block solvers.
_DECADE_LAMBDAS = tuple(1.0 / (1.0 + 10.0 ** k) for k in range(-3, 4))


class Algorithm(NamedTuple):
    """What one iterative algorithm adds to the shared ADMM loop.

    ``solve(X, cfg)`` runs it.  ``splits`` holds one ``(mu_init, c_map)``
    pair per split of its :class:`State`, in update order, and so gives their
    number: ``mu_init`` names the SolverConfig field of the split's initial
    mu, and ``c_map(J, split, cfg)`` is the split's C step.  A map reads only
    J and its split's Lambda and mu, and returns ``(C, stats)``: the split's
    new C and what the step learned that the penalty needs (the singular
    values of C1 for gmc and lrssc-convex, the kept rank and nnz for s0l0,
    None for the sparse split of the three-block solvers).  The loop, the
    exit KKT and direct callers all take C from it.
    ``penalty(state, cfg, c_stats)`` is the penalty term of its augmented
    Lagrangian, given the stats of every split in update order.
    ``check(cfg)`` raises ValueError on a config it rejects; it is the one
    home of the algorithm's settings rule, which its maps and penalty assume
    and do not check again.  ``defaults`` are the SolverConfig overrides it
    was tuned with on the synthetic benchmark (see SolverConfig on how far
    ``lrssc tune`` reproduces them), and ``grid`` the :class:`GridSpec` that
    ``lrssc tune`` searches for it.
    """
    solve: Callable
    splits: tuple
    penalty: Callable
    check: Callable
    defaults: dict
    grid: GridSpec


# Each iterative algorithm, once, under its one name: the command-line name,
# SolverTrace.variant and the variant argument of lagrangian_value and
# kkt_residuals.  gamma shapes only gmc's firm thresholds, so only gmc's grid
# searches it.
ALGORITHMS = {
    GMC: Algorithm(gmc_lrssc_solve, (("mu1_init", _gmc_low_rank), ("mu2_init", _gmc_sparse)),
                   _gmc_penalty, _check_gmc, {},
                   GridSpec(_DECADE_LAMBDAS, gammas=tuple(k / 10 for k in range(1, 11)))),
    S0L0: Algorithm(s0l0_lrssc_solve, (("mu2_init", _s0l0_c_map),),
                    _count_penalty, _check_average_weights, {"lam": 0.5, "mu2_init": 5.0},
                    # the proximal average's weights, lam = 0.1 ... 0.9
                    GridSpec(tuple(round(0.1 * i, 1) for i in range(1, 10)), gammas=(0.6,))),
    CONVEX: Algorithm(convex_lrssc, (("mu1_init", _convex_low_rank), ("mu2_init", _convex_sparse)),
                      lambda state, cfg, stats: _mc_penalty(state, cfg, stats, 0.0, 0.0),
                      _check_positive_weights, {"lam": 1.0 / 1.1, "mu2_init": 1.0},
                      GridSpec(_DECADE_LAMBDAS, gammas=(0.6,))),
}
