"""ADMM solvers for low-rank plus sparse self-expressive representations.

Given a data matrix X (columns are points), every solver looks for a
representation C with X ~= XC whose affinity |C| + |C|^T feeds spectral
clustering.  The three-block solvers split the representation into a
low-rank block C1 (thresholded singular values) and a sparse block C2
(thresholded entries, zero diagonal), with firm thresholds in gmc and soft
ones in the convex baseline.  The two-block s0l0 solver keeps a single C
and averages rank and sparsity hard-threshold prox maps.  All three run one
ADMM loop over the splits J = C_k of their state; :data:`ALGORITHMS`
registers them with their tuned defaults.

The update steps, the augmented Lagrangian and the stationarity (KKT)
residuals are exposed so the solvers can be probed piece by piece.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import prox
from .exceptions import NumericalError

GMC = "gmc"
S0L0 = "s0l0"
CONVEX = "convex"

# gamma = 1 collapses the firm knee onto the threshold; nudge it apart.
_GAMMA_KNEE_NUDGE = 1e-9

# Relative floor below which an entry / singular value counts as zero.
_COUNT_FLOOR = 1e-12


@dataclass
class SolverConfig:
    """Hyperparameters shared by the ADMM solvers.

    tau defaults to 1 - lam.  With ``scale_by_mu`` on, the penalty weights
    used by the updates are lam * mu2_init and tau * mu2_init; the proximal
    average in the two-block solver keeps (lam, tau) as combination weights
    either way.  ``normalize_j`` rescales the columns of J to unit l2 norm
    after each J update.

    The numeric defaults are the values that minimized median clustering
    error for gmc_lrssc_solve on the synthetic benchmark (grid search over
    lam, gamma, and mu2_init; see scripts/tune_defaults.py).  The tuned
    overrides of the other solvers live in :data:`ALGORITHMS`.
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
    scale_by_mu: bool = True

    def __post_init__(self):
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
    """Penalty weights the updates actually use (optionally rescaled by mu2_init)."""
    scale = cfg.mu2_init if cfg.scale_by_mu else 1.0
    return cfg.lam * scale, cfg.tau * scale


@dataclass
class SolverState:
    """Three-block iterate: J, low-rank C1, sparse C2, and their multipliers."""

    J: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    Lambda1: np.ndarray
    Lambda2: np.ndarray
    mu1: float
    mu2: float
    iteration: int = 0

    # (C, Lambda, mu) attribute names of each split J = C_k, in update order;
    # the last is the sparse split, whose Lagrangian terms skip the diagonal.
    SPLITS = (("C1", "Lambda1", "mu1"), ("C2", "Lambda2", "mu2"))

    @classmethod
    def zeros(cls, n_points: int, cfg: SolverConfig) -> "SolverState":
        z = lambda: np.zeros((n_points, n_points))
        return cls(J=z(), C1=z(), C2=z(), Lambda1=z(), Lambda2=z(),
                   mu1=cfg.mu1_init, mu2=cfg.mu2_init)


@dataclass
class S0L0State:
    """Two-block iterate: J, a single C, and one multiplier."""

    J: np.ndarray
    C: np.ndarray
    Lambda: np.ndarray
    mu: float
    iteration: int = 0

    SPLITS = (("C", "Lambda", "mu"),)

    @classmethod
    def zeros(cls, n_points: int, cfg: SolverConfig) -> "S0L0State":
        z = lambda: np.zeros((n_points, n_points))
        return cls(J=z(), C=z(), Lambda=z(), mu=cfg.mu2_init)


@dataclass
class KktResiduals:
    """Frobenius norms of the stationarity conditions at a state.

    r1/r2 measure primal feasibility of the splits (J = C1, J = C2), r3 the
    gradient condition on J, and r4/r5 the fixed-point residuals of the C
    updates.  Two-block states leave r2 and r5 as None.
    """

    r1: float
    r2: float | None
    r3: float
    r4: float
    r5: float | None

    def max_residual(self) -> float:
        return max(v for v in (self.r1, self.r2, self.r3, self.r4, self.r5)
                   if v is not None)


@dataclass
class SolverTrace:
    """Per-iteration diagnostics: residuals, Lagrangian, mu schedule, exit info.

    r_jc1 holds the max-abs entry of J - C1 (J - C for two-block runs),
    r_jc2 the same for J - C2 (None for two-block runs), r_jj the change in
    J between iterations.  The Lagrangian is evaluated at the end of each
    iteration, after the multiplier update, with the mu values used during
    that iteration.  Three-block runs take the singular values of C1 from the
    C1 step, so an iteration costs one N x N symmetric eigendecomposition
    (the SVT's, see :mod:`lrssc.prox`) and no SVD; the value agrees with
    :func:`lagrangian_value`, which runs its own SVD, to rounding, not
    always to the last digit.
    ``gamma_substituted`` records that gamma = 1 was mapped to a slightly
    separated firm knee.
    """

    variant: str
    r_jc1: list = field(default_factory=list)
    r_jc2: list | None = None
    r_jj: list = field(default_factory=list)
    lagrangian: list = field(default_factory=list)
    mu1: list | None = None
    mu2: list = field(default_factory=list)
    termination: str = "max_iters"
    kkt: KktResiduals | None = None
    gamma_substituted: bool = False

    @property
    def n_iters(self) -> int:
        return len(self.r_jj)


class GramSolver:
    """Factor X^T X once and solve [X^T X + shift*I] Z = RHS for any shift > 0."""

    def __init__(self, X):
        X = np.asarray(X, dtype=float)
        self.gram = X.T @ X
        try:
            self.evals, self.evecs = np.linalg.eigh(self.gram)
        except np.linalg.LinAlgError as err:  # pragma: no cover
            raise NumericalError(f"eigendecomposition of X^T X failed: {err}") from err

    def solve(self, shift: float, rhs: np.ndarray) -> np.ndarray:
        coeffs = self.evecs.T @ rhs
        coeffs /= (self.evals + shift)[:, None]
        return self.evecs @ coeffs


def _splits(state) -> list:
    """(C, Lambda, mu) of each split of a state, in update order."""
    return [tuple(getattr(state, name) for name in split) for split in state.SPLITS]


def _assign(state, slot: int, values) -> None:
    """Set slot 0 (C), 1 (Lambda) or 2 (mu) of every split, in update order."""
    for split, value in zip(state.SPLITS, values, strict=True):
        setattr(state, split[slot], value)


def j_update(X, state, gram: GramSolver | None = None) -> np.ndarray:
    """Exact minimizer of the augmented Lagrangian over J (ridge-type solve).

    J = (X^T X + sum_k mu_k I)^-1 (X^T X + sum_k mu_k C_k - sum_k Lambda_k).
    """
    if gram is None:
        gram = GramSolver(X)
    splits = _splits(state)
    if not all(mu > 0 for _, _, mu in splits):
        raise ValueError("every mu must be positive")
    rhs = gram.gram
    for C, _, mu in splits:
        rhs = rhs + mu * C
    for _, Lambda, _ in splits:
        rhs = rhs - Lambda
    return gram.solve(sum(mu for _, _, mu in splits), rhs)


def normalize_columns(J) -> np.ndarray:
    """Rescale nonzero columns to unit l2 norm; zero columns stay zero."""
    J = np.array(J, dtype=float)
    norms = np.linalg.norm(J, axis=0)
    nz = norms > 0
    J[:, nz] /= norms[nz]
    return J


def _firm_params(weight: float, mu: float, gamma: float):
    """Threshold/knee pair for a firm prox step; returns (params, substituted)."""
    thr = weight / mu
    knee = weight / (gamma * mu)
    substituted = not knee > thr
    if substituted:
        knee = thr * (1.0 + _GAMMA_KNEE_NUDGE)
    return prox.ThresholdParams(lam=thr, a=knee), substituted


def _check_gamma(cfg):
    if not 0.0 < cfg.gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1] for firm-threshold updates, got {cfg.gamma}")


def _gmc_c1_step(state, cfg):
    """C1 update with its spectrum: (C1, singular values of C1, substituted)."""
    lam_eff, _ = effective_weights(cfg)
    params, substituted = _firm_params(lam_eff, state.mu1, cfg.gamma)
    C1, sv = prox.svt_firm(state.J + state.Lambda1 / state.mu1, params,
                           return_spectrum=True)
    return C1, sv, substituted

def _gmc_c1_update(state, cfg):
    C1, _, substituted = _gmc_c1_step(state, cfg)
    return C1, substituted

def gmc_c1_update(state, cfg) -> np.ndarray:
    """Firm threshold on the singular values of J + Lambda1/mu1."""
    _check_gamma(cfg)
    mat, _ = _gmc_c1_update(state, cfg)
    return mat


def _gmc_c2_update(state, cfg):
    _, tau_eff = effective_weights(cfg)
    params, substituted = _firm_params(tau_eff, state.mu2, cfg.gamma)
    C2 = prox.entrywise_firm(state.J + state.Lambda2 / state.mu2, params)
    np.fill_diagonal(C2, 0.0)
    return C2, substituted

def gmc_c2_update(state, cfg) -> np.ndarray:
    """Entrywise firm threshold of J + Lambda2/mu2 with the diagonal zeroed."""
    _check_gamma(cfg)
    mat, _ = _gmc_c2_update(state, cfg)
    return mat


def _convex_c1_step(state, cfg):
    """Soft-threshold twin of :func:`_gmc_c1_step`: (C1, singular values of C1)."""
    lam_eff, _ = effective_weights(cfg)
    return prox.svt_soft(state.J + state.Lambda1 / state.mu1, lam_eff / state.mu1,
                         return_spectrum=True)

def _convex_c2_update(state, cfg):
    _, tau_eff = effective_weights(cfg)
    C2 = prox.soft_threshold(state.J + state.Lambda2 / state.mu2, tau_eff / state.mu2)
    np.fill_diagonal(C2, 0.0)
    return C2


def s0l0_c_update(state, cfg) -> np.ndarray:
    """Proximal average of the rank and sparsity hard-threshold maps.

    Returns lam * svt_hard(V) + tau * entrywise_hard(V) at V = J + Lambda/mu,
    with the diagonal of the sparsity component zeroed.  Requires
    lam + tau = 1; the pure-rank (tau = 0) and pure-sparsity (lam = 0) cases
    degenerate to the single prox map.
    """
    if cfg.lam < 0 or cfg.tau < 0 or abs(cfg.lam + cfg.tau - 1.0) > 1e-12:
        raise ValueError(
            f"proximal averaging needs lam + tau = 1 with both nonnegative, "
            f"got lam={cfg.lam}, tau={cfg.tau}")
    lam_eff, tau_eff = effective_weights(cfg)
    V = state.J + state.Lambda / state.mu
    if cfg.tau == 0.0:
        return prox.svt_hard(V, lam_eff / state.mu)
    P_sparse = prox.entrywise_hard(V, tau_eff / state.mu)
    np.fill_diagonal(P_sparse, 0.0)
    if cfg.lam == 0.0:
        return P_sparse
    P_rank = prox.svt_hard(V, lam_eff / state.mu)
    return cfg.lam * P_rank + cfg.tau * P_sparse


def _gmc_c_maps(state, cfg):
    C1, sv, sub1 = _gmc_c1_step(state, cfg)
    C2, sub2 = _gmc_c2_update(state, cfg)
    return (C1, C2), sv, sub1 or sub2

def _convex_c_maps(state, cfg):
    C1, sv = _convex_c1_step(state, cfg)
    return (C1, _convex_c2_update(state, cfg)), sv, False


# Variant -> (state class, C maps).  The C maps return the new C of each split
# in update order, the singular values of C1 (None if not at hand) and whether
# gamma = 1 was substituted.  The loop and the exit KKT share them.
_VARIANTS = {
    GMC: (SolverState, _gmc_c_maps),
    CONVEX: (SolverState, _convex_c_maps),
    S0L0: (S0L0State, lambda state, cfg: ((s0l0_c_update(state, cfg),), None, False)),
}


def _c_maps(state, variant: str):
    """The variant's C maps; ValueError unless the state is of the variant's kind."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    state_cls, c_maps = _VARIANTS[variant]
    if type(state) is not state_cls:
        raise ValueError(f"variant {variant!r} needs a {state_cls.__name__}, "
                         f"got a {type(state).__name__}")
    return c_maps


def dual_update(state):
    """Multiplier ascent step of each split: the pair (Lambda1, Lambda2) for a
    three-block state, the single Lambda for a two-block state."""
    steps = tuple(Lambda + mu * (state.J - C) for C, Lambda, mu in _splits(state))
    return steps if len(steps) > 1 else steps[0]


def mu_update(mu: float, cfg: SolverConfig) -> float:
    """Geometric growth capped at mu_max: min(rho * mu, mu_max)."""
    return min(cfg.rho * mu, cfg.mu_max)


def stopping_check(residuals, cfg: SolverConfig) -> bool:
    """True iff every residual is <= cfg.epsilon (non-strict)."""
    return all(r <= cfg.epsilon for r in residuals)


def _count_nonzero_entries(M) -> int:
    m = np.abs(M)
    top = m.max() if m.size else 0.0
    if top == 0.0:
        return 0
    return int(np.count_nonzero(m > _COUNT_FLOOR * top))

def _count_nonzero_singular_values(M) -> int:
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > _COUNT_FLOOR * s[0]))


def lagrangian_value(X, state, cfg: SolverConfig, variant: str, *,
                     c1_spectrum=None) -> float:
    """Full augmented Lagrangian (fidelity, penalties, quadratic and dual terms).

    For the "gmc" variant the penalties are the scaled MC penalty on the
    singular values of C1 and on the entries of C2, with b chosen per block
    so the mu-quadratic subproblems stay convex; "convex" is the b = 0
    (nuclear norm / l1) case; "s0l0" counts singular values and entries
    whose magnitude exceeds 1e-12 times the largest.

    ``c1_spectrum``, for three-block states only, supplies the singular
    values of C1, such as those the C1 step has just thresholded; without
    it they are computed by an SVD of C1.
    """
    _c_maps(state, variant)
    X = np.asarray(X, dtype=float)
    lam_eff, tau_eff = effective_weights(cfg)
    fid = 0.5 * np.linalg.norm(X - X @ state.J, "fro") ** 2

    if variant == S0L0:
        if c1_spectrum is not None:
            raise ValueError("a two-block state has no C1 spectrum")
        pen = (lam_eff * _count_nonzero_singular_values(state.C)
               + tau_eff * _count_nonzero_entries(state.C))
    else:
        b1 = b2 = 0.0
        if variant == GMC:
            b1 = prox.GmcParams.for_subproblem(lam_eff, state.mu1, cfg.gamma).b
            b2 = prox.GmcParams.for_subproblem(tau_eff, state.mu2, cfg.gamma).b
        sv = np.linalg.svd(state.C1, compute_uv=False) if c1_spectrum is None else c1_spectrum
        pen = (lam_eff * prox.gmc_penalty_separable(sv, b1)
               + tau_eff * prox.gmc_penalty_separable(state.C2, b2))

    splits = _splits(state)
    residuals = [state.J - C for C, _, _ in splits]
    residuals[-1] = residuals[-1] + np.diag(np.diag(splits[-1][0]))
    value = pen + fid
    for R, (_, _, mu) in zip(residuals, splits):
        value += 0.5 * mu * np.linalg.norm(R, "fro") ** 2
    for R, (_, Lambda, _) in zip(residuals, splits):
        value += np.sum(Lambda * R)
    return float(value)


def kkt_residuals(X, state, cfg: SolverConfig, variant: str) -> KktResiduals:
    """Stationarity residuals (Frobenius norms) at a state.

    The fixed-point residuals r4/r5 reuse the variant's own C update maps,
    evaluated with the state's current multipliers and mu values.
    """
    c_maps = _c_maps(state, variant)
    X = np.asarray(X, dtype=float)
    grad = -X.T @ (X - X @ state.J)
    splits = _splits(state)
    maps, _, _ = c_maps(state, cfg)
    for _, Lambda, _ in splits:
        grad = grad + Lambda
    gaps = [float(np.linalg.norm(state.J - C, "fro")) for C, _, _ in splits]
    fixed = [float(np.linalg.norm(C - C_map, "fro")) for (C, _, _), C_map in zip(splits, maps)]
    # a two-block state has one split and leaves r2 and r5 None
    r1, r2 = (gaps + [None])[:2]
    r4, r5 = (fixed + [None])[:2]
    return KktResiduals(r1=r1, r2=r2, r3=float(np.linalg.norm(grad, "fro")), r4=r4, r5=r5)


def _linf(M) -> float:
    return float(np.max(np.abs(M)))


def _check_data(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError(f"X must be a 2-d matrix with at least 2 columns, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite entries")
    return X


def _solve(X, cfg: SolverConfig, variant: str):
    """The ADMM loop of every variant; returns (C of the first split, trace)."""
    X = _check_data(X)
    state_cls, c_maps = _VARIANTS[variant]
    gram = GramSolver(X)
    state = state_cls.zeros(X.shape[1], cfg)
    two_splits = len(state.SPLITS) == 2
    trace = SolverTrace(variant=variant, r_jc2=[] if two_splits else None,
                        mu1=[] if two_splits else None)

    try:
        for _ in range(cfg.max_iters):
            J_prev = state.J
            state.J = j_update(X, state, gram)
            if cfg.normalize_j:
                state.J = normalize_columns(state.J)
            blocks, c1_spectrum, substituted = c_maps(state, cfg)
            _assign(state, 0, blocks)
            trace.gamma_substituted |= substituted
            lambdas = dual_update(state)
            _assign(state, 1, lambdas if two_splits else (lambdas,))

            gaps = [_linf(state.J - C) for C in blocks]
            rj = _linf(state.J - J_prev)
            mus = [mu for _, _, mu in _splits(state)]
            trace.r_jc1.append(gaps[0])
            trace.r_jj.append(rj)
            # a two-block run's one mu starts at mu2_init and is traced as mu2
            trace.mu2.append(mus[-1])
            if two_splits:
                trace.r_jc2.append(gaps[1])
                trace.mu1.append(mus[0])
            trace.lagrangian.append(
                lagrangian_value(X, state, cfg, variant, c1_spectrum=c1_spectrum))

            converged = stopping_check(gaps + [rj], cfg)
            _assign(state, 2, [mu_update(mu, cfg) for mu in mus])
            state.iteration += 1
            if converged:
                trace.termination = "converged"
                break
    except NumericalError as err:
        err.trace = trace
        raise
    trace.kkt = kkt_residuals(X, state, cfg, variant)
    return _splits(state)[0][0], trace


def gmc_lrssc_solve(X, cfg: SolverConfig | None = None):
    """Three-block solver with firm-threshold (scaled MC penalty) updates.

    Parameters
    ----------
    X : (n_features, n_points) array
    cfg : SolverConfig, optional

    Returns
    -------
    C : (n_points, n_points) array
        The low-rank block C1 of the converged splitting; feed
        ``spectral.build_affinity(C)`` to cluster.
    trace : SolverTrace
    """
    cfg = cfg or SolverConfig()
    if cfg.lam <= 0 or cfg.tau <= 0:
        raise ValueError(f"needs lam > 0 and tau > 0, got lam={cfg.lam}, tau={cfg.tau}")
    _check_gamma(cfg)
    return _solve(X, cfg, GMC)


def convex_lrssc(X, cfg: SolverConfig | None = None):
    """Three-block solver with soft-threshold updates (nuclear norm + l1).

    Same loop and return contract as :func:`gmc_lrssc_solve`; gamma in the
    config is ignored.
    """
    cfg = cfg or SolverConfig()
    if cfg.lam <= 0 or cfg.tau <= 0:
        raise ValueError(f"needs lam > 0 and tau > 0, got lam={cfg.lam}, tau={cfg.tau}")
    return _solve(X, cfg, CONVEX)


def s0l0_lrssc_solve(X, cfg: SolverConfig | None = None):
    """Two-block solver with hard-threshold prox maps combined by proximal averaging.

    Same return contract as :func:`gmc_lrssc_solve`; the returned matrix is
    the single representation block C.
    """
    cfg = cfg or SolverConfig()
    if cfg.lam < 0 or cfg.tau < 0 or abs(cfg.lam + cfg.tau - 1.0) > 1e-12:
        raise ValueError(
            f"needs lam + tau = 1 with both nonnegative, got lam={cfg.lam}, tau={cfg.tau}")
    return _solve(X, cfg, S0L0)


class Algorithm(NamedTuple):
    """An iterative solver and the SolverConfig overrides it was tuned with."""
    solve: Callable
    defaults: dict


# Each iterative solver under its command-line name.  The overrides minimized
# median clustering error on the synthetic benchmark (scripts/tune_defaults.py).
ALGORITHMS = {
    "gmc": Algorithm(gmc_lrssc_solve, {}),
    "s0l0": Algorithm(s0l0_lrssc_solve, {"lam": 0.5, "mu2_init": 5.0}),
    "lrssc-convex": Algorithm(convex_lrssc, {"lam": 1.0 / 1.1, "mu2_init": 1.0}),
}
