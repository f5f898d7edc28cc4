"""Low-rank sparse subspace clustering solvers and benchmark tooling.

The public names are the ones imported below; ``__all__`` is derived from
them, so a name is made public by importing it here and nowhere else.  They
are the pipeline: data, solvers, thresholds, spectral clustering and
scoring.  The ADMM step API (the iterate types, the J, dual and mu steps,
the Lagrangian and KKT probes) stays in :mod:`lrssc.solvers`.
"""

import types as _types

from .baselines import LrrSolution, lrr_noiseless, lrr_noisy
from .datasets import (
    LabeledDataset,
    SyntheticSpec,
    generate_synthetic,
    load_labels,
    load_matrix,
    save_labels,
    save_matrix,
)
from .evaluation import (
    EvalReport,
    GridPoint,
    GridSearchResult,
    GridSpec,
    clustering_error,
    grid_search,
)
from .exceptions import DegenerateAffinityError, NumericalError
from .prox import (
    ThresholdParams,
    firm_threshold,
    gmc_penalty_separable,
    hard_threshold,
    scaled_mc_penalty,
    soft_threshold,
    svt_firm,
    svt_hard,
    svt_soft,
)
from .solvers import (
    SolverConfig,
    SolverTrace,
    convex_lrssc,
    gmc_lrssc_solve,
    s0l0_lrssc_solve,
)
from .spectral import build_affinity, spectral_cluster

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
