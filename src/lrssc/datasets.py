"""Synthetic union-of-subspaces data and plain-text matrix / label files.

The generator draws a pool of orthonormal directions, hands each subspace a
window of the pool (consecutive windows overlap so the union hits a target
rank below d*L), rotates each basis randomly within its span, and fills the
subspaces with Gaussian coefficients.  File formats are deliberately dumb:
comma-separated feature rows with 17 significant digits for matrices, one
base-10 integer per line for labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class SyntheticSpec:
    """Shape and noise of a synthetic clustering problem.

    Construction is the one check of a shape: a spec that is built can be
    drawn.  ``union_rank`` must lie in ``[d + L - 1, d * L]`` (d the subspace
    dimension, L the number of subspaces), which at L = 1 is ``d`` alone.
    These are the ranks at which the L windows of the pool that
    :func:`generate_synthetic` hands out start at L distinct columns; windows
    of an orthonormal pool that start at the same column span one subspace,
    and windows that start apart never contain one another.

    At the defaults the subspaces are dependent.  The three 5-dim windows of
    the 10-column pool are ``pool[0:5]``, ``pool[2:7]`` and ``pool[5:10]``,
    so S2 lies in S1 + S3, and rank X is the rank of S1 and S3 alone, 10.
    ``union_rank = subspace_dim * num_subspaces`` (15) gives independent
    subspaces.
    """

    ambient_dim: int = 100
    subspace_dim: int = 5
    num_subspaces: int = 3
    points_per_subspace: int = 50
    noise_variance: float = 0.0
    union_rank: int = 10
    seed: int = 0

    def __post_init__(self):
        if min(self.ambient_dim, self.subspace_dim, self.num_subspaces,
               self.points_per_subspace) < 1:
            raise ValueError("dimensions and counts must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not math.isfinite(self.noise_variance):
            raise ValueError(f"noise_variance must be finite, got {self.noise_variance}")
        if self.noise_variance < 0:
            raise ValueError(f"noise_variance must be nonnegative, got {self.noise_variance}")
        d, L, r = self.subspace_dim, self.num_subspaces, self.union_rank
        if not d + L - 1 <= r <= d * L:
            raise ValueError(f"union_rank must lie in [{d + L - 1}, {d * L}], got {r}")
        if self.ambient_dim < r:
            raise ValueError(f"ambient_dim {self.ambient_dim} cannot host union rank {r}")


@dataclass
class LabeledDataset:
    """Data matrix (columns are points) with ground-truth integer labels."""

    X: np.ndarray
    truth: np.ndarray


def _window_starts(rank: int, dim: int, count: int) -> list[int]:
    if count == 1:
        return [0]
    step = (rank - dim) / (count - 1)
    return [round(i * step) for i in range(count)]


def _random_orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q[:, :cols]


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Sample a union-of-subspaces dataset; deterministic in ``spec.seed``.

    Every spec that constructs can be drawn: subspace i spans the window of
    the pool that starts at the i-th of L distinct columns, and the windows
    together cover the pool's ``union_rank`` columns.
    """
    rng = np.random.default_rng(spec.seed)
    d, L, r = spec.subspace_dim, spec.num_subspaces, spec.union_rank
    pool = _random_orthonormal(rng, spec.ambient_dim, r)
    bases = [pool[:, start:start + d] @ _random_orthonormal(rng, d, d)
             for start in _window_starts(r, d, L)]

    blocks = [basis @ rng.standard_normal((d, spec.points_per_subspace))
              for basis in bases]
    X = np.hstack(blocks)
    if spec.noise_variance > 0:
        X = X + rng.normal(0.0, np.sqrt(spec.noise_variance), size=X.shape)
    truth = np.repeat(np.arange(L), spec.points_per_subspace)
    return LabeledDataset(X=X, truth=truth)


def save_matrix(path, X) -> None:
    """Write a matrix as comma-separated rows, 17 significant digits per entry."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    with open(path, "w") as fh:
        np.savetxt(fh, X, fmt="%.17g", delimiter=",")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix; errors name the offending line/column.

    Every entry gets the value Python's float() gives it.  numpy's cast from
    strings, which parses as float() does, fills each row at once; a row it
    rejects is parsed again entry by entry with float(), which either gives
    the values or names the first column it cannot parse.
    """
    with open(path) as fh:
        lines = [(lineno, line.strip()) for lineno, line in enumerate(fh, start=1)
                 if not line.isspace()]
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    width = lines[0][1].count(",") + 1
    out = np.empty((len(lines), width))
    for row, (lineno, line) in enumerate(lines):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(
                f"{path}: line {lineno} has {len(parts)} columns, expected {width}")
        try:
            out[row] = parts
        except ValueError:
            out[row] = [_parse_entry(path, lineno, col, p) for col, p in enumerate(parts, start=1)]
    return out


def _parse_entry(path, lineno, col, text) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}, column {col}: "
                         f"cannot parse {text.strip()!r} as a number") from None


def save_labels(path, labels) -> None:
    """Write integer labels, one per line."""
    labels = np.asarray(labels)
    with open(path, "w") as fh:
        for v in labels:
            fh.write(f"{int(v)}\n")


def load_labels(path) -> np.ndarray:
    """Read one integer label per line; errors name the offending line."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(int(line))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: cannot parse {line!r} as an integer") from None
    if not out:
        raise ValueError(f"{path}: empty label file")
    return np.asarray(out, dtype=int)
