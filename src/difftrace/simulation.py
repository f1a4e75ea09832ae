"""Synthetic precision-matrix regimes and Gaussian sampling for benchmarks.

Three generators produce a ground-truth pair of precision matrices whose
difference is sparse: a banded pair (scenario 1), block scale-free graphs
with sign-flipped hubs (scenario 2), and dense weak blocks with a random
sparse injection (scenario 3). All generators are pure functions of their
arguments, bitwise-reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Set, Tuple

import numpy as np

from .linalg import pd_cholesky

# Positive-definiteness repair: when a constructed precision matrix has an
# eigenvalue at or below zero, both matrices of the pair get the same
# diagonal shift |min eigenvalue| + PD_MARGIN, which cancels in the
# difference. The margin keeps the repaired matrices comfortably away from
# singularity: with a razor-thin margin the implied covariances are so
# ill-conditioned that the support-recovery theory's irrepresentability
# condition fails for the generated problems (measured alpha < 0), making
# the benchmarks meaningless.
PD_MARGIN = 1.0

# Smallest dimension and block size of each scenario's construction.
_DIMENSIONS = {"sim1": (8, 1), "sim2": (50, 50), "sim3": (100, 100)}
SCENARIOS = tuple(_DIMENSIONS)


def check_dimension(scenario: str, p: int) -> None:
    """Refuse a dimension the scenario's construction cannot fill."""
    least, block = _DIMENSIONS[scenario]
    if p < least or p % block:
        need = f"p >= {least}" if block == 1 else f"p to be a positive multiple of {block}"
        raise ValueError(f"{scenario} needs {need}, got {p}")


@dataclass(frozen=True)
class GroundTruth:
    """True precision pair and their difference."""

    omega_x: np.ndarray
    omega_y: np.ndarray
    delta_star: np.ndarray

    @property
    def p(self) -> int:
        return self.omega_x.shape[0]

    @property
    def support(self) -> FrozenSet[Tuple[int, int]]:
        """The 0-based (i, j) positions of ``delta_star``'s nonzeros."""
        return frozenset(map(tuple, np.argwhere(self.delta_star != 0)))


@dataclass(frozen=True)
class SimulationSpec:
    """One benchmark configuration: scenario, dimension, sample sizes, seed."""

    scenario: str
    p: int
    n_x: int
    n_y: int
    seed: int

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        check_dimension(self.scenario, self.p)
        if self.n_x < 2 or self.n_y < 2:
            raise ValueError("sample sizes must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _finalize(omega_x: np.ndarray, omega_y: np.ndarray, margin: float) -> GroundTruth:
    """Joint PD repair and packaging; the common diagonal shift cancels in
    the difference."""
    min_eig = min(
        float(np.linalg.eigvalsh(omega_x)[0]), float(np.linalg.eigvalsh(omega_y)[0])
    )
    if min_eig <= 1e-8:
        shift = abs(min_eig) + margin
        eye = np.eye(omega_x.shape[0])
        omega_x = omega_x + shift * eye
        omega_y = omega_y + shift * eye
    return GroundTruth(omega_x, omega_y, omega_y - omega_x)


def gen_sim1(p: int) -> GroundTruth:
    """Banded pair: omega_x[i, j] = 0.5^|i-j|; omega_y is identical except
    entries at |i-j| = floor(p/4), which are set to 0.9."""
    check_dimension("sim1", p)
    dist = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    omega_x = 0.5 ** dist.astype(float)
    omega_y = omega_x.copy()
    omega_y[dist == p // 4] = 0.9
    return _finalize(omega_x, omega_y, PD_MARGIN)


def _preferential_edges(n: int, n_edges: int, rng: np.random.Generator) -> Tuple[set, np.ndarray]:
    """Scale-free-style edge set with an exact edge budget, and each node's
    degree in it.

    Nodes attach one at a time to an existing node chosen proportionally to
    degree; remaining budget is spent on degree-weighted extra edges.
    """
    max_edges = n * (n - 1) // 2
    if n_edges > max_edges:
        raise ValueError(f"cannot place {n_edges} edges on {n} nodes")
    degree = np.zeros(n)
    edges: Set[Tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        edges.add((min(u, v), max(u, v)))
        degree[u] += 1
        degree[v] += 1

    add(0, 1)
    for node in range(2, n):
        weights = degree[:node] / degree[:node].sum()
        add(node, int(rng.choice(node, p=weights)))
    attempts = 0
    while len(edges) < n_edges:
        weights = degree / degree.sum()
        u = int(rng.choice(n, p=weights))
        v = int(rng.choice(n, p=weights))
        if u != v and (min(u, v), max(u, v)) not in edges:
            add(u, v)
        attempts += 1
        if attempts > 1_000_000:
            raise RuntimeError("edge sampling failed to reach the edge budget")
    return edges, degree


def _signed_uniform(rng: np.random.Generator, size: int, low: float, high: float) -> np.ndarray:
    """Magnitudes uniform on [low, high] with independent random signs."""
    return rng.uniform(low, high, size) * rng.choice([-1.0, 1.0], size)


def gen_sim2(p: int, seed: int) -> GroundTruth:
    """Block-diagonal scale-free pair (50 x 50 blocks).

    Per block: a preferential-attachment graph with 50*49/10 = 245 edges
    carries off-diagonal values with magnitudes uniform on [0.2, 0.5] and
    random signs; every row is divided by 3, the diagonal is set to 1, and
    the block is symmetrized by averaging with its transpose. The second
    precision matrix negates the off-diagonal entries in the rows and
    columns of each block's two highest-degree hub nodes.
    """
    check_dimension("sim2", p)
    rng = np.random.default_rng(seed)
    block_size = 50
    n_edges = block_size * (block_size - 1) // 10
    omega_x = np.zeros((p, p))
    omega_y = np.zeros((p, p))
    for start in range(0, p, block_size):
        edges, degree = _preferential_edges(block_size, n_edges, rng)
        block = np.zeros((block_size, block_size))
        for (u, v), value in zip(sorted(edges), _signed_uniform(rng, n_edges, 0.2, 0.5)):
            block[u, v] = value
            block[v, u] = value
        block /= 3.0
        np.fill_diagonal(block, 1.0)
        block = (block + block.T) / 2.0

        hub = np.isin(np.arange(block_size), np.argsort(-degree, kind="stable")[:2])
        flipped = np.where((hub[:, None] | hub) & ~np.eye(block_size, dtype=bool), -block, block)

        sl = slice(start, start + block_size)
        omega_x[sl, sl] = block
        omega_y[sl, sl] = flipped
    return _finalize(omega_x, omega_y, PD_MARGIN)


def gen_sim3(
    p: int,
    seed: int,
    min_signal: float = 0.0,
    margin: float = PD_MARGIN,
) -> GroundTruth:
    """Dense weak blocks (100 x 100) plus a sparse symmetric injection.

    Per block of the first precision matrix, 60% of the upper-triangle
    entries are drawn uniformly from (-0.1, 0.1) and mirrored. The
    difference gets 50 random off-diagonal upper-triangle positions of the
    full matrix (100 entries after mirroring) with magnitudes uniform on
    [min_signal, 0.5] and random signs. Both matrices then receive the same
    diagonal shift from ``_finalize``, which leaves the difference
    unchanged (both have a zero diagonal, so the shift always applies).
    """
    check_dimension("sim3", p)
    if not 0.0 <= min_signal < 0.5:
        raise ValueError(f"min_signal must lie in [0, 0.5), got {min_signal}")
    rng = np.random.default_rng(seed)
    block_size = 100
    omega_x = np.zeros((p, p))
    iu, ju = np.triu_indices(block_size, k=1)
    n_pairs = iu.size
    n_fill = int(round(0.6 * n_pairs))
    for start in range(0, p, block_size):
        chosen = rng.choice(n_pairs, size=n_fill, replace=False)
        values = rng.uniform(-0.1, 0.1, n_fill)
        block = np.zeros((block_size, block_size))
        block[iu[chosen], ju[chosen]] = values
        block += block.T
        sl = slice(start, start + block_size)
        omega_x[sl, sl] = block

    fi, fj = np.triu_indices(p, k=1)
    picked = rng.choice(fi.size, size=50, replace=False)
    delta = np.zeros((p, p))
    delta[fi[picked], fj[picked]] = _signed_uniform(rng, 50, min_signal, 0.5)
    delta += delta.T
    return _finalize(omega_x, omega_x + delta, margin)


def generate(spec: SimulationSpec) -> GroundTruth:
    """Dispatch a spec to its scenario generator."""
    if spec.scenario == "sim1":
        return gen_sim1(spec.p)
    if spec.scenario == "sim2":
        return gen_sim2(spec.p, spec.seed)
    return gen_sim3(spec.p, spec.seed)


def sample_gaussian(omega, n: int, seed: int) -> np.ndarray:
    """Draw n observations from the zero-mean Gaussian whose precision
    matrix is ``omega``."""
    chol = pd_cholesky(omega, "precision matrix")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    z = np.random.default_rng(seed).standard_normal((n, chol.shape[0]))
    # omega = L L^T, so x = L^-T z has covariance omega^-1.
    return np.linalg.solve(chol.T, z.T).T

