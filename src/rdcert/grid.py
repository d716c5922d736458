"""One-dimensional grids, discrete fields, norms and the Poincare constant."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union

import numpy as np

BoundaryCondition = Literal["dirichlet", "neumann"]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on the interval (0, L).

    Dirichlet: ``n`` interior nodes at x_j = (j+1) h with h = L/(n+1); the
    boundary values are implicit exact zeros and are never stored.
    Neumann: ``n`` nodes including both endpoints, h = L/(n-1).
    """

    L: float
    n: int
    bc: BoundaryCondition = "dirichlet"

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise ValueError("interval length L must be finite and positive")
        if int(self.n) != self.n or self.n < 3:
            raise ValueError("need at least 3 nodes")
        object.__setattr__(self, "n", int(self.n))
        if self.bc not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")

    @property
    def h(self) -> float:
        if self.bc == "dirichlet":
            return self.L / (self.n + 1)
        return self.L / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        if self.bc == "dirichlet":
            return np.linspace(self.h, self.L - self.h, self.n)
        return np.linspace(0.0, self.L, self.n)


def quadrature_weights(grid: Grid1D) -> np.ndarray:
    """Integration weights: uniform for Dirichlet (boundary values are zero),
    trapezoid for Neumann."""
    w = np.full(grid.n, grid.h)
    if grid.bc == "neumann":
        w[0] *= 0.5
        w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class Field:
    """Discrete vector field: values has shape (n_components, grid.n)."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.values, dtype=float))
        if arr.ndim != 2 or arr.shape[1] != self.grid.n:
            raise ValueError(f"field values must have shape (n_components, {self.grid.n})")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", arr)

    @classmethod
    def _trusted(cls, grid: Grid1D, values: np.ndarray) -> "Field":
        """A field on ``values`` as given, without the checks: for a finite
        float array of shape (n_components, grid.n) its maker has checked."""
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", values)
        return field

    @property
    def n_components(self) -> int:
        return self.values.shape[0]


def zero_field(grid: Grid1D, n_components: int = 1) -> Field:
    return Field(grid, np.zeros((n_components, grid.n)))


def constant_field(grid: Grid1D, levels: Union[float, Sequence[float]]) -> Field:
    levels_arr = np.atleast_1d(np.asarray(levels, dtype=float))
    return Field(grid, np.repeat(levels_arr[:, None], grid.n, axis=1))


def field_from_function(grid: Grid1D, fn) -> Field:
    """Sample ``fn(x)`` on the nodes; fn may return (n,) or (n_components, n)."""
    return Field(grid, np.asarray(fn(grid.x), dtype=float))


def mode_field(grid: Grid1D, mode: int, amplitudes: Union[float, Sequence[float]]) -> Field:
    """Eigenmode initial data: amp * sin(mode pi x / L) under Dirichlet,
    amp * cos(mode pi x / L) under Neumann (mode 0 gives a constant)."""
    if mode < 0:
        raise ValueError("mode number must be nonnegative")
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    shape = np.sin if grid.bc == "dirichlet" else np.cos
    profile = shape(mode * np.pi * grid.x / grid.L)
    return Field(grid, amps[:, None] * profile[None, :])


def noise_field(grid: Grid1D, n_components: int, eps: float, seed: int = 0) -> Field:
    """Uniform noise in [-eps, eps] per node, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    return Field(grid, rng.uniform(-eps, eps, size=(n_components, grid.n)))


@dataclass(frozen=True)
class NormSet:
    """Discrete norms of a field: L2, sup, H1 seminorm and full H2 norm."""

    l2: float
    sup: float
    h1_semi: float
    h2: float


def _second_differences(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    h2 = grid.h * grid.h
    out = np.empty_like(values)
    out[..., 1:-1] = (values[..., :-2] - 2.0 * values[..., 1:-1] + values[..., 2:]) / h2
    if grid.bc == "dirichlet":
        # implicit zero boundary values close the stencil
        out[..., 0] = (-2.0 * values[..., 0] + values[..., 1]) / h2
        out[..., -1] = (values[..., -2] - 2.0 * values[..., -1]) / h2
    elif grid.n >= 4:
        out[..., 0] = (2.0 * values[..., 0] - 5.0 * values[..., 1]
                       + 4.0 * values[..., 2] - values[..., 3]) / h2
        out[..., -1] = (2.0 * values[..., -1] - 5.0 * values[..., -2]
                        + 4.0 * values[..., -3] - values[..., -4]) / h2
    else:
        out[..., 0] = out[..., 1]
        out[..., -1] = out[..., -2]
    return out


def _integrate(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # a reduction along the last axis sums each row in the same order whatever
    # the number of rows, so a batch of states gets the norms of each one alone
    return np.sum(samples * weights, axis=-1)


def norms_batch(values: np.ndarray, grid: Grid1D,
                weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Discrete norms of k states at once.

    ``values`` has shape (k, n_components, n); the result has shape (k, 4)
    with columns l2, sup, h1_semi and h2, the fields of :class:`NormSet`.
    """
    if weights is None:
        weights = quadrature_weights(grid)
    sq = np.sum(values * values, axis=1)
    l2sq = _integrate(sq, weights)
    if grid.bc == "dirichlet":
        edges = np.concatenate([values[..., :1], np.diff(values, axis=-1),
                                -values[..., -1:]], axis=-1)
    else:
        edges = np.diff(values, axis=-1)
    h1sq = np.sum(edges * edges, axis=(1, 2)) / grid.h
    d2 = _second_differences(values, grid)
    h2sq = l2sq + h1sq + _integrate(np.sum(d2 * d2, axis=1), weights)
    return np.sqrt(np.column_stack([l2sq, np.max(sq, axis=-1), h1sq, h2sq]))


def norms_from_values(values: np.ndarray, grid: Grid1D,
                      weights: Optional[np.ndarray] = None) -> NormSet:
    """Norms of one state of shape (n_components, n): the k = 1 case of
    :func:`norms_batch`."""
    return NormSet(*(float(v) for v in norms_batch(values[None], grid, weights)[0]))


def discrete_norms(field: Field) -> NormSet:
    """All discrete norms of a field in one pass."""
    return norms_from_values(field.values, field.grid)


def lp_integrals(values: np.ndarray, grid: Grid1D, exponent: float,
                 weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Integral of |u(x)|**exponent for each of k states of shape
    (k, n_components, n), with |.| the pointwise euclidean norm."""
    if weights is None:
        weights = quadrature_weights(grid)
    mag = np.sqrt(np.sum(values * values, axis=1))
    return _integrate(mag ** exponent, weights)


def lp_integral(field: Field, exponent: float) -> float:
    """Integral of |u(x)|**exponent with |.| the pointwise euclidean norm."""
    return float(lp_integrals(field.values[None], field.grid, exponent)[0])


def poincare_constant(grid: Grid1D) -> float:
    """Best constant c with c ||u||^2 <= ||u'||^2: (pi/L)^2 for Dirichlet fields,
    0 under Neumann (constants are in the kernel)."""
    if grid.bc == "dirichlet":
        return (math.pi / grid.L) ** 2
    return 0.0


def discrete_poincare_constant(grid: Grid1D) -> float:
    """First eigenvalue of the discrete three-point Laplacian; converges to
    the continuum constant from below at rate O(h^2).  Diagnostic companion
    of :func:`poincare_constant`."""
    if grid.bc == "dirichlet":
        h = grid.h
        return 2.0 * (1.0 - math.cos(math.pi * h / grid.L)) / (h * h)
    return 0.0
