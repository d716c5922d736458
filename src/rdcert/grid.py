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


def mode_field(grid: Grid1D, mode: int, amplitudes: Union[float, Sequence[float]]) -> Field:
    """Eigenmode initial data: amp * sin(mode pi x / L) under Dirichlet,
    amp * cos(mode pi x / L) under Neumann (mode 0 gives a constant)."""
    if mode < 0:
        raise ValueError("mode number must be nonnegative")
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    shape = np.sin if grid.bc == "dirichlet" else np.cos
    with np.errstate(over="ignore", invalid="ignore"):  # L near the double range: Field
        profile = shape(mode * np.pi * grid.x / grid.L)  # rejects the nan values
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


def _scratch_len(shapes) -> int:
    """Elements of a flat scratch array that :func:`_carve` cuts into arrays
    of the given shapes."""
    return sum(math.prod(shape) for shape in shapes)


def _carve(scratch: np.ndarray, shapes) -> list:
    """Consecutive C-order views of the flat array ``scratch``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(scratch[start:start + size].reshape(shape))
        start += size
    return views


def _norm_shapes(shape, grid: Grid1D) -> tuple:
    """The arrays :func:`_norm_rows` works in for states of shape (k, m, n):
    the pointwise products, the edge differences, the squared magnitudes
    and one row of samples per state."""
    k, m, n = shape
    edges = n + 1 if grid.bc == "dirichlet" else n - 1
    return (k, m, n), (k, m, edges), (k, n), (k, n)


def _second_differences(values: np.ndarray, grid: Grid1D, out: np.ndarray) -> np.ndarray:
    h2 = grid.h * grid.h
    # (v[j-1] - 2 v[j] + v[j+1]) / h^2, formed in place
    inner = np.multiply(values[..., 1:-1], 2.0, out=out[..., 1:-1])
    np.subtract(values[..., :-2], inner, out=inner)
    inner += values[..., 2:]
    inner /= h2
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


def _integrate(samples: np.ndarray, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    # a reduction along the last axis sums each row in the same order whatever
    # the number of rows, so a batch of states gets the norms of each one
    # alone; out (samples' shape) may be samples itself
    return np.sum(np.multiply(samples, weights, out=out), axis=-1)


def _squares(values: np.ndarray, out: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """The pointwise squared magnitudes |u(x)|^2 of states (k, m, n) into
    ``out`` (k, n), with ``prod`` (k, m, n) for the products when m > 1.
    ``values`` may be a view of ``out`` or of ``prod``."""
    if values.shape[1] == 1:
        return np.multiply(values[:, 0], values[:, 0], out=out)
    return np.sum(np.multiply(values, values, out=prod), axis=1, out=out)


def _lp_from_squares(sq: np.ndarray, exponent: float, weights: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    # sq holds the pointwise squared magnitudes |u(x)|^2, shape (k, n); out
    # has its shape and may be sq itself.  |u|^p = (|u|^2)^(p/2) in one pass
    np.power(sq, 0.5 * exponent, out=out)
    return _integrate(out, weights, out)


def _norm_rows(values: np.ndarray, grid: Grid1D, weights: np.ndarray,
               exponent: Optional[float], scratch: np.ndarray) -> np.ndarray:
    """The columns of :func:`norms_batch`, followed, when ``exponent`` is
    given, by the column of :func:`lp_integrals`: both read the pointwise
    squared magnitudes, which are formed once.

    Every state-sized intermediate lives in ``scratch``, a flat float array
    of at least ``_scratch_len(_norm_shapes(values.shape, grid))`` elements
    that the caller supplies; only arrays of k or k * m values are new.
    """
    prod, edges, sq, row = _carve(scratch, _norm_shapes(values.shape, grid))
    _squares(values, sq, prod)
    l2sq = _integrate(sq, weights, row)
    if grid.bc == "dirichlet":
        # the implicit zero boundary values close the first and last edge
        edges[..., 0] = values[..., 0]
        np.subtract(values[..., 1:], values[..., :-1], out=edges[..., 1:-1])
        np.negative(values[..., -1], out=edges[..., -1])
    else:
        np.subtract(values[..., 1:], values[..., :-1], out=edges)
    edges *= edges
    h1sq = np.sum(edges, axis=(1, 2)) / grid.h
    # one component: the second differences go straight into row and are
    # squared in place there
    d2 = _second_differences(values, grid, row[:, None] if values.shape[1] == 1 else prod)
    h2sq = l2sq + h1sq + _integrate(_squares(d2, row, prod), weights, row)
    norms = np.sqrt(np.column_stack([l2sq, np.max(sq, axis=-1), h1sq, h2sq]))
    if exponent is None:
        return norms
    return np.column_stack([norms, _lp_from_squares(sq, exponent, weights, row)])


def norms_batch(values: np.ndarray, grid: Grid1D,
                weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Discrete norms of k states at once.

    ``values`` has shape (k, n_components, n); the result has shape (k, 4)
    with columns l2, sup, h1_semi and h2, the fields of :class:`NormSet`.
    The l2 and sup columns come from the pointwise squared magnitudes
    |u(x)|^2, which a simulation shares with :func:`lp_integrals`.
    """
    if weights is None:
        weights = quadrature_weights(grid)
    scratch = np.empty(_scratch_len(_norm_shapes(values.shape, grid)))
    return _norm_rows(values, grid, weights, None, scratch)


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
    (k, n_components, n), with |.| the pointwise euclidean norm, taken from
    the same squared magnitudes as the l2 and sup columns of
    :func:`norms_batch`."""
    if weights is None:
        weights = quadrature_weights(grid)
    k, _, n = values.shape
    sq = _squares(values, np.empty((k, n)), np.empty(values.shape))
    return _lp_from_squares(sq, exponent, weights, sq)


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
