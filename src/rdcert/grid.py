"""One-dimensional grids, discrete fields, norms and the Poincare constant.

The norms of a batch of states are computed together (:func:`norms_batch`,
and the per-block norm flush of :func:`rdcert.solver.simulate`), with every
sum over the nodes of a state taken as one BLAS dot, ``np.vecdot``: each
row of a batch equals, byte for byte, the norms of its state alone.  A
state's pointwise squared magnitudes, its edge differences and their
differences, the second differences, are each formed in one pass over it.
"""

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
    the edge differences, the pointwise products (whose memory then holds
    the second differences), the squared magnitudes and one row of samples
    per state."""
    k, m, n = shape
    edges = n + 1 if grid.bc == "dirichlet" else n - 1
    return (k, m, edges), (k, m, n), (k, n), (k, n)


def _dots(rows: np.ndarray) -> np.ndarray:
    """The sum of squares of each state's entries, for a C-order array
    (k, ...): one BLAS dot per state, so a state's sum does not depend on
    the other states of the batch."""
    flat = rows.reshape(len(rows), -1)
    return np.vecdot(flat, flat)


def _squares(values: np.ndarray, out: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """The pointwise squared magnitudes |u(x)|^2 of states (k, m, n) into
    ``out`` (k, n), with ``prod`` (k, m, n) for the products when m > 1."""
    if values.shape[1] == 1:
        return np.multiply(values[:, 0], values[:, 0], out=out)
    return np.sum(np.multiply(values, values, out=prod), axis=1, out=out)


def _lp_from_squares(sq: np.ndarray, exponent: float, weights: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    # sq holds the pointwise squared magnitudes |u(x)|^2, shape (k, n); out
    # has its shape and is another array.  |u|^e = (|u|^2)^(e/2), and for
    # e = 3 (p + 1 at the default p = 2) |u|^2 sqrt(|u|^2), which costs a
    # fraction of the power
    if exponent == 3.0:
        np.multiply(np.sqrt(sq, out=out), sq, out=out)
    else:
        np.power(sq, 0.5 * exponent, out=out)
    return np.vecdot(out, weights)


def _neumann_end_squares(values: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Under Neumann ends, the squared h^2-scaled second differences at both
    end nodes, summed over the components of each state: the one-sided
    2 v[0] - 5 v[1] + 4 v[2] - v[3] (and its mirror), or, for n = 3, the
    inner node's value from ``inner``."""
    if values.shape[-1] >= 4:
        first = (2.0 * values[..., 0] - 5.0 * values[..., 1] + 4.0 * values[..., 2]
                 - values[..., 3])
        last = (2.0 * values[..., -1] - 5.0 * values[..., -2] + 4.0 * values[..., -3]
                - values[..., -4])
    else:
        first = last = inner[..., 0]
    return np.sum(first * first + last * last, axis=-1)


def _norm_rows(values: np.ndarray, grid: Grid1D, weights: np.ndarray,
               exponent: Optional[float], scratch: np.ndarray) -> np.ndarray:
    """The columns of :func:`norms_batch`, followed, when ``exponent`` is
    given, by the column of :func:`lp_integrals`: both read the pointwise
    squared magnitudes, which are formed once.  ``weights`` are the grid's
    quadrature weights.  Each sum over a state's nodes is one dot (see the
    module docstring); the sum of the squared second differences is scaled
    by h / h^4 once.

    Every state-sized intermediate lives in ``scratch``, a flat float array
    of at least ``_scratch_len(_norm_shapes(values.shape, grid))`` elements
    that the caller supplies; only arrays of k or k * m values are new.
    """
    k, m, _ = values.shape
    edges, prod, sq, row = _carve(scratch, _norm_shapes(values.shape, grid))
    _squares(values, sq, prod)
    if grid.bc == "dirichlet":
        # the implicit zero boundary values close the first and last edge
        edges[..., 0] = values[..., 0]
        np.subtract(values[..., 1:], values[..., :-1], out=edges[..., 1:-1])
        np.negative(values[..., -1], out=edges[..., -1])
    else:
        np.subtract(values[..., 1:], values[..., :-1], out=edges)
    # h^2 times the second differences v[j-1] - 2 v[j] + v[j+1], the edges'
    # differences: at every node under Dirichlet ends, whose edges hold the
    # zero boundary values, and at the inner nodes under Neumann ends
    inner_len = edges.shape[-1] - 1
    inner = prod.reshape(-1)[:k * m * inner_len].reshape(k, m, inner_len)
    np.subtract(edges[..., 1:], edges[..., :-1], out=inner)
    d2sq = _dots(inner)
    if grid.bc == "neumann":
        d2sq += 0.5 * _neumann_end_squares(values, inner)
    h, h2 = grid.h, grid.h * grid.h
    l2sq = np.vecdot(sq, weights)
    h1sq = _dots(edges) / h
    h2sq = l2sq + h1sq + d2sq * (h / (h2 * h2))
    norms = np.sqrt(np.column_stack([l2sq, np.max(sq, axis=-1), h1sq, h2sq]))
    if exponent is None:
        return norms
    return np.column_stack([norms, _lp_from_squares(sq, exponent, weights, row)])


def norms_batch(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Discrete norms of k states at once.

    ``values`` has shape (k, n_components, n); the result has shape (k, 4)
    with columns l2, sup, h1_semi and h2, the fields of :class:`NormSet`.
    The l2 and sup columns come from the pointwise squared magnitudes
    |u(x)|^2, which a simulation shares with :func:`lp_integrals`.  Each row
    equals, byte for byte, the norms of its state alone.
    """
    scratch = np.empty(_scratch_len(_norm_shapes(values.shape, grid)))
    return _norm_rows(values, grid, quadrature_weights(grid), None, scratch)


def norms_from_values(values: np.ndarray, grid: Grid1D) -> NormSet:
    """Norms of one state of shape (n_components, n): the k = 1 case of
    :func:`norms_batch`."""
    return NormSet(*(float(v) for v in norms_batch(values[None], grid)[0]))


def discrete_norms(field: Field) -> NormSet:
    """All discrete norms of a field in one pass."""
    return norms_from_values(field.values, field.grid)


def lp_integrals(values: np.ndarray, grid: Grid1D, exponent: float) -> np.ndarray:
    """Integral of |u(x)|**exponent for each of k states of shape
    (k, n_components, n), with |.| the pointwise euclidean norm, taken from
    the same squared magnitudes as the l2 and sup columns of
    :func:`norms_batch`."""
    k, _, n = values.shape
    sq = _squares(values, np.empty((k, n)), np.empty(values.shape))
    return _lp_from_squares(sq, exponent, quadrature_weights(grid), np.empty((k, n)))


def poincare_constant(grid: Grid1D) -> float:
    """Best constant c with c ||u||^2 <= ||u'||^2: (pi/L)^2 for Dirichlet fields,
    0 under Neumann (constants are in the kernel).  Reads only ``L`` and
    ``bc``, so it takes a :class:`rdcert.scenarios.ScenarioInputs` as well."""
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
