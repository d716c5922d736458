"""Time-dependent scalar coefficients and reaction kinetics.

Every coefficient that varies in time (diffusion lower bound, linear decay
rate, nonlinearity strength, global modulation) is a :class:`TimeProfile`.
The reaction term has the split form ``F(u, t) = phi(t) * (A u + B(u))``
with one constant linear part ``A`` and an optional saturated power-law
nonlinearity ``B``; it does not depend on the position x.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Literal, NamedTuple, Optional, Union

import numpy as np

ProfileKind = Literal["constant", "power_decay", "power_growth", "exponential", "tabulated"]
TimeLike = Union[float, np.ndarray]
ProfileLike = Union["TimeProfile", "ProfileSum", Callable[[TimeLike], TimeLike]]

_PARAMETRIC_KINDS = ("constant", "power_decay", "power_growth", "exponential")


@dataclass(frozen=True)
class TimeProfile:
    """Parametric scalar function of time, defined for t >= 0.

    Value at time t by kind:

    ==============  =========================================
    constant        v0 + offset
    power_decay     v0 * (1 + t)**(-exponent) + offset
    power_growth    v0 * (1 + t)**exponent + offset
    exponential     v0 * exp(rate * t) + offset
    tabulated       linear interpolation of (t, value) rows
    ==============  =========================================

    Tabulated profiles are only defined on [0, t_max] and refuse evaluation
    outside.  Profiles declared ``positive`` raise if they ever evaluate to a
    value <= 0 (used for diffusion bounds and certificate weights).
    """

    kind: ProfileKind = "constant"
    v0: float = 0.0
    exponent: float = 0.0
    rate: float = 0.0
    offset: float = 0.0
    table: Optional[np.ndarray] = None
    positive: bool = False

    def __post_init__(self):
        if self.kind not in _PARAMETRIC_KINDS and self.kind != "tabulated":
            raise ValueError(f"unknown profile kind {self.kind!r}")
        for name in ("v0", "exponent", "rate", "offset"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"profile parameter {name!r} must be finite")
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("tabulated profile requires a table")
            table = np.asarray(self.table, dtype=float)
            if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
                raise ValueError("profile table must have shape (m, 2) with m >= 2")
            if not np.all(np.isfinite(table)):
                raise ValueError("profile table entries must be finite")
            if table[0, 0] > 0.0:
                raise ValueError("profile table must start at t = 0")
            if np.any(np.diff(table[:, 0]) <= 0.0):
                raise ValueError("profile table times must be strictly increasing")
            object.__setattr__(self, "table", table)
        elif self.table is not None:
            raise ValueError("only tabulated profiles carry a table")

    @staticmethod
    def constant(v0: float, positive: bool = False) -> "TimeProfile":
        return TimeProfile("constant", v0=float(v0), positive=positive)

    @staticmethod
    def power_decay(v0: float, exponent: float, offset: float = 0.0,
                    positive: bool = False) -> "TimeProfile":
        return TimeProfile("power_decay", v0=float(v0), exponent=float(exponent),
                           offset=float(offset), positive=positive)

    @staticmethod
    def power_growth(v0: float, exponent: float, offset: float = 0.0,
                     positive: bool = False) -> "TimeProfile":
        return TimeProfile("power_growth", v0=float(v0), exponent=float(exponent),
                           offset=float(offset), positive=positive)

    @staticmethod
    def exponential(v0: float, rate: float, offset: float = 0.0,
                    positive: bool = False) -> "TimeProfile":
        return TimeProfile("exponential", v0=float(v0), rate=float(rate),
                           offset=float(offset), positive=positive)

    @staticmethod
    def tabulated(times, values, positive: bool = False) -> "TimeProfile":
        table = np.column_stack([np.asarray(times, float), np.asarray(values, float)])
        return TimeProfile("tabulated", table=table, positive=positive)

    @property
    def t_max(self) -> float:
        return float(self.table[-1, 0]) if self.kind == "tabulated" else math.inf

    def __call__(self, t: TimeLike) -> TimeLike:
        return eval_profile(self, t)

    def _values(self, t, memo: Optional[dict] = None):
        """The value at a checked time t: Python float arithmetic for a float
        t, else a new array (one float for a constant profile).  The power or
        exponential is read from ``memo`` (see :func:`_power`) when one is
        given; multiplying it by v0 gives the new value (x * 1 is x), and
        skipping an offset 0 after v0 > 0 (no -0 to turn +0) is exact."""
        kind = self.kind
        if kind == "constant":
            val = self.v0 + self.offset
        elif kind == "tabulated":
            self._check_table_range(t)
            val = np.interp(t, self.table[:, 0], self.table[:, 1])
            val += self.offset
        else:
            if kind == "exponential":
                val = _exp(t, self.rate, memo)
            else:
                val = _power(t, -self.exponent if kind == "power_decay" else self.exponent, memo)
            val = val * self.v0
            if not (self.offset == 0.0 and self.v0 > 0.0):
                val += self.offset
        # a float t gives a float value: one comparison, no array reduction
        if self.positive and ((val <= 0.0) if isinstance(t, float)
                              else np.size(t) and np.any(val <= 0.0)):
            raise ValueError("profile declared positive evaluated to a value <= 0")
        return val

    def _check_table_range(self, t) -> None:
        """Raise unless the checked time t (a float or an array) is at most
        t_max; a float t skips numpy's reduction, as the integrators pass them."""
        if (t > self.table[-1, 0]) if isinstance(t, float) else np.any(t > self.table[-1, 0]):
            raise ValueError(f"tabulated profile queried outside [0, {self.t_max:g}]")


def _power(t, e: float, memo: Optional[dict]):
    """(1 + t)**e, computed once per ``memo``: a dict that the profiles read
    at one time t share, holding 1 + t, each (1 + t)**e and each exp(rate t)
    (see :func:`_exp`).  Its values are shared, so nobody writes into them.
    Without a memo the power is computed afresh."""
    if memo is None:
        return (1.0 + t) ** e
    val = memo.get(e)
    if val is None:
        base = memo.get("1 + t")
        if base is None:
            base = memo["1 + t"] = 1.0 + t
        val = memo[e] = base ** e
    return val


def _exp(t, rate: float, memo: Optional[dict]):
    """exp(rate t), computed once per ``memo`` as in :func:`_power`; a 0-d
    array t gives a numpy scalar, a float t a Python float."""
    key = ("exp", rate)
    val = None if memo is None else memo.get(key)
    if val is None:
        val = rate * t
        if isinstance(val, np.ndarray):
            val = np.exp(val, out=val)
        else:
            val = np.exp(val) if isinstance(t, np.ndarray) else math.exp(val)
        if memo is not None:
            memo[key] = val
    return val


# Points per block when a dense grid of times or wavenumbers is evaluated:
# 2^15 doubles (256 kB) per temporary, so the few temporaries of one block
# stay in a 2 MB L2 cache instead of each costing a fresh, page-faulting
# whole-grid allocation.
_BLOCK = 1 << 15


def _blocks(n: int):
    """Slices covering range(n) in consecutive blocks of _BLOCK points."""
    return (slice(start, start + _BLOCK) for start in range(0, n, _BLOCK))


def _grid_block(first: float, last: float, n: int, block: slice,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.linspace(first, last, n)[block]`` bit for bit, for n >= 2, finite
    ends 0 <= first <= last and a slice start:stop:step with start < n (a
    block of :func:`_blocks` (n), say), without forming the whole grid:
    point i is i * ((last - first) / (n - 1)) + first, and the last point is
    last itself.  Written into ``out`` (of the block's length) when given."""
    stop = min(block.stop, n)
    index = np.arange(block.start, stop, block.step, dtype=float)
    holds_last = index[-1] == n - 1
    t = index if out is None else out
    delta = last - first
    step = delta / (n - 1)
    if step == 0.0:  # linspace's order for a step below the double range
        np.divide(index, n - 1, out=t)
        t *= delta
    else:
        np.multiply(index, step, out=t)
    if first != 0.0:  # adding +0.0 leaves every point (none is -0.0) as it is
        t += first
    if holds_last:
        t[-1] = last
    return t


def eval_profile(profile: TimeProfile, t: TimeLike) -> TimeLike:
    """Evaluate ``profile`` at a scalar or array time t >= 0."""
    return _evaluate(profile, t)


def _evaluate(profile: Union[TimeProfile, "ProfileSum"], t: TimeLike) -> TimeLike:
    """``profile._values`` at a checked time t >= 0: a float for a scalar t,
    else an array of t's shape, where values past the double range read inf."""
    if isinstance(t, (float, int)):  # fast scalar path (np.float64 subclasses float)
        if not (0.0 <= t < math.inf):
            raise ValueError("evaluation time must be finite" if not math.isfinite(t)
                             else "profiles are defined for t >= 0")
        return float(profile._values(t))
    t = np.asarray(t, dtype=float)
    _check_times(t)
    val = _values_at(profile, t, {})
    if t.ndim == 0:
        return float(val)
    return np.full(t.shape, val) if np.ndim(val) == 0 else val


def _check_times(t: np.ndarray) -> None:
    """Raise unless every time of the float array t is finite and >= 0: two
    reductions and no temporary array when they are."""
    if t.size and not (t.min() >= 0.0 and t.max() < math.inf):
        raise ValueError("evaluation time must be finite" if not np.all(np.isfinite(t))
                         else "profiles are defined for t >= 0")


def _values_at(profile: ProfileLike, t: np.ndarray, memo: dict) -> TimeLike:
    """``profile`` at the checked array time t, reading and filling the
    powers of t in ``memo`` (see :func:`_power`): a profile that does not
    vary (a constant one, or a sum of them) gives one float, and values past
    the double range read inf."""
    if isinstance(profile, (TimeProfile, ProfileSum)):
        with np.errstate(over="ignore"):
            return profile._values(t, memo)
    return as_time_function(profile)(t)


@dataclass(frozen=True)
class ProfileSum:
    """sum_i w_i * prod_j f_ij(t), from ``terms`` = ((w_i, (f_i1, f_i2, ...)), ...).

    A factor is a :class:`TimeProfile`, a ProfileSum or a plain callable of t.
    Terms are taken left to right and added in order, so the sum gives the
    formula it is written from bit for bit; t is checked once.  The empty sum
    is 0.
    """

    terms: tuple = ()

    def __post_init__(self):
        terms = tuple((float(w), tuple(factors)) for w, factors in self.terms)
        if not all(math.isfinite(w) for w, _ in terms):
            raise ValueError("profile sum weights must be finite")
        object.__setattr__(self, "terms", terms)

    def __call__(self, t: TimeLike) -> TimeLike:
        return _evaluate(self, t)

    def _values(self, t, memo: Optional[dict] = None):
        """The sum at a checked time t, as :meth:`TimeProfile._values`, every
        factor reading ``memo``; products and sums go in place into the new
        arrays the factors return (x * w is w * x bit for bit)."""
        total = 0.0
        for i, (weight, factors) in enumerate(self.terms):
            val = weight
            for f in factors:
                if isinstance(f, (TimeProfile, ProfileSum)):
                    val = _in_place(operator.imul, val, f._values(t, memo))
                else:  # a plain callable's result is not ours to write into
                    val = val * as_time_function(f)(t)
            total = val if i == 0 else _in_place(operator.iadd, total, val)
        return total


def _table_knots(profile: ProfileLike) -> np.ndarray:
    """The knot times of every table in a TimeProfile or ProfileSum, where
    its slope may jump; a plain callable shows none."""
    if isinstance(profile, TimeProfile):
        return profile.table[:, 0] if profile.kind == "tabulated" else np.empty(0)
    if isinstance(profile, ProfileSum):
        return np.concatenate([np.empty(0)] + [_table_knots(f) for _, factors in profile.terms
                                               for f in factors])
    return np.empty(0)


# Interval bounds (Moore, Interval Analysis, 1966) on the cells between
# consecutive times of an array: (lo, hi, size), arrays of one entry a cell or
# floats, where size is the sum over the bound's terms of their largest
# magnitude on the cell, the scale of the rounding in computed values.

def _spread(values) -> tuple:
    """The bound of a piece that is monotone on each cell, from its values
    at the cells' ends: the smaller and larger end value.  A float (a piece
    that does not vary) bounds itself."""
    if np.ndim(values) == 0:
        return values, values, abs(values)
    lo = np.minimum(values[:-1], values[1:])
    hi = np.maximum(values[:-1], values[1:])
    return lo, hi, np.maximum(-lo, hi)


def _product(a: tuple, b: tuple) -> tuple:
    """The bound of a product: the least and greatest of the four products
    of the factors' ends, and the product of the sizes."""
    ends = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (np.minimum(np.minimum(ends[0], ends[1]), np.minimum(ends[2], ends[3])),
            np.maximum(np.maximum(ends[0], ends[1]), np.maximum(ends[2], ends[3])),
            a[2] * b[2])


def _interval(profile: ProfileLike, t: np.ndarray, memo: dict) -> Optional[tuple]:
    """The bound of ``profile`` on each cell between consecutive times of the
    checked array t, from its pieces' values at t (reading ``memo`` as
    :meth:`TimeProfile._values` does): each parametric profile is monotone,
    and a table is linear between its knots, so the bound does not hold on a
    cell with a knot inside; a ProfileSum adds its terms' bounds, each the
    product of its weight and its factors'.  None where the profile holds a
    plain callable, which nothing bounds between the times.  Values past the
    double range give bounds that are not finite."""
    if isinstance(profile, TimeProfile):
        return _spread(profile._values(t, memo))
    if not isinstance(profile, ProfileSum):
        return None
    total = (0.0, 0.0, 0.0)
    for weight, factors in profile.terms:
        term = (1.0, 1.0, 1.0)
        for i, f in enumerate(factors):
            bound = _interval(f, t, memo)
            if bound is None:
                return None
            term = _product(term, bound) if i else bound
        lo, hi = (term[0], term[1]) if weight >= 0.0 else (term[1], term[0])
        total = (total[0] + weight * lo, total[1] + weight * hi, total[2] + abs(weight) * term[2])
    return total


def _in_place(op, a, b):
    """op(a, b), op commutative, written into a or b if one is an array."""
    return op(b, a) if isinstance(b, np.ndarray) and not isinstance(a, np.ndarray) else op(a, b)


def profile_derivative(profile: TimeProfile, t: TimeLike) -> TimeLike:
    """d/dt of a profile: analytic for parametric kinds, the exact slope of
    the linear interpolant for tables (see :func:`_table_slope`)."""
    t_arr = np.asarray(t, dtype=float)
    val = _derivative(profile, t_arr, None)
    if t_arr.ndim == 0:
        return float(val)
    return np.full(t_arr.shape, val) if np.ndim(val) == 0 else np.asarray(val, dtype=float)


@np.errstate(over="ignore", invalid="ignore")  # past the double range: inf, inf * 0: nan
def _derivative(profile: TimeProfile, t: np.ndarray, memo: Optional[dict]) -> TimeLike:
    """:func:`profile_derivative` at the array time t, reading ``memo`` as
    :meth:`TimeProfile._values` does; 0.0 for a constant profile."""
    kind = profile.kind
    if kind == "constant":
        return 0.0
    if kind == "power_decay":
        return -profile.exponent * profile.v0 * _power(t, -profile.exponent - 1.0, memo)
    if kind == "power_growth":
        return profile.exponent * profile.v0 * _power(t, profile.exponent - 1.0, memo)
    if kind == "exponential":
        return profile.rate * profile.v0 * _exp(t, profile.rate, memo)
    return _table_slope(profile, t)


def _table_slope(profile: TimeProfile, t: np.ndarray) -> np.ndarray:
    """The exact derivative of the tabulated profile's linear interpolant at
    the array time t: the slope of the segment that holds t, the mean of the
    two one-sided slopes at an interior knot, and the one-sided slope at 0
    and at t_max.  Outside [0, t_max] it raises what the value raises."""
    _check_times(t)
    profile._check_table_range(t)
    times, values = profile.table.T
    slopes = np.diff(values) / np.diff(times)
    seg = np.minimum(np.searchsorted(times, t, side="right") - 1, len(slopes) - 1)
    knot = (times[seg] == t) & (t > 0.0)  # a knot at 0 has one side
    return np.where(knot, 0.5 * slopes[seg - 1] + 0.5 * slopes[seg], slopes[seg])


def as_time_function(profile: ProfileLike) -> Callable[[TimeLike], TimeLike]:
    """Adapt a TimeProfile or a plain callable to a vectorized function of t;
    a profile or a ProfileSum is one already."""
    if isinstance(profile, (TimeProfile, ProfileSum)):
        return profile
    if callable(profile):
        def wrapped(t):
            t_arr = np.asarray(t, dtype=float)
            try:
                out = np.asarray(profile(t_arr), dtype=float)
                if out.shape != t_arr.shape:
                    raise ValueError
            except (TypeError, ValueError):
                out = np.asarray([profile(float(s)) for s in np.atleast_1d(t_arr)], dtype=float)
                out = out.reshape(t_arr.shape)
            return float(out) if t_arr.ndim == 0 else out
        return wrapped
    raise TypeError(f"cannot interpret {profile!r} as a function of time")


@dataclass(frozen=True)
class KineticsSpec:
    """Reaction term F(u, t) = phi(t) * (A u + B(u)).

    ``linear`` is the constant (n, n) matrix A, stored as a finite float
    array; None stands for the zero matrix.  The only built-in nonlinearity is

        B_i(u) = -c0(t) * u_i * |u|**(p-1) / (1 + |u|**(p-1))

    which vanishes at u = 0 and satisfies |B(u)| <= c0(t) * |u|**p for all u.
    ``modulation`` multiplies the whole reaction; configurations that modulate
    the diffusion as well declare matching diffusion profiles separately.
    """

    n_components: int = 1
    linear: Optional[np.ndarray] = None
    nonlinearity: Literal["none", "saturated_power"] = "none"
    c0: TimeProfile = TimeProfile.constant(0.0)
    p: float = 2.0
    modulation: TimeProfile = TimeProfile.constant(1.0)

    def __post_init__(self):
        if self.n_components not in (1, 2):
            raise ValueError("kinetics support 1 or 2 components")
        if self.nonlinearity not in ("none", "saturated_power"):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if not (self.p > 1.0):
            raise ValueError("growth exponent p must exceed 1")
        n, given = self.n_components, self.linear
        if callable(given):
            raise ValueError("linear part must be a constant matrix, not a function")
        mat = np.zeros((n, n)) if given is None else np.asarray(given, dtype=float)
        if mat.shape != (n, n):
            raise ValueError(f"linear part must be {n}x{n}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("linear part must be finite")
        object.__setattr__(self, "linear", mat)


def _finite(values: np.ndarray) -> bool:
    """Whether every entry of the float array ``values`` is finite.  A finite
    sum of squares (one BLAS dot) needs finite entries; only an overflowing
    sum of finite squares takes the elementwise check, so the common case
    allocates no mask for a contiguous array.  The dot warns of an overflow
    unless the caller silences numpy's overflow warnings."""
    flat = values.reshape(-1)
    return math.isfinite(flat.dot(flat)) or bool(np.isfinite(values).all())


def eval_reaction(kin: KineticsSpec, u, t: float = 0.0) -> np.ndarray:
    """Evaluate F(u, t) at one point (u shape (n,)) or a batch (n, N); the
    split-form reaction does not depend on the position.  Exactly zero at
    u = 0."""
    u_arr = np.asarray(u, dtype=float)
    return _reaction_into(kin, u_arr, t, np.empty(u_arr.shape),
                          np.empty((1,) + u_arr.shape[1:]), np.empty(u_arr.shape))


def _check_state(kin: KineticsSpec, u: np.ndarray) -> None:
    """The input checks of :func:`eval_reaction` on the float array u."""
    if u.ndim not in (1, 2) or u.shape[0] != kin.n_components:
        raise ValueError(f"state must have {kin.n_components} leading components")
    with np.errstate(over="ignore", invalid="ignore"):
        finite = _finite(u)
    if not finite:
        raise ValueError("state must be finite")


def _reaction_into(kin: KineticsSpec, u: np.ndarray, t: float, out: np.ndarray,
                   row: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """:func:`eval_reaction` of the float array u, input checks included,
    written into arrays the caller supplies as to :func:`reaction_kernel`:
    phi(t) (A u + B(u)), the kernel with (A, c0(t)) times phi(t)."""
    _check_state(kin, u)
    c0 = reaction_c0(kin, t)
    phi = eval_profile(kin.modulation, t)
    with np.errstate(divide="ignore", over="ignore"):
        reaction_kernel(kin, kin.linear, u, c0, out, row, prod)
    out *= phi
    return out


def reaction_c0(kin: KineticsSpec, t: TimeLike) -> TimeLike:
    """c0(t) as the reaction uses it: checked nonnegative, and 0 without a
    nonlinearity (the profile is then never evaluated)."""
    if kin.nonlinearity != "saturated_power":
        return np.zeros(np.shape(t)) if np.ndim(t) else 0.0
    c0 = eval_profile(kin.c0, t)
    if np.any(np.asarray(c0) < 0.0):
        raise ValueError("c0 profile must be nonnegative")
    return c0


def reaction_coefficients(kin: KineticsSpec, times: np.ndarray) -> np.ndarray:
    """The reaction's c0(t) and phi(t) at each time, shape (len(times), 2)."""
    return np.column_stack([reaction_c0(kin, times), eval_profile(kin.modulation, times)])


def coefficient_table(fn, times: np.ndarray):
    """``fn(times)`` and None, or, when fn rejects some time, its values on the
    times before the first rejected one and the error raised at that time.

    A caller that walks the times in order raises that error only when it
    reaches the time, so it fails the way a time-by-time evaluation would.
    """
    try:
        return fn(times), None
    except ValueError as exc:
        error = exc
    for i in range(len(times)):
        try:
            fn(times[i:i + 1])
        except ValueError as exc:
            return fn(times[:i]), exc
    raise error


def _saturation(kin: KineticsSpec, u: np.ndarray, c0, row: np.ndarray,
                prod: np.ndarray) -> np.ndarray:
    """c0 s / (1 + s) with s = |u|**(p-1), taken as c0 / (1 + 1/s), written
    into ``row`` (shape (1,) + u.shape[1:]); ``prod`` (u's shape) holds the
    squares of the components when there are two.  Exactly 0 at u = 0
    (1/s = inf) and c0 where s overflows (1/s = 0).  Warns of a division by
    zero at u = 0, and of an overflow where 1/s passes the double range,
    unless the caller silences both."""
    if len(u) > 1:
        np.add.reduce(np.multiply(u, u, out=prod), axis=0, keepdims=True, out=row)
    else:
        np.multiply(u, u, out=row)
    row **= 0.5 * (1.0 - kin.p)
    row += 1.0
    return np.divide(c0, row, out=row)


def reaction_kernel(kin: KineticsSpec, lin: np.ndarray, u: np.ndarray, num: float,
                    out: np.ndarray, row: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """lin @ u - u num / (1 + |u|**(1-p)) from a finite float state, written
    into ``out``; no input checks.  ``lin`` is an (m, m) matrix or a float
    that scales u.  The second term is taken only with the saturated
    nonlinearity.  With (lin, num) = (A, c0(t)) this is F(u, t) / phi(t);
    the solver passes each stage's coefficients with its scalars folded in
    (see :class:`rdcert.solver._StepPlan`).

    The caller supplies every array the kernel writes: ``out`` and ``prod``
    of u's shape (C order) and the saturation ``row`` of shape
    (1,) + u.shape[1:], none sharing memory with u.  Returns ``out``.  Callers silence numpy's
    division-by-zero and overflow warnings, which u = 0 and states near it
    raise on the way to an exact 0."""
    if isinstance(lin, float):
        np.multiply(u, lin, out=out)
    else:
        np.dot(lin, u, out=out)
    if kin.nonlinearity == "saturated_power":
        out -= np.multiply(u, _saturation(kin, u, num, row, prod), out=prod)
    return out


def gamma_of_t(kin: KineticsSpec, t: TimeLike) -> TimeLike:
    """Tightest gamma(t) with (F_linear(u), u) <= -gamma(t) |u|^2 for all u,
    at a scalar or array time t: -phi(t) * lambda_max((A + A^T)/2).
    Negative values mean the linear part is destabilizing.
    """
    phi = eval_profile(kin.modulation, t)
    if np.any(np.asarray(phi) <= 0.0):
        raise ValueError("modulation must be positive")
    return -phi * symmetric_part_max(kin.linear)


def symmetric_part_max(m) -> float:
    """Largest eigenvalue of (m + m^T)/2, the numerical abscissa of m: the
    best constant w with (m u, u) <= w |u|^2.  May exceed the spectral
    abscissa for non-normal matrices, in which case negative eigenvalues do
    not give a negative quadratic form."""
    mat = np.asarray(m, dtype=float)
    # halving first gives 0.5 (m + m^T) bit for bit and cannot overflow
    sym = 0.5 * mat + 0.5 * mat.T
    return float(np.linalg.eigvalsh(sym)[-1])


class CouplingBound(NamedTuple):
    gamma0: float        # max(a, d) + (b + c)/2
    cross_nonneg: bool   # b + c >= 0, the regime where gamma0 bounds the form
    form_max: float      # exact max of the quadratic form over the unit circle


def coupling_gamma0(a: float, b: float, c: float, d: float) -> CouplingBound:
    """Bound a*u1^2 + (b+c)*u1*u2 + d*u2^2 <= gamma0 * |u|^2 by splitting the cross term.

    The split uses u1*u2 <= (u1^2 + u2^2)/2, which only gives an upper bound
    when b + c >= 0; the exact maximum of the form is reported alongside so
    callers can see when the split value is not a valid bound.
    """
    half = 0.5 * (b + c)
    gamma0 = max(a + half, d + half)
    mid = 0.5 * (a + d)
    rad = math.hypot(0.5 * (a - d), half)
    return CouplingBound(float(gamma0), bool(b + c >= 0.0), float(mid + rad))


def effective_c0(kin: KineticsSpec) -> ProfileSum:
    """c0 of the full reaction, phi(t) * c0(t): modulation folds into the
    nonlinearity bound, and without a nonlinearity it is the empty sum, 0."""
    if kin.nonlinearity != "saturated_power":
        return ProfileSum()
    return ProfileSum(((1.0, (kin.modulation, kin.c0)),))


# reaction_sup_bound's samples: _SUP_STATES states on [-u_max, u_max] (for two
# components, max(_SUP_STATES // _SUP_DIRECTIONS, 32) radii on each of
# _SUP_DIRECTIONS rays) and _SUP_TIMES times, and its inflation for the gap
_SUP_STATES, _SUP_DIRECTIONS, _SUP_TIMES, _SUP_SAFETY = 2001, 64, 65, 0.05


def reaction_sup_bound(kin: KineticsSpec, u_max: float, horizon: float) -> float:
    """Sampled upper bound for sup |F(u, t)| over |u| <= u_max, t in [0, horizon].

    The result is inflated by 5 % to absorb the sampling gap.  A u and
    the saturation term of the sample states are computed once, and combined
    once per distinct c0 of the sample times; each sample time then only
    scales that peak by its |phi|.
    """
    ts = np.linspace(0.0, horizon, _SUP_TIMES)
    if kin.n_components == 1:
        points = np.linspace(-u_max, u_max, _SUP_STATES)[None, :]
    else:
        radii = np.linspace(0.0, u_max, max(_SUP_STATES // _SUP_DIRECTIONS, 32))
        angles = np.linspace(0.0, 2.0 * np.pi, _SUP_DIRECTIONS, endpoint=False)
        points = np.concatenate(
            [np.stack([radii * np.cos(a), radii * np.sin(a)]) for a in angles], axis=1)
    if not np.all(np.isfinite(points)):
        raise ValueError("state must be finite")
    # the coefficients of the first rejected time are never used: its error
    # is the one a time-by-time evaluation would raise first
    coeffs, error = coefficient_table(partial(reaction_coefficients, kin), ts)
    if error is not None:
        raise error
    linear = np.dot(kin.linear, points)
    damped = np.zeros_like(points)  # B(u) / c0
    if kin.nonlinearity == "saturated_power":
        with np.errstate(divide="ignore", over="ignore"):
            sat = _saturation(kin, points, 1.0, np.empty((1, points.shape[1])), damped)
        np.multiply(points, sat, out=damped)
    peaks = {}  # max over the samples of |A u + B(u)|, per distinct c0
    worst = 0.0
    for c0, phi in coeffs.tolist():
        if c0 not in peaks:
            f = linear - c0 * damped
            peaks[c0] = math.sqrt(float(np.max(np.sum(f * f, axis=0))))
        worst = max(worst, abs(phi) * peaks[c0])
    return worst * (1.0 + _SUP_SAFETY)
