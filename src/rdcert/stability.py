"""Linear stability of two-component kinetics on an interval.

For the system u_t = d1 u_xx + a u + b v, v_t = d2 v_xx + c u + d v with
homogeneous Dirichlet ends, the sin(k x) exp(lambda t) ansatz reduces
stability to the eigenvalues of the 2x2 matrix

    M(k) = [[a - d1 k^2, b], [c, d - d2 k^2]].

This module evaluates M(k), its eigenvalues and determinant/trace closed
forms, and locates the instability band in k.  Everything here is closed
form: nothing is simulated.  The numerical abscissa of a matrix, the largest
eigenvalue of its symmetric part, is :func:`rdcert.profiles.symmetric_part_max`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .profiles import _blocks, _finite, _grid_block


@dataclass(frozen=True)
class Linearization2:
    """Kinetics Jacobian entries at the origin plus the two diffusion constants."""

    a: float
    b: float
    c: float
    d: float
    d1: float
    d2: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "d1", "d2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.d1 <= 0.0 or self.d2 <= 0.0:
            raise ValueError("diffusion constants must be positive")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])


def m_of_k(lin: Linearization2, k: float) -> np.ndarray:
    """The mode matrix M(k); M(0) is the kinetics matrix itself."""
    k2 = k * k
    return np.array([[lin.a - lin.d1 * k2, lin.b],
                     [lin.c, lin.d - lin.d2 * k2]])


def eig2(m) -> tuple[complex, complex]:
    """Both eigenvalues of a finite 2x2 matrix, ordered by descending real
    part, a complex pair with the +imag root first: the one-matrix case of
    :func:`_roots`, so a real root has a +0.0 imaginary part."""
    mat = np.asarray(m, dtype=float)
    if mat.shape != (2, 2) or not np.all(np.isfinite(mat)):
        raise ValueError("need a finite 2x2 matrix")
    tr = mat[0, 0] + mat[1, 1]
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    lam1, lam2 = _roots(np.array([tr]), np.array([det]))
    return complex(lam1[0]), complex(lam2[0])


def _roots(tr: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Both roots of lambda^2 - tr lambda + det = 0 at each entry of the
    float arrays tr and det, lam1 and lam2 of a complex array, ordered by
    descending real part.  Where disc = tr^2 - 4 det >= 0 they are the
    cancellation-free r1 = (tr + sign(tr) sqrt(disc))/2 and det / r1 (0
    where r1 = 0); otherwise tr/2 +- i sqrt(-disc)/2, the +imag root first.
    No imaginary part is -0.0."""
    disc = tr * tr - 4.0 * det
    real = disc >= 0.0
    root = np.sqrt(disc, out=np.zeros_like(disc), where=real)
    r1 = np.where(tr >= 0.0, 0.5 * (tr + root), 0.5 * (tr - root))
    r2 = np.divide(det, r1, out=np.zeros_like(r1), where=real & (r1 != 0.0))
    first = r2 < r1  # the order sorted((r1, r2)) gives, ties included
    half_im = 0.5 * np.sqrt(np.negative(disc), out=np.zeros_like(disc), where=~real)
    lam = np.empty((2,) + tr.shape, dtype=complex)
    lam.real = np.where(real, np.where(first, (r1, r2), (r2, r1)), 0.5 * tr)
    lam.imag = half_im, 0.0 - half_im
    return lam


def det_m(lin: Linearization2, k) -> np.ndarray:
    """det M(k) in closed form: ad - bc - (a d2 + d d1) k^2 + d1 d2 k^4."""
    return _det_of_k2(lin, np.asarray(k, dtype=float) ** 2)


def trace_m(lin: Linearization2, k) -> np.ndarray:
    """tr M(k) = a + d - (d1 + d2) k^2."""
    return _trace_of_k2(lin, np.asarray(k, dtype=float) ** 2)


def _det_of_k2(lin: Linearization2, k2, out=None, work=None):
    """:func:`det_m` at k^2 = k2, written into ``out`` with the k^4 term in
    ``work`` when they are given (arrays of k2's shape)."""
    det = np.subtract(lin.a * lin.d - lin.b * lin.c,
                      np.multiply(lin.a * lin.d2 + lin.d * lin.d1, k2, out=out), out=out)
    quartic = np.multiply(lin.d1 * lin.d2, k2, out=work)
    quartic *= k2
    det += quartic
    return det


def _trace_of_k2(lin: Linearization2, k2, out=None):
    """:func:`trace_m` at k^2 = k2, written into ``out`` when it is given."""
    return np.subtract(lin.a + lin.d, np.multiply(lin.d1 + lin.d2, k2, out=out), out=out)


def _half_exponent(x: float) -> int:
    """h with x / 4^h in [0.5, 2): dividing by 4^h is exact, and so is the
    2^h it takes off a square root."""
    return math.frexp(x)[1] // 2


def instability_band(lin: Linearization2) -> Optional[tuple[float, float]]:
    """Open interval of wavenumbers with det M(k) < 0, or None.

    The roots in K = k^2 of d1 d2 K^2 - (a d2 + d d1) K + (ad - bc) = 0 are
    computed with the cancellation-free quadratic formula; a band exists only
    when both roots are real, positive and distinct.  The matrix is divided
    by 4^hm and the diffusions by 4^hs, which brings both to unit size, so no
    coefficient leaves the double range; k then scales back by 2^(hm - hs).
    Powers of 4 keep every step exact wherever the unscaled one is normal.
    """
    hm = _half_exponent(max(abs(lin.a), abs(lin.b), abs(lin.c), abs(lin.d)))
    hs = _half_exponent(max(lin.d1, lin.d2))
    a, b, c, d = (math.ldexp(float(x), -2 * hm) for x in (lin.a, lin.b, lin.c, lin.d))
    d1, d2 = math.ldexp(lin.d1, -2 * hs), math.ldexp(lin.d2, -2 * hs)
    A = d1 * d2
    if A < sys.float_info.min:  # min(d1, d2) / max(d1, d2) underflows
        raise ValueError("d1 / d2 is past the double range")
    B = -(a * d2 + d * d1)
    C = a * d - b * c
    disc = B * B - 4.0 * A * C
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    q = -0.5 * (B + math.copysign(root, B)) if B != 0.0 else 0.5 * root
    lo, hi = sorted((q / A, C / q if q != 0.0 else 0.0))
    if lo <= 0.0 and hi <= 0.0:
        return None
    if lo <= 0.0 < hi:
        # det < 0 already at k = 0: kinetics unstable, band starts at 0
        lo = 0.0
    # 2^hm then 2^-hs: each factor is normal, and an edge past the range is inf
    up, down = math.ldexp(1.0, hm), math.ldexp(1.0, -hs)
    return (math.sqrt(lo) * up * down, math.sqrt(hi) * up * down)


class ModeRate(NamedTuple):
    n: int
    k: float
    rate: complex      # leading eigenvalue of M(k_n)
    unstable: bool


@dataclass(frozen=True)
class DispersionReport:
    """Per-wavenumber scan of M(k) plus the instability band.  ``k``,
    ``det`` and ``trace`` are the three rows of one (3, samples) array: one
    allocation that a process reuses from scan to scan, where three
    separate ones were each returned to the system and faulted in again.
    The eigenvalues ``lam1`` and ``lam2`` are derived from ``trace`` and
    ``det`` on first read."""

    k: np.ndarray
    det: np.ndarray
    trace: np.ndarray
    max_growth_rate: float
    band: Optional[tuple[float, float]]
    modes: tuple  # admissible modes n pi / L when a length was supplied

    @cached_property
    def _pair(self) -> tuple[np.ndarray, np.ndarray]:
        return _eigenvalue_pair(self.trace, self.det)

    @property
    def lam1(self) -> np.ndarray:
        """The eigenvalue with the larger real part, the +imag one of a pair."""
        return self._pair[0]

    @property
    def lam2(self) -> np.ndarray:
        return self._pair[1]


def _eigenvalue_pair(tr: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both eigenvalues (tr +- sqrt(disc))/2, disc = tr^2 - 4 det, of finite
    trace and det arrays, taken in real arithmetic: the real parts are
    (tr +- sqrt(max(disc, 0)))/2 and the imaginary parts +-sqrt(max(-disc, 0))/2,
    so lam1 always has the larger real part and, in a complex pair, the
    positive imaginary part.  No imaginary part is -0.0."""
    root = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    # 4 det - tr^2 rather than -disc: a zero discriminant gives +0, not -0
    half_im = 0.5 * np.sqrt(np.maximum(4.0 * det - tr * tr, 0.0))
    lam1, lam2 = np.empty(tr.shape, dtype=complex), np.empty(tr.shape, dtype=complex)
    lam1.real = 0.5 * (tr + root)
    lam1.imag = half_im
    lam2.real = 0.5 * (tr - root)
    lam2.imag = 0.0 - half_im
    return lam1, lam2


def dispersion_scan(lin: Linearization2, k_max: Optional[float] = None,
                    samples: int = 400, L: Optional[float] = None) -> DispersionReport:
    """Evaluate det and trace of M(k) on a uniform grid of wavenumbers in
    (0, k_max], and the largest real part of its eigenvalues there.

    The grid is ``np.linspace(k_max / samples, k_max, samples)`` bit for
    bit, formed in cache-sized blocks straight into the report's store of k,
    det and trace (see :class:`DispersionReport`); each block's one k^2
    gives :func:`det_m` and :func:`trace_m` there.  Only those three are
    stored: the report derives the eigenvalues
    from them on first read (see :func:`_eigenvalue_pair`).  The largest
    growth rate is the maximum of (tr + sqrt(max(disc, 0)))/2,
    disc = tr^2 - 4 det, the real part of lam1.

    Default k_max is twice the larger of the band's upper edge and 10 pi / L
    (or a kinetics-based scale when there is neither).  When ``L`` is given,
    the admissible Dirichlet modes k_n = n pi / L are listed with their
    leading growth rates; there are floor(k_max L / pi) of them, and more
    than ``samples`` is rejected: a scan that coarse cannot resolve them.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if L is not None and not (math.isfinite(L) and L > 0.0):
        raise ValueError("interval length L must be finite and positive")
    band = instability_band(lin)
    if k_max is None:
        candidates = []
        if band is not None:
            candidates.append(band[1])
        if L is not None:
            candidates.append(10.0 * math.pi / L)
        if not candidates:
            scale = max(abs(lin.a), abs(lin.d), 1e-12) / min(lin.d1, lin.d2)
            candidates.append(math.sqrt(scale))
        k_max = 2.0 * max(candidates)
    if not k_max > 0.0:  # NaN included
        raise ValueError("k_max must be positive")
    if L is not None and k_max * L / math.pi >= samples + 1:  # floor(k_max L / pi) > samples
        raise ValueError(f"k_max = {k_max:g} admits {k_max * L / math.pi:.6g} modes n pi / L, "
                         f"more than the {samples} samples of the scan resolve")
    ks, det, tr = np.empty((3, samples))  # one store, see DispersionReport
    max_growth_rate = -math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # disc is checked instead
        for block in _blocks(samples):
            k2 = _grid_block(k_max / samples, k_max, samples, block, out=ks[block]) ** 2
            # tr's row holds det's k^4 term until trace is written into it
            d = _det_of_k2(lin, k2, out=det[block], work=tr[block])
            t = _trace_of_k2(lin, k2, out=tr[block])
            disc = np.multiply(t, t, out=k2)
            disc -= 4.0 * d  # finite: so are t, d, the roots and the eigenvalues
            if not _finite(disc):
                raise ValueError(f"M(k) leaves the double range on the scan up to "
                                 f"k_max = {k_max:g}")
            twice_re = np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
            twice_re += t  # 2 Re lam1; max(0.5 x) is 0.5 max(x), halving being monotone
            max_growth_rate = max(max_growth_rate, 0.5 * float(twice_re.max()))
    modes = () if L is None else _mode_rates(lin, k_max, L)
    return DispersionReport(k=ks, det=det, trace=tr, max_growth_rate=max_growth_rate,
                            band=band, modes=modes)


def _mode_rates(lin: Linearization2, k_max: float, L: float) -> tuple:
    """The :class:`ModeRate` of every admissible mode k_n = n pi / L <= k_max,
    each the leading eigenvalue ``eig2(m_of_k(lin, k_n))[0]``, the roots of
    all modes taken by one :func:`_roots` call."""
    ns = np.arange(1, int(k_max * L / math.pi) + 2)
    k = ns * math.pi / L
    keep = k <= k_max  # k_n increases with n
    ns, k = ns[keep], k[keep]
    k2 = k * k
    m00, m11 = lin.a - lin.d1 * k2, lin.d - lin.d2 * k2
    if not (np.isfinite(m00).all() and np.isfinite(m11).all()):
        raise ValueError("need a finite 2x2 matrix")
    rates = _roots(m00 + m11, m00 * m11 - lin.b * lin.c)[0]
    return tuple(ModeRate(n=n, k=kn, rate=rate, unstable=rate.real > 0.0)
                 for n, kn, rate in zip(ns.tolist(), k.tolist(), rates.tolist()))


@dataclass(frozen=True)
class TuringConditions:
    """Stability of the kinetics together with diffusion-driven instability."""

    trace_negative: bool        # a + d < 0
    determinant_positive: bool  # ad - bc > 0
    kinetics_stable: bool       # both, i.e. Re lambda(M) < 0
    band: Optional[tuple[float, float]]
    trace_negative_on_band: Optional[bool]
    turing_unstable: bool


def turing_conditions(lin: Linearization2) -> TuringConditions:
    """Check the classical conditions: stable kinetics destabilized by
    unequal diffusion through a det M(k) < 0 band on which tr M(k) < 0,
    so the crossing eigenvalue is real through zero."""
    tr_neg = lin.a + lin.d < 0.0
    det_pos = lin.a * lin.d - lin.b * lin.c > 0.0
    band = instability_band(lin)
    tr_on_band = None
    if band is not None:
        # trace decreases in k, so its maximum over the band sits at the left edge
        tr_on_band = bool(trace_m(lin, band[0]) < 0.0)
    return TuringConditions(
        trace_negative=bool(tr_neg),
        determinant_positive=bool(det_pos),
        kinetics_stable=bool(tr_neg and det_pos),
        band=band,
        trace_negative_on_band=tr_on_band,
        turing_unstable=bool(tr_neg and det_pos and band is not None and tr_on_band),
    )


class CriticalDiffusion(NamedTuple):
    d1_star: float
    det_slope: float  # d det/d d1 = k^2 (d2 k^2 - d); its sign locates the unstable side


def critical_d1(a: float, b: float, c: float, d: float, d2: float, k: float) -> CriticalDiffusion:
    """The activator diffusion d1* at which det M(k) = 0 for the given mode.

    d1* = (a d2 k^2 - (ad - bc)) / (k^2 (d2 k^2 - d)).  The reported slope
    sign tells from which side of d1* the determinant is negative.
    """
    if k <= 0.0:
        raise ValueError("wavenumber must be positive")
    denom = k * k * (d2 * k * k - d)
    if denom == 0.0:
        raise ValueError("degenerate direction: det M(k) does not depend on d1")
    d1_star = (a * d2 * k * k - (a * d - b * c)) / denom
    return CriticalDiffusion(d1_star=float(d1_star), det_slope=float(denom))
