"""Planar harmonic mappings f = h + conj(g).

The dilatation omega = g'/h' and its first two derivatives are always
derived from the exact derivatives of h and g by quotient-rule formulas,
so every downstream operator sees a single consistent object even when g
is a truncated series.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import series as ts
from .analytic import (
    Affine,
    AnalyticMap,
    HalfPlane,
    Identity,
    LinearCombo,
    Mobius,
    Monomial,
    SeriesMap,
    ZERO,
)
from .errors import NotSensePreservingError, ParameterError

# A point counts as degenerate when 1 - |omega|^2 falls below this; the
# operators genuinely blow up there, so we refuse rather than clamp.
SENSE_TOL = 1e-12


class HarmonicMap:
    """f = h + conj(g) with h, g analytic; sense-preserving where evaluated."""

    def __init__(self, h: AnalyticMap, g: AnalyticMap, name: str | None = None):
        self.h = h
        self.g = g
        self.name = name or f"{h.name}+conj({g.name})"
        self.reliable_radius = min(h.reliable_radius, g.reliable_radius)
        # NormEstimates of this map per (functional, r_max, grid); see norms.GridSuprema.
        self.estimates: dict = {}

    @cached_property
    def normalized(self) -> bool:
        """h(0) = g(0) = 0 and h'(0) = 1, evaluated when first read, not when the map is built."""
        h0, h1 = self.h.derivs(0.0, 1)[:2]
        g0 = self.g.derivs(0.0, 0)[0]
        return abs(h0) < 1e-12 and abs(g0) < 1e-12 and abs(h1 - 1.0) < 1e-12

    def __call__(self, z):
        return self.h(z) + np.conj(self.g(z))

    def omega_derivs(self, z, order: int = 2):
        """(omega, omega', omega'') through ``order`` from exact h, g derivatives.

        h(z) and g(z) are not evaluated: omega reads derivatives only.
        """
        z = np.asarray(z, dtype=complex)
        return omega_quotients(
            z,
            (None,) + self.h.derivs(z, order + 1, first=1),
            [None, *self.g.derivs(z, order + 1, first=1)],
            order,
        )

    def check_dilatation(self, w):
        """Raise unless 1 - |omega|^2 >= SENSE_TOL for the dilatation values w."""
        if np.any(1.0 - np.abs(w) ** 2 < SENSE_TOL):
            raise NotSensePreservingError(
                f"{self.name}: |omega| >= 1 - {SENSE_TOL} at a queried point"
            )


def omega_quotients(z, hv, gv, order: int):
    """(omega, omega', omega'') through ``order`` by the quotient rule, at the points z.

    hv[k] and gv[k] are the k-th derivatives of h and g for 1 <= k <= order + 1.

    omega   = g'/h'
    omega'  = g''/h' - g' h''/h'^2
    omega'' = g'''/h' - (2 g'' h'' + g' h''')/h'^2 + 2 g' h''^2/h'^3

    omega'' is formed first, in the array of g''', then omega' in that of
    g'' and omega in that of g': each g derivative is last read by the
    quotient written into it.  The destination is g's array where
    ``_writable`` allows it, else a fresh array, as numpy's ``g / h'``
    makes; the operations are the same either way.  A series map's
    derivatives are the rows of one ``series.horner`` output, so its omega
    lives in those rows, and no array beside them is made for it.

    gv is a list that hands g's derivatives over: each is dropped from it
    after its last use, and may be overwritten.  z and h's derivatives are
    never written.  Every product is the expression the formulas above
    write, so its operands keep their order; quotients and sums run in
    place.
    """
    h1 = hv[1]
    into = [None] + [_writable(gv, k, [z, *hv]) for k in range(1, order + 2)]
    out = []
    if order >= 2:
        w2 = np.divide(gv[3], h1, out=into[3])
        gv[3] = None
        t = 2.0 * gv[2] * hv[2]
        t += gv[1] * hv[3]
        t /= h1**2
        w2 -= t
        del t
        t = 2.0 * gv[1] * hv[2] ** 2
        t /= h1**3
        w2 += t
        del t
        out.append(w2)
    if order >= 1:
        w1 = np.divide(gv[2], h1, out=into[2])
        gv[2] = None
        t = gv[1] * hv[2]
        t /= h1**2
        w1 -= t
        del t
        out.append(w1)
    out.append(np.divide(gv[1], h1, out=into[1]))
    gv[1] = None
    return tuple(out[::-1])


def _writable(gv, k, held):
    """gv[k] when a quotient may be written into it, else None.

    It must be a writable complex array of at least two points, sharing no
    memory with an array in ``held`` or another of gv (``Identity.derivs``
    returns one ``zero`` array twice, and ``z`` itself).  A one-point
    array's in-place and out-of-place products round differently (see
    ``series.horner``), and a scalar's arithmetic differs from an array's.
    """
    d = gv[k]
    if not (isinstance(d, np.ndarray) and d.dtype == complex and d.size >= 2
            and d.flags.writeable):
        return None
    return None if any(np.may_share_memory(d, o) for o in held + gv[1:k] + gv[k + 1:]) else d


def analytic_as_harmonic(phi: AnalyticMap) -> HarmonicMap:
    """Wrap an analytic map as a harmonic map with g = 0."""
    return HarmonicMap(phi, ZERO, name=phi.name)


def as_harmonic(f) -> HarmonicMap:
    return f if isinstance(f, HarmonicMap) else analytic_as_harmonic(f)


def from_h_and_omega(
    h: AnalyticMap, omega: AnalyticMap, order: int = 120
) -> HarmonicMap:
    """Shear construction: g' = omega h', g(0) = 0, as a truncated series.

    The resulting map is sense-preserving by construction provided
    |omega| < 1 on the sampled disc; omega attaining modulus >= 1 there is
    rejected.  A polynomial omega of degree above ``order`` is a
    ParameterError, raised before omega is evaluated: the series would
    drop its top terms and describe another map.
    """
    degree = _polynomial_degree(omega)
    if degree is not None and degree > order:
        raise ParameterError(
            f"{omega.name}: omega has degree {degree}, above the series order {order}"
        )
    _reject_large_omega(omega)
    h1 = ts.differentiate(h.taylor(order + 1))
    w = omega.taylor(order)
    g = SeriesMap(ts.integrate(ts.multiply(w, h1)), name=f"int({omega.name}*{h.name}')")
    f = HarmonicMap(h, g, name=f"shear({h.name},{omega.name})")
    f.input_omega = omega  # the exact omega, for a certified ||omega|| to read (ROADMAP)
    return f


def harmonic_mobius(h: AnalyticMap, alpha: complex) -> HarmonicMap:
    """f = h + alpha conj(h) with h a Mobius catalog entry; S_f vanishes."""
    if not isinstance(h, (Identity, Mobius, HalfPlane)):
        raise ParameterError("harmonic_mobius requires a Mobius-type catalog entry")
    if abs(alpha) >= 1.0:
        raise NotSensePreservingError("harmonic_mobius requires |alpha| < 1")
    alpha = complex(alpha)
    g = Affine(h, alpha, name=f"{alpha}*{h.name}") if alpha != 0 else ZERO
    return HarmonicMap(h, g, name=f"harmonic-mobius({h.name},{alpha})")


def _polynomial_degree(m: AnalyticMap) -> int | None:
    """The degree of a monomial, a series map or a sum of them; None for other maps."""
    if isinstance(m, Monomial):
        top = m.power
    elif isinstance(m, SeriesMap):
        top = len(m.series.coefficients) - 1
    elif isinstance(m, LinearCombo):
        tops = [_polynomial_degree(term) for _, term in m.terms]
        if None in tops:
            return None
        top = max(tops)
    else:
        return None
    nonzero = np.flatnonzero(m.taylor(top).coefficients)
    return int(nonzero[-1]) if nonzero.size else 0


def _reject_large_omega(omega: AnalyticMap, r: float = 0.999):
    rr = min(r, omega.reliable_radius)
    th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    rad = np.linspace(0.0, rr, 17)
    z = np.outer(rad, np.exp(1j * th)).ravel()
    if np.any(np.abs(omega(z)) >= 1.0 - SENSE_TOL):
        raise NotSensePreservingError(
            f"{omega.name}: |omega| >= 1 on the sample grid"
        )


def halfplane_shear_g(coef: complex) -> AnalyticMap:
    """Closed form of int c z/(1-z)^2 dz = c (1/(1-z) + log(1-z) - 1).

    This is g for the shear of the half-plane map with omega = c z, kept in
    closed form so the map is evaluable on the whole open disc.
    """

    class _G(AnalyticMap):
        name = f"halfplane-shear-g({coef})"

        def derivs(self, z, order: int = 3, first: int = 0):
            """w = 1 - z is dropped after its last power, and each power once divided by."""
            z = self._check(z)
            w = 1.0 - z
            out = [coef * (1.0 / w + np.log(w) - 1.0) if first == 0 else None]
            for k in range(1, order + 1):
                p = w ** (k + 1)
                if k == order:
                    del w
                if k == 1:
                    out.append(coef * z / p)
                elif k == 2:
                    out.append(coef * (1.0 + z) / p)
                else:
                    out.append(coef * 2.0 * (2.0 + z) / p)
                del p
            return tuple(out[first:])

        def taylor(self, order: int = 40) -> ts.TaylorSeries:
            n = np.arange(order + 1, dtype=float)
            c = np.zeros(order + 1, dtype=complex)
            c[2:] = coef * (n[2:] - 1.0) / n[2:]
            return ts.TaylorSeries(c, ts.reliable_radius_from_coeffs(c))

    return _G()


def shear_linear(h: AnalyticMap, coef: complex) -> HarmonicMap:
    """Shear of a catalog h with omega = coef * z, using exact closed-form g."""
    if isinstance(h, Identity):
        g = Monomial(coef / 2.0, 2)
    elif isinstance(h, HalfPlane):
        g = halfplane_shear_g(coef)
    else:
        return from_h_and_omega(h, Monomial(coef, 1))
    return HarmonicMap(h, g, name=f"shear({h.name},{coef}z)")
