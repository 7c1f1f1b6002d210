"""Analytic self-maps of the disc with exact derivative access.

Each map evaluates itself and its first three derivatives, either from
hand-coded closed forms (catalog entries) or by term-wise differentiation
of a truncated Taylor series; ``derivs(z, order, first=1)`` leaves out the
value for a caller that reads derivatives only.  Closed forms are exact on
the whole open disc; series-backed maps certify a ``reliable_radius`` only.  A series map
evaluates its derivative series with ``series.horner``, a blocked, in-place
Horner pass over all of them at once that gives the same bits as numpy's
``polyval``.

Derivatives are hand-coded rather than finite-differenced because the
Schwarzian amplifies derivative noise quadratically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import series as ts
from .disk import require_in_disk
from .errors import PrecisionError, SingularError
from .series import TaylorSeries

DEFAULT_ORDER = 40

# |phi'| below this is treated as a genuine critical point.
DERIV_SINGULAR_TOL = 1e-14


class AnalyticMap:
    """Base: an analytic function on the disc with derivatives through order 3."""

    name = "analytic"
    reliable_radius = 1.0

    def derivs(self, z, order: int = 3, first: int = 0):
        """Return (f^(first), ..., f^(order)) evaluated at z (scalar or array).

        ``first=1`` leaves out f(z) for a caller that reads derivatives only,
        and f(z) is not computed then; every array returned has the bits it
        has when ``first=0``.
        """
        raise NotImplementedError

    def taylor(self, order: int = DEFAULT_ORDER) -> TaylorSeries:
        """Truncated Maclaurin series of the map."""
        raise NotImplementedError

    # The closed-form Schwarzian, a method z -> S phi(z), where the class
    # knows one, else None.  The generic combination
    # phi'''/phi' - (3/2)(phi''/phi')^2 cancels catastrophically near the
    # boundary when the two terms are assembled from separately rounded
    # derivatives (both grow like |1 - z|^{-2} for half-plane-type maps).
    # Classes with an algebraic closed form define the method, in the same
    # spirit as the hand-coded derivatives; their Schwarzian then reads none
    # of their derivatives.
    schwarzian_exact = None

    def __call__(self, z):
        return self.derivs(z, 0)[0]

    def _check(self, z):
        z = np.asarray(z, dtype=complex)
        if np.any(require_in_disk(z) > self.reliable_radius + 1e-15):
            raise PrecisionError(
                f"{self.name}: evaluation beyond reliable radius "
                f"{self.reliable_radius:g}"
            )
        return z

    def is_normalized(self) -> bool:
        v = self.derivs(0.0, 1)
        return abs(v[0]) < 1e-12 and abs(v[1] - 1.0) < 1e-12


class Identity(AnalyticMap):
    name = "identity"

    def derivs(self, z, order: int = 3, first: int = 0):
        z = self._check(z)
        one = np.ones_like(z)
        zero = np.zeros_like(z)
        return (z, one, zero, zero)[first : order + 1]

    def taylor(self, order: int = DEFAULT_ORDER) -> TaylorSeries:
        c = np.zeros(order + 1, dtype=complex)
        c[1] = 1.0
        return TaylorSeries(c, 1.0)


@dataclass(frozen=True)
class Mobius(AnalyticMap):
    """z -> (a z + b) / (c z + d), analytic on the disc (pole outside)."""

    a: complex = 1.0
    b: complex = 0.0
    c: complex = 0.0
    d: complex = 1.0

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det) < 1e-14:
            raise SingularError("degenerate Mobius map (ad - bc = 0)")
        if self.c != 0 and abs(self.d / self.c) <= 1.0:
            raise SingularError("Mobius pole inside the closed unit disc")

    @property
    def name(self):
        return f"mobius({self.a},{self.b},{self.c},{self.d})"

    def derivs(self, z, order: int = 3, first: int = 0):
        z = self._check(z)
        det = self.a * self.d - self.b * self.c
        den = self.c * z + self.d
        out = [(self.a * z + self.b) / den if first == 0 else None]
        if order >= 1:
            out.append(det / den**2)
        if order >= 2:
            out.append(-2.0 * self.c * det / den**3)
        if order >= 3:
            out.append(6.0 * self.c**2 * det / den**4)
        return tuple(out[first:])

    def taylor(self, order: int = DEFAULT_ORDER) -> TaylorSeries:
        num = TaylorSeries(
            np.pad(np.array([self.b, self.a], complex), (0, order - 1)), 1.0
        )
        den = TaylorSeries(
            np.pad(np.array([self.d, self.c], complex), (0, order - 1)), 1.0
        )
        out = ts.multiply(num, ts.reciprocal(den))
        return TaylorSeries(
            out.coefficients, reliable_radius(self, out.coefficients)
        )

    def schwarzian_exact(self, z):
        # S(phi) vanishes identically for every Mobius map.
        return np.zeros_like(self._check(z))


def disk_automorphism_map(a: complex) -> Mobius:
    """sigma_a(z) = (z + a)/(1 + conj(a) z) as a Mobius catalog entry."""
    require_in_disk(a)
    return Mobius(1.0, complex(a), np.conj(complex(a)), 1.0)


class HalfPlane(AnalyticMap):
    """z -> z / (1 - z), mapping the disc onto a half-plane."""

    name = "halfplane"

    def derivs(self, z, order: int = 3, first: int = 0):
        """z/w and k!/w**(k + 1), w = 1 - z; w is dropped after its last power."""
        z = self._check(z)
        w = 1.0 - z
        out = [z / w if first == 0 else None]
        for k, factorial in zip(range(1, order + 1), (1.0, 2.0, 6.0)):
            p = w ** (k + 1)
            if k == order:
                del w
            out.append(factorial / p)
            del p
        return tuple(out[first:])

    def taylor(self, order: int = DEFAULT_ORDER) -> TaylorSeries:
        c = np.ones(order + 1, dtype=complex)
        c[0] = 0.0
        return TaylorSeries(c, reliable_radius(self, c))

    def schwarzian_exact(self, z):
        # z/(1 - z) is a Mobius map: identically zero Schwarzian.
        return np.zeros_like(self._check(z))


class Koebe(AnalyticMap):
    """z -> z / (1 - z)^2, the Koebe function."""

    name = "koebe"

    def derivs(self, z, order: int = 3, first: int = 0):
        z = self._check(z)
        w = 1.0 - z
        out = [z / w**2 if first == 0 else None]
        if order >= 1:
            out.append((1.0 + z) / w**3)
        if order >= 2:
            out.append(2.0 * (2.0 + z) / w**4)
        if order >= 3:
            out.append(6.0 * (3.0 + z) / w**5)
        return tuple(out[first:])

    def taylor(self, order: int = DEFAULT_ORDER) -> TaylorSeries:
        c = np.arange(order + 1, dtype=complex)
        return TaylorSeries(c, reliable_radius(self, c))


@dataclass(frozen=True)
class ExpMap(AnalyticMap):
    """z -> (e^{cz} - 1) / c  (entire; c = 1 gives e^z - 1)."""

    c: complex = 1.0

    def __post_init__(self):
        if abs(self.c) < 1e-14:
            raise SingularError("ExpMap with c ~ 0; use Identity instead")

    @property
    def name(self):
        return f"exp({self.c})"

    def derivs(self, z, order: int = 3, first: int = 0):
        z = self._check(z)
        e = np.exp(self.c * z)
        out = [(e - 1.0) / self.c if first == 0 else None]
        for k in range(1, order + 1):
            out.append(self.c ** (k - 1) * e)
        return tuple(out[first:])

    def taylor(self, order: int = DEFAULT_ORDER) -> TaylorSeries:
        n = np.arange(order + 1)
        c = np.zeros(order + 1, dtype=complex)
        c[1:] = self.c ** (n[1:] - 1) / np.array(
            [math.factorial(k) for k in n[1:]], dtype=float
        )
        return TaylorSeries(c, 1.0)


class LogMap(AnalyticMap):
    """z -> (1/2) log((1 + z)/(1 - z)), the boundary case of Nehari's criterion."""

    name = "logtype"

    def derivs(self, z, order: int = 3, first: int = 0):
        z = self._check(z)
        w = 1.0 - z * z
        out = [0.5 * (np.log1p(z) - np.log1p(-z)) if first == 0 else None]
        if order >= 1:
            out.append(1.0 / w)
        if order >= 2:
            out.append(2.0 * z / w**2)
        if order >= 3:
            out.append((2.0 + 6.0 * z * z) / w**3)
        return tuple(out[first:])

    def taylor(self, order: int = DEFAULT_ORDER) -> TaylorSeries:
        c = np.zeros(order + 1, dtype=complex)
        for k in range(1, order + 1, 2):
            c[k] = 1.0 / k
        return TaylorSeries(c, reliable_radius(self, c))


@dataclass(frozen=True)
class Monomial(AnalyticMap):
    """z -> coef * z^power (power 0 gives a constant)."""

    coef: complex = 1.0
    power: int = 1

    @property
    def name(self):
        return f"{self.coef}*z^{self.power}"

    def derivs(self, z, order: int = 3, first: int = 0):
        z = self._check(z)
        out = []
        for k in range(first, order + 1):
            if k > self.power:
                out.append(np.zeros_like(z))
            else:
                fall = math.prod(range(self.power - k + 1, self.power + 1))
                out.append(self.coef * fall * z ** (self.power - k))
        return tuple(out)

    def taylor(self, order: int = DEFAULT_ORDER) -> TaylorSeries:
        c = np.zeros(order + 1, dtype=complex)
        if self.power <= order:
            c[self.power] = self.coef
        return TaylorSeries(c, 1.0)


ZERO = Monomial(0.0, 0)


class SeriesMap(AnalyticMap):
    """A map backed by a truncated Taylor series.

    ``derivs`` evaluates the series' term-wise derivatives ``first`` through
    ``order`` with one ``series.horner`` call: one stacked Horner pass over
    all of them, block by block, with the bits of numpy's ``polyval``.  The
    derivatives are the rows of one array, so their memory is freed only
    once every one of them is dropped; ``harmonic.omega_quotients`` forms
    omega, omega' and omega'' in those rows.  The derivative series are
    ``series.derivative_coefficients`` of the series, numpy.polynomial's
    ``polyder`` steps without loading it.
    """

    def __init__(self, s: TaylorSeries, name: str = "series"):
        self.series = s
        self.name = name
        self.reliable_radius = s.reliable_radius
        self._dcoeffs = [s.coefficients]
        for _ in range(3):
            self._dcoeffs.append(ts.derivative_coefficients(self._dcoeffs[-1]))

    def derivs(self, z, order: int = 3, first: int = 0):
        return tuple(ts.horner(self._check(z), self._dcoeffs[first : order + 1]))

    def taylor(self, order: int = DEFAULT_ORDER) -> TaylorSeries:
        c = self.series.coefficients
        if len(c) < order + 1:
            c = np.pad(c, (0, order + 1 - len(c)))
        return TaylorSeries(c[: order + 1], self.series.reliable_radius)


class LinearCombo(AnalyticMap):
    """sum_i coef_i * map_i (used for affine shears h + lambda g)."""

    def __init__(self, terms, name: str | None = None):
        self.terms = [(complex(c), m) for c, m in terms]
        self.name = name or "+".join(f"{c}*{m.name}" for c, m in self.terms)
        self.reliable_radius = min(m.reliable_radius for _, m in self.terms)

    def derivs(self, z, order: int = 3, first: int = 0):
        parts = [m.derivs(z, order, first) for _, m in self.terms]
        return tuple(
            sum(c * p[k] for (c, _), p in zip(self.terms, parts))
            for k in range(order + 1 - first)
        )

    def taylor(self, order: int = DEFAULT_ORDER) -> TaylorSeries:
        out = None
        for c, m in self.terms:
            s = m.taylor(order)
            s = TaylorSeries(c * s.coefficients, s.reliable_radius)
            out = s if out is None else ts.add(out, s)
        return out


class Compose(AnalyticMap):
    """outer(inner(z)) with derivatives via Faa di Bruno through order 3."""

    def __init__(self, outer: AnalyticMap, inner: AnalyticMap, name: str | None = None):
        self.outer = outer
        self.inner = inner
        self.name = name or f"{outer.name}o({inner.name})"
        self.reliable_radius = inner.reliable_radius

    def derivs(self, z, order: int = 3, first: int = 0):
        iv = self.inner.derivs(z, order)
        ov = self.outer.derivs(iv[0], order)
        out = [ov[0]]
        if order >= 1:
            out.append(ov[1] * iv[1])
        if order >= 2:
            out.append(ov[2] * iv[1] ** 2 + ov[1] * iv[2])
        if order >= 3:
            out.append(
                ov[3] * iv[1] ** 3 + 3.0 * ov[2] * iv[1] * iv[2] + ov[1] * iv[3]
            )
        return tuple(out[first:])

    def taylor(self, order: int = DEFAULT_ORDER) -> TaylorSeries:
        out = ts.compose(self.outer.taylor(order), self.inner.taylor(order))
        return TaylorSeries(
            out.coefficients,
            min(
                ts.COMPOSE_RADIUS_FACTOR * self.inner.reliable_radius,
                out.reliable_radius,
            ),
        )


class Affine(AnalyticMap):
    """z -> mul * m(z) + add."""

    def __init__(self, m: AnalyticMap, mul: complex, add: complex = 0.0, name=None):
        self.m = m
        self.mul = complex(mul)
        self.add = complex(add)
        self.name = name or f"affine({m.name})"
        self.reliable_radius = m.reliable_radius

    def derivs(self, z, order: int = 3, first: int = 0):
        out = [self.mul * v for v in self.m.derivs(z, order, first)]
        if first == 0:
            out[0] = out[0] + self.add
        return tuple(out)

    def taylor(self, order: int = DEFAULT_ORDER) -> TaylorSeries:
        s = self.m.taylor(order)
        c = self.mul * s.coefficients.copy()
        c[0] += self.add
        return TaylorSeries(c, s.reliable_radius)


def koebe_transform(phi: AnalyticMap, a: complex) -> AnalyticMap:
    """Renormalized precomposition with sigma_a.

    phi_a(z) = (phi(sigma_a(z)) - phi(a)) / ((1 - |a|^2) phi'(a)),
    so that phi_a(0) = 0 and phi_a'(0) = 1.
    """
    require_in_disk(a)
    a = complex(a)
    va, d1 = phi.derivs(a, 1)[:2]
    if abs(d1) < DERIV_SINGULAR_TOL:
        raise SingularError("koebe_transform: phi'(a) ~ 0")
    scale = 1.0 / ((1.0 - abs(a) ** 2) * d1)
    inner = Compose(phi, disk_automorphism_map(a))
    return Affine(inner, scale, -va * scale, name=f"koebe_transform({phi.name},{a})")


def reliable_radius(m: AnalyticMap, coeffs: np.ndarray) -> float:
    """Certified radius for a series conversion of a closed-form map."""
    if m.reliable_radius >= 1.0:
        return ts.reliable_radius_from_coeffs(coeffs)
    return min(m.reliable_radius, ts.reliable_radius_from_coeffs(coeffs))
