"""Pre-Schwarzian / Schwarzian derivatives and pointwise distortion quantities.

Analytic:  P phi = phi''/phi',  S phi = (P phi)' - (P phi)^2 / 2.
Harmonic:  P_f = Ph - conj(w) w' / (1 - |w|^2),
           S_f = Sh + [conj(w)/(1-|w|^2)] (w' h''/h' - w'')
                 - (3/2) (w' conj(w)/(1-|w|^2))^2,
with w = g'/h'.  For g = 0 the harmonic operators reduce exactly to the
analytic ones (the correction terms vanish identically).

Each operator is written once, as a formula over a ``Jet``: the derivatives
of h (and of omega) at the query points, evaluated once and shared by every
formula that reads them.

The harmonic Schwarzian is computed from the closed formula, never by
differentiating P_f numerically; the finite-difference route exists only
as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import DERIV_SINGULAR_TOL
from .errors import SingularError
from .harmonic import SENSE_TOL, HarmonicMap, as_harmonic, omega_quotients


class Jet:
    """h', ..., h^(order) at z from one h.derivs call, shared by the formulas below.

    ``f`` is an analytic map, or a harmonic map whose omega, ...,
    omega^(order-1) come from one g.derivs call through the quotient rule.
    That call is made the first time a formula reads ``omega``, so a jet no
    formula reads omega from never evaluates g.  Both calls ask for
    derivatives only (``first=1``), so neither h(z) nor g(z) is evaluated.
    ``omega_quotients`` holds the only reference to the derivatives of g,
    and forms omega'' in the array of g''', omega' in that of g'' and omega
    in that of g' (a series map's are the rows of one ``series.horner``
    output), so the jet never holds g's derivatives beside arrays of omega
    of their own.  The formulas run their own
    checks, so formulas sharing a jet raise the errors each would raise on
    its own, in the order they run.

    A jet holds the points it is given; ``norms.GridSuprema`` builds one
    per block of its grid, and one per refinement step, which each search
    reads through its ``view``.
    """

    def __init__(self, f, z, order: int):
        self.f = f
        self.h = f.h if isinstance(f, HarmonicMap) else f
        self.z = np.asarray(z, dtype=complex)
        self.order = order
        self.hd = (None,) + tuple(self.h.derivs(self.z, order, first=1))
        self._omega = None

    @property
    def omega(self):
        """(omega, omega', ...) through order - 1, from one g.derivs call."""
        if self._omega is None:
            self._omega = omega_quotients(
                self.z, self.hd, [None, *self.f.g.derivs(self.z, self.order, first=1)],
                self.order - 1,
            )
        return self._omega

    def view(self, lo: int, hi: int) -> "Jet":
        """The jet of points lo:hi, on slices of this jet's derivatives and omega."""
        return _JetView(self, lo, hi)


class _JetView(Jet):
    """Points lo:hi of a parent jet; its omega is a slice of the parent's.

    numpy's array arithmetic gives a point the same bits whatever the length
    of its array, so a formula reads the same values on a view as on a jet
    of the view's points alone, and runs its checks on those points only.
    The parent's derivatives and omega are shared, so an error in making
    them reaches every view that reads them.
    """

    def __init__(self, parent: Jet, lo: int, hi: int):
        self.f, self.h, self.order = parent.f, parent.h, parent.order
        self.z = parent.z[lo:hi]
        self.hd = (None,) + tuple(d[lo:hi] for d in parent.hd[1:])
        self._parent, self._span = parent, slice(lo, hi)

    @property
    def omega(self):
        return tuple(w[self._span] for w in self._parent.omega)


def _nonzero_deriv(d1, name: str):
    if np.any(np.abs(d1) < DERIV_SINGULAR_TOL):
        raise SingularError(f"{name}: vanishing first derivative at a queried point")


def _omega_factor(jet: Jet, order: int):
    ws = jet.omega[: order + 1]
    denom = 1.0 - np.abs(ws[0]) ** 2
    if np.any(denom < SENSE_TOL):
        raise SingularError(
            f"{jet.f.name}: 1 - |omega|^2 < {SENSE_TOL}; operator blows up"
        )
    return ws, denom


def pre_schwarzian_of(jet: Jet):
    """P h = h''/h' on a jet of order >= 2."""
    _nonzero_deriv(jet.hd[1], jet.h.name)
    return jet.hd[2] / jet.hd[1]


def schwarzian_order(h) -> int:
    """The jet order ``schwarzian_of`` reads: 0 where h has a closed form, else 3."""
    return 3 if getattr(h, "schwarzian_exact", None) is None else 0


def schwarzian_of(jet: Jet, pre: list | None = None):
    """S h on a jet of order ``schwarzian_order(h)`` or more.

    A caller that has formed h''/h' passes it as the one item of ``pre``,
    and S h reads it from there instead of forming it again.  It is popped
    from the list, so it is dropped once read when the caller keeps no
    other reference to it.
    """
    p = pre.pop() if pre else None
    exact = getattr(jet.h, "schwarzian_exact", None)
    if exact is not None:
        del p
        return exact(jet.z)
    _, d1, d2, d3 = jet.hd
    if p is None:
        _nonzero_deriv(d1, jet.h.name)
        p = d2 / d1
    q = 1.5 * p * p
    del p
    out = d3 / d1
    out -= q
    return out


def harmonic_pre_schwarzian_of(jet: Jet):
    """P_f on a harmonic jet of order >= 2."""
    _, h1, h2 = jet.hd[:3]
    _nonzero_deriv(h1, jet.h.name)
    (w, w1), denom = _omega_factor(jet, 1)
    return h2 / h1 - np.conj(w) * w1 / denom


def harmonic_schwarzian_of(jet: Jet):
    """S_f on a harmonic jet of order 3.

    S_f = (Sh + cw (w1 ph - w2)) - 1.5 (w1 cw)^2 with ph = h''/h' and
    cw = conj(w)/(1 - |w|^2), summed in that order in place.  ph is formed
    once: ``schwarzian_of`` reads it for Sh.  Each temporary is dropped
    after its last use, and every product keeps its operands in the order
    this expression gives them.
    """
    _, h1, h2 = jet.hd[:3]
    _nonzero_deriv(h1, jet.h.name)
    (w, w1, w2), denom = _omega_factor(jet, 2)
    cw = np.conj(w) / denom
    del denom
    ph = [h2 / h1]
    out = cw * (w1 * ph[0] - w2)
    out += schwarzian_of(jet, ph)
    u = w1 * cw
    del cw
    out -= 1.5 * u ** 2
    return out


def omega_star_of(jet: Jet):
    """|omega'|(1 - |z|^2)/(1 - |omega|^2) on a harmonic jet of order >= 2."""
    (w, w1), denom = _omega_factor(jet, 1)
    return np.abs(w1) * (1.0 - np.abs(jet.z) ** 2) / denom


# Points per slice of point_jet's sense-preserving test, so that g'/h' and the
# test's temporaries exist for one slice at a time.
_CHECK_POINTS = 4096


@dataclass(frozen=True)
class PointJet:
    """f and the distortion scales at z; a field that was not asked for is None."""

    value: object  # f(z) = h(z) + conj(g(z))
    R: object = None
    Q: object = None
    Rh: object = None
    h: object = None  # h(z)


def point_jet(f, z, reads=("R", "Q", "Rh")) -> PointJet:
    """One h.derivs and one g.derivs call at z, sense-preserving test included.

    ``reads`` names the fields to keep besides the value.  No more complex
    arrays of the points are alive at once than the four derivs gives:
    - each of h(z), g(z), h' and g' is dropped as soon as it has been
      read, h(z) being kept only when "h" is in reads.  The two arrays of
      one derivs call may share one buffer (a series map's are the rows of
      one ``series.horner`` output), which is freed only with the last
      reference to either: then g' stays alive, in g(z)'s buffer, for as
      long as f(z) does, and h' for as long as a kept h(z);
    - f(z) = h(z) + conj(g(z)) is built in g(z)'s buffer.  Conjugation
      and complex addition are exact componentwise, so it has the bits of
      that expression.  Where g(z) is not a complex array of its own (a
      scalar, or memory shared with z or another derivative, as the
      identity map returns z itself), f(z) is a new array;
    - the sense-preserving test reads g'/h' a slice of points at a time.
    The caller checks that z lies in the disc.
    """
    f = as_harmonic(f)
    z = np.asarray(z, dtype=complex)
    h0, h1 = f.h.derivs(z, 1)
    g0, g1 = f.g.derivs(z, 1)
    if (isinstance(g0, np.ndarray) and g0.dtype == complex and g0.flags.writeable
            and not any(np.may_share_memory(g0, x) for x in (z, h0, h1, g1))):
        value = np.conjugate(g0, out=g0)
        value += h0
    else:
        value = h0 + np.conj(g0)
    del g0
    h = h0 if "h" in reads else None
    del h0
    if np.ndim(h1):
        for i in range(0, len(h1), _CHECK_POINTS):
            f.check_dilatation(g1[i:i + _CHECK_POINTS] / h1[i:i + _CHECK_POINTS])
    else:
        f.check_dilatation(g1 / h1)
    ah, ag = np.abs(h1), np.abs(g1)
    del h1, g1
    w2 = 1.0 - np.abs(z) ** 2
    return PointJet(
        value=value,
        R=w2 * (ah - ag) if "R" in reads else None,
        Q=w2 * (ah + ag) if "Q" in reads else None,
        Rh=w2 * ah if "Rh" in reads else None,
        h=h,
    )
