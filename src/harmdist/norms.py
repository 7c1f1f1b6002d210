"""Estimation of disc suprema: weighted operator norms, |omega| norms, orders.

Every named functional is a ``Functional``: a formula over an operators.Jet
of a stated order.  The grid-jet contract: a supremum evaluates the map's
jet once per block of a polar grid (one h.derivs call per block and, if a
formula reads omega, one g.derivs call per block), scans the formula on
it, and reduces the block's values to their maximum and its argmax.  The
blocks' reductions are combined in grid order, so no grid of values is
kept.  A scan raises the first error it meets, where a formula raises or
gives a non-finite value: that of the first failing block in grid order,
and within the block that of the first failing functional.  No grid of
points is kept either: each block makes its own points, and the grid
argmax its one point, from the rows of the polar grid they span
(``_grid_points``), with the bits ``polar_grid`` gives them.  The grid
argmax is then refined by a compass pattern search, ``_refine``.
``GridSuprema`` shares each block's jet among several functionals of the
same map, r_max and grid, runs the blocks on every CPU the process may use,
refines all their argmaxes in lockstep on one jet per step, and keeps each
estimate on the map, made harmonic, so that every later reader of the same
supremum gets it without a second grid pass.  It is the only grid scan and
the one entry for a supremum of a map: a norm is
``GridSuprema(f, (), r_max, grid).estimate(FN)`` for a named functional
FN below, the order is ``.order()``, and a criterion is
``criteria.verdict`` over it.  ``sup_weighted`` runs a bare pointwise
function of z through it as a functional of the identity map, and the
order of a map whose analytic part is not normalized is its estimate on
the renormalized map (``GridSuprema.order``).

Estimates are sampled lower estimates of the true supremum (sampling can
only under-estimate it, and nothing bounds the shortfall); the ``refined``
flag records that local refinement ran to convergence.  A NaN or infinite
functional value raises NonFiniteError instead of being skipped.

The grid always contains z = 0, and the argmax is selected
deterministically (ties broken by smallest |z|, then smallest argument,
then grid order), so results do not depend on evaluation order or on how
the grid is cut into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .analytic import Identity, koebe_transform
from .bounds import parameter
from .errors import NonFiniteError, NormalizationError, ParameterError
from .harmonic import as_harmonic
from .operators import (
    Jet,
    harmonic_pre_schwarzian_of,
    harmonic_schwarzian_of,
    omega_star_of,
    pre_schwarzian_of,
    schwarzian_of,
)
from .series import for_each_block

DEFAULT_R_MAX = 0.999
DEFAULT_GRID = (64, 256)

# Pattern-search refinement policy.
REFINE_ITERS = 30
REFINE_CONTRACTION = 0.5
REFINE_CONVERGED_STEP = 1e-4


@dataclass(frozen=True)
class NormEstimate:
    """A sampled-and-refined lower estimate of a disc supremum."""

    value: float
    kind: str
    r_max: float
    grid: tuple[int, int]
    refined: bool
    argmax_point: complex

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class OrderEstimate:
    """Estimated order of a (normalized) linearly invariant map."""

    alpha: float
    argmax_point: complex
    normalized: bool


def polar_grid(r_max: float, nr: int, ntheta: int) -> np.ndarray:
    """Polar grid including the origin, radii clustered toward r_max."""
    return _grid_points(r_max, nr, ntheta, 0, nr * ntheta + 1)


def _grid_points(r_max: float, nr: int, ntheta: int, lo: int, hi: int) -> np.ndarray:
    """Points lo:hi of ``polar_grid(r_max, nr, ntheta)``, made from the rows they span.

    Point 0 is z = 0, and point 1 + i * ntheta + j is row i, column j of
    ``np.outer(radii, exp(1j * theta))``.  The points are sliced from that
    outer product over the rows lo:hi spans, so each is the same array
    product as in the whole grid, with the same bits, which a product of
    numpy scalars need not have.  radii and theta are computed whole, as
    ``polar_grid`` computes them.
    """
    i = np.arange(1, nr + 1)
    radii = r_max * np.sin(0.5 * np.pi * i / nr)
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
    first, last = max(lo, 1) - 1, max(hi, 1) - 1  # positions in the outer product
    row = first // max(ntheta, 1)
    z = np.outer(radii[row : -(-last // max(ntheta, 1))], np.exp(1j * theta)).ravel()
    z = z[first - row * ntheta : last - row * ntheta]
    return np.concatenate([[0.0 + 0.0j], z]) if lo == 0 < hi else z


def _require_finite(z: np.ndarray, v: np.ndarray, kind: str) -> None:
    bad = np.flatnonzero(~np.isfinite(v))
    if len(bad):
        k = bad[0]
        raise NonFiniteError(f"{kind}: functional value {v[k]} at z = {complex(z[k])}")


def _least_key(z: np.ndarray) -> int:
    """The position of the point of z first by (|z| to 15 decimals, argument in [0, 2 pi), position)."""
    r = np.round(np.abs(z), 15)
    near = np.flatnonzero(r == r.min())
    if len(near) == 1:
        return int(near[0])
    return int(near[np.argmin(np.mod(np.angle(z[near]), 2.0 * np.pi))])


def _peak(z: np.ndarray, v, kind: str, lo: int):
    """What an estimate reads of the values v at the points z, which start at grid index lo.

    That is the maximum and the grid index of its point first by
    ``_least_key``.  A non-finite value raises the NonFiniteError of the
    first.
    """
    v = np.asarray(v, dtype=float)
    _require_finite(z, v, kind)
    top = v.max()
    at = np.flatnonzero(v == top)
    return float(top), lo + int(at[_least_key(z[at])])


def _grid_peak(points, peaks):
    """The grid maximum and argmax from the ``_peak`` of each block, in grid order.

    The key of ``_least_key`` is a total order, so the least of the blocks'
    argmaxes is the whole grid's.  ``points(lo, hi)`` gives the grid's
    points lo:hi.
    """
    top = max(t for t, _ in peaks)
    at = [i for t, i in peaks if t == top]
    return top, at[_least_key(np.concatenate([points(i, i + 1) for i in at]))]


_COMPASS = np.array([1, -1, 1j, -1j])


def _refine(starts, values, r_max: float) -> list:
    """Compass maximizations within |z| <= r_max, all in lockstep.

    ``starts`` holds per search a (kind, z0, step).  Each of the
    REFINE_ITERS + 1 steps evaluates the points of every search with one
    call ``values(z, spans)``: z is their points end to end, spans holds
    (lo, hi) per search, in the order of ``starts``, and the call yields per
    span, in that order, the float values at z[lo:hi].  A search evaluates
    z0 first, then four compass points a step away from its best point, and
    halves the step when none of them is higher.  It returns per search
    (best z, its value, converged).  An error that ``values`` raises
    propagates, and a non-finite value raises NonFiniteError; as the values
    are read in search order, the error is the first failing search's.
    """
    best = [(complex(z0), None) for _, z0, _ in starts]
    steps = [step for _, _, step in starts]
    for it in range(REFINE_ITERS + 1):
        points = []
        for (z0, _), step in zip(best, steps):
            if it == 0:
                points.append(np.array([z0]))
                continue
            cand = z0 + step * _COMPASS
            mod = np.maximum(np.abs(cand), 1e-300)
            points.append(np.where(mod >= r_max, cand / mod * r_max, cand))
        edges = np.cumsum([0] + [len(p) for p in points]).tolist()
        spans = list(zip(edges, edges[1:]))
        for k, (start, cand, vals) in enumerate(zip(starts, points,
                                                    values(np.concatenate(points), spans))):
            _require_finite(cand, vals, start[0])
            if it == 0:
                best[k] = (best[k][0], float(vals[0]))
            else:
                i = int(np.argmax(vals))
                if vals[i] > best[k][1]:
                    best[k] = (complex(cand[i]), float(vals[i]))
                else:
                    steps[k] *= REFINE_CONTRACTION
    return [(*b, step < REFINE_CONVERGED_STEP) for b, step in zip(best, steps)]


def _estimates(points, peaks, kinds, values, r_max, grid) -> list:
    """Per functional, its NormEstimate from its block peaks.

    ``peaks`` holds per functional the ``_peak`` of each block of the polar
    grid, in grid order, and ``points(lo, hi)`` gives the grid's points
    lo:hi.  The grid argmaxes of all the functionals are refined together by
    ``_refine``, which evaluates them through ``values``; search k of
    ``_refine`` is functional k.
    """
    nr, ntheta = grid
    tops = [_grid_peak(points, blocks) for blocks in peaks]
    starts = []
    for kind, (_, i) in zip(kinds, tops):
        bz = complex(points(i, i + 1)[0])
        # initial step = local grid spacing near the argmax
        starts.append((kind, bz, max(r_max / nr, 2.0 * np.pi * max(abs(bz), r_max / nr) / ntheta)))
    out = []
    for (kind, bz, _), (top, _), (rz, rv, converged) in zip(starts, tops,
                                                           _refine(starts, values, r_max)):
        best_z, best_v = (rz, rv) if rv > top else (bz, top)  # refinement may only improve it
        out.append(NormEstimate(best_v, kind, r_max, (nr, ntheta), converged, best_z))
    return out


# No command runs this; bench/spans.instrument reads it with no fallback.
def sup_weighted(
    func: Callable[[np.ndarray], np.ndarray],
    kind: str = "functional",
    r_max: float = DEFAULT_R_MAX,
    grid: tuple[int, int] = DEFAULT_GRID,
) -> NormEstimate:
    """Sampled supremum of a pointwise function of z over |z| <= r_max, for 0 < r_max < 1.

    ``GridSuprema`` estimates func as a functional of the identity map, so
    func runs on one block of the grid at a time, possibly on several
    threads at once, and must be thread-safe.  As for every supremum, an
    r_max of 1 raises DomainError, and an r_max that is NaN or at most 0,
    or a grid count that is not a positive integer, ParameterError.
    """
    fn = Functional(kind, lambda jet: func(jet.z), 0)
    return GridSuprema(Identity(), [fn], r_max, grid).estimate(fn)


# ---------------------------------------------------------------------------
# Named pointwise functionals: formulas over a jet.

@dataclass(frozen=True)
class Functional:
    """A real pointwise functional: ``formula`` over a Jet of ``order``."""

    kind: str
    formula: Callable[[Jet], np.ndarray]
    order: int


def _pre_schwarzian_weighted(jet, with_z=False):
    p = np.abs(pre_schwarzian_of(jet))
    w = 1.0 - np.abs(jet.z) ** 2
    return w * (np.abs(jet.z) * p if with_z else p)


def _becker_harmonic(jet):
    """(1-|z|^2)|z P_f| + |z omega'|(1-|z|^2)/(1-|omega|^2).

    P_f is formed before the weight, so that its temporaries and the
    weight are not alive at once.
    """
    z = jet.z
    p = harmonic_pre_schwarzian_of(jet)
    w2 = 1.0 - np.abs(z) ** 2
    out = w2 * np.abs(z * p)
    del p
    w, w1 = jet.omega[:2]
    denom = 1.0 - np.abs(w) ** 2
    out += np.abs(z * w1) * w2 / denom
    return out


PRE_SCHWARZIAN = Functional("pre_schwarzian_norm", _pre_schwarzian_weighted, 2)
PRE_SCHWARZIAN_Z = Functional(
    "pre_schwarzian_norm", partial(_pre_schwarzian_weighted, with_z=True), 2
)
SCHWARZIAN = Functional(
    "schwarzian_norm",
    lambda jet: (1.0 - np.abs(jet.z) ** 2) ** 2 * np.abs(schwarzian_of(jet)), 3,
)
# |S_f| is formed before its weight, as the weight would stay alive through
# S_f's temporaries; a product of two float64 arrays is commutative bit for bit.
HARMONIC_SCHWARZIAN = Functional(
    "schwarzian_norm",
    lambda jet: np.abs(harmonic_schwarzian_of(jet)) * (1.0 - np.abs(jet.z) ** 2) ** 2, 3,
)
OMEGA_ABS = Functional("omega_inf", lambda jet: np.abs(jet.omega[0]), 1)
OMEGA_STAR = Functional("omega_star", omega_star_of, 2)
BECKER_HARMONIC = Functional("becker_functional", _becker_harmonic, 2)
# |(1/2)(1-|z|^2) P phi(z) - conj(z)|, whose supremum is the order.
ORDER = Functional(
    "order",
    lambda jet: np.abs(
        0.5 * (1.0 - np.abs(jet.z) ** 2) * pre_schwarzian_of(jet) - np.conj(jet.z)
    ),
    2,
)
# -Re(1 + z h''/h'): its supremum is minus the infimum that decides convexity.
CONVEXITY = Functional(
    "convexity", lambda jet: -np.real(1.0 + jet.z * pre_schwarzian_of(jet)), 2
)


class GridSuprema:
    """Suprema of functionals of one map over one polar grid.

    Any map is accepted: it is made harmonic once (``as_harmonic``), and
    ``self.f`` is that harmonic map.  It keeps each estimate made of it in
    ``f.estimates``, per (functional, r_max, grid), so that every gate,
    prepare step, norm and report that asks for a supremum reads the one
    estimate.  The map keeps estimates, never grid values; an analytic map
    is wrapped afresh each time, so its estimates last as long as the
    object.  An r_max that is NaN or at most 0, or a grid that is not two
    positive integer counts, raises ParameterError before any point is
    evaluated; an r_max of 1 or more raises DomainError, and one beyond the
    map's reliable radius PrecisionError, when the grid is evaluated.  Every
    functional is read at the r_max it is given: the caller caps it.

    When the object is made, it estimates each of its functionals that the
    map has no estimate of.  The grid is cut by ``series.for_each_block``
    into equal blocks of 16384 to 32767 points (or one block, for a smaller
    grid), one worker per block up to the CPUs the process may use.  No
    array of the grid's points is made: each block computes its own points
    from its index range, and each argmax lookup its one point, through
    ``_grid_points``, with the bits ``polar_grid`` gives them.  Each block
    gets one jet, to the highest order the functionals read, and the worker
    reduces each formula's values on the block to their ``_peak``, the
    maximum and its argmax.  The peaks are combined in grid order, so no
    grid of values is kept.  Then the grid argmaxes are refined in lockstep
    by ``_refine``: each step builds one jet over the candidates of every
    search, and each formula reads its own points through a ``Jet.view``.
    Any other functional is estimated on a grid of its own when it is
    asked for.

    The values have the bits a single jet over the whole grid gives, because
    no block is smaller than 16384 points unless it is the whole grid.
    numpy evaluates ``a * (b - d)`` as an in-place ``(b - d) *= a`` when the
    temporary is at least 256 KiB (16384 complex points), and a complex
    product is not bitwise commutative; so a formula rounds differently on
    a block below that size than on a grid above it.  The block rule keeps
    every block at 16384 points or more, and a smaller grid is one block.
    Below that size a point's bits do not depend on the length of its
    array, so a search reads the values it would read on a jet of its own
    candidates.

    Making the object raises the first error its scan meets: that of the
    first failing block in grid order, on any number of CPUs
    (``for_each_block``), and within a block that of the first functional,
    in the order given, whose jet or formula raises or gives a non-finite
    value (NonFiniteError).  An error in refinement is raised likewise, the
    first failing search's.  A failed scan keeps no estimate on the map.
    """

    def __init__(self, f, functionals=(), r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
        if not r_max > 0.0:  # also true for NaN
            raise ParameterError(f"r_max must lie in (0, 1), got {r_max}")
        if len(grid) != 2 or not all(isinstance(n, (int, np.integer)) and n > 0 for n in grid):
            raise ParameterError(f"grid must be two positive integer counts, got {grid}")
        self.f = f = as_harmonic(f)
        self.r_max = r_max
        self.grid = tuple(grid)
        self._memo = f.estimates
        scanned = [fn for fn in functionals if self._key(fn) not in self._memo]
        if not scanned:
            return
        points = partial(_grid_points, r_max, *self.grid)
        order = max(fn.order for fn in scanned)

        def scan(lo, hi):
            jet = Jet(f, points(lo, hi), order)
            return [_peak(jet.z, fn.formula(jet), fn.kind, lo) for fn in scanned]

        n = self.grid[0] * self.grid[1] + 1
        peaks = list(zip(*for_each_block(n, scan)))  # per functional, per block

        def values(points, spans):  # lazily, so a search's error comes before the next's
            jet = Jet(f, points, order)
            return (np.asarray(fn.formula(jet.view(lo, hi)), dtype=float)
                    for fn, (lo, hi) in zip(scanned, spans))

        kinds = [fn.kind for fn in scanned]
        for fn, est in zip(scanned, _estimates(points, peaks, kinds, values, r_max, self.grid)):
            self._memo[self._key(fn)] = est

    def _key(self, fn: Functional):
        return fn, self.r_max, self.grid

    def estimate(self, fn: Functional) -> NormEstimate:
        """The map's estimate of ``fn`` over this grid, made now if it has none."""
        if self._key(fn) not in self._memo:
            GridSuprema(self.f, [fn], self.r_max, self.grid)
        return self._memo[self._key(fn)]

    def order(self) -> OrderEstimate:
        """The order of the analytic part h: the ORDER estimate of h, if h is normalized.

        Otherwise it is the ORDER estimate of koebe_transform(h, 0), made on
        a grid of its own, and a failure to renormalize h raises
        NormalizationError.
        """
        h = self.f.h
        normalized = bool(h.is_normalized())
        sups = self
        if not normalized:
            try:
                phi = koebe_transform(h, 0.0)
            except Exception as exc:
                raise NormalizationError(f"cannot renormalize {h.name}: {exc}") from exc
            sups = GridSuprema(phi, (), self.r_max, self.grid)
        est = sups.estimate(ORDER)
        return OrderEstimate(est.value, est.argmax_point, normalized)


# ---------------------------------------------------------------------------
# A bound parameter read from a map's estimates.

def beta_lambda(beta: float | None, sups: GridSuprema) -> float:
    """beta_lambda = min(2, beta + ||omega*||), the order of h + lambda g (beta None: default).

    ||omega*|| is the OMEGA_STAR estimate of ``sups``: of its map, over its grid.
    """
    return min(2.0, parameter("beta", beta) + sups.estimate(OMEGA_STAR).value)
