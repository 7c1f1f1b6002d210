"""Truncated Taylor series with complex coefficients.

The computational stand-in for analytic functions: a finite coefficient
vector c_0..c_N together with a ``reliable_radius`` up to which the
truncation error is certified small (~1e-12 against the represented
function).
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import PrecisionError, SingularError

# Shrink factor applied to the reliable radius after composing with a disc
# automorphism: composition moves mass toward the boundary of the operand's
# certified region.
COMPOSE_RADIUS_FACTOR = 0.7

_TAIL_TARGET = 1e-12

# numpy's threshold for eliding temporaries, 256 KiB, counted in complex128
# points.  `for_each_block` cuts `horner`'s points, `norms.GridSuprema`'s grid
# and the verifier's pairs into blocks of at least this many points (unless
# one block holds them all), so that a formula rounds on a block as it does
# on the whole array (see norms.GridSuprema), and of fewer than twice as many.
_ELISION_POINTS = 256 * 1024 // 16


def _polyval(z, c):
    """numpy's ``polynomial.polyval`` recurrence, as one expression per step."""
    acc = c[-1] + z * 0
    for ck in c[-2::-1]:
        acc = ck + acc * z
    return acc


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def for_each_block(n: int, run) -> list:
    """run(lo, hi) of each block of range(n), in block order, on every CPU the process may use.

    range(n) is cut into ``max(1, n // _ELISION_POINTS)`` equal blocks, so
    each holds at least ``_ELISION_POINTS`` points and fewer than twice as
    many, unless it is the only block; n = 0 is one empty block, so there
    is always a result.  The blocks are dealt into interleaved shares, one
    per worker thread, the calling thread being one of them: one worker per
    block, up to the number of CPUs the process may use.  numpy releases
    the GIL inside each ufunc, so the shares run at once.  Workers run in a
    copy of the caller's context, which carries its ``np.errstate``.

    A share stops at its first block that raises.  Once every share has
    stopped, the error of the first failing block, in block order, is
    raised here.  Each share runs its blocks in order, so that block is
    always reached, and the error does not depend on the number of workers.

    ``run`` must write only what belongs to its own block, and return what
    it reduces the block to.  Then the results do not depend on the number
    of workers, because each block goes through the same calls on the same
    edges whichever thread runs it.

    Its users: ``horner``, ``norms.GridSuprema``'s grid scan, and the
    verifier's pair evaluation and point sampler.
    """
    blocks = max(1, n // _ELISION_POINTS)
    edges = [n * j // blocks for j in range(blocks + 1)]
    spans = list(enumerate(zip(edges, edges[1:])))
    results = [None] * blocks
    errors = {}  # block number: the error it raised

    def share(part):
        for j, (lo, hi) in part:
            try:
                results[j] = run(lo, hi)
            except Exception as exc:
                errors[j] = exc
                return

    workers = min(_cpus(), blocks)
    if workers < 2:
        share(spans)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(contextvars.copy_context().run, share, spans[k::workers])
                       for k in range(1, workers)]
            share(spans[::workers])
            for future in futures:
                future.result()
    if errors:
        raise errors[min(errors)]
    return results


def horner(z, coeff_arrays) -> list:
    """Evaluate each coefficient array c_0..c_N at z, with numpy polyval's bits.

    All the arrays run in one stacked pass.  The results are the rows of
    one (m, z.size) output, reshaped to z's shape, so they share one buffer:
    a row is freed only once every row of the call is dropped.  Row i runs
    array i's Horner recurrence, ``acc = c_N + z*0`` and then
    ``acc = c_k + acc*z`` for k = N-1 .. 0: the same roundings, in the same
    order, as numpy's ``polynomial.polyval``.  The rows start together, at
    their top coefficients, and a shorter array's row stops earlier; the
    rows are stored longest first, so each step runs in place on the rows
    still running, with one multiply by z and one add of a column of their
    coefficients.  The flattened z is cut into blocks by ``for_each_block``,
    each running the pass on its own columns of the output, so no step
    allocates, and the bits depend neither on the number of workers nor on
    how many arrays share the pass.

    A z of at most one point takes the polyval expression on the value as
    given.  numpy's scalar complex arithmetic and its array loop round
    differently, and so do its in-place and out-of-place products of a
    one-point array; so a scalar is never evaluated as a one-point array,
    and no block has a single point.
    """
    z = np.asarray(z, dtype=complex)
    if z.size <= 1 or not coeff_arrays:
        return [_polyval(z, c) for c in coeff_arrays]
    flat = z.ravel()
    rank = sorted(range(len(coeff_arrays)), key=lambda i: -len(coeff_arrays[i]))  # longest first
    lengths = [len(coeff_arrays[i]) for i in rank]
    steps = np.zeros((len(rank), lengths[0]), dtype=complex)  # row k: its c_N .. c_0
    for k, i in enumerate(rank):
        steps[k, : lengths[k]] = coeff_arrays[i][::-1]
    # the coefficients step s adds, one column of the rows still running
    columns = [steps[: sum(n > s for n in lengths), s : s + 1] for s in range(lengths[0])]
    out = np.empty((len(rank), flat.size), dtype=complex)

    def run(lo, hi):
        zz = flat[lo:hi]
        acc = out[:, lo:hi]
        np.multiply(zz, 0, out=acc)
        acc += columns[0]
        for col in columns[1:]:
            rows = acc[: len(col)]
            rows *= zz
            rows += col

    for_each_block(flat.size, run)
    return [out[rank.index(i)].reshape(z.shape) for i in range(len(rank))]


def reliable_radius_from_coeffs(coeffs: np.ndarray, cap: float = 0.95) -> float:
    """Radius where the last coefficients contribute below the tail target.

    A series whose trailing coefficients vanish is (numerically) a
    polynomial and is reliable on the whole disc.
    """
    n = len(coeffs) - 1
    tail = np.abs(coeffs[-5:]) if n >= 5 else np.abs(coeffs)
    m = float(tail.max(initial=0.0))
    if m < 1e-13:
        return 1.0
    r = float((_TAIL_TARGET / m) ** (1.0 / max(n, 1)))
    return min(cap, max(r, 0.05))


@dataclass(frozen=True)
class TaylorSeries:
    """Coefficients c_0..c_N and the radius where truncation is certified."""

    coefficients: np.ndarray
    reliable_radius: float = 0.95

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if c.ndim != 1 or len(c) < 2:
            c = np.concatenate([c.ravel(), np.zeros(max(0, 2 - c.size), complex)])
        object.__setattr__(self, "coefficients", c)
        if not 0.0 < self.reliable_radius <= 1.0:
            raise ValueError("reliable_radius must lie in (0, 1]")

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) > self.reliable_radius + 1e-15):
            raise PrecisionError(
                f"evaluation at |z| beyond reliable radius {self.reliable_radius:g}"
            )
        (out,) = horner(z, [self.coefficients])
        return out if np.ndim(out) else complex(out)


def _common(a: TaylorSeries, b: TaylorSeries) -> tuple[int, float]:
    return (
        max(a.truncation_order, b.truncation_order),
        min(a.reliable_radius, b.reliable_radius),
    )


def add(a: TaylorSeries, b: TaylorSeries) -> TaylorSeries:
    n, r = _common(a, b)
    ca = np.pad(a.coefficients, (0, n + 1 - len(a.coefficients)))
    cb = np.pad(b.coefficients, (0, n + 1 - len(b.coefficients)))
    return TaylorSeries(ca + cb, r)


def multiply(a: TaylorSeries, b: TaylorSeries) -> TaylorSeries:
    n, r = _common(a, b)
    c = P.polymul(a.coefficients, b.coefficients)[: n + 1]
    return TaylorSeries(c, r)


def reciprocal(a: TaylorSeries) -> TaylorSeries:
    """Power-series inverse 1/a, truncated at the operand's order."""
    c = a.coefficients
    if abs(c[0]) < 1e-14:
        raise SingularError("reciprocal of a series with vanishing constant term")
    n = a.truncation_order
    b = np.zeros(n + 1, dtype=complex)
    b[0] = 1.0 / c[0]
    for k in range(1, n + 1):
        top = min(k, len(c) - 1)
        b[k] = -np.dot(c[1 : top + 1], b[k - 1 :: -1][:top]) / c[0]
    return TaylorSeries(b, a.reliable_radius)


def differentiate(a: TaylorSeries) -> TaylorSeries:
    return TaylorSeries(P.polyder(a.coefficients), a.reliable_radius)


def integrate(a: TaylorSeries) -> TaylorSeries:
    """Antiderivative with value 0 at the origin."""
    return TaylorSeries(P.polyint(a.coefficients), a.reliable_radius)


def compose(outer: TaylorSeries, inner: TaylorSeries) -> TaylorSeries:
    """Polynomial composition outer(inner(z)), truncated at the common order."""
    n, r = _common(outer, inner)
    co = outer.coefficients
    acc = np.array([co[-1]], dtype=complex)
    for k in range(len(co) - 2, -1, -1):
        acc = P.polymul(acc, inner.coefficients)[: n + 1]
        acc = P.polyadd(acc, [co[k]])
    acc = np.pad(acc, (0, max(0, n + 1 - len(acc))))
    return TaylorSeries(acc[: n + 1], r)

