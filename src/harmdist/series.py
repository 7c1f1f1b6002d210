"""Truncated Taylor series with complex coefficients.

The computational stand-in for analytic functions: a finite coefficient
vector c_0..c_N together with a ``reliable_radius`` up to which the
truncation error is certified small (~1e-12 against the represented
function).

The coefficient algebra (``multiply``, ``differentiate``, ``integrate``,
``compose`` and ``derivative_coefficients``) runs numpy.polynomial's own
steps on plain numpy, with its bits: ``np.convolve`` between its trims of
trailing zeros, and its ``j * c[j]`` and ``c[j] / (j + 1)`` loops.  So no
command loads numpy.polynomial, whose import costs about 0.8 MB and 2 ms
a process; the tests compare each function with it byte for byte.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError, SingularError

# Shrink factor applied to the reliable radius after composing with a disc
# automorphism: composition moves mass toward the boundary of the operand's
# certified region.
COMPOSE_RADIUS_FACTOR = 0.7

_TAIL_TARGET = 1e-12

# numpy's threshold for eliding temporaries, 256 KiB, counted in complex128
# points.  `for_each_block` cuts `norms.GridSuprema`'s grid and the verifier's
# pairs into blocks of at least this many points (unless one block holds them
# all), so that a formula rounds on a block as it does on the whole array (see
# norms.GridSuprema), and of fewer than twice as many.
_ELISION_POINTS = 256 * 1024 // 16


def _polyval(z, c):
    """numpy's ``polynomial.polyval`` recurrence, as one expression per step."""
    acc = c[-1] + z * 0
    for ck in c[-2::-1]:
        acc = ck + acc * z
    return acc


def _trim(c):
    """c without its trailing zeros, but never shorter than c[:1]: numpy.polynomial's trimseq."""
    nonzero = np.flatnonzero(c)
    return c[: nonzero[-1] + 1] if nonzero.size else c[:1]


def _polymul(a, b):
    """numpy.polynomial's polymul: the convolution of the trimmed arrays, trimmed."""
    return _trim(np.convolve(_trim(a), _trim(b)))


def derivative_coefficients(c) -> np.ndarray:
    """numpy.polynomial's polyder of the coefficients c_0..c_N: j * c_j for j = 1..N.

    Like polyder it scales a copy by 1 first, which can flip the sign of a
    zero part, and a single coefficient gives c_0 * 0.
    """
    c = np.array(c, dtype=complex, ndmin=1)
    if len(c) == 1:
        return c[:1] * 0
    c *= 1
    der = np.empty(len(c) - 1, dtype=complex)
    for j in range(len(c) - 1, 0, -1):
        der[j - 1] = j * c[j]
    return der


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

    Its users: ``norms.GridSuprema``'s grid scan, and the verifier's pair
    evaluation and point sampler.
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
    coefficients.  The pass runs over z's points as given, on the caller's
    thread, so no step allocates, and the bits do not depend on how many
    arrays share the pass.

    A z of at most one point takes the polyval expression on the value as
    given.  numpy's scalar complex arithmetic and its array loop round
    differently, and so do its in-place and out-of-place products of a
    one-point array; so a scalar is never evaluated as a one-point array.
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
    np.multiply(flat, 0, out=out)
    out += columns[0]
    for col in columns[1:]:
        rows = out[: len(col)]
        rows *= flat
        rows += col
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
    return TaylorSeries(_polymul(a.coefficients, b.coefficients)[: n + 1], r)


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
    return TaylorSeries(derivative_coefficients(a.coefficients), a.reliable_radius)


def integrate(a: TaylorSeries) -> TaylorSeries:
    """Antiderivative with value 0 at the origin, by numpy.polynomial's polyint steps.

    The copy is scaled by 1, c_0 * 0 is the constant term, and the
    antiderivative's value at 0, evaluated by polyval's recurrence, is
    subtracted from it: each step can move the sign of a zero, or carry a
    non-finite coefficient into the constant term.
    """
    c = a.coefficients.copy()  # at least two coefficients
    c *= 1
    out = np.empty(len(c) + 1, dtype=complex)
    out[0] = c[0] * 0
    out[1] = c[0]
    for j in range(1, len(c)):
        out[j + 1] = c[j] / (j + 1)
    out[0] += 0 - _polyval(0, out)
    return TaylorSeries(out, a.reliable_radius)


def compose(outer: TaylorSeries, inner: TaylorSeries) -> TaylorSeries:
    """Polynomial composition outer(inner(z)), truncated at the common order."""
    n, r = _common(outer, inner)
    co = outer.coefficients
    acc = np.array([co[-1]], dtype=complex)
    for k in range(len(co) - 2, -1, -1):
        # numpy.polynomial's polyadd of [c_k]: c_k added to the trimmed
        # product's constant term, which leaves its top coefficient as it is
        acc = _trim(_polymul(acc, inner.coefficients)[: n + 1])
        acc[:1] += co[k]
    acc = np.pad(acc, (0, max(0, n + 1 - len(acc))))
    return TaylorSeries(acc[: n + 1], r)

