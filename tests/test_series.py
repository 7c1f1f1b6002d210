"""Truncated Taylor series arithmetic, against numpy polynomial evaluation."""

import contextvars
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as P
from numpy.polynomial.polynomial import polyval

from harmdist import series as ts
from harmdist.analytic import SeriesMap
from harmdist.descriptors import parse_descriptor
from harmdist.errors import DomainError, PrecisionError, SingularError
from harmdist.series import _ELISION_POINTS as K
from harmdist.series import TaylorSeries, horner

coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=12,
)


def _mk(coeffs, r=0.9):
    return TaylorSeries(np.asarray(coeffs, dtype=complex), r)


def test_evaluation_matches_horner():
    s = _mk([1.0, 2.0, 3.0])
    z = 0.1 + 0.2j
    assert s(z) == pytest.approx(1.0 + 2.0 * z + 3.0 * z * z)


def test_beyond_reliable_radius_raises():
    s = _mk([0.0, 1.0], r=0.5)
    with pytest.raises(PrecisionError):
        s(0.6)


@given(a=coeff_lists, b=coeff_lists)
@settings(max_examples=100, deadline=None)
def test_add_and_multiply_pointwise(a, b):
    sa, sb = _mk(a), _mk(b)
    z = np.array([0.1, -0.2 + 0.1j, 0.3j])
    np.testing.assert_allclose(
        ts.add(sa, sb)(z), sa(z) + sb(z), rtol=1e-12, atol=1e-12
    )
    # product truncated at the common order: compare against the truncated
    # coefficient convolution evaluated directly
    prod = ts.multiply(sa, sb)
    full = np.polynomial.polynomial.polymul(sa.coefficients, sb.coefficients)
    ref = np.polynomial.polynomial.polyval(z, full[: prod.truncation_order + 1])
    np.testing.assert_allclose(prod(z), ref, rtol=1e-12, atol=1e-12)


def test_reciprocal_is_multiplicative_inverse():
    s = _mk([2.0, -0.5, 0.25, 0.1, 0.0, 0.0, 0.0, 0.0])
    inv = ts.reciprocal(s)
    prod = ts.multiply(s, inv)
    want = np.zeros(prod.truncation_order + 1, dtype=complex)
    want[0] = 1.0
    np.testing.assert_allclose(prod.coefficients, want, atol=1e-12)


def test_reciprocal_of_vanishing_constant_raises():
    with pytest.raises(SingularError):
        ts.reciprocal(_mk([0.0, 1.0]))


def test_differentiate_integrate_roundtrip():
    s = _mk([0.0, 1.0, 0.5, -0.2, 0.1])
    back = ts.integrate(ts.differentiate(s))
    np.testing.assert_allclose(back.coefficients, s.coefficients, atol=1e-14)


def test_compose_matches_direct_evaluation():
    outer = _mk([1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0])  # partial geometric sum
    inner = _mk([0.0, 0.3, 0.1, 0, 0, 0, 0, 0, 0, 0])
    comp = ts.compose(outer, inner)
    z = np.array([0.05, 0.1j, -0.08 + 0.04j])
    # inner(z) stays tiny, so truncation error is negligible
    np.testing.assert_allclose(comp(z), outer(inner(z)), rtol=1e-10, atol=1e-12)


# --- the coefficient algebra: numpy.polynomial's steps, with its bits ---

def _coefficients(length: int, kind: str, seed: int) -> np.ndarray:
    """Random complex coefficients; "trailing" zeroes the top half, "zeros" scatters
    zeros and negative zeros through them, "nonfinite" puts an inf and a NaN in."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    if kind == "trailing":
        c[(length + 1) // 2:] = 0.0
    elif kind == "zeros":
        c.real[rng.random(length) < 0.3] = -0.0
        c.imag[rng.random(length) < 0.3] = -0.0
        c[rng.random(length) < 0.3] = 0.0
    elif kind == "nonfinite":
        c[rng.integers(length)] = complex(np.inf, np.nan)
    return c


def _same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _polynomial_compose(outer, inner):
    """compose's coefficients as they were computed with numpy.polynomial."""
    n = max(outer.truncation_order, inner.truncation_order)
    co = outer.coefficients
    acc = np.array([co[-1]], dtype=complex)
    for k in range(len(co) - 2, -1, -1):
        acc = P.polymul(acc, inner.coefficients)[: n + 1]
        acc = P.polyadd(acc, [co[k]])
    return np.pad(acc, (0, max(0, n + 1 - len(acc))))[: n + 1]


ALGEBRA_LENGTHS = [1, 2, 5, 40, 121]
ALGEBRA_KINDS = ["random", "trailing", "zeros", "nonfinite"]


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
@pytest.mark.parametrize("length", ALGEBRA_LENGTHS)
def test_the_coefficient_algebra_has_numpy_polynomials_bits(length, kind):
    for seed in range(4):
        a = _mk(_coefficients(length, kind, seed))
        b = _mk(_coefficients(ALGEBRA_LENGTHS[seed], kind, 100 + seed))
        n = max(a.truncation_order, b.truncation_order)
        assert _same_bytes(ts.multiply(a, b).coefficients,
                           _mk(P.polymul(a.coefficients, b.coefficients)[: n + 1]).coefficients)
        assert _same_bytes(ts.differentiate(a).coefficients, _mk(P.polyder(a.coefficients)).coefficients)
        assert _same_bytes(ts.integrate(a).coefficients, _mk(P.polyint(a.coefficients)).coefficients)
        raw = _coefficients(length, kind, seed)
        assert _same_bytes(ts.derivative_coefficients(raw), P.polyder(raw))


@pytest.mark.parametrize("kind", ["random", "trailing", "zeros"])
@pytest.mark.parametrize("length", ALGEBRA_LENGTHS)
def test_compose_has_numpy_polynomials_bits(length, kind):
    for seed in range(3):
        outer = _mk(0.5 * _coefficients(length, kind, seed))
        inner = _mk(0.3 * _coefficients(ALGEBRA_LENGTHS[seed + 1], kind, 100 + seed))
        assert _same_bytes(ts.compose(outer, inner).coefficients, _polynomial_compose(outer, inner))


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
@pytest.mark.parametrize("length", ALGEBRA_LENGTHS)
def test_series_map_derivative_coefficients_are_numpy_polynomials(length, kind):
    m = SeriesMap(_mk(_coefficients(length, kind, 7)))
    want = [m.series.coefficients]
    for _ in range(3):
        want.append(P.polyder(want[-1]))
    assert len(m._dcoeffs) == 4
    assert all(_same_bytes(got, w) for got, w in zip(m._dcoeffs, want))


def test_reliable_radius_policy():
    # numerically polynomial -> whole disc
    c = np.zeros(40, dtype=complex)
    c[1] = 1.0
    assert ts.reliable_radius_from_coeffs(c) == 1.0
    # geometric-type tails give a radius strictly inside
    r = ts.reliable_radius_from_coeffs(np.ones(41, dtype=complex))
    assert 0.05 <= r <= 0.95


# --- the chunked Horner evaluator, bit for bit against numpy's polyval -------

SHEAR = parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}}).g


def _points(shape, seed=0, r=0.7):
    rng = np.random.default_rng(seed)
    return (r * np.sqrt(rng.uniform(0.0, 1.0, shape))
            * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, shape)))


def assert_same_bits(z, coeff_arrays):
    got = horner(z, coeff_arrays)
    assert len(got) == len(coeff_arrays)
    for c, value in zip(coeff_arrays, got):
        want = polyval(np.asarray(z, dtype=complex), c)
        assert type(value) is type(want)
        assert np.shape(value) == np.shape(want)
        assert np.asarray(value).tobytes() == np.asarray(want).tobytes()


# K - 1 to K + 1 and 2K - 1 to 2K + 1 are the edges of the one- and
# two-block calls; 3K + 7 and 6K + 7 are three and six blocks.
@pytest.mark.parametrize("n", [0, 1, 2, K - 1, K, K + 1, 2 * K - 1, 2 * K, 2 * K + 1,
                               3 * K + 7, 6 * K + 7])
def test_horner_matches_polyval_at_block_edges(n):
    assert_same_bits(_points(n, seed=n), SHEAR._dcoeffs)


@pytest.mark.parametrize("length", [1, 2, 122])
def test_horner_matches_polyval_for_each_coefficient_length(length):
    c = _points(length, seed=length, r=2.0)
    assert_same_bits(_points(K + 3), [c])


@pytest.mark.parametrize("z", [0.3 - 0.2j, -0.0, np.complex128(0.5j),
                               np.asarray(0.1 + 0.6j)], ids=repr)
def test_horner_keeps_scalar_arithmetic_at_a_point(z):
    assert_same_bits(z, SHEAR._dcoeffs)


def test_horner_keeps_the_shape_of_a_grid():
    z = _points((37, 1000)).T  # 2-D and not contiguous
    assert_same_bits(z, SHEAR._dcoeffs)


def test_horner_matches_polyval_on_special_values():
    z = np.array([0.0, -0.0, complex(-0.0, -0.0), np.nan, np.inf, complex(-np.inf, 1.0),
                  1e300, -1.5, 5e-324j] * 3)
    coeffs = [np.array([complex(-0.0, -0.0)]), np.zeros(4, complex),
              np.array([1.0, -0.0, complex(-0.0, 2.0)])]
    with np.errstate(all="ignore"):
        assert_same_bits(z, coeffs)
        assert_same_bits(z[:1], coeffs)


@given(
    c=st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                  allow_infinity=False), min_size=1, max_size=40),
    z=hnp.arrays(complex, hnp.array_shapes(min_dims=0, max_dims=3, max_side=9),
                 elements=st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                             allow_infinity=False)),
)
@settings(max_examples=200, deadline=None)
def test_horner_matches_polyval_property(c, z):
    coeffs = np.asarray(c, dtype=complex)
    assert_same_bits(z, [coeffs, coeffs[::-1]])


# --- one pass on the caller's thread: same bits, caller's error state --------

def _fan_out(monkeypatch, cpus):
    """Pretend the process may use ``cpus`` CPUs; count the workers started."""
    monkeypatch.setattr(ts, "_cpus", lambda: cpus)
    copies = []
    copy_context = contextvars.copy_context

    def counted():
        copies.append(1)
        return copy_context()

    monkeypatch.setattr(contextvars, "copy_context", counted)
    return copies


@pytest.mark.parametrize("cpus, n", [
    (2, 2 * K - 1),  # one point fewer than for_each_block's smallest fan-out
    (2, 2 * K),  # two of for_each_block's blocks
    (3, 7 * K),  # seven
    (4, 3 * K),  # three, fewer than the CPUs
])
def test_horner_starts_no_worker_at_any_size(monkeypatch, cpus, n):
    copies = _fan_out(monkeypatch, cpus)
    assert_same_bits(_points(n, seed=n // K), SHEAR._dcoeffs[:2])
    assert not copies


# Coefficient lengths of up to four arrays evaluated in one call.
STACKS = {"mixed": (122, 3, 40, 1), "equal": (9, 9, 9, 9), "unsorted": (2, 121, 5, 122)}


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 37, K - 1, K, K + 1, 3 * K + 5])
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_horner_runs_every_array_in_one_stacked_pass_with_polyval_bits(monkeypatch, stack,
                                                                       n, cpus):
    """m = 0 to 4 arrays: each result has polyval's bits and is a row of one (m, n) output."""
    _fan_out(monkeypatch, cpus)
    z = _points(n, seed=n)
    for m in range(5):
        coeffs = [_points(length, seed=length + k, r=2.0)
                  for k, length in enumerate(STACKS[stack][:m])]
        got = horner(z, coeffs)
        assert len(got) == m
        for c, value in zip(coeffs, got):
            assert value.tobytes() == polyval(z, c).tobytes()
        if m:
            assert got[0].base.shape == (m, n)
            assert all(value.base is got[0].base for value in got)


def test_horner_starts_no_worker_on_a_strided_grid(monkeypatch):
    copies = _fan_out(monkeypatch, 2)
    z = _points((3 * K // 1000 + 2, 1000)).T  # 2-D, not contiguous, over 3K points
    assert not z.flags.c_contiguous
    assert_same_bits(z, SHEAR._dcoeffs[:2])
    assert not copies


def _overflowing(block, blocks=4):
    """Points that overflow the series in one block of ``blocks`` only."""
    z = _points(blocks * K, seed=block)
    z[block * K + K // 2] = 1e200
    return z


@pytest.mark.parametrize("block", range(4))
def test_horner_threads_raise_under_the_callers_errstate(monkeypatch, block):
    _fan_out(monkeypatch, 2)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        horner(_overflowing(block), [SHEAR.series.coefficients])


@pytest.mark.parametrize("block", range(4))
def test_horner_threads_stay_silent_under_the_callers_errstate(monkeypatch, block):
    _fan_out(monkeypatch, 2)
    z = _overflowing(block)
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        assert_same_bits(z, [SHEAR.series.coefficients])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_horner_is_reentrant_across_caller_threads(monkeypatch):
    _fan_out(monkeypatch, 2)
    coeffs = SHEAR._dcoeffs[:2]
    inputs = [_points(3 * K + 1 + i, seed=i) for i in range(4)]
    results = [None] * len(inputs)

    def call(i):
        results[i] = horner(inputs[i], coeffs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for z, got in zip(inputs, results):
        assert got is not None
        for c, value in zip(coeffs, got):
            assert value.tobytes() == polyval(z, c).tobytes()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_for_each_block_raises_the_first_failing_blocks_error(monkeypatch, cpus):
    """Blocks 1 and 3 of 6 raise: block 1's error, on a worker or not, whatever runs first."""
    _fan_out(monkeypatch, cpus)
    ran = []  # list.append is atomic, unlike += across threads

    def run(lo, hi):
        ran.append(lo // K)
        if lo // K in (1, 3):
            raise SingularError(f"block {lo // K}")

    with pytest.raises(SingularError, match="^block 1$"):
        ts.for_each_block(6 * K, run)
    assert 1 in ran and set(ran) <= set(range(6))


@given(n=st.integers(0, 2_000_000), cpus=st.integers(1, 4))
@example(n=2 * K, cpus=1)
@example(n=3 * K, cpus=2)
@settings(max_examples=100, deadline=None)
def test_for_each_block_cuts_blocks_of_the_elision_floor_one_worker_each(n, cpus):
    """The blocks cover range(n) in order, each of K to 2K - 1 points unless it
    is the only one, and a worker runs per block, up to the CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        copies = _fan_out(mp, cpus)
        spans = ts.for_each_block(n, lambda lo, hi: (lo, hi))
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
    sizes = [hi - lo for lo, hi in spans]
    assert len(spans) == 1 or min(sizes) >= K
    assert max(sizes) < 2 * K
    assert len(copies) == min(cpus, len(spans)) - 1


def test_for_each_block_runs_no_points_as_one_empty_block():
    spans = []
    ts.for_each_block(0, lambda lo, hi: spans.append((lo, hi)))
    assert spans == [(0, 0)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_for_each_block_returns_each_blocks_result_in_block_order(monkeypatch, cpus):
    _fan_out(monkeypatch, cpus)
    n = 8 * K - 3
    edges = [n * j // 7 for j in range(8)]
    assert ts.for_each_block(n, lambda lo, hi: (lo, hi)) == list(zip(edges, edges[1:]))


def test_for_each_block_returns_one_result_for_no_points():
    assert ts.for_each_block(0, lambda lo, hi: (lo, hi)) == [(0, 0)]


def test_cpu_count_falls_back_without_affinity(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert ts._cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert ts._cpus() == (os.cpu_count() or 1)


def test_series_map_derivs_are_polyval_of_the_derivative_series():
    z = _points(20_000, r=0.75)
    got = SHEAR.derivs(z, 3)
    assert len(got) == 4
    for value, c in zip(got, SHEAR._dcoeffs):
        assert value.tobytes() == polyval(z, c).tobytes()
    assert SHEAR.series(z).tobytes() == polyval(z, SHEAR.series.coefficients).tobytes()
    assert SHEAR.series(0.25j) == complex(polyval(np.asarray(0.25j), SHEAR.series.coefficients))


def test_series_map_still_checks_disc_and_reliable_radius():
    r = SHEAR.reliable_radius
    assert r < 0.9
    z = _points(100, r=0.5)
    with pytest.raises(PrecisionError):
        SHEAR.derivs(np.append(z, 0.9), 1)
    with pytest.raises(DomainError):
        SHEAR.derivs(np.append(z, 1.0), 1)
    with pytest.raises(PrecisionError):
        SHEAR.series(np.append(z, 0.9))
