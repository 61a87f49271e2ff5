"""Adaptive Simpson sanity checks against closed-form integrals."""

from __future__ import annotations

import math

import pytest

from chebcrit.errors import NumericalFailure
from chebcrit.quadrature import adaptive_simpson, cumulative_integrals


def test_polynomial_exact():
    got = adaptive_simpson(lambda t: t * t, 0.0, 1.0, abs_tol=1e-12)
    assert abs(got - 1.0 / 3.0) <= 1e-12


def test_sine_hump():
    got = adaptive_simpson(math.sin, 0.0, math.pi, abs_tol=1e-11)
    assert abs(got - 2.0) <= 1e-11


def test_oscillatory():
    got = adaptive_simpson(lambda t: math.sin(10 * t) ** 2, 0.0, 4.0, abs_tol=1e-10)
    want = 2.0 - math.sin(80.0) / 40.0  # int sin^2(10t) = t/2 - sin(20t)/40
    assert abs(got - want) <= 1e-10


def test_orientation():
    a = adaptive_simpson(math.exp, 0.0, 1.0, abs_tol=1e-12)
    b = adaptive_simpson(math.exp, 1.0, 0.0, abs_tol=1e-12)
    assert abs(a + b) <= 1e-14


def test_subdivision_budget():
    with pytest.raises(NumericalFailure):
        adaptive_simpson(lambda t: math.sin(1.0 / (t + 1e-9)), 0.0, 1.0,
                         abs_tol=1e-14, max_depth=4)


def test_cumulative_matches_single_calls():
    xs = [0.5, 1.0, 2.0, 3.5, 7.0]
    cum = cumulative_integrals(lambda t: t * math.exp(-t), 0.0, xs, rel_tol=1e-13)
    for x, got in zip(xs, cum):
        want = 1.0 - (1.0 + x) * math.exp(-x)
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_cumulative_with_tiny_head_segment():
    # integrand ~ t^13 near 0: the first segments are far below double scale
    xs = [1e-3, 1e-2, 0.1, 1.0]
    cum = cumulative_integrals(lambda t: t ** 13, 0.0, xs, rel_tol=1e-12)
    for x, got in zip(xs, cum):
        want = x ** 14 / 14.0
        assert abs(got - want) <= 1e-10 * want


def test_cumulative_continues_from_a_start_value():
    # the integral of t e^-t from 0, continued from its exact value at a = 2
    def f(t):
        return t * math.exp(-t)

    a, xs = 2.0, [2.0, 3.5, 7.0]
    start = 1.0 - 3.0 * math.exp(-a)
    cum = cumulative_integrals(f, a, xs, rel_tol=1e-13, start=start)
    assert cum[0] == start
    for x, got in zip(xs, cum):
        want = 1.0 - (1.0 + x) * math.exp(-x)
        assert abs(got - want) <= 1e-12 * want


def test_cumulative_tolerance_scale_starts_from_the_start_value():
    # a large |start| loosens every segment's tolerance: fewer nodes
    nodes = []
    for start in (0.0, 1e4):
        g, calls = _recording(math.cos)
        cumulative_integrals(g, 0.0, [1.0, 2.0, 3.0], rel_tol=1e-13, start=start)
        nodes.append(len(calls))
    assert nodes[0] > nodes[1]


def _recording(f):
    calls = []

    def g(t):
        calls.append(t)
        return f(t)

    return g, calls


def test_cumulative_evaluates_each_abscissa_once():
    g, calls = _recording(math.sin)
    xs = [0.01 * 1.5 ** i for i in range(12)]
    got = cumulative_integrals(g, 0.0, xs, rel_tol=1e-12)
    assert len(calls) == len(set(calls))
    for x, v in zip(xs, got):
        want = 2.0 * math.sin(0.5 * x) ** 2  # 1 - cos x without cancellation
        assert abs(v - want) <= 1e-10 * want


def test_adaptive_simpson_uses_the_given_end_and_mid_values():
    f = math.cos
    a, b = 0.25, 2.0
    m = 0.5 * (a + b)
    want = adaptive_simpson(f, a, b, abs_tol=1e-12)
    g, calls = _recording(f)
    got = adaptive_simpson(g, a, b, abs_tol=1e-12, fa=f(a), fm=f(m), fb=f(b))
    assert got == want
    assert calls and not {a, m, b} & set(calls)
    # reversed orientation swaps the end values
    g, calls = _recording(f)
    assert adaptive_simpson(g, b, a, abs_tol=1e-12, fa=f(b), fm=f(m), fb=f(a)) == -want
    assert not {a, m, b} & set(calls)
