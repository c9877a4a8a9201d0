"""The moment-compiled jet and remainder operators against the literal
per-configuration sums of `config_loop_reference`."""

import random
from fractions import Fraction

import pytest

from lionsjet.cli import _tolerance
from lionsjet.expansion import taylor1, taylor2, taylor_derivative
from lionsjet.functional import MomentView, contract_derivative, lions_derivative
from lionsjet.measures import pair_coupling
from lionsjet.poly import XiPoly
from lionsjet.tagged import Grading, TaggedSeq, grade

from config_loop_reference import graded_reference, taylor1_reference
from test_expansion import random_coupling
from test_functional import kernel_1d, random_functional, random_point

F = Fraction

SIZES = [(n_atoms, e) for n_atoms in (1, 2, 4) for e in (1, 2)]


def assert_exact_equal(got, want):
    assert got == want
    for tensor in got.values():
        assert all(isinstance(v, Fraction) for v in tensor.data)


def jet_raw(res):
    return {term.seq_values(): term.raw for term in res.jet}


@pytest.mark.parametrize("n_atoms,e", SIZES)
def test_taylor1_matches_configuration_loops(n_atoms, e):
    rng = random.Random(100 * n_atoms + e)
    for order in (1, 2, 3):
        f = random_functional(rng, e, 2, False)
        c = random_coupling(rng, n_atoms, e)
        res = taylor1(f, c.left(), c, order)
        jet, remainder = taylor1_reference(f, c, order)
        assert_exact_equal(jet_raw(res), jet)
        assert_exact_equal(res.remainder_terms, remainder)
        assert res.identity_gap() == 0


@pytest.mark.parametrize("n_atoms,e", SIZES)
@pytest.mark.parametrize(
    "g",
    [Grading(F(1, 2), 1, F(9, 4)), Grading(1, 1, F(5, 2)), Grading(1, F(1, 2), F(9, 4))],
    ids=["alpha<beta", "alpha=beta", "alpha>beta"],
)
def test_taylor2_matches_configuration_loops(g, n_atoms, e):
    rng = random.Random(10 * n_atoms + e)
    f = random_functional(rng, e, 2, True)
    c = random_coupling(rng, n_atoms, e)
    x0, y0 = random_point(rng, e), random_point(rng, e)
    res = taylor2(f, x0, y0, c, g)
    jet, remainder = graded_reference(f, (), [(x0, y0)], c, g.alpha, g.beta, g.gamma)
    assert_exact_equal(jet_raw(res), jet)
    assert_exact_equal(res.remainder_terms, remainder)


@pytest.mark.parametrize("n_atoms,e", SIZES)
@pytest.mark.parametrize("values", [(1,), (1, 2), (0, 1)])
def test_taylor_derivative_matches_configuration_loops(values, n_atoms, e):
    rng = random.Random(1000 * len(values) + 10 * n_atoms + e)
    a = TaggedSeq(values)
    f = random_functional(rng, e, 2, True)
    c = random_coupling(rng, n_atoms, e)
    x0, y0 = random_point(rng, e), random_point(rng, e)
    fx = [random_point(rng, e) for _ in range(a.m)]
    fy = [random_point(rng, e) for _ in range(a.m)]
    g = Grading(F(1, 2), 1, 3)
    res = taylor_derivative(f, a, x0, y0, fx, fy, c, g)
    pairs = [(x0, y0)] + list(zip(fx, fy))
    eta = g.gamma - grade(a, g)
    jet, remainder = graded_reference(f, a, pairs, c, g.alpha, g.beta, eta)
    assert {term.seq.values for term in res.jet} == set(jet)
    assert_exact_equal({term.seq.values: term.raw for term in res.jet}, jet)
    assert_exact_equal(res.remainder_terms, remainder)


def test_float_mode_matches_configuration_loops():
    rng = random.Random(7)
    f = random_functional(rng, 2, 2, True)
    pts = [tuple(map(float, random_point(rng, 2))) for _ in range(6)]
    c = pair_coupling(pts[:3], pts[3:])
    x0, y0 = (0.5, -1.0), (1.0, 0.25)
    g = Grading(F(1, 2), 1, F(9, 4))
    res = taylor2(f, x0, y0, c, g)
    jet, remainder = graded_reference(f, (), [(x0, y0)], c, g.alpha, g.beta, g.gamma)
    tol = _tolerance("float")
    for got, want in [(jet_raw(res), jet), (res.remainder_terms, remainder)]:
        assert got.keys() == want.keys()
        for key in got:
            diff = got[key] - want[key]
            assert float(diff.max_abs()) <= tol


def test_gap_moments_share_one_cache():
    atoms = [(F(1), F(2)), (F(-1), F(1, 2))]
    gaps = [(F(1, 3), F(0)), (F(2), F(-1))]
    view = MomentView(atoms, gaps=gaps)
    assert view.moment((1, 0)) == view.moment((1, 0), (0, 0)) == F(0)
    want = (F(1) * F(1, 3) ** 2 + F(-1) * F(2) ** 2) / 2
    assert view.moment((1, 0), (2, 0)) == want
    assert set(view._moments) == {((1, 0), (0, 0)), ((1, 0), (2, 0))}


def test_int_direction_on_path_view():
    # d/dmu of int x^2 dmu is 2x: the averaged first-order term on the path
    # x_i + xi * g_i is (1/N) sum_i 2 (x_i + xi g_i) g_i, a polynomial in xi
    f = kernel_1d({(2,): F(1)}, arity=1)
    xs, gs = [F(1), F(-2)], [F(1, 2), F(3)]
    path = MomentView(
        [(XiPoly.affine(x, g),) for x, g in zip(xs, gs)], gaps=[(g,) for g in gs]
    )
    ts = lions_derivative(f, TaggedSeq((1,)))
    got = contract_derivative(ts, None, path, [], [0])[(0,)]
    want = XiPoly(
        (sum(2 * x * g for x, g in zip(xs, gs)) / 2, sum(2 * g * g for g in gs) / 2)
    )
    assert got == want
