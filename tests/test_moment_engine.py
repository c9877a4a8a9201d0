"""The moment-compiled jet and remainder operators against the literal
per-configuration sums of `config_loop_reference`."""

import itertools
import random
from fractions import Fraction

import pytest

from lionsjet.cli import _tolerance
from lionsjet.expansion import taylor1, taylor2, taylor_derivative
from lionsjet.functional import (
    MomentView,
    contract_derivative,
    eval_derivative_brute,
    lions_derivative,
)
from lionsjet.measures import pair_coupling
from lionsjet.poly import Tensor, XiPoly
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
@pytest.mark.parametrize("values", [(1,), (1, 2), (0, 1), (0, 1, 1)])
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
    view = MomentView(atoms, dim=2, gaps=gaps)
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
        [(XiPoly.affine(x, g),) for x, g in zip(xs, gs)], dim=1, gaps=[(g,) for g in gs]
    )
    ts = lions_derivative(f, TaggedSeq((1,)))
    got = contract_derivative(ts, None, path, [], [0])[(0,)]
    want = XiPoly(
        (sum(2 * x * g for x, g in zip(xs, gs)) / 2, sum(2 * g * g for g in gs) / 2)
    )
    assert got == want


def _brute_contraction(ts, x0, view, fixed, dirvecs):
    """The contraction computed without the moment engine: the brute nested
    loop evaluation at every configuration of the averaged coupling
    variables, contracted entry by entry and averaged."""
    e, d = ts.kernel.e, ts.kernel.d
    kept = [p for p, v in enumerate(dirvecs) if v is None]
    n_avg = ts.n_free - len(fixed)
    out = Tensor((d,) + (e,) * len(kept))
    for idx in itertools.product(range(view.n_atoms), repeat=n_avg):
        free = list(fixed) + [view.atoms[i] for i in idx]
        vecs = [view.gaps[idx[v]] if isinstance(v, int) else v for v in dirvecs]
        full = eval_derivative_brute(ts, x0, view, free)
        for comp in range(d):
            for coords in itertools.product(range(e), repeat=ts.order):
                weight = 1
                for p, vec in enumerate(vecs):
                    if vec is not None:
                        weight = weight * vec[coords[p]]
                key = (comp,) + tuple(coords[p] for p in kept)
                out[key] = out[key] + full[(comp,) + coords] * weight
    return out.scale(Fraction(1, view.n_atoms**n_avg))


def _kernel_degree(f):
    """The largest total degree of a component, computed here from the
    polynomials."""
    return max(c.degree() for c in f.kernel.components)


def _kernel_of_degree(rng, e, spatial, degree):
    for _ in range(100):
        f = random_functional(rng, e, 2, spatial, degree=degree)
        if _kernel_degree(f) == degree:
            return f
    raise AssertionError(f"no kernel of degree {degree} drawn")


# letters in these orders form valid sequences at every length
_PATTERNS = {True: (0, 1, 2, 1, 0, 2), False: (1, 2, 1, 2, 3, 1)}


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("spatial", [True, False], ids=["spatial", "measure"])
@pytest.mark.parametrize("directions", ["none", "vector", "gap"])
@pytest.mark.parametrize("past", [0, 1, 2], ids=["order=degree", "degree+1", "degree+2"])
def test_contraction_past_kernel_degree_matches_brute(past, directions, spatial, mode):
    # past the kernel degree the engine returns zeros at once; at the
    # degree itself it still evaluates every cell
    rng = random.Random(f"past-degree:{past}:{directions}:{spatial}")
    e = 2
    degree = rng.choice([1, 2]) if past else rng.choice([2, 3])
    f = _kernel_of_degree(rng, e, spatial, degree)
    values = _PATTERNS[spatial][: degree + past]
    ts = lions_derivative(f, TaggedSeq(values))
    assert ts.order - _kernel_degree(f) == past and ts.terms
    point = lambda: random_point(rng, e)
    atoms = [point() for _ in range(2)]
    gaps = [point() for _ in range(2)]
    x0 = point() if spatial else None
    vec = {letter: point() for letter in range(ts.n_free + 1)}
    if mode == "float":
        as_float = lambda p: tuple(map(float, p))
        atoms, gaps = [as_float(p) for p in atoms], [as_float(p) for p in gaps]
        vec = {k: as_float(v) for k, v in vec.items()}
        x0 = x0 and as_float(x0)
    view = MomentView(atoms, dim=e, gaps=gaps)
    if directions == "gap":
        # the first free variable fixed and left uncontracted, the others averaged
        n_fixed = min(1, ts.n_free)
        dirvecs = [
            vec[0] if v == 0 else None if v <= n_fixed else v - n_fixed - 1 for v in values
        ]
    else:
        n_fixed = ts.n_free
        dirvecs = [vec[v] if directions == "vector" else None for v in values]
    fixed = [view.atoms[i % view.n_atoms] for i in range(n_fixed)]
    got = contract_derivative(ts, x0, view, fixed, dirvecs)
    want = _brute_contraction(ts, x0, view, fixed, dirvecs)
    assert got.shape == want.shape == (1,) + (e,) * dirvecs.count(None)
    if past:
        assert not any(got.data) and got == want
    if mode == "rational":
        assert got == want
        assert all(isinstance(v, Fraction) for v in got.data)
    else:
        assert float((got - want).max_abs()) <= _tolerance("float") * (1 + float(want.max_abs()))
