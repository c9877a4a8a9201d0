"""The moment-compiled jet and remainder operators against the literal
per-configuration sums of `config_loop_reference`."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lionsjet.errors import ValidationError
from lionsjet.cli import _tolerance
from lionsjet.expansion import taylor1, taylor2, taylor_derivative
from lionsjet.functional import (
    MomentView,
    PolyFunctional,
    PolyKernel,
    contract_derivative,
    eval_derivative,
    eval_derivative_brute,
    lions_derivative,
)
from lionsjet.measures import pair_coupling
from lionsjet.partitions import enum_A
from lionsjet.poly import MPoly, RationalTensor, Tensor, XiPoly
from lionsjet.tagged import Grading, TaggedSeq, enum_A0, grade

from config_loop_reference import graded_reference, taylor1_reference
from test_expansion import random_coupling
from test_functional import kernel_1d, random_functional, random_point
from test_measures import _xi_points

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
    cached = {(exps, gap) for (gap, _), sums in view._sums.items() for exps in sums}
    assert cached == {((1, 0), (0, 0)), ((1, 0), (2, 0))}


def test_int_direction_on_path_view():
    # d/dmu of int x^2 dmu is 2x: the averaged first-order term on the path
    # x_i + xi * g_i is (1/N) sum_i 2 (x_i + xi g_i) g_i, a polynomial in xi
    f = kernel_1d({(2,): F(1)}, arity=1)
    xs, gs = [F(1), F(-2)], [F(1, 2), F(3)]
    path = MomentView([(x,) for x in xs], dim=1, gaps=[(g,) for g in gs]).on_path()
    ts = lions_derivative(f, TaggedSeq((1,)))
    got = contract_derivative(ts, None, path, [], [0]).tensor()[(0,)]
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
    got = contract_derivative(ts, x0, view, fixed, dirvecs).tensor()
    want = _brute_contraction(ts, x0, view, fixed, dirvecs)
    assert got.shape == want.shape == (1,) + (e,) * dirvecs.count(None)
    if past:
        assert not any(got.data) and got == want
    if mode == "rational":
        assert got == want
        assert all(isinstance(v, Fraction) for v in got.data)
    else:
        assert float((got - want).max_abs()) <= _tolerance("float") * (1 + float(want.max_abs()))


# -- contractions in integers --------------------------------------------------


def _int_or_fraction(rng, q):
    """q, as an int when it is a whole number and a coin says so."""
    return int(q) if q.denominator == 1 and rng.random() < 0.5 else q


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    e=st.integers(1, 2),
    n_atoms=st.integers(1, 3),
    spatial=st.booleans(),
    order=st.integers(0, 3),
    tagged_on_path=st.booleans(),
    measure_on_path=st.booleans(),
)
def test_integer_contraction_equals_brute(
    seed, e, n_atoms, spatial, order, tagged_on_path, measure_on_path
):
    # base and path views, tagged points on the path (one of them with a
    # zero start and gap at times), gap directions, int/Fraction mixes and,
    # past the kernel degree, empty joints; every entry must equal the
    # brute nested-loop evaluation over `XiPoly` points exactly
    rng = random.Random(seed)
    nvars = (2 + spatial) * e
    terms = {}
    for _ in range(8):
        exps = [0] * nvars
        for _ in range(rng.randint(1, 4)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    f = PolyFunctional(PolyKernel(e, 1, 2, spatial, [MPoly(nvars, terms)]))
    values = rng.choice(list((enum_A0 if spatial else enum_A)(order))).values
    ts = lions_derivative(f, TaggedSeq(values))
    m = ts.n_free

    def point():
        return tuple(_int_or_fraction(rng, q) for q in random_point(rng, e))

    xs = [point() for _ in range(n_atoms)]
    gaps = [point() for _ in range(n_atoms)]
    view = brute_view = MomentView(xs, dim=e, gaps=gaps)
    if measure_on_path:
        view, brute_view = view.on_path(), MomentView(_xi_points(xs, gaps), dim=e, gaps=gaps)
    n_fixed = rng.choice([0, rng.randint(0, m)])
    starts = [point() for _ in range(spatial + n_fixed)]
    targets = [point() for _ in starts]
    if starts and rng.random() < 0.3:
        starts[0] = targets[0] = (0,) * e  # one row per path coordinate
    tagged = brute_tagged = starts
    if tagged_on_path:
        disps = [tuple(b - a for a, b in zip(x, y)) for x, y in zip(starts, targets)]
        tagged = [MomentView([x], dim=e, gaps=[g]).on_path() for x, g in zip(starts, disps)]
        brute_tagged = _xi_points(starts, disps)
    x0, fixed = (tagged[0], tagged[1:]) if spatial else (None, tagged)
    brute_x0, brute_fixed = (brute_tagged[0], brute_tagged[1:]) if spatial else (None, brute_tagged)
    dirvecs = []
    for v in values:
        choice = rng.randrange(4)
        if choice == 0:
            dirvecs.append(None)
        elif choice == 1 or v <= n_fixed:
            dirvecs.append(point())
        else:
            dirvecs.append(v - n_fixed - 1)
    got = contract_derivative(ts, x0, view, fixed, dirvecs).tensor()
    brute = _brute_contraction(ts, brute_x0, brute_view, brute_fixed, dirvecs)
    assert got.shape == brute.shape
    for g, b in zip(got.data, brute.data):
        assert g == b
        assert type(g) in (Fraction, XiPoly)


def test_rational_contractions_run_on_integers(monkeypatch):
    # neither `moment` nor the moments themselves (the sums under degree
    # None) are read: every group reads integer sums lifted to a degree
    rng = random.Random(21)
    f = random_functional(rng, 2, 2, True, degree=3)
    c = random_coupling(rng, 3, 2)
    x0, y0 = random_point(rng, 2), random_point(rng, 2)

    def refuse(*args):
        raise AssertionError("a rational contraction left the integer path")

    sums = MomentView.sums

    def integer_sums(view, gap_exps, degree=None):
        if degree is None:
            refuse()
        return sums(view, gap_exps, degree)

    monkeypatch.setattr(MomentView, "moment", refuse)
    monkeypatch.setattr(MomentView, "sums", integer_sums)
    res = taylor2(f, x0, y0, c, Grading(1, F(1, 2), F(9, 4)))
    assert res.identity_gap() == 0
    res = taylor_derivative(f, TaggedSeq((1,)), x0, y0, [x0], [y0], c, Grading(1, 1, 3))
    assert res.identity_gap() == 0


def _inexact_case(kind):
    """A contraction whose data is not all rational, with the tolerance its
    entries must meet against the brute evaluation."""
    rng = random.Random(f"fallback:{kind}")
    # variables x0 (0, 1), slot 1 (2, 3), slot 2 (4, 5)
    terms = {(1, 0, 1, 0, 0, 1): F(1), (0, 2, 0, 1, 2, 0): F(1, 2), (2, 0, 1, 1, 1, 0): F(-3)}
    f = PolyFunctional(PolyKernel(2, 1, 2, True, [MPoly(6, terms)]))
    atoms = [random_point(rng, 2) for _ in range(2)]
    gaps = [random_point(rng, 2) for _ in range(2)]
    x0, vec = random_point(rng, 2), random_point(rng, 2)
    tol = 0
    if kind == "float atoms":
        atoms = [tuple(map(float, a)) for a in atoms]
        gaps = [tuple(map(float, g)) for g in gaps]
        tol = _tolerance("float")
    elif kind == "float x0":
        x0 = tuple(map(float, x0))
        tol = _tolerance("float")
    else:  # symbolic atoms: one MPoly variable per coordinate
        atoms = [tuple(MPoly.var(4, 2 * i + c) for c in range(2)) for i in range(2)]
    view = MomentView(atoms, dim=2, gaps=gaps)
    return lions_derivative(f, TaggedSeq((0, 1, 2))), x0, view, [vec, None, 0], tol


@pytest.mark.parametrize("kind", ["float atoms", "float x0", "symbolic"])
def test_inexact_contraction_values(kind, monkeypatch):
    # the one contraction loop reads each group's moments (the sums under
    # degree None) and matches the brute evaluation: within tolerance for
    # floats, exactly for symbolic atoms
    ts, x0, view, dirvecs, tol = _inexact_case(kind)
    fixed = [view.atoms[0]]
    assert ts.joint()
    degrees, sums = [], MomentView.sums

    def recorded(view, gap_exps, degree=None):
        degrees.append(degree)
        return sums(view, gap_exps, degree)

    monkeypatch.setattr(MomentView, "sums", recorded)
    got = contract_derivative(ts, x0, view, fixed, dirvecs).tensor()
    assert degrees and set(degrees) == {None}
    want = _brute_contraction(ts, x0, view, fixed, dirvecs)
    if tol:
        assert all(isinstance(v, float) for v in got.data)
        assert float((got - want).max_abs()) <= tol * (1 + float(want.max_abs()))
    else:
        assert got == want


@pytest.mark.parametrize("kind", ["rational", "float atoms", "float x0", "symbolic"])
def test_every_contraction_is_a_rational_tensor(kind):
    # one result type for every number type: int numerators over their
    # denominator for rational data, the values as given over 1 otherwise,
    # an exact zero for a derivative without cells; on the path every entry
    # that a cell reaches is a list of xi-coefficients
    if kind == "rational":
        ts, x0, view, dirvecs, _ = _inexact_case("float x0")
        x0 = tuple(map(F, x0))
    else:
        ts, x0, view, dirvecs, _ = _inexact_case(kind)
    path = view.on_path()
    on_xi = MomentView(_xi_points(view.atoms, view.gaps), dim=view.dim, gaps=view.gaps)
    fixed = [view.atoms[0]]
    exact = kind == "rational"
    for v, brute in ((view, view), (path, on_xi)):
        got = contract_derivative(ts, x0, v, fixed, dirvecs)
        assert isinstance(got, RationalTensor) and got.exact == exact
        if exact:
            entries = [t for u in got.data for t in (u if type(u) is list else [u])]
            assert all(type(t) is int for t in entries)
            assert got.tensor() == _brute_contraction(ts, x0, brute, fixed, dirvecs)
        else:
            assert got.den == 1
        reached = [type(u) is list for u in got.data if u != 0]
        assert reached and set(reached) == {v is path}
    vanishing = lions_derivative(ts.functional, TaggedSeq((0,) * (ts.kernel.degree + 1)))
    zero = contract_derivative(vanishing, x0, path, [], [None] * len(vanishing.seq))
    assert isinstance(zero, RationalTensor) and zero.exact and not any(zero.data)


# k(x0, u1, u2) = x0^2 u1 u2 + 3 x0 u1^2 - u2^3 / 2 + 5
_SPATIAL_DEGREE_4 = PolyFunctional(
    PolyKernel(
        1, 1, 2, True,
        [MPoly(3, {(2, 1, 1): F(1), (1, 2, 0): F(3), (0, 0, 3): F(-1, 2), (0, 0, 0): F(5)})],
    )
)


@pytest.mark.parametrize(
    "values,want", [((), 15.43252109049181), ((0, 1), 6.383658008658008)], ids=["f", "D0,1"]
)
def test_rational_atoms_with_huge_denominators_and_a_float_point(values, want):
    # the atoms' common scale has 241 digits, so their integer sums lifted
    # to the kernel degree are far past the float range; with a float x0
    # the contraction must read the atoms' Fraction moments instead. `want`
    # is the value the Fraction loop this contraction replaced returned.
    big = 10**60
    nums = (-2 * big // 3, big // 7, 13 * big // 11, 5 * big // 2)
    atoms = [(F(num, big + 2 * k + 1),) for k, num in enumerate(nums)]
    mu = MomentView(atoms, dim=1)
    assert mu.exact and len(str(mu.table_scales()[1])) == 241
    ts = lions_derivative(_SPATIAL_DEGREE_4, TaggedSeq(values))
    free = atoms[1:2] * ts.n_free
    (got,) = eval_derivative(ts, (1.75,), mu, free).data
    assert isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12)
    (brute,) = eval_derivative_brute(ts, (1.75,), mu, free).data
    assert math.isclose(got, brute, rel_tol=1e-12)


def test_gap_directions_need_a_view_with_gaps():
    # the check that `moment` made for the Fraction loop, now made where the
    # contraction first reads a gap sum, for rational and for float data
    f = kernel_1d({(2,): F(1)}, arity=1)
    ts = lions_derivative(f, TaggedSeq((1,)))
    for atoms in ([(F(1),), (F(-2),)], [(1.0,), (-2.0,)]):
        with pytest.raises(ValidationError, match="view with gaps"):
            contract_derivative(ts, None, MomentView(atoms, dim=1), [], [0])
