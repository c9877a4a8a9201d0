"""Jet operators, graded expansions, exact remainders, certified bounds."""

import hashlib
import json
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from lionsjet import expansion, functional, measures
from lionsjet.errors import ValidationError
from lionsjet.expansion import (
    _family_sides,
    convergence_study,
    eval_Da,
    remainder_bound1,
    remainder_bound2,
    taylor1,
    taylor2,
    taylor_derivative,
)
from lionsjet.functional import (
    PolyFunctional,
    _certified_sup,
    _vanishes,
    contract_derivative,
    eval_derivative,
    lions_derivative,
    normalize_box,
    norms_on_box,
)
from lionsjet.measures import EmpiricalMeasure, MomentView, pair_coupling
from lionsjet.poly import RationalTensor, Tensor, XiPoly, _beta_weights
from lionsjet.tagged import (
    Grading,
    TaggedSeq,
    _graded_value_families,
    _orbit_key,
    as_tagged,
    enum_graded,
    grade,
)

from config_loop_reference import contract_once, integrated
from test_functional import kernel_1d, random_functional, random_point

F = Fraction


def random_coupling(rng, n, e):
    return pair_coupling(
        [random_point(rng, e) for _ in range(n)],
        [random_point(rng, e) for _ in range(n)],
    )


def test_eval_Da_empty_sequence_is_function_value():
    rng = random.Random(0)
    f = random_functional(rng, 2, 2, True, d=2)
    c = random_coupling(rng, 3, 2)
    x0, y0 = random_point(rng, 2), random_point(rng, 2)
    disp = tuple(b - a for a, b in zip(x0, y0))
    val = eval_Da(f, TaggedSeq(()), x0, disp, c)
    assert [val[(0,)], val[(1,)]] == f.eval(x0, c.left())


def test_a_contraction_stays_exact_when_only_a_vector_it_never_reads_is_float(monkeypatch):
    # exactness follows the vectors a contraction reads: the empty sequence
    # reads no displacement, so a float one leaves f(x0, mu) exact, and the
    # contractions of taylor2 on the starts' side without a spatial letter
    # read no y0 - x0, so a float y0 leaves them exact while the spatial
    # ones run on floats
    made = []

    def recording(ts, side, pattern, letters):
        got = contract_derivative(ts, side, pattern, letters)
        if side.mu is c.base_view() and not any(side.paths) and any(got.data):
            made.append((letters, got.exact))  # on the starts' side, past the exact zeros
        return got

    monkeypatch.setattr(expansion, "contract_derivative", recording)
    rng = random.Random(0)
    f = random_functional(rng, 2, 2, True, d=2)
    c = random_coupling(rng, 3, 2)
    x0 = random_point(rng, 2)
    val = eval_Da(f, TaggedSeq(()), x0, (0.5, -0.25), c)
    assert val.data == f.eval(x0, c.left())
    assert made == [((), True)]
    made.clear()
    res = taylor2(f, x0, (0.75, -1.5), c, Grading(1, 1, F(5, 2)))
    assert {0 in letters for letters, _ in made} == {False, True}
    assert all(exact == (0 not in letters) for letters, exact in made), made
    for t in res.jet:
        want = float if 0 in t.seq.values else Fraction
        assert {type(v) for v in t.value.data if v} <= {want}, t.seq.values


def test_eval_Da_first_order_matches_hand_loop():
    rng = random.Random(1)
    f = kernel_1d({(3,): F(1), (1,): F(-2)}, arity=1)
    c = random_coupling(rng, 4, 1)
    val = eval_Da(f, TaggedSeq((1,)), None, None, c)
    # (1/N) sum of grad k(x_i) * (y_i - x_i) with grad k(x) = 3x^2 - 2
    expected = sum(
        (3 * x[0] ** 2 - 2) * (y[0] - x[0]) for x, y in c.pairs
    ) / F(len(c.pairs))
    assert val[(0,)] == expected


def test_eval_Da_diagonal_coupling_vanishes():
    rng = random.Random(2)
    f = random_functional(rng, 1, 2, False)
    pts = [random_point(rng, 1) for _ in range(3)]
    c = pair_coupling(pts, pts)
    for values in [(1,), (1, 2), (1, 1)]:
        assert eval_Da(f, TaggedSeq(values), None, None, c).max_abs() == 0


def test_marginal_check_accepts_the_left_column_in_any_order():
    rng = random.Random(30)
    f = random_functional(rng, 1, 2, False)
    c = pair_coupling([(F(-1),), (F(1, 2),), (F(2),)], [random_point(rng, 1) for _ in range(3)])
    left = [x for x, _ in c.pairs]
    permuted = EmpiricalMeasure(left[::-1])
    assert permuted.atoms != c.left().atoms
    others = [EmpiricalMeasure(left[:-1] + [(F(99),)]), EmpiricalMeasure(left + left[:1])]
    assert taylor1(f, permuted, c, 2).to_json() == taylor1(f, c.left(), c, 2).to_json()
    for other in others:
        with pytest.raises(ValidationError):
            taylor1(f, other, c, 2)


def test_taylor1_single_atom_square():
    # f(mu) = (int x dmu)^2 via the product kernel; one atom moved by h:
    # the first-order jet vanishes at the origin and the remainder is h^2
    f = kernel_1d({(1, 1): F(1)}, arity=2)
    h = F(1, 2)
    c = pair_coupling([(F(0),)], [(h,)])
    res = taylor1(f, c.left(), c, 1)
    assert res.actual[(0,)] == h * h
    assert res.predicted[(0,)] == 0
    assert res.remainder_exact[(0,)] == h * h
    assert res.identity_gap() == 0


def test_taylor1_linear_functional_has_zero_remainder():
    rng = random.Random(4)
    f = kernel_1d({(1,): F(3), (0,): F(-1)}, arity=1)
    for n in (1, 2):
        c = random_coupling(rng, 3, 1)
        res = taylor1(f, c.left(), c, n)
        assert res.remainder_exact.max_abs() == 0
        assert res.identity_gap() == 0


def test_taylor1_first_order_remainder_display():
    # at order 1 the remainder term is the integrated difference of the
    # first derivative along the path, checked against float quadrature
    rng = random.Random(5)
    f = random_functional(rng, 1, 2, False)
    c = random_coupling(rng, 2, 1)
    res = taylor1(f, c.left(), c, 1)
    (term,) = [t for (fam, v), t in res.remainder_terms.items() if v == (1,)]
    d1 = lions_derivative(f, TaggedSeq((1,)))

    def integrand(xi):
        mu_xi = EmpiricalMeasure(
            [tuple(float(a) + xi * (float(b) - float(a)) for a, b in zip(x, y))
             for x, y in c.pairs]
        )
        total = 0.0
        for x, y in c.pairs:
            pt = (float(x[0]) + xi * (float(y[0]) - float(x[0])),)
            moved = eval_derivative(d1, None, mu_xi, [pt])[(0, 0)]
            frozen = eval_derivative(d1, None, c.left(), [x])[(0, 0)]
            total += (float(moved) - float(frozen)) * (float(y[0]) - float(x[0]))
        return total / len(c.pairs)

    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(64)
    quad = sum(w * integrand(0.5 * t + 0.5) for t, w in zip(nodes, weights)) * 0.5
    assert float(term[(0,)]) == pytest.approx(quad, abs=1e-13)


def test_xi_integration_identities():
    # closed-form weighted integrals against high-order quadrature, and the
    # factorial identity used for the jet coefficients
    import numpy as np

    rng = random.Random(6)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    for _ in range(10):
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)]
        p = XiPoly(coeffs)
        r = rng.randint(0, 4)
        exact = float(p.integrate_weighted(r))
        quad = 0.5 * sum(
            w * float(p.eval(0.5 * t + 0.5)) * (1 - (0.5 * t + 0.5)) ** r
            for t, w in zip(nodes, weights)
        )
        assert exact == pytest.approx(quad, abs=1e-13)
    for n in range(1, 6):
        one = XiPoly.const(F(1))
        assert one.integrate_weighted(n - 1) * F(1, math.factorial(n - 1)) == F(
            1, math.factorial(n)
        )


def test_integer_numerators_compute_what_their_fractions_do():
    # sums, scales, the remainder's path integral and values at xi on int
    # numerators over one denominator, against the same steps taken here on
    # the Fractions they stand for, one xi-coefficient list per entry
    rng = random.Random(8)

    def coeffs(t):
        return [[F(c, t.den) for c in v] if type(v) is list else [F(v, t.den)] for v in t.data]

    def values(t):  # comparable whatever the trailing zero coefficients
        return [XiPoly(cs) for cs in coeffs(t)]

    def horner(cs, xi):
        total = F(0)
        for c in reversed(cs):
            total = total * xi + c
        return total

    def integral(cs, r):  # of v(xi) (1 - xi)^r / r!: xi^k weighs k! / (k + r + 1)!
        if r < 0:
            return horner(cs, 1)
        return sum(c * F(math.factorial(k), math.factorial(k + r + 1)) for k, c in enumerate(cs))

    def lin(u, v, sign):
        n = max(len(u), len(v))
        u, v = u + [F(0)] * (n - len(u)), v + [F(0)] * (n - len(v))
        return XiPoly([x + sign * y for x, y in zip(u, v)])

    for _ in range(20):
        def numerators():
            data = [rng.randint(-9, 9) for _ in range(3)]
            data += [[rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] for _ in range(3)]
            return RationalTensor((2, 3), data, rng.randint(1, 30))

        a, b = numerators(), numerators()
        q = F(rng.randint(-5, 5), rng.randint(1, 7))
        r = rng.randint(-1, 4)
        ca, cb = coeffs(a), coeffs(b)
        assert all(type(v) in (Fraction, XiPoly) for v in a.tensor().data)
        assert values(a + b) == [lin(u, v, 1) for u, v in zip(ca, cb)]
        assert values(a - b) == [lin(u, v, -1) for u, v in zip(ca, cb)]
        assert values(a.scale(q)) == [XiPoly([c * q for c in cs]) for cs in ca]
        pair = a.scale(q.numerator, q.denominator)  # num/den as an integer pair
        assert (pair.data, pair.den) == (a.scale(q).data, a.scale(q).den)
        assert values(a.taylor_integral(r)) == [XiPoly([integral(cs, r)]) for cs in ca]
        for xi in (q, 2):
            assert values(a.at(xi)) == [XiPoly([horner(cs, xi)]) for cs in ca]
        for t in (a + b, a.scale(q), a.taylor_integral(r), a.at(q)):
            assert t.exact
        # a float xi, a float scale or a tensor that is not exact meets the
        # Fractions: the exact tensor is divided first, bit for bit
        floats = RationalTensor((2, 3), [rng.uniform(-1, 1) for _ in range(6)], 1, exact=False)
        met = [a.at(0.25), a.scale(0.5), a - floats, floats + a]
        assert not any(t.exact for t in met) and {t.den for t in met} == {1}
        assert met[0].data == [horner(cs, 0.25) if type(v) is list else cs[0] for v, cs in zip(a.data, ca)]
        assert met[1].data == [[c * 0.5 for c in cs] if type(v) is list else cs[0] * 0.5 for v, cs in zip(a.data, ca)]
        for t, step in ((met[2], lambda c, y: c - y), (met[3], lambda c, y: y + c)):
            assert t.data == [
                [step(cs[0], y)] + cs[1:] if type(v) is list else step(cs[0], y)
                for v, cs, y in zip(a.data, ca, floats.data)
            ]


def test_beta_weights_follow_the_factorial_formula():
    # each exact weight of the remainder's path integral from the one
    # before, against the two-factorial formula it replaces
    for top in range(1, 61):
        full = math.factorial(top)
        for r in range(min(top, 6)):
            want = [math.factorial(k) * (full // math.factorial(k + r + 1)) for k in range(top - r)]
            assert _beta_weights(top, r) == want


def test_taylor1_exactness_batch():
    rng = random.Random(7)
    for trial in range(25):
        e = rng.choice([1, 1, 2])
        f = random_functional(rng, e, rng.randint(1, 2), False)
        c = random_coupling(rng, rng.randint(1, 3), e)
        n = rng.randint(1, 3)
        res = taylor1(f, c.left(), c, n)
        assert res.identity_gap() == 0
        assert set(len(t.seq.values) for t in res.jet) == set(range(n + 1))


def test_taylor2_exactness_all_branches():
    rng = random.Random(8)
    gradings = [
        Grading(1, 1, F(5, 2)),
        Grading(1, 1, F(7, 2)),
        Grading(F(1, 2), 1, F(9, 4)),
        Grading(1, F(1, 2), F(9, 4)),
        Grading(F(1, 3), 1, F(5, 3)),
        Grading(1, 3, F(3, 2)),
        Grading(3, 1, F(3, 2)),
    ]
    for g in gradings:
        for trial in range(4):
            e = rng.choice([1, 1, 2])
            f = random_functional(rng, e, rng.randint(1, 2), True)
            c = random_coupling(rng, rng.randint(1, 3), e)
            x0, y0 = random_point(rng, e), random_point(rng, e)
            res = taylor2(f, x0, y0, c, g)
            assert res.identity_gap() == 0
            assert res.remainder_exact == res.actual - res.predicted


def test_taylor2_trivial_case_families():
    # alpha < gamma < min(beta, 2 alpha): the jet holds the base value and
    # one spatial step; the remainder is a plus term at the empty sequence
    # (the measure step, no path integral) and a cross term at (0)
    rng = random.Random(9)
    f = random_functional(rng, 1, 1, True)
    c = random_coupling(rng, 2, 1)
    x0, y0 = random_point(rng, 1), random_point(rng, 1)
    g = Grading(1, 3, F(3, 2))
    res = taylor2(f, x0, y0, c, g)
    assert {t.seq.values for t in res.jet} == {(), (0,)}
    assert set(res.remainder_terms) == {("plus", ()), ("cross", (0,))}
    # the empty plus term is the measure increment at the target point
    nu = c.right()
    mu = c.left()
    expected = f.eval(y0, nu)[0] - f.eval(y0, mu)[0]
    assert res.remainder_terms[("plus", ())][(0,)] == expected
    assert res.identity_gap() == 0


def test_taylor2_alpha_equals_beta_has_star_only():
    rng = random.Random(10)
    f = random_functional(rng, 1, 1, True)
    c = random_coupling(rng, 2, 1)
    res = taylor2(
        f, random_point(rng, 1), random_point(rng, 1), c, Grading(1, 1, F(5, 2))
    )
    assert {fam for fam, _ in res.remainder_terms} == {"star"}


def test_induction_step_consistency():
    # refining alpha so the graded set gains one level changes the
    # jet/remainder split but not the total
    rng = random.Random(11)
    f = random_functional(rng, 1, 2, True)
    c = random_coupling(rng, 2, 1)
    x0, y0 = random_point(rng, 1), random_point(rng, 1)
    g1 = Grading(F(2, 3), 1, 2)         # zeros cost 2/3: core up to 3 zeros
    g2 = Grading(F(1, 2), 1, 2)         # zeros cost 1/2: one more level
    r1 = taylor2(f, x0, y0, c, g1)
    r2 = taylor2(f, x0, y0, c, g2)
    assert r1.identity_gap() == 0 and r2.identity_gap() == 0
    assert r1.actual == r2.actual
    assert {t.seq.values for t in r1.jet} != {t.seq.values for t in r2.jet}


def test_taylor_derivative_matches_direct_derivative():
    # the expansion of a first derivative, evaluated at the target data,
    # reproduces the direct symbolic derivative exactly
    rng = random.Random(12)
    f = random_functional(rng, 1, 2, True)
    c = random_coupling(rng, 2, 1)
    x0, y0 = random_point(rng, 1), random_point(rng, 1)
    fx, fy = [random_point(rng, 1)], [random_point(rng, 1)]
    g = Grading(F(1, 2), 1, 3)
    res = taylor_derivative(f, TaggedSeq((1,)), x0, y0, fx, fy, c, g)
    direct = eval_derivative(
        lions_derivative(f, TaggedSeq((1,))), y0, c.right(), fy
    )
    assert res.actual == direct
    assert res.identity_gap() == 0


def test_taylor_derivative_empty_base_agrees_with_taylor2():
    rng = random.Random(13)
    f = random_functional(rng, 1, 1, True)
    c = random_coupling(rng, 2, 1)
    x0, y0 = random_point(rng, 1), random_point(rng, 1)
    g = Grading(F(1, 2), 1, 2)
    r1 = taylor_derivative(f, TaggedSeq(()), x0, y0, [], [], c, g)
    r2 = taylor2(f, x0, y0, c, g)
    assert r1.actual == r2.actual and r1.predicted == r2.predicted
    assert r1.remainder_terms.keys() == r2.remainder_terms.keys()


def test_taylor_derivative_stationary_data_vanishes():
    rng = random.Random(14)
    f = random_functional(rng, 1, 2, True)
    pts = [random_point(rng, 1) for _ in range(2)]
    c = pair_coupling(pts, pts)
    x0 = random_point(rng, 1)
    fx = [random_point(rng, 1)]
    g = Grading(F(1, 2), 1, 2)
    res = taylor_derivative(f, TaggedSeq((1,)), x0, x0, fx, fx, c, g)
    assert res.remainder_exact.max_abs() == 0
    for term in res.jet:
        if len(term.seq.values) >= 1:
            assert term.value.max_abs() == 0


def test_taylor_derivative_batch_exactness():
    rng = random.Random(15)
    for values in [(0,), (1,), (1, 2)]:
        a = TaggedSeq(values)
        for trial in range(4):
            e = rng.choice([1, 2])
            f = random_functional(rng, e, 2, True)
            c = random_coupling(rng, 2, e)
            x0, y0 = random_point(rng, e), random_point(rng, e)
            fx = [random_point(rng, e) for _ in range(a.m)]
            fy = [random_point(rng, e) for _ in range(a.m)]
            g = rng.choice(
                [Grading(F(1, 2), 1, 3), Grading(1, F(1, 2), 3), Grading(1, 1, F(7, 2))]
            )
            res = taylor_derivative(f, a, x0, y0, fx, fy, c, g)
            assert res.identity_gap() == 0


def test_expansion_validation():
    rng = random.Random(16)
    f_plain = random_functional(rng, 1, 1, False)
    f_spatial = random_functional(rng, 1, 1, True)
    c = random_coupling(rng, 2, 1)
    with pytest.raises(ValidationError):
        taylor1(f_spatial, c.left(), c, 1)
    with pytest.raises(ValidationError):
        taylor1(f_plain, c.left(), c, 0)
    with pytest.raises(ValidationError):
        taylor1(f_plain, EmpiricalMeasure([(42,), (41,)]), c, 1)
    with pytest.raises(ValidationError):
        taylor2(f_plain, (F(0),), (F(1),), c, Grading(1, 1, 2))
    with pytest.raises(ValidationError):
        taylor_derivative(
            f_spatial, TaggedSeq((1,)), (F(0),), (F(1),), [], [], c, Grading(1, 1, 2)
        )



@pytest.mark.parametrize("order", [2.5, F(5, 2), True, "2", 0], ids=repr)
def test_an_order_is_an_integer(order):
    # 2.5 and 5/2 used to run the order-2 expansion with meta "order": 2.5,
    # True ran order 1 and "2" ended in a TypeError
    rng = random.Random(16)
    f = random_functional(rng, 1, 1, False)
    c = random_coupling(rng, 2, 1)
    pts = [x for x, _ in c.pairs]
    calls = (
        lambda: taylor1(f, c.left(), c, order),
        lambda: remainder_bound1(f, c, order, (-4, 4)),
        lambda: convergence_study(f, pts, [(F(1),)] * 2, order, [F(1, 2), F(1, 4)]),
    )
    for call in calls:
        with pytest.raises(ValidationError, match="an order is an integer of at least 1"):
            call()

def test_jet_term_value_raw_relation():
    rng = random.Random(17)
    f = random_functional(rng, 1, 1, True)
    c = random_coupling(rng, 2, 1)
    res = taylor2(
        f, random_point(rng, 1), random_point(rng, 1), c, Grading(1, 1, F(5, 2))
    )
    for term in res.jet:
        k = len(term.seq.values)
        assert term.raw == term.value.scale(F(math.factorial(k)))


def test_remainder_bound1_properties():
    rng = random.Random(18)
    # diagonal coupling: zero moments, zero bound
    pts = [random_point(rng, 1) for _ in range(2)]
    f = random_functional(rng, 1, 2, False)
    c0 = pair_coupling(pts, pts)
    assert remainder_bound1(f, c0, 2, (-10, 10)) == 0
    # domination on random instances
    for trial in range(30):
        e = rng.choice([1, 2])
        f = random_functional(rng, e, rng.randint(1, 2), False)
        c = random_coupling(rng, rng.randint(1, 3), e)
        n = rng.randint(1, 3)
        res = taylor1(f, c.left(), c, n, box=(-60, 60))
        assert res.remainder_bound >= res.remainder_norm() * (1 - 1e-9) - 1e-12


def test_remainder_bound1_scaling():
    # shrinking every gap by h scales the bound by exactly h^(n+1)
    rng = random.Random(19)
    f = random_functional(rng, 1, 2, False)
    x = [random_point(rng, 1) for _ in range(2)]
    y = [random_point(rng, 1) for _ in range(2)]
    box = (-60, 60)
    for n in (1, 2):
        full = remainder_bound1(f, pair_coupling(x, y), n, box)
        for h in (F(1, 2), F(1, 4)):
            shrunk = pair_coupling(
                x,
                [
                    tuple(a + h * (b - a) for a, b in zip(p, q))
                    for p, q in zip(x, y)
                ],
            )
            scaled = remainder_bound1(f, shrunk, n, box)
            assert scaled == pytest.approx(float(h) ** (n + 1) * full, rel=1e-9)


def test_remainder_bound2_properties():
    rng = random.Random(20)
    f = random_functional(rng, 1, 1, True)
    pts = [random_point(rng, 1) for _ in range(2)]
    x0 = random_point(rng, 1)
    c0 = pair_coupling(pts, pts)
    assert remainder_bound2(f, x0, x0, c0, Grading(1, 2, 4), (-10, 10)) == 0
    for trial in range(30):
        e = rng.choice([1, 2])
        f = random_functional(rng, e, rng.randint(1, 2), True)
        c = random_coupling(rng, rng.randint(1, 3), e)
        x0, y0 = random_point(rng, e), random_point(rng, e)
        g = rng.choice(
            [
                Grading(1, 1, F(5, 2)),
                Grading(F(1, 2), 1, F(9, 4)),
                Grading(1, F(1, 2), F(9, 4)),
                Grading(1, 3, F(3, 2)),
            ]
        )
        res = taylor2(f, x0, y0, c, g, box=(-60, 60))
        assert res.identity_gap() == 0
        assert res.remainder_bound >= res.remainder_norm() * (1 - 1e-9) - 1e-12


# Certified bound values on seeded instances. A change to how the bound is
# assembled must keep them up to rounding.
BOUND_GRADINGS = {
    "a<b": Grading(F(1, 2), 1, F(9, 4)),
    "a=b": Grading(1, 1, F(5, 2)),
    "a>b": Grading(1, F(1, 2), F(9, 4)),
}
BOUND1_TABLE = {
    (0, 1): 25402.944069483703,
    (0, 2): 21058.464295364953,
    (0, 3): 8856.331476526124,
    (1, 1): 228450.68853171897,
    (1, 2): 314994.3902723479,
    (1, 3): 230870.9308672648,
    (2, 1): 45.91782037282937,
    (2, 2): 9.930820537915661,
    (2, 3): 0.7223010995479109,
    (3, 1): 21341.66711833784,
    (3, 2): 17777.77777777778,
    (3, 3): 7407.407407407406,
    (4, 1): 29359.871272591103,
    (4, 2): 27794.419313701146,
    (4, 3): 15139.968547939301,
}
BOUND2_TABLE = {
    (0, "a<b"): 1001.0463585431555,
    (0, "a=b"): 1569.7333027104485,
    (0, "a>b"): 758.0379172306534,
    (1, "a<b"): 670.5987169754086,
    (1, "a=b"): 799.4528508094852,
    (1, "a>b"): 201.33333849487732,
    (2, "a<b"): 281.81666030719293,
    (2, "a=b"): 281.81666030719293,
    (2, "a>b"): 37.16009205706508,
    (3, "a<b"): 17736.11111111111,
    (3, "a=b"): 17736.11111111111,
    (3, "a>b"): 4459.876543209877,
    (4, "a<b"): 5202.926210094434,
    (4, "a=b"): 5891.830637059515,
    (4, "a>b"): 1172.1164669676746,
}


def _bound_instance(seed, spatial):
    rng = random.Random(f"bound-table:{seed}")
    e = rng.choice([1, 2])
    f = random_functional(rng, e, 2, spatial, degree=6, d=rng.randint(1, 2))
    n = rng.randint(1, 3)
    c = random_coupling(rng, n, e)
    return f, c, random_point(rng, e), random_point(rng, e)


@pytest.mark.parametrize("seed, n", sorted(BOUND1_TABLE))
def test_remainder_bound1_table(seed, n):
    f, c, _, _ = _bound_instance(seed, False)
    expected = BOUND1_TABLE[seed, n]
    assert remainder_bound1(f, c, n, (-4, 4)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed, name", sorted(BOUND2_TABLE))
def test_remainder_bound2_table(seed, name):
    f, c, x0, y0 = _bound_instance(seed, True)
    bound = remainder_bound2(f, x0, y0, c, BOUND_GRADINGS[name], (-4, 4))
    assert bound == pytest.approx(BOUND2_TABLE[seed, name], rel=1e-12)


def _tied_instances():
    """Pairs of (functional, coupling, x0, y0) instances, measure-only then
    spatial, for the bound/report comparison: two seeded table instances,
    then kernels of degree at most 2, whose constants of order 3 and 4
    vanish."""
    for seed in (0, 2):
        yield _bound_instance(seed, False), _bound_instance(seed, True)
    rng = random.Random("bound-report-low-degree")
    e = 2
    f1, f2 = (random_functional(rng, e, 2, s, degree=2) for s in (False, True))
    c = random_coupling(rng, 2, e)
    x0, y0 = random_point(rng, e), random_point(rng, e)
    yield (f1, c, x0, y0), (f2, c, x0, y0)


def _assert_bound_tied_to_report(f, bound_terms, box):
    """Every constant of a bound record is the `.value` of the matching
    `norms_on_box` report, with `==`; returns how many constants were of a
    derivative past the kernel degree."""
    past = 0
    for record in bound_terms:
        values = tuple(record["seq"])
        norms = norms_on_box(lions_derivative(f, TaggedSeq(values)), box)
        reports = [norms.sup, norms.lip_measure, *norms.lip_free]
        if "lip_spatial" in record:
            assert record["lip_spatial"] == norms.lip_spatial.value
            reports.append(norms.lip_spatial)
        if "lip_measure" in record:
            assert record["lip_measure"] == norms.lip_measure.value
            assert record["lip_free"] == [n.value for n in norms.lip_free]
        for n in reports:
            assert n.grid <= n.value
            assert n.slack == n.value - n.grid
        if len(values) + 1 > max(c.degree() for c in f.kernel.components):
            past += 1
    return past


def test_bound_constants_equal_the_norms_report():
    box = (-4, 4)
    past = 0
    for (f1, c, _, _), (f2, _, x0, y0) in _tied_instances():
        for n in (1, 2, 3):
            res = taylor1(f1, c.left(), c, n, box=box)
            past += _assert_bound_tied_to_report(f1, res.bound_terms, box)
        for g in BOUND_GRADINGS.values():
            res = taylor2(f2, x0, y0, c, g, box=box)
            assert {"lip_spatial", "lip_measure"} <= {k for r in res.bound_terms for k in r}
            past += _assert_bound_tied_to_report(f2, res.bound_terms, box)
    assert past > 0


def test_bound_rejects_data_outside_box():
    rng = random.Random(21)
    f = random_functional(rng, 1, 1, False)
    c = pair_coupling([(F(5),)], [(F(0),)])
    with pytest.raises(ValidationError):
        remainder_bound1(f, c, 1, (-1, 1))
    # the box is closed, and a rational point just past it is outside even
    # where it rounds to the edge as a float
    past = F(4) + F(1, 10**20)
    assert float(past) == 4.0
    remainder_bound1(f, pair_coupling([(F(4),)], [(F(-4),)]), 1, (-4, 4))
    for x, y in (((past,), (F(0),)), ((F(0),), (-past,))):
        with pytest.raises(ValidationError, match="outside box"):
            remainder_bound1(f, pair_coupling([x], [y]), 1, (-4, 4))


def test_box_membership_is_exact_at_a_float_edge():
    # the float 0.1 is greater than 1/10, and 0.09999999999999999 less
    tenth, half = F(1, 10), F(1, 2)
    assert F(0.1) > tenth > F(0.09999999999999999)
    f = kernel_1d({(2, 1): F(1)}, arity=2)
    g = kernel_1d({(1, 1, 1): F(1)}, arity=2, spatial=True)
    grading = Grading(1, 1, F(3, 2))
    still = pair_coupling([(half,)], [(half,)])
    bounds = {
        "atom": lambda box: remainder_bound1(f, pair_coupling([(tenth,)], [(half,)]), 1, box),
        "target": lambda box: remainder_bound1(f, pair_coupling([(half,)], [(tenth,)]), 1, box),
        "spatial point": lambda box: remainder_bound2(g, (tenth,), (half,), still, grading, box),
    }
    for name, bound in bounds.items():
        with pytest.raises(ValidationError, match="outside box"):
            bound((0.1, 1))
        assert bound((0.09999999999999999, 1)) >= 0.0, name
    # a float coordinate meets the float endpoints as they are
    on_edge = pair_coupling([(0.1,)], [(0.5,)])
    assert remainder_bound1(f, on_edge, 1, (0.1, 1)) >= 0.0
    with pytest.raises(ValidationError, match=r"point \(0\.1,\) outside box"):
        remainder_bound1(f, on_edge, 1, (0.10000000000000002, 1))


def test_a_second_bound_call_reads_the_kept_bounding_box(monkeypatch):
    f = random_functional(random.Random(4), 2, 2, False)
    c = pair_coupling([(F(1), F(-2)), (F(2), F(1, 3))], [(F(3), F(0)), (F(-1), F(2))])
    seen = []
    read = measures.Coupling.bounding_box
    monkeypatch.setattr(
        measures.Coupling, "bounding_box", lambda self: seen.append(self._box) or read(self)
    )
    first = remainder_bound1(f, c, 2, (-4, 4))
    box = c._box
    assert box == ((F(-1), F(-2)), (F(3), F(2)))
    assert remainder_bound1(f, c, 2, (-4, 4)) == first
    assert seen == [None, box] and c._box is box
    # a corner outside the box is traced back to the point that put it there
    with pytest.raises(ValidationError, match=r"point \(Fraction\(3, 1\), Fraction\(0, 1\)\)"):
        remainder_bound1(f, c, 2, (-2, 2))


def _entries(res):
    """(tensor name, entry) of every entry of an expansion result."""
    named = [(f"jet {term.seq.values} {part}", t) for term in res.jet
             for part, t in (("value", term.value), ("raw", term.raw))]
    named += [("predicted", res.predicted), ("actual", res.actual)]
    named += [("remainder_exact", res.remainder_exact)]
    named += [(f"remainder {key}", t) for key, t in res.remainder_terms.items()]
    return [(name, v) for name, t in named for v in t.data]


def test_rational_results_hold_fractions_and_float_results_floats():
    rng = random.Random(23)
    f1 = random_functional(rng, 2, 2, False, degree=4)
    f2 = random_functional(rng, 2, 2, True, degree=4)
    c = random_coupling(rng, 3, 2)
    x0, y0, u, v = (random_point(rng, 2) for _ in range(4))
    g = Grading(1, 1, F(5, 2))

    def results(c, x0, y0, u, v):
        yield taylor1(f1, c.left(), c, 3)
        yield taylor2(f2, x0, y0, c, g)
        yield taylor_derivative(f2, (1,), x0, y0, [u], [v], c, Grading(1, F(1, 2), 3))

    for res in results(c, x0, y0, u, v):
        entries = _entries(res)
        assert all(type(v) is Fraction for _, v in entries)
        assert any(v for _, v in entries)
        assert all(isinstance(v, str) for v in _json_numbers(res.to_json()))

    def floats(p):
        return tuple(float(q) for q in p)

    fc = pair_coupling([floats(x) for x, _ in c.pairs], [floats(y) for _, y in c.pairs])
    for res in results(fc, *map(floats, (x0, y0, u, v))):
        # a float everywhere but in the exact zeros of vanishing terms
        entries = _entries(res)
        assert all(type(v) is float or type(v) is Fraction and v == 0 for _, v in entries)
        assert all(type(v) is float for name, v in entries if not name.startswith(("jet", "rem")))
        assert all(isinstance(v, float) for v in _json_numbers(res.to_json()))


def _json_numbers(data):
    """The printed entries of the tensors of `ExpansionResult.to_json`."""
    tensors = [t for term in data["jet"].values() for t in term.values()]
    tensors += [data["predicted"], data["actual"], data["remainder_exact"]]
    tensors += [t for family in data["remainder_terms"].values() for t in family.values()]
    out = []

    def walk(x):
        for y in x:
            walk(y) if isinstance(y, list) else out.append(y)

    walk(tensors)
    return out


def test_bound_is_never_nan_when_a_constant_overflows():
    # on a box of half-width 1e308 the Lipschitz constants overflow to inf;
    # with a coupling that moves no atom (and x0 == y0) every moment and
    # displacement factor is 0, and inf * 0.0 used to make the bound nan
    f = kernel_1d({(2, 1): F(1)}, arity=2)
    g = kernel_1d({(1, 1, 1): F(1)}, arity=2, spatial=True)
    still = pair_coupling([(F(1),), (F(-1),)], [(F(1),), (F(-1),)])
    box = (-1e308, 1e308)
    assert remainder_bound1(f, still, 1, box) == 0.0
    assert remainder_bound2(g, (F(0),), (F(0),), still, Grading(1, 1, F(3, 2)), box) == 0.0
    res = taylor1(f, still.left(), still, 1, box=box)
    assert res.remainder_bound == 0.0
    assert all(record["term"] == 0.0 for record in res.bound_terms)
    assert math.inf in res.bound_terms[0]["lip_free"]
    # a moved atom leaves an infinite, still valid, upper bound
    assert remainder_bound1(f, pair_coupling([(F(1),)], [(F(2),)]), 1, box) == math.inf
    # a degree-4 constant overflows in a power, which used to raise
    h = kernel_1d({(3, 1): F(1)}, arity=2)
    assert remainder_bound1(h, pair_coupling([(F(1),)], [(F(2),)]), 1, box) == math.inf


def test_bounds_reject_non_finite_boxes():
    f = kernel_1d({(2, 1): F(1)}, arity=2)
    c = pair_coupling([(F(1),)], [(F(2),)])
    for box in [(-math.inf, math.inf), (0, math.inf), (math.nan, 1), [(-1, 1), (-math.inf, 1)]]:
        with pytest.raises(ValidationError):
            normalize_box(box, len(box) if isinstance(box, list) else 1)
    with pytest.raises(ValidationError, match="finite"):
        remainder_bound1(f, c, 1, (-math.inf, math.inf))
    with pytest.raises(ValidationError, match="finite"):
        taylor1(f, c.left(), c, 1, box=(-4, math.inf))


@pytest.mark.parametrize("box", [(0, 1, 2), ("a", "b"), [(0, 1, 2)]], ids=str)
def test_a_malformed_box_is_refused_naming_both_forms(box):
    # these used to raise a bare unpacking TypeError or ValueError
    with pytest.raises(ValidationError, match=r"\(lo, hi\) or a list of 1 \(lo, hi\) pairs"):
        normalize_box(box, 1)


def test_expansions_reject_points_of_another_dimension():
    rng = random.Random(26)
    f = random_functional(rng, 2, 1, False)
    fs = random_functional(rng, 2, 1, True)
    c1, c2 = random_coupling(rng, 2, 1), random_coupling(rng, 2, 2)
    x0, y0, x1 = random_point(rng, 2), random_point(rng, 2), random_point(rng, 1)
    g = Grading(1, 1, F(5, 2))
    calls = [
        lambda: taylor1(f, c1.left(), c1, 1),
        lambda: remainder_bound1(f, c1, 1, (-4, 4)),
        lambda: eval_Da(f, TaggedSeq((1,)), None, None, c1),
        lambda: taylor2(fs, x0, y0, c1, g),
        lambda: taylor2(fs, x1, y0, c2, g),
        lambda: remainder_bound2(fs, x0, x1, c2, g, (-4, 4)),
        lambda: taylor_derivative(fs, TaggedSeq((1,)), x0, y0, [x1], [x0], c2, g),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="coordinates"):
            call()


def test_a_spatial_point_that_is_not_a_point_is_refused_in_one_line():
    # taylor2(f, None, ...) used to raise "'NoneType' object is not iterable"
    rng = random.Random(27)
    fs = random_functional(rng, 1, 1, True)
    c, g, y0 = random_coupling(rng, 2, 1), Grading(1, 1, F(5, 2)), (F(1),)
    calls = [
        lambda: taylor2(fs, None, y0, c, g),
        lambda: taylor2(fs, y0, 3, c, g),
        lambda: remainder_bound2(fs, None, y0, c, g, (-4, 4)),
        lambda: taylor_derivative(fs, TaggedSeq((1,)), None, y0, [y0], [y0], c, g),
        lambda: taylor_derivative(fs, TaggedSeq((1,)), y0, y0, [None], [y0], c, g),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="sequences of coordinates") as err:
            call()
        assert "\n" not in str(err.value)


def test_a_study_refuses_scales_that_are_not_numbers_in_one_line():
    # h_list=["a", "b"] used to raise the bare ValueError of Fraction
    f = kernel_1d({(2,): F(1)}, arity=1)
    for h_list in (["a", "b"], [None, F(1, 2)], 0.5):
        with pytest.raises(ValidationError, match="h_list must hold numbers") as err:
            convergence_study(f, [(F(1),)], [(F(1),)], 1, h_list)
        assert "\n" not in str(err.value)


_MISSING_ARGUMENT_CALLS = {
    "taylor_derivative-free-points": lambda f, fs, c, g, y: taylor_derivative(
        fs, (1,), y, y, None, None, c, g
    ),
    "eval_derivative-free-points": lambda f, fs, c, g, y: eval_derivative(
        lions_derivative(f, (1,)), None, c.left(), None
    ),
    "convergence_study-points": lambda f, fs, c, g, y: convergence_study(
        f, None, None, 1, [1 / 2, 1 / 4]
    ),
    "pair_coupling-points": lambda f, fs, c, g, y: pair_coupling(None, None),
    "lions_derivative-sequence": lambda f, fs, c, g, y: lions_derivative(f, None),
    "taylor1-coupling": lambda f, fs, c, g, y: taylor1(f, None, None, 1),
    "taylor2-coupling": lambda f, fs, c, g, y: taylor2(fs, y, y, None, g),
    "eval_Da-coupling": lambda f, fs, c, g, y: eval_Da(f, (1,), None, None, None),
    "remainder_bound1-coupling": lambda f, fs, c, g, y: remainder_bound1(f, None, 1, (-4, 4)),
    "taylor1-coupling-before-marginal": lambda f, fs, c, g, y: taylor1(f, c.left(), None, 1),
    "grade-grading": lambda f, fs, c, g, y: grade((0, 1), None),
    "enum_graded-grading": lambda f, fs, c, g, y: enum_graded(None),
}


@pytest.mark.parametrize("name", sorted(_MISSING_ARGUMENT_CALLS))
def test_a_missing_argument_is_refused_in_one_line(name):
    # each of these used to end in a bare TypeError or AttributeError
    rng = random.Random(32)
    f, fs = random_functional(rng, 1, 1, False), random_functional(rng, 1, 1, True)
    c, g = random_coupling(rng, 2, 1), Grading(1, 1, F(5, 2))
    with pytest.raises(ValidationError) as err:
        _MISSING_ARGUMENT_CALLS[name](f, fs, c, g, (F(1),))
    assert str(err.value) and "\n" not in str(err.value)


_NOT_A_POINT_CALLS = {
    "pair_coupling": lambda f, fs, c, g: pair_coupling([None], [None]),
    "convergence_study-points": lambda f, fs, c, g: convergence_study(
        f, [1], [1], 1, [F(1, 2), F(1, 4)]
    ),
    "convergence_study-x0": lambda f, fs, c, g: convergence_study(
        fs, [(F(0),)], [(F(1),)], g, [F(1, 2), F(1, 4)], x0=3, x0_direction=3
    ),
    "eval_Da": lambda f, fs, c, g: eval_Da(fs, (0,), 3, 3, c),
    "eval_derivative-measure": lambda f, fs, c, g: eval_derivative(
        lions_derivative(f, ()), None, [1], []
    ),
}


@pytest.mark.parametrize("name", sorted(_NOT_A_POINT_CALLS))
def test_a_point_or_measure_of_the_wrong_kind_is_refused_in_one_line(name):
    # each of these used to end in a bare TypeError or AttributeError
    rng = random.Random(33)
    f, fs = random_functional(rng, 1, 1, False), random_functional(rng, 1, 1, True)
    c, g = random_coupling(rng, 2, 1), Grading(1, 1, F(5, 2))
    with pytest.raises(ValidationError) as err:
        _NOT_A_POINT_CALLS[name](f, fs, c, g)
    assert str(err.value) and "\n" not in str(err.value)


def test_bounds_reject_the_wrong_kind_of_functional():
    rng = random.Random(25)
    spatial = kernel_1d({(1, 1): F(1)}, arity=1, spatial=True)
    measure_only = random_functional(rng, 1, 1, False)
    c = random_coupling(rng, 1, 1)
    x0, y0 = (F(0),), (F(1, 2),)
    with pytest.raises(ValidationError, match="without a spatial slot"):
        remainder_bound1(spatial, c, 2, (-4, 4))
    with pytest.raises(ValidationError, match="with a spatial slot"):
        remainder_bound2(measure_only, x0, y0, c, Grading(1, 1, 2), (-4, 4))
    with pytest.raises(ValidationError, match="grading required"):
        remainder_bound2(spatial, x0, y0, c, (1, 1, 2), (-4, 4))
    # an order where a grading belongs, or the reverse, is refused too: the
    # spatial points go with a spatial slot and only with one
    for call in (
        lambda: taylor2(measure_only, x0, y0, c, 2),
        lambda: remainder_bound2(measure_only, x0, y0, c, 2, (-4, 4)),
        lambda: taylor1(spatial, c.left(), c, Grading(1, 1, 2)),
        lambda: remainder_bound1(spatial, c, Grading(1, 1, 2), (-4, 4)),
    ):
        with pytest.raises(ValidationError, match="spatial points go with"):
            call()


def test_pure_spatial_cross_term_reduces_to_classical_shape():
    # with beta large only zero sequences fit: the bound's cross factor is
    # the spatial displacement power alone, like a classical Taylor tail
    rng = random.Random(22)
    f = random_functional(rng, 1, 1, True)
    pts = [random_point(rng, 1) for _ in range(2)]
    c = pair_coupling(pts, pts)
    x0, y0 = (F(0),), (F(1, 2),)
    g = Grading(F(3, 4), F(10),  F(9, 4))
    res = taylor2(f, x0, y0, c, g, box=(-10, 10))
    cross_seqs = [v for fam, v in res.remainder_terms if fam == "cross"]
    assert cross_seqs and all(set(v) == {0} for v in cross_seqs)
    assert res.identity_gap() == 0


def test_float_mode_runs_close_to_exact():
    rng = random.Random(23)
    f = random_functional(rng, 1, 2, False)
    x = [random_point(rng, 1) for _ in range(2)]
    y = [random_point(rng, 1) for _ in range(2)]
    exact = taylor1(f, pair_coupling(x, y).left(), pair_coupling(x, y), 2)
    xf = [tuple(map(float, p)) for p in x]
    yf = [tuple(map(float, p)) for p in y]
    cf = pair_coupling(xf, yf)
    approx = taylor1(f, cf.left(), cf, 2)
    assert float(approx.identity_gap()) <= 1e-12
    assert float(approx.remainder_exact[(0,)]) == pytest.approx(
        float(exact.remainder_exact[(0,)]), abs=1e-12
    )


def test_result_serialization():
    rng = random.Random(24)
    f = random_functional(rng, 1, 1, True)
    c = random_coupling(rng, 2, 1)
    res = taylor2(
        f,
        random_point(rng, 1),
        random_point(rng, 1),
        c,
        Grading(F(1, 2), 1, F(9, 4)),
        box=(-60, 60),
    )
    data = res.to_json()
    assert set(data["remainder_terms"]) <= {"star", "plus", "cross"}
    assert len(data["jet"]) == len(res.jet)
    assert data["remainder_bound"] == res.remainder_bound
    import json

    json.dumps(data)


def test_bilinear_spatial_kernel_exact_for_every_grading():
    # f(x0, mu) = x0 * int y dmu(y): exactness holds termwise whatever the
    # grading weights
    f = kernel_1d({(1, 1): F(1)}, arity=1, spatial=True)
    c = pair_coupling([(F(1, 3),), (F(-1),)], [(F(1, 2),), (F(2),)])
    x0, y0 = (F(1, 4),), (F(-2, 3),)
    for g in (
        Grading(1, 1, F(5, 2)),
        Grading(F(1, 2), 1, F(9, 4)),
        Grading(1, F(1, 2), F(9, 4)),
        Grading(2, 3, 7),
        Grading(F(1, 3), F(5, 4), F(17, 6)),
    ):
        res = taylor2(f, x0, y0, c, g)
        assert res.identity_gap() == 0


def test_eval_Da_matches_independent_nested_loop():
    # reference implementation: literal nested sums over coupling variables,
    # contracting entrywise against the displacement tensor
    import itertools

    rng = random.Random(25)
    for spatial in (False, True):
        e = rng.choice([1, 2])
        f = random_functional(rng, e, 2, spatial)
        c = random_coupling(rng, 3, e)
        mu = c.left()
        x0 = random_point(rng, e) if spatial else None
        y0 = random_point(rng, e) if spatial else None
        disp = tuple(b - a for a, b in zip(x0, y0)) if spatial else None
        seqs = [(1,), (1, 1), (1, 2)] + ([(0, 1), (1, 0, 2)] if spatial else [])
        for values in seqs:
            a = TaggedSeq(values)
            got = eval_Da(f, a, x0, disp, c)
            n, m = len(values), a.m
            want = [F(0)] * f.kernel.d
            atoms = [x for x, _ in c.pairs]
            gaps = c.gaps()
            for idx in itertools.product(range(c.n_atoms), repeat=m):
                free = [atoms[i] for i in idx]
                tensor = eval_derivative(
                    lions_derivative(f, a), x0, mu, free
                )
                for comp in range(f.kernel.d):
                    for coords in itertools.product(range(e), repeat=n):
                        w = F(1)
                        for p, letter in enumerate(values):
                            vec = disp if letter == 0 else gaps[idx[letter - 1]]
                            w *= vec[coords[p]]
                        want[comp] += tensor[(comp,) + coords] * w
            scale = F(1, c.n_atoms**m)
            assert [got[(comp,)] for comp in range(f.kernel.d)] == [
                scale * v for v in want
            ]


def test_incommensurate_grading_weights_stay_exact():
    rng = random.Random(26)
    gradings = [
        Grading(F(1, 3), F(1, 2), F(4, 3)),
        Grading(F(2, 5), F(3, 7), F(9, 5)),
        Grading(F(5, 7), F(3, 11), F(13, 7)),
    ]
    for g in gradings:
        for _ in range(3):
            e = rng.choice([1, 2])
            f = random_functional(rng, e, rng.randint(1, 2), True)
            c = random_coupling(rng, rng.randint(1, 2), e)
            res = taylor2(f, random_point(rng, e), random_point(rng, e), c, g)
            assert res.identity_gap() == 0


def test_measure_independent_functional_reduces_to_spatial_taylor():
    # arity 0: the measure never enters, so the expansion is a classical
    # spatial Taylor expansion and must still be exact
    from lionsjet.poly import MPoly
    from lionsjet.functional import PolyKernel, PolyFunctional

    k0 = PolyKernel(1, 1, 0, True, [MPoly(1, {(3,): F(1), (1,): F(-2)})])
    f0 = PolyFunctional(k0)
    c = pair_coupling([(F(0),)], [(F(1),)])
    for g in (Grading(F(1, 3), F(1, 2), F(4, 3)), Grading(1, 2, F(7, 2))):
        res = taylor2(f0, (F(1, 2),), (F(-1, 3),), c, g)
        assert res.identity_gap() == 0
        for (fam, values), term in res.remainder_terms.items():
            if any(v > 0 for v in values):
                assert term.max_abs() == 0


def test_taylor_derivative_mixed_and_repeated_bases():
    rng = random.Random(27)
    for values in [(0, 1), (1, 1), (0, 0), (1, 2, 1)]:
        a = TaggedSeq(values)
        e = rng.choice([1, 2])
        f = random_functional(rng, e, 3, True)
        c = random_coupling(rng, 2, e)
        g = Grading(F(1, 2), 1, 4)
        fx = [random_point(rng, e) for _ in range(a.m)]
        fy = [random_point(rng, e) for _ in range(a.m)]
        res = taylor_derivative(
            f, a, random_point(rng, e), random_point(rng, e), fx, fy, c, g
        )
        assert res.identity_gap() == 0


def test_taylor_derivative_minimal_headroom():
    # the discounted threshold exactly equal to one derivative step is the
    # smallest admissible truncation and still expands exactly
    rng = random.Random(28)
    f = random_functional(rng, 1, 2, True)
    c = random_coupling(rng, 2, 1)
    g = Grading(F(1, 2), 1, F(3, 2))
    res = taylor_derivative(
        f, TaggedSeq((1,)), (F(0),), (F(1, 4),),
        [(F(1),)], [(F(3, 2),)], c, g,
    )
    assert res.identity_gap() == 0
    with pytest.raises(ValidationError):
        taylor_derivative(
            f, TaggedSeq((1, 2)), (F(0),), (F(1, 4),),
            [(F(1),), (F(0),)], [(F(3, 2),), (F(1),)], c, g,
        )


# -- one contraction and one constant per symmetry orbit ------------------------


def _orbit_cases(as_float=False):
    """(name, run, f, base, tagged pairs, coupling, alpha, beta, eta) for
    `taylor1` at orders 1-3, `taylor2` in its three grading branches and
    `taylor_derivative` on (0), (1) and (1, 2), on e = 2 kernels of arity 2.
    The base (1, 2) expands with its free letters among the tagged letters.
    `run()` computes the expansion. With `as_float` every point is a float;
    with `as_float == "targets"` only the tagged targets are."""
    rng = random.Random("orbit-cases")
    e = 2
    f1 = random_functional(rng, e, 2, False, degree=5)
    f2 = random_functional(rng, e, 2, True, degree=5)
    c = random_coupling(rng, 2, e)
    x0, y0 = random_point(rng, e), random_point(rng, e)
    free = [(random_point(rng, e), random_point(rng, e)) for _ in range(2)]
    point = lambda p: tuple(map(float, p))
    if as_float == "targets":
        y0 = point(y0)
        free = [(x, point(y)) for x, y in free]
    elif as_float:
        c = pair_coupling([point(x) for x, _ in c.pairs], [point(y) for _, y in c.pairs])
        x0, y0 = point(x0), point(y0)
        free = [(point(x), point(y)) for x, y in free]
    for n in (1, 2, 3):
        run = lambda n=n: taylor1(f1, c.left(), c, n)
        yield f"taylor1-{n}", run, f1, (), [], c, 1, 1, n
    for g in (Grading(F(1, 2), 1, F(9, 4)), Grading(1, 1, F(5, 2)), Grading(1, F(1, 2), F(9, 4))):
        run = lambda g=g: taylor2(f2, x0, y0, c, g)
        yield f"taylor2-{g.alpha}-{g.beta}", run, f2, (), [(x0, y0)], c, g.alpha, g.beta, g.gamma
    for values, g in (
        ((0,), Grading(F(1, 2), 1, 3)),
        ((1,), Grading(1, F(1, 2), F(5, 2))),
        ((1, 2), Grading(F(1, 2), 1, 3)),
    ):
        a = TaggedSeq(values)
        fx, fy = [x for x, _ in free[: a.m]], [y for _, y in free[: a.m]]
        run = lambda a=a, g=g, fx=fx, fy=fy: taylor_derivative(f2, a, x0, y0, fx, fy, c, g)
        pairs = [(x0, y0)] + free[: a.m]
        eta = g.gamma - grade(a, g)
        yield f"derivative-{values}", run, f2, values, pairs, c, g.alpha, g.beta, eta


def _per_sequence_terms(f, base, pairs, c, alpha, beta, eta):
    """The jet raws and remainder terms of the graded expansion, each
    sequence contracted on its own derivative: a fresh `lions_derivative` of
    base + values, never of another member of its orbit, against fresh
    views of the coupling, never the ones it keeps."""
    base = TaggedSeq(base)
    m0, n0 = base.m, len(base)
    gaps = [tuple(b - a for a, b in zip(x, y)) for x, y in c.pairs]
    base_view = MomentView([x for x, _ in c.pairs], c.dim, gaps)
    path_view = MomentView([x for x, _ in c.pairs], c.dim, gaps).on_path()
    starts = [tuple(x) for x, _ in pairs]
    disps = [tuple(b - a for a, b in zip(x, y)) for x, y in pairs]
    paths = [MomentView([x], c.dim, [disp]).on_path() for x, disp in zip(starts, disps)]

    def contract(values, tagged_at_xi, measure_at_xi):
        tagged = paths if tagged_at_xi else starts
        dirvecs = [None] * n0 + [disps[v] if v <= m0 else v - m0 - 1 for v in values]
        return contract_once(
            lions_derivative(f, TaggedSeq(base.values + values)),
            tagged[0] if tagged else None,
            path_view if measure_at_xi else base_view,
            tagged[1:],
            dirvecs,
        ).tensor()

    core, *families = _graded_value_families(alpha, beta, eta, m0, 0 if f.has_spatial else 1)
    raws = {values: contract(values, False, False) for values in core}
    terms = {}
    for (family, moving, frozen), members in zip(_family_sides(alpha, beta), families):
        for values in members:
            step = contract(values, *moving) - contract(values, *frozen)
            terms[(family, values)] = integrated(step, len(values) - 1)
    return raws, terms


def test_every_term_equals_the_contraction_of_its_own_sequence():
    moved = {}
    for name, run, f, base, pairs, c, alpha, beta, eta in _orbit_cases():
        res = run()
        raws, terms = _per_sequence_terms(f, base, pairs, c, alpha, beta, eta)
        assert {term.seq.values: term.raw for term in res.jet} == raws
        assert res.remainder_terms == terms
        assert res.identity_gap() == 0
        m0 = TaggedSeq(base).m
        members = list(raws.items()) + [(v, t) for (_, v), t in terms.items()]
        moved[name] = sum(_orbit_key(v, m0) != v and t.max_abs() != 0 for v, t in members)
    # every case with an orbit of two or more members checks a nonzero value
    # of a member that is not its orbit's representative (orders 1 and 2 of
    # taylor1 have no such orbit)
    assert [name for name, count in moved.items() if not count] == ["taylor1-1", "taylor1-2"]


@pytest.mark.parametrize("as_float", [False, True, "targets"])
def test_integer_bookkeeping_changes_no_output_byte(monkeypatch, as_float):
    # the engine and the study on integer numerators, against the same code
    # handed every contraction as Fractions, so that each later step runs on
    # Fractions: rational, float and mixed data print the same bytes
    def outputs():
        out = [json.dumps(run().to_json()) for _, run, *_ in _orbit_cases(as_float)]
        f = random_functional(random.Random(5), 2, 2, False, degree=4)
        points = [random_point(random.Random(k), 2) for k in range(3)]
        directions = [random_point(random.Random(k + 3), 2) for k in range(3)]
        for hs in ([F(1, 2), F(1, 4)], [F(1, 2), 0.25]):
            out.append(repr(convergence_study(f, points, directions, 2, hs, box=(-9, 9))))
        return out

    def as_fractions(t):  # an exact contraction divided here, entry by entry, over 1
        if t.exact:
            t = RationalTensor(t.shape, [
                [F(c, t.den) for c in v] if type(v) is list else F(v, t.den) for v in t.data
            ], 1, exact=False)
        return t

    kept = outputs()
    real = functional.contract_derivative
    monkeypatch.setattr(expansion, "contract_derivative", lambda *args: as_fractions(real(*args)))
    assert outputs() == kept


def _float_path_outputs():
    """Float taylor1 and taylor2 expansions, whose remainder integrands lie
    on the path, and a study at float scales h, on fresh couplings."""
    rng = random.Random("float-path")
    f1 = random_functional(rng, 2, 2, False, degree=4)
    f2 = random_functional(rng, 2, 2, True, degree=3)
    points = [tuple(rng.uniform(-2, 2) for _ in range(2)) for _ in range(6)]
    c = pair_coupling(points[:3], points[3:])
    out = [taylor1(f1, c.left(), c, n, box=(-9, 9)).to_json() for n in (1, 2, 3)]
    out.append(taylor2(f2, (0.5, -0.25), (1.0, 0.75), c, Grading(1, F(1, 2), F(5, 2))).to_json())
    out.append(convergence_study(f1, points[:3], points[3:], 2, [0.5, 0.25, 0.125]))
    return [json.dumps(item) for item in out]


def test_float_path_terms_read_coefficient_lists(monkeypatch):
    # a float path value is a list of xi-coefficients from the power tables
    # to the integral and the value at h: no step multiplies, adds or
    # integrates an XiPoly
    kept = _float_path_outputs()

    def refuse(*args):
        raise AssertionError("XiPoly arithmetic on the path")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "integrate_weighted"):
        monkeypatch.setattr(XiPoly, name, refuse)
    assert _float_path_outputs() == kept


def _huge_point(rng, e):
    return tuple(F(rng.randint(-(3**201), 3**201), 3**200) for _ in range(e))


HUGE_DENOMINATOR_DIGESTS = [
    "8b020b0716ba037d017b5641e0f6d269e67e04eb7d20ff195338ce7447e6853e",
    "bc56666a500db6c7d335362fc1a2d6b928a592c38e177ed68d42c4be0215afca",
    "d2306d00e3b5bbf58f75887c93b5ee605ff75812052b4850d099236b49b67b12",
    "a230730670d1fa3b2382f2883cd37b72937724b8d46c3782d07d6e91e2407df6",
    "786677fe58343fb2ee751bdc80e626ce4ef6f39ad38192fe4834b6361ec80f97",
]


def test_a_norm_past_the_float_range_is_inf():
    # the norm of a remainder and of a study row; an entry past the float
    # range used to raise OverflowError, and squares past it need hypot
    assert Tensor((2,), [F(10) ** 400, F(1)]).frobenius() == math.inf
    assert Tensor((2,), [F(10) ** 200, F(-(10**200))]).frobenius() == math.hypot(1e200, 1e200)
    rng = random.Random("norms")
    for _ in range(50):
        data = [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)) for _ in range(6)]
        data += [rng.uniform(-1e3, 1e3), 0.0]
        assert Tensor((8,), data).frobenius() == math.sqrt(sum(float(v) ** 2 for v in data))


def test_exact_tensors_are_divided_before_they_meet_a_float():
    # float starts and rational targets with denominators of 3^200: the
    # target value is an exact tensor over a huge denominator, the
    # prediction is not exact, and a study at a float h on such rational
    # points meets its exact jets and path value with float scales. Each
    # exact tensor is divided into Fractions first (a lifted integer that
    # met a float would overflow it), so the bytes are those pinned here
    rng = random.Random("huge-denominators")
    e = 2
    f1 = random_functional(rng, e, 2, False, degree=4)
    f2 = random_functional(rng, e, 2, True, degree=3)
    starts = [tuple(rng.uniform(-2, 2) for _ in range(e)) for _ in range(3)]
    c = pair_coupling(starts, [_huge_point(rng, e) for _ in range(3)])
    out = [taylor1(f1, c.left(), c, n).to_json() for n in (1, 2, 3)]
    g = Grading(1, F(1, 2), F(5, 2))
    out.append(taylor2(f2, (0.5, -0.25), _huge_point(rng, e), c, g).to_json())
    points = [_huge_point(rng, e) for _ in range(3)]
    dirs = [_huge_point(rng, e) for _ in range(3)]
    out.append(convergence_study(f1, points, dirs, 2, [0.5, 0.25, F(1, 8)]))
    digests = [hashlib.sha256(json.dumps(item).encode()).hexdigest() for item in out]
    assert digests == HUGE_DENOMINATOR_DIGESTS


def test_float_terms_stay_close_to_their_own_sequence_contraction():
    for _, run, f, base, pairs, c, alpha, beta, eta in _orbit_cases(as_float=True):
        res = run()
        raws, terms = _per_sequence_terms(f, base, pairs, c, alpha, beta, eta)
        got = [term.raw for term in res.jet] + list(res.remainder_terms.values())
        want = [raws[term.seq.values] for term in res.jet] + [
            terms[key] for key in res.remainder_terms
        ]
        assert res.remainder_terms.keys() == terms.keys()
        for u, v in zip(got, want):
            assert u.data == pytest.approx(v.data, rel=1e-9, abs=1e-9)


def test_engine_contracts_once_per_orbit_and_sides(monkeypatch):
    contracted = []

    def counting(ts, *args):
        contracted.append(ts.seq.values)
        return contract_derivative(ts, *args)

    monkeypatch.setattr(expansion, "contract_derivative", counting)
    monkeypatch.setattr(functional, "contract_derivative", counting)
    vanishing = 0
    for _, run, f, base, pairs, c, alpha, beta, eta in _orbit_cases():
        contracted.clear()
        res = run()
        m0, n0 = TaggedSeq(base).m, len(base)
        core, *families = _graded_value_families(
            alpha, beta, eta, m0, 0 if f.has_spatial else 1
        )
        requests = [(values, (False, False)) for values in core]
        for (_, moving, frozen), members in zip(_family_sides(alpha, beta), families):
            requests += [(values, sides) for values in members for sides in (moving, frozen)]
        live = [(v, sides) for v, sides in requests if not _vanishes(f.kernel, base + v)]
        vanishing += len(requests) - len(live)
        orbits = {(_orbit_key(values, m0), sides) for values, sides in live}
        # one contraction per distinct live (orbit, sides), of the
        # representative, then one for the value at the target
        assert len(contracted) == len(orbits) + 1 < len(requests) + 1
        assert all(_orbit_key(s[n0:], m0) == s[n0:] for s in contracted[:-1])
        assert contracted[-1] == tuple(base)
        tensors = [res.predicted, res.actual, res.remainder_exact]
        tensors += [t for term in res.jet for t in (term.value, term.raw)]
        tensors += list(res.remainder_terms.values())
        assert len({id(t.data) for t in tensors}) == len(tensors)
    assert vanishing > 0


def test_each_engine_run_sets_up_each_side_once(monkeypatch):
    # the set-up work of a run, pinned by counts: one side per expansion
    # side it contracts on and one for the value at the targets (a study:
    # the side of its jet and that of f on the path);
    # no view built inside a contraction; and no side reading one sum table
    # (view, gap exponents, degree) twice
    sides, reads, built, inside = [], [], [], []
    init, read, fill = functional._Side.__init__, MomentView.sums, MomentView._set

    def build(self, points, mu, vectors=()):
        sides.append(self)
        init(self, points, mu, vectors)

    def counting(ts, side, *args):
        inside.append(side)
        try:
            return contract_derivative(ts, side, *args)
        finally:
            inside.pop()

    def sums(view, gap, degree=None):
        if inside:
            reads.append((id(inside[-1]), id(view), gap, degree))
        return read(view, gap, degree)

    def view(self, *args):
        built.append(bool(inside))
        return fill(self, *args)

    monkeypatch.setattr(functional._Side, "__init__", build)
    monkeypatch.setattr(MomentView, "sums", sums)
    monkeypatch.setattr(MomentView, "_set", view)
    for module in (expansion, functional):
        monkeypatch.setattr(module, "contract_derivative", counting)

    def run_counts(run):
        sides.clear()
        reads.clear()
        run()
        assert reads and len(set(reads)) == len(reads)
        return len(sides)

    for _, run, f, base, pairs, c, alpha, beta, eta in _orbit_cases():
        m0 = TaggedSeq(base).m
        core, *families = _graded_value_families(alpha, beta, eta, m0, 0 if f.has_spatial else 1)
        requests = [(values, (False, False)) for values in core]
        for (_, moving, frozen), members in zip(_family_sides(alpha, beta), families):
            requests += [(values, at) for values in members for at in (moving, frozen)]
        at = {at for values, at in requests if not _vanishes(f.kernel, base + values)}
        assert run_counts(run) == len(at) + 1
    for spec in (2, Grading(1, 1, F(5, 2))):
        f, pts, dirs, spatial = _study_instance(spec, 0)
        hs = [F(1, 2), F(1, 4)]
        assert run_counts(lambda: convergence_study(f, pts, dirs, spec, hs, **spatial)) == 2
    assert built and not any(built)  # the one-atom views, built before any contraction


def test_the_plan_lists_each_live_orbit_once_and_each_member_its_index():
    # the orbit table: `orbits` holds the canonical representatives in the
    # order of their first live core member, `of` gives each core member the
    # index of its orbit (None when its derivative vanishes), and each
    # family's `of` is that of its members in the core
    specs = [(False, n, None) for n in (1, 2, 3)]
    specs += [(True, g, None) for g in (
        Grading(F(1, 2), 1, F(9, 4)), Grading(1, 1, F(5, 2)), Grading(1, F(1, 2), F(9, 4))
    )]
    specs += [(True, Grading(F(1, 2), 1, 3), TaggedSeq(v)) for v in ((0,), (1,), (1, 2))]
    live = vanishing = 0
    for seed in range(4):
        rng = random.Random(f"orbit-table:{seed}")
        for spatial, spec, base in specs:
            f = random_functional(rng, rng.choice([1, 2]), 2, spatial, degree=rng.randint(1, 5))
            plan = expansion._plan(f, spec, base)
            m0, prefix = (base.m, base.values) if base else (0, ())
            keys = [None if _vanishes(f.kernel, prefix + v) else _orbit_key(v, m0) for v in plan.core]
            assert plan.orbits == list(dict.fromkeys(k for k in keys if k is not None))
            assert all(_orbit_key(rep, m0) == rep for rep in plan.orbits)
            assert plan.of == [None if k is None else plan.orbits.index(k) for k in keys]
            of = dict(zip(plan.core, plan.of))
            for *_, family_of, members in plan.families:
                assert family_of == [of[values] for values in members]
            live += len(keys) - keys.count(None)
            vanishing += keys.count(None)
    assert live > 0 and vanishing > 0


def test_each_orbit_remainder_is_integrated_once(monkeypatch):
    calls = []
    integrate = RationalTensor.taylor_integral

    def counting(self, r):
        calls.append(r)
        return integrate(self, r)

    monkeypatch.setattr(RationalTensor, "taylor_integral", counting)
    for name, run, f, base, pairs, c, alpha, beta, eta in _orbit_cases():
        if not name.startswith("taylor2"):
            continue
        _, terms = _per_sequence_terms(f, base, pairs, c, alpha, beta, eta)
        # the live members and their distinct (orbit, sides)
        orbits, members = set(), 0
        _, *families = _graded_value_families(alpha, beta, eta, 0, 0)
        for (_, moving, frozen), values_list in zip(_family_sides(alpha, beta), families):
            for values in values_list:
                if not _vanishes(f.kernel, values):
                    orbits.add((_orbit_key(values, 0), moving, frozen))
                    members += 1
        calls.clear()
        res = run()
        assert len(calls) == len(orbits) < members
        assert res.remainder_terms == terms


def _lip_sequences(record):
    """(field, the sequences whose constants it holds) for each constant
    field of a bound record."""
    values = tuple(record["seq"])
    k = max(values, default=0)
    out = [("lip_spatial", [values + (0,)])] if "lip_spatial" in record else []
    if "lip_measure" in record:
        out.append(("lip_measure", [values + (k + 1,)]))
        out.append(("lip_free", [values + (q,) for q in range(1, k + 1)]))
    return out


def test_a_coupling_keeps_its_views_and_moments_for_itself(monkeypatch):
    rng = random.Random(30)
    f = random_functional(rng, 2, 2, False, degree=4)
    assert f.kernel.degree == 4  # so that the path view is read
    points = [random_point(rng, 2) for _ in range(6)]
    c = pair_coupling(points[:3], points[3:])

    def kept(d):
        return d._rows, d._gaps, d._gap_squares, d._path, d._moments

    assert kept(c) == (None,) * 4 + ({},)
    mu = c.left()
    first = taylor1(f, mu, c, 3, box=(-4, 4)).to_json()
    views = c.base_view(), c.path_view(), c.right()
    moments = dict(c._moments)
    assert moments and all(view._sums for view in views)
    built = []
    init = measures._PowerTables.__init__
    monkeypatch.setattr(
        measures._PowerTables, "__init__", lambda self, *args: built.append(1) or init(self, *args)
    )
    # a second call on the coupling reads the same views and builds no table
    assert taylor1(f, mu, c, 3, box=(-4, 4)).to_json() == first
    assert not built and c._moments == moments
    assert all(a is b for a, b in zip((c.base_view(), c.path_view(), c.right()), views))
    # a coupling with equal pairs starts with nothing kept and builds its own
    twin = pair_coupling(points[:3], points[3:])
    assert kept(twin) == (None,) * 4 + ({},)
    assert taylor1(f, mu, twin, 3, box=(-4, 4)).to_json() == first
    assert built and twin._moments == moments
    assert all(a is not b for a, b in zip((twin.base_view(), twin.path_view(), twin.right()), views))


# A coupling with a float coordinate builds each view from its points, as
# before couplings were scaled once: per kind, the `exact` flags of left(),
# right(), base_view(), path_view() and right() again (the view the engine
# reads at the targets), and the sha256 of the taylor1 and taylor2 JSON, each
# pinned from the per-view construction.
MIXED_COUPLINGS = {
    "rational starts, float targets": (
        (True, False, False, False, False), ("7c6b73e4173408f4", "7bc89e96397d5f16")
    ),
    "float starts, rational targets": (
        (False, True, False, False, True), ("3eafd881f957da7b", "a64c50225258cec7")
    ),
    "all float": ((False,) * 5, ("fe05feab5da969e1", "c965d74779a872f5")),
}


@pytest.mark.parametrize("kind", sorted(MIXED_COUPLINGS))
def test_a_coupling_with_a_float_coordinate_keeps_each_views_exactness(kind):
    rng = random.Random(f"mixed:{kind}")
    f1 = random_functional(rng, 2, 2, False, degree=4)
    f2 = random_functional(rng, 2, 2, True, degree=4)
    xs = [random_point(rng, 2) for _ in range(3)]
    ys = [random_point(rng, 2) for _ in range(3)]
    x0, y0 = random_point(rng, 2), random_point(rng, 2)
    if kind != "rational starts, float targets":
        xs = [tuple(map(float, x)) for x in xs]
    if kind != "float starts, rational targets":
        ys = [tuple(map(float, y)) for y in ys]
    c = pair_coupling(xs, ys)
    views = c.left(), c.right(), c.base_view(), c.path_view(), c.right()
    out = [
        taylor1(f1, c.left(), c, 3, box=(-4, 4)).to_json(),
        taylor2(f2, x0, y0, c, BOUND_GRADINGS["a<b"], box=(-4, 4)).to_json(),
    ]
    flags, digests = MIXED_COUPLINGS[kind]
    assert tuple(view.exact for view in views) == flags
    assert tuple(hashlib.sha256(json.dumps(o).encode()).hexdigest()[:16] for o in out) == digests


def test_bound_constants_equal_certified_sup_of_their_own_sequence():
    box = (-4, 4)
    moved = 0
    for (f1, c, _, _), (f2, _, x0, y0) in _tied_instances():
        results = [(f1, taylor1(f1, c.left(), c, n, box=box)) for n in (1, 2, 3)]
        results += [(f2, taylor2(f2, x0, y0, c, g, box=box)) for g in BOUND_GRADINGS.values()]
        for f, res in results:
            nbox = normalize_box(box, f.kernel.e)
            for record in res.bound_terms:
                for name, seqs in _lip_sequences(record):
                    sups = [_certified_sup(f, TaggedSeq(s), nbox) for s in seqs]
                    assert record[name] == (sups if name == "lip_free" else sups[0])
                    moved += sum(_orbit_key(s, 0) != s and sup > 0 for s, sup in zip(seqs, sups))
    assert moved > 0


def _bound_orbits(f, records):
    """The orbit representatives of every constant the records hold whose
    derivative does not vanish identically."""
    return {
        _orbit_key(s, 0)
        for record in records
        for _, seqs in _lip_sequences(record)
        for s in seqs
        if not _vanishes(f.kernel, s)
    }


def test_convergence_study_computes_each_orbit_constant_once(monkeypatch):
    # on a fresh functional a study computes each live orbit's constant
    # once; the bound plan is kept on the functional, so a repeated study,
    # or a study after an expansion bounded on the same box, computes none
    computed = []
    real = expansion._certified_sup

    def counting(f, seq, box):
        computed.append(seq.values)
        return real(f, seq, box)

    rng = random.Random("convergence-memo")
    e, box, hs = 2, (-4, 4), [F(1, 2), F(1, 4), F(1, 8)]
    pts = [random_point(rng, e) for _ in range(2)]
    dirs = [random_point(rng, e) for _ in range(2)]
    x0, dx0 = random_point(rng, e), random_point(rng, e)
    k1 = random_functional(rng, e, 2, False, degree=4).kernel
    k2 = random_functional(rng, e, 2, True, degree=4).kernel
    g = Grading(F(1, 2), 1, F(9, 4))
    c = pair_coupling(pts, [tuple(p + hs[0] * d for p, d in zip(x, v)) for x, v in zip(pts, dirs)])
    y0 = tuple(p + hs[0] * d for p, d in zip(x0, dx0))
    studies = [
        (k1, lambda f, n=n: convergence_study(f, pts, dirs, n, hs, box=box),
         lambda f, n=n: taylor1(f, c.left(), c, n, box=box))
        for n in (1, 2, 3)
    ]
    studies.append((
        k2,
        lambda f: convergence_study(f, pts, dirs, g, hs, x0=x0, x0_direction=dx0, box=box),
        lambda f: taylor2(f, x0, y0, c, g, box=box),
    ))
    monkeypatch.setattr(expansion, "_certified_sup", counting)
    constants = []
    for kernel, study, expand in studies:
        f = PolyFunctional(kernel)
        computed.clear()
        rows, _ = study(f)
        once = list(computed)
        assert len(once) == len(set(once))
        computed.clear()
        assert study(f)[0] == rows
        assert computed == []
        first_scale = expand(PolyFunctional(kernel))
        assert rows[0]["bound"] == first_scale.remainder_bound
        # one constant per live orbit; a vanishing one is 0.0, never computed
        assert set(once) == _bound_orbits(f, first_scale.bound_terms)
        f = PolyFunctional(kernel)
        expand(f)
        computed.clear()
        assert study(f)[0] == rows
        assert computed == []
        constants.append(len(once))
    assert constants == [2, 2, 0, 4]  # at order 3 every next derivative vanishes


def _per_scale_rows(f, pts, dirs, spec, hs, x0=None, dx0=None, box=None):
    """The rows of a convergence study the direct way: a full `taylor1` or
    `taylor2` at every scale h, its remainder norm, and the bound of that
    scale's coupling."""
    rows = []
    for h in hs:
        c = pair_coupling(pts, [tuple(p + h * d for p, d in zip(x, v)) for x, v in zip(pts, dirs)])
        if isinstance(spec, Grading):
            y0 = tuple(p + h * d for p, d in zip(x0, dx0))
            res, pairs = taylor2(f, x0, y0, c, spec), [(x0, y0)]
        else:
            res, pairs = taylor1(f, c.left(), c, spec), []
        bound = None
        if box is not None:
            bound = expansion._bound_terms(f, pairs, c, expansion._plan(f, spec), box)[0]
        rows.append({"h": float(h), "remainder": res.remainder_norm(), "bound": bound})
    return rows


def test_a_study_of_remainders_whose_float_squares_overflow():
    # k(u) = u^62 at 400 moved by 1, order 2: each remainder, about 1e155,
    # fits a float while its square does not; one past the float range has
    # norm inf, which the fit leaves out
    f = kernel_1d({(62,): F(1)}, arity=1)
    pts, dirs, hs = [(F(400),)], [(F(1),)], [F(1, 2), F(1, 4), F(1, 8)]
    rows, slope = convergence_study(f, pts, dirs, 2, hs + [10**6])
    want = _per_scale_rows(f, pts, dirs, 2, hs)  # by `remainder_norm`
    assert rows == want + [{"h": 1e6, "remainder": math.inf, "bound": None}]
    for row, h in zip(rows, hs):
        c = pair_coupling(pts, [(400 + h,)])
        (rem,) = taylor1(f, c.left(), c, 2).remainder_exact.data
        assert row["remainder"] == abs(float(rem)) and 1e150 < row["remainder"] < 1e160
    assert slope == expansion.ols_loglog_slope(hs, [row["remainder"] for row in want])


STUDY_SPECS = [1, 2, 3, Grading(F(1, 2), 1, F(9, 4)), Grading(1, 1, F(5, 2)),
               Grading(1, F(1, 2), F(9, 4))]


def _study_instance(spec, seed):
    """A seeded convergence study: points, directions and, for a grading, the
    spatial pair, on a kernel of the matching kind."""
    graded = isinstance(spec, Grading)
    rng = random.Random(f"study:{spec}:{seed}")
    e, n = rng.choice([(1, 3), (2, 2)])
    f = random_functional(rng, e, 2, graded, degree=4)
    pts = [random_point(rng, e) for _ in range(n)]
    dirs = [random_point(rng, e) for _ in range(n)]
    spatial = {"x0": random_point(rng, e), "x0_direction": random_point(rng, e)} if graded else {}
    return f, pts, dirs, spatial


@pytest.mark.parametrize("spec", STUDY_SPECS, ids=str)
@pytest.mark.parametrize("box", [None, (-4, 4)], ids=["no-box", "box"])
def test_convergence_study_equals_an_expansion_per_scale(spec, box):
    # the jet once at h = 1, scaled by h^k, against a full expansion at
    # every h: with rational inputs the rows are equal, not merely close
    hs = [F(1, 2), F(1, 3), F(1, 8), F(1, 16)]
    for seed in range(3):
        f, pts, dirs, spatial = _study_instance(spec, seed)
        rows, slope = convergence_study(f, pts, dirs, spec, hs, box=box, **spatial)
        want = _per_scale_rows(f, pts, dirs, spec, hs, spatial.get("x0"),
                               spatial.get("x0_direction"), box)
        assert rows == want
        assert any(row["remainder"] for row in rows) or slope is None


@pytest.mark.parametrize("spec", STUDY_SPECS, ids=str)
def test_convergence_study_bounds_equal_a_coupling_per_scale_bit_for_bit(spec):
    # scales whose squares round differently in floats than their products
    # with the squared gaps do, on rational and on float points
    hs = [F(1, 3), F(2, 7), F(5, 11), F(3, 13)]
    for seed in range(4):
        f, pts, dirs, spatial = _study_instance(spec, seed)
        for points in (pts, [tuple(map(float, p)) for p in pts]):
            want = _per_scale_rows(f, points, dirs, spec, hs, spatial.get("x0"),
                                   spatial.get("x0_direction"), (-4, 4))
            if points is not pts and max(ref["remainder"] for ref in want) < 1e-12:
                continue  # rounding noise of a zero remainder: the study refuses to fit it
            rows, _ = convergence_study(f, points, dirs, spec, hs, box=(-4, 4), **spatial)
            assert [row["bound"] for row in rows] == [ref["bound"] for ref in want]


@pytest.mark.parametrize("spec", [2, Grading(F(1, 2), 1, F(9, 4))], ids=str)
def test_convergence_study_with_float_scales_is_close(spec):
    # a float h makes the prediction a float sum of h^k J_k, which may round
    # differently from the float expansion at that h
    hs = [F(1, 2), 0.25, F(1, 8), 0.0625, 0.1]
    checked = 0
    for seed in range(4):
        f, pts, dirs, spatial = _study_instance(spec, seed)
        want = _per_scale_rows(f, pts, dirs, spec, hs, spatial.get("x0"),
                               spatial.get("x0_direction"), (-4, 4))
        if max(ref["remainder"] for ref in want) < 1e-12:
            continue  # an exact expansion, whose float rows are rounding noise
        rows, _ = convergence_study(f, pts, dirs, spec, hs, box=(-4, 4), **spatial)
        for h, row, ref in zip(hs, rows, want):
            if isinstance(h, Fraction):
                assert row == ref
            assert row["h"] == ref["h"] and row["bound"] == ref["bound"]
            assert row["remainder"] == pytest.approx(ref["remainder"], rel=1e-9)
        checked += 1
    assert checked >= 2


def test_convergence_study_contracts_each_core_orbit_once(monkeypatch):
    # one contraction per live orbit of the core at h = 1 and one of f, on
    # the path of the h = 1 coupling, for every scale: not one engine pass,
    # nor one evaluation of f, per scale
    calls = []
    real = functional.contract_derivative

    def counting(ts, side, *args):
        calls.append((ts.seq.values, side.mu_path))
        return real(ts, side, *args)

    monkeypatch.setattr(expansion, "contract_derivative", counting)
    monkeypatch.setattr(functional, "contract_derivative", counting)
    hs = [F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32)]
    for spec in STUDY_SPECS:
        f, pts, dirs, spatial = _study_instance(spec, 0)
        graded = isinstance(spec, Grading)
        alpha, beta, gamma = (spec.alpha, spec.beta, spec.gamma) if graded else (1, 1, spec)
        core = _graded_value_families(alpha, beta, gamma, 0, 0 if graded else 1)[0]
        calls.clear()
        convergence_study(f, pts, dirs, spec, hs, box=(-4, 4), **spatial)
        orbits = {_orbit_key(values, 0) for values in core if not _vanishes(f.kernel, values)}
        assert len(calls) == len(orbits) + 1
        assert sorted(calls[: len(orbits)]) == sorted((rep, False) for rep in orbits)
        assert calls[-1] == ((), True)  # f on the path


def test_convergence_study_builds_one_coupling(monkeypatch):
    built = []
    init = measures.Coupling.__init__
    monkeypatch.setattr(
        measures.Coupling, "__init__", lambda self, pairs: built.append(1) or init(self, pairs)
    )
    hs = [F(1, 2), 0.25, F(1, 8), F(1, 16)]
    for spec in STUDY_SPECS:
        for box in (None, (-4, 4)):
            f, pts, dirs, spatial = _study_instance(spec, 1)
            built.clear()
            convergence_study(f, pts, dirs, spec, hs, box=box, **spatial)
            assert len(built) == 1, (spec, box)


def test_reach_reads_the_integer_rows_and_equals_the_fraction_formula(monkeypatch):
    # the largest scale at which every target stays in the box comes from
    # the coupling's integer start and gap rows: a boxed rational study
    # makes no gap as a Fraction, and the value is that of the formula
    # (hi - x) / gap, (lo - x) / gap in Fractions
    calls = []
    gaps = measures.Coupling.gaps
    monkeypatch.setattr(measures.Coupling, "gaps", lambda self: calls.append(1) or gaps(self))
    for spec in STUDY_SPECS:
        f, pts, dirs, spatial = _study_instance(spec, 2)
        convergence_study(f, pts, dirs, spec, [F(1, 2), F(1, 4), F(1, 8)], box=(-4, 4), **spatial)
    assert not calls
    monkeypatch.undo()
    for seed in range(30):
        rng = random.Random(f"reach:{seed}")
        e, n = rng.choice([1, 2]), rng.randint(1, 5)
        c = random_coupling(rng, n, e) if seed % 5 else pair_coupling(*[[random_point(rng, e)] * 2] * 2)
        ends = [(rng.choice([-4, -3.5, -1.25]), rng.choice([1.5, 3, 4])) for _ in range(e)]
        box = normalize_box(ends, e)
        want = math.inf
        for x, y in c.pairs:
            for (lo, hi), a, b in zip(box, x, y):
                if b - a:
                    want = min(want, (Fraction(hi if b > a else lo) - a) / (b - a))
        got = expansion._reach(box, c)
        assert got == want and type(got) is type(want)


def _box_study_cases():
    """Studies on e = 1 data whose box check fails in one place: a base
    point, only a target of the largest h, or only the spatial target y0 of
    the largest h, for rational and for mixed scales; a rational target
    just past the edge; and a rational target just past the edge at a
    rational h, while the larger float h rounds its target onto the edge."""
    f = kernel_1d({(2, 1): F(1)}, arity=2)
    g = kernel_1d({(1, 1, 1): F(1)}, arity=2, spatial=True)
    grading = Grading(1, 1, F(3, 2))
    pts, dirs = [(F(1),), (F(-1, 2),)], [(F(2),), (F(1),)]  # targets 1 + 2h, h - 1/2
    cases = {}
    for name, hs in (("rational", [F(1, 4), F(3, 2), F(1, 2)]), ("mixed", [F(1, 4), 1.5, 0.5])):
        cases[f"base point {name}"] = lambda hs=hs: convergence_study(f, pts, dirs, 1, hs, box=(0, 4))
        for kind, spec, spatial in (
            ("", f, {}),
            ("graded ", g, {"x0": (F(0),), "x0_direction": (F(1),)}),
        ):
            cases[f"{kind}largest h {name}"] = lambda hs=hs, spec=spec, spatial=spatial: (
                convergence_study(spec, pts, dirs, 1 if spec is f else grading, hs,
                                  box=(-1, F(7, 2)), **spatial)
            )
        cases[f"y0 {name}"] = lambda hs=hs: convergence_study(
            g, pts, dirs, grading, hs, x0=(F(1),), x0_direction=(F(3),), box=(-1, 4)
        )
    cases["just past"] = lambda: convergence_study(  # the first target 7/2 + 1/500000
        f, pts, dirs, 1, [F(1, 4), F(5, 4) + F(1, 10**6)], box=(-1, F(7, 2))
    )
    edge = F(0.1)  # the float 0.1 as a Fraction, on the box edge
    cases["rounded extreme"] = lambda: convergence_study(
        f, [(edge,)], [(F(1),)], 1, [F(1, 10**20), 2e-20], box=(-1, 0.1)
    )
    return cases


# the messages of the coupling built at every scale, recorded before a
# study stopped building one per scale
BOX_STUDY_MESSAGES = {
    "base point rational": "point (Fraction(-1, 2),) outside box",
    "largest h rational": "point (Fraction(4, 1),) outside box",
    "graded largest h rational": "point (Fraction(4, 1),) outside box",
    "y0 rational": "point (Fraction(11, 2),) outside box",
    "base point mixed": "point (Fraction(-1, 2),) outside box",
    "largest h mixed": "point (4.0,) outside box",
    "graded largest h mixed": "point (4.0,) outside box",
    "y0 mixed": "point (5.5,) outside box",
    "just past": "point (Fraction(1750001, 500000),) outside box",
    "rounded extreme": "point (Fraction(343597383680000019107846066493, "
    "3435973836800000000000000000000),) outside box",
}


def test_a_study_names_the_point_outside_the_box_as_a_coupling_per_scale_did():
    messages = {}
    for name, study in _box_study_cases().items():
        with pytest.raises(ValidationError) as err:
            study()
        messages[name] = str(err.value)
    assert messages == BOX_STUDY_MESSAGES
    f = kernel_1d({(2, 1): F(1)}, arity=2)
    # inside at every scale, with a target on the edge at the largest h
    rows, _ = convergence_study(f, [(F(1),)] * 2, [(F(2),), (F(1),)], 1, [F(1, 2), F(3, 2)], box=(-1, 4))
    assert [row["bound"] >= row["remainder"] for row in rows] == [True, True]


@pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("box", [None, (-4, 4)], ids=["no-box", "box"])
@pytest.mark.parametrize("spec", [2, Grading(F(1, 2), 1, F(9, 4))], ids=str)
def test_a_study_refuses_a_non_finite_scale(spec, box, h):
    f, pts, dirs, spatial = _study_instance(spec, 0)
    with pytest.raises(ValidationError, match="all positive and finite"):
        convergence_study(f, pts, dirs, spec, [F(1, 2), h], box=box, **spatial)


def test_each_call_searches_the_families_once(monkeypatch):
    # the truncation is planned once per functional: on a fresh one each
    # call searches once, a repeated call or a bound after its expansion
    # reads the kept plan, and a study's bound reads one plan at every h
    searches = []
    real = expansion._graded_value_families

    def counting(*args):
        searches.append(args)
        return real(*args)

    rng = random.Random("one-plan")
    e, box, hs = 2, (-4, 4), [F(1, 2), F(1, 4), F(1, 8)]
    pts = [random_point(rng, e) for _ in range(2)]
    dirs = [random_point(rng, e) for _ in range(2)]
    x0, y0, dx0 = (random_point(rng, e) for _ in range(3))
    k1 = random_functional(rng, e, 2, False, degree=4).kernel
    k2 = random_functional(rng, e, 2, True, degree=4).kernel
    c = pair_coupling(pts, [random_point(rng, e) for _ in pts])
    g = Grading(F(1, 2), 1, F(9, 4))
    fx, fy = [random_point(rng, e)], [random_point(rng, e)]
    calls = {
        "taylor1": (k1, lambda f: taylor1(f, c.left(), c, 2, box=box)),
        "taylor2": (k2, lambda f: taylor2(f, x0, y0, c, g, box=box)),
        "taylor_derivative": (k2, lambda f: taylor_derivative(f, TaggedSeq((1,)), x0, y0, fx, fy, c, g)),
        "remainder_bound1": (k1, lambda f: remainder_bound1(f, c, 2, box)),
        "remainder_bound2": (k2, lambda f: remainder_bound2(f, x0, y0, c, g, box)),
        "study-order": (k1, lambda f: convergence_study(f, pts, dirs, 2, hs, box=box)),
        "study-graded": (k2, lambda f: convergence_study(
            f, pts, dirs, g, hs, x0=x0, x0_direction=dx0, box=box
        )),
    }
    monkeypatch.setattr(expansion, "_graded_value_families", counting)
    first, again = {}, {}
    for name, (kernel, call) in calls.items():
        f = PolyFunctional(kernel)
        for counts in (first, again):
            searches.clear()
            call(f)
            counts[name] = len(searches)
    assert first == dict.fromkeys(calls, 1)
    assert again == dict.fromkeys(calls, 0)
    # a bound, and a study, after an expansion of the same spec
    for kernel, expand, bound in (
        (k1, calls["taylor1"][1], (calls["remainder_bound1"][1], calls["study-order"][1])),
        (k2, calls["taylor2"][1], (calls["remainder_bound2"][1], calls["study-graded"][1])),
    ):
        f = PolyFunctional(kernel)
        expand(f)
        searches.clear()
        for call in bound:
            call(f)
        assert searches == []


def test_a_repeated_call_searches_and_prices_no_sequence_again(monkeypatch):
    # a second identical call on one functional runs no family search and
    # computes no box constant, and returns what the first returned
    work = []
    for name in ("_graded_value_families", "_certified_sup"):
        real = getattr(expansion, name)
        monkeypatch.setattr(expansion, name, lambda *args, name=name, real=real: (
            work.append(name), real(*args))[1])
    rng = random.Random("repeat")
    e, box = 2, (-4, 4)
    c = random_coupling(rng, 3, e)
    x0, y0 = random_point(rng, e), random_point(rng, e)
    f1 = random_functional(rng, e, 2, False, degree=4)
    f2 = random_functional(rng, e, 2, True, degree=4)
    calls = [lambda n=n: taylor1(f1, c.left(), c, n, box=box).to_json() for n in (1, 2, 3)]
    calls += [lambda g=g: taylor2(f2, x0, y0, c, g, box=box).to_json() for g in BOUND_GRADINGS.values()]
    calls += [lambda: remainder_bound1(f1, c, 2, box), lambda: remainder_bound2(f2, x0, y0, c, BOUND_GRADINGS["a<b"], box)]
    planned = 0
    for call in calls:
        work.clear()
        first = call()
        planned += "_graded_value_families" in work
        work.clear()
        assert call() == first
        assert work == []
    assert planned == 6  # the two bounds read the plans of the expansions before them


# -- plans kept on the functional ---------------------------------------------


def test_a_refused_spec_is_refused_again_and_plans_nothing(monkeypatch):
    # a spec or base that fails its checks runs no search, and a plan kept
    # for an equal-hashing valid spec does not let it through: True == 1
    # and hash(2.0) == hash(Fraction(2)) == hash(2)
    searches = []
    real = expansion._graded_value_families
    monkeypatch.setattr(expansion, "_graded_value_families", lambda *args: (
        searches.append(args), real(*args))[1])
    rng = random.Random("refused")
    e = 2
    c = random_coupling(rng, 3, e)
    x0, y0 = random_point(rng, e), random_point(rng, e)
    f1 = random_functional(rng, e, 2, False, degree=4)
    f2 = random_functional(rng, e, 2, True, degree=4)
    g = Grading(1, 1, F(5, 2))
    far = TaggedSeq((1, 2, 3))  # grade 3 > 5/2: outside the graded set
    refused = [
        lambda: taylor1(f1, c.left(), c, True),
        lambda: taylor1(f1, c.left(), c, 2.0),
        lambda: taylor1(f1, c.left(), c, F(2)),
        lambda: taylor1(f1, c.left(), c, 0),
        lambda: remainder_bound1(f1, c, 2.0, (-4, 4)),
        lambda: remainder_bound1(f1, c, True, (-4, 4)),
        lambda: taylor2(f1, x0, y0, c, g),
        lambda: taylor1(f2, c.left(), c, 2),
        lambda: taylor_derivative(f2, far, x0, y0, [x0] * 3, [y0] * 3, c, g),
    ]
    for _ in range(2):  # before and after the valid calls have been planned
        searches.clear()
        for call in refused:
            with pytest.raises(ValidationError):
                call()
        assert searches == []
        for n in (1, 2):
            assert taylor1(f1, c.left(), c, n).meta == {"kind": "order", "order": n}
        taylor2(f2, x0, y0, c, g)
        taylor_derivative(f2, TaggedSeq((1,)), x0, y0, [x0], [y0], c, g)
    assert len(searches) == 0  # the second round found every valid plan kept


def test_boxes_that_normalize_alike_share_one_bound_plan(monkeypatch):
    computed = []
    real = expansion._certified_sup
    monkeypatch.setattr(expansion, "_certified_sup", lambda *args: (
        computed.append(args[1].values), real(*args))[1])
    rng = random.Random("one-box")
    e = 2
    c = random_coupling(rng, 3, e)
    x0, y0 = random_point(rng, e), random_point(rng, e)
    f1 = random_functional(rng, e, 2, False, degree=4)
    f2 = random_functional(rng, e, 2, True, degree=4)
    g = BOUND_GRADINGS["a>b"]
    for bound in (lambda box: remainder_bound1(f1, c, 1, box),
                  lambda box: remainder_bound2(f2, x0, y0, c, g, box)):
        computed.clear()
        first = bound((-4, 4))
        assert computed
        computed.clear()
        assert bound([(-4.0, 4.0)] * e) == first
        assert bound([(F(-4), 4)] * e) == first
        assert computed == []
        assert bound((-5, 4)) >= first  # another box is planned on its own
        assert computed


def test_each_result_owns_its_meta():
    rng = random.Random("meta")
    e = 2
    c = random_coupling(rng, 3, e)
    x0, y0 = random_point(rng, e), random_point(rng, e)
    f1 = random_functional(rng, e, 2, False, degree=4)
    f2 = random_functional(rng, e, 2, True, degree=4)
    g = Grading(1, F(1, 2), 3)
    a = TaggedSeq((1,))
    calls = [
        lambda: taylor1(f1, c.left(), c, 2, box=(-4, 4)),
        lambda: taylor2(f2, x0, y0, c, g),
        lambda: taylor_derivative(f2, a, x0, y0, [x0], [y0], c, g),
    ]
    for call in calls:
        first = call()
        want = json.loads(json.dumps(first.meta))
        first.meta["kind"] = "changed"
        for value in first.meta.values():
            if isinstance(value, dict):
                value["alpha"] = "7"
            elif isinstance(value, list):
                value.append(9)
        first.meta["extra"] = 1
        assert call().meta == want
    assert want == {"kind": "derivative", "seq": [1], "grading": g.to_json(), "eta": "5/2"}


def test_threads_sharing_a_fresh_functional_get_the_serial_results():
    rng = random.Random("plan-threads")
    e, box, threads = 2, (-4, 4), 4
    c = random_coupling(rng, 3, e)
    x0, y0 = random_point(rng, e), random_point(rng, e)
    k1 = random_functional(rng, e, 2, False, degree=4).kernel
    k2 = random_functional(rng, e, 2, True, degree=4).kernel
    pts, dirs = [x for x, _ in c.pairs], [random_point(rng, e) for _ in c.pairs]
    hs = [F(1, 2), F(1, 4)]

    def run(f1, f2):
        out = [taylor1(f1, c.left(), c, n, box=box).to_json() for n in (1, 2, 3)]
        out += [remainder_bound1(f1, c, n, box) for n in (1, 2, 3)]
        for g in BOUND_GRADINGS.values():
            out.append(taylor2(f2, x0, y0, c, g, box=box).to_json())
            out.append(remainder_bound2(f2, x0, y0, c, g, box))
        out.append(taylor_derivative(f2, TaggedSeq((1,)), x0, y0, [x0], [y0], c,
                                     Grading(1, F(1, 2), 3)).to_json())
        out.append(convergence_study(f1, pts, dirs, 2, hs, box=box))
        return out

    serial = run(PolyFunctional(k1), PolyFunctional(k2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that the plans interleave
    try:
        for _ in range(3):
            f1, f2 = PolyFunctional(k1), PolyFunctional(k2)
            start = threading.Barrier(threads)

            def expand(_, f1=f1, f2=f2, start=start):
                start.wait(timeout=60)
                return run(f1, f2)

            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(expand, range(threads), timeout=120))
            assert results == [serial] * threads
    finally:
        sys.setswitchinterval(interval)


# -- vanishing derivatives -------------------------------------------------------


def _study(*args, **kwargs):
    """A convergence study's rows and slope, or the message of its
    ValidationError: float rows of an exact expansion hold only rounding."""
    try:
        return convergence_study(*args, **kwargs)
    except ValidationError as exc:
        return str(exc)


def _vanishing_outputs():
    """The outputs of every public expansion, bound and study, in rational
    and in float mode, on seeded e = 2 kernels of arity 2 and degree 3:
    their cores and families hold members longer than the degree (order 4,
    and the grading 1, 1/2, 9/4) and members with three free variables."""
    rng = random.Random("vanishing-members")
    e, box, hs = 2, (-4, 4), [F(1, 2), F(1, 4), F(1, 8)]
    f1 = random_functional(rng, e, 2, False, degree=3, d=2)
    f2 = random_functional(rng, e, 2, True, degree=3, d=2)
    assert f1.kernel.degree == f2.kernel.degree == 3
    rational = random_coupling(rng, 3, e)
    x0, y0 = random_point(rng, e), random_point(rng, e)
    free = [(random_point(rng, e), random_point(rng, e)) for _ in range(2)]
    dirs = [random_point(rng, e) for _ in range(3)]
    out = {}
    for mode, point in (("rational", tuple), ("float", lambda p: tuple(map(float, p)))):
        c = pair_coupling(
            [point(u) for u, _ in rational.pairs], [point(v) for _, v in rational.pairs]
        )
        x, y = point(x0), point(y0)
        fx, fy = [point(u) for u, _ in free], [point(v) for _, v in free]
        pts = [u for u, _ in c.pairs]
        for n in (1, 2, 3, 4):
            out[mode, "taylor1", n] = taylor1(f1, c.left(), c, n, box=box).to_json()
            out[mode, "bound1", n] = remainder_bound1(f1, c, n, box)
            out[mode, "study", n] = _study(f1, pts, dirs, n, hs, box=box)
        for name, g in BOUND_GRADINGS.items():
            out[mode, "taylor2", name] = taylor2(f2, x, y, c, g, box=box).to_json()
            out[mode, "bound2", name] = remainder_bound2(f2, x, y, c, g, box)
            out[mode, "study", name] = _study(
                f2, pts, dirs, g, hs, x0=x, x0_direction=dirs[0], box=box
            )
        for values, g in (
            ((0,), Grading(F(1, 2), 1, 3)),
            ((1,), Grading(1, F(1, 2), F(5, 2))),
            ((1, 1), Grading(1, 1, 3)),
            ((1, 2), Grading(F(1, 2), 1, 3)),
        ):
            a = TaggedSeq(values)
            out[mode, "derivative", values] = taylor_derivative(
                f2, a, x, y, fx[: a.m], fy[: a.m], c, g
            ).to_json()
    return out


def _digest(outputs):
    text = json.dumps({repr(k): v for k, v in outputs.items()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# the outputs of an engine that contracts every member, vanishing or not, by
# mode. The rational ones were pinned before float results printed exact
# zeros as 0.0 and before float data ran the integer contraction's loop, and
# no change may move them; the float ones move by rounding, and were last
# re-pinned when a study came to read f on its path at xi = h rather than at
# float targets p + h * d (four float study rows of remainders, each by at
# most 4.5e-16, and their slopes)
VANISHING_DIGESTS = {
    "rational": "a6a7fc303537955f65c676a8538de1804c2e1dcd9dd017adf46121bd122d6d76",
    "float": "ebf549baf8f4da41d4fbeef684e5165043f1de51564dfa133edf72f59b62d8d2",
}


def _digests_by_mode(outputs):
    return {
        mode: _digest({key: data for key, data in outputs.items() if key[0] == mode})
        for mode in VANISHING_DIGESTS
    }


def test_outputs_with_vanishing_members_are_pinned():
    outputs = _vanishing_outputs()
    vanishing = [
        key
        for key, data in outputs.items()
        if key[1] in ("taylor1", "taylor2")
        for values in data["jet"]
        if len(values.split(",")) > 3 or "3" in values.split(",")
    ]
    assert len(vanishing) > 10
    assert _digests_by_mode(outputs) == VANISHING_DIGESTS


def test_vanishing_derivatives_are_never_built_or_contracted(monkeypatch):
    real_derivative, real_contract = functional.lions_derivative, functional.contract_derivative

    def derivative(f, a):
        if _vanishes(f.kernel, as_tagged(a).values):
            raise AssertionError(f"built the vanishing derivative {a}")
        return real_derivative(f, a)

    def contract(ts, *args):
        if _vanishes(ts.kernel, ts.seq.values):
            raise AssertionError(f"contracted the vanishing derivative {ts.seq}")
        return real_contract(ts, *args)

    for module in (expansion, functional):
        monkeypatch.setattr(module, "lions_derivative", derivative)
        monkeypatch.setattr(module, "contract_derivative", contract)
    assert _digests_by_mode(_vanishing_outputs()) == VANISHING_DIGESTS
