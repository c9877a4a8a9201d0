"""Jet operators, graded expansions, exact remainders, certified bounds."""

import math
import random
from fractions import Fraction

import pytest

from lionsjet.errors import ValidationError
from lionsjet.expansion import (
    eval_Da,
    remainder_bound1,
    remainder_bound2,
    taylor1,
    taylor2,
    taylor_derivative,
)
from lionsjet.functional import eval_derivative, lions_derivative
from lionsjet.measures import EmpiricalMeasure, pair_coupling
from lionsjet.poly import XiPoly
from lionsjet.tagged import Grading, TaggedSeq

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
    val = eval_Da(f, TaggedSeq(()), x0, disp, c.left(), c)
    assert [val[(0,)], val[(1,)]] == f.eval(x0, c.left())


def test_eval_Da_first_order_matches_hand_loop():
    rng = random.Random(1)
    f = kernel_1d({(3,): F(1), (1,): F(-2)}, arity=1)
    c = random_coupling(rng, 4, 1)
    val = eval_Da(f, TaggedSeq((1,)), None, None, c.left(), c)
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
        assert eval_Da(f, TaggedSeq(values), None, None, c.left(), c).max_abs() == 0


def test_eval_Da_checks_marginal():
    rng = random.Random(3)
    f = random_functional(rng, 1, 1, False)
    c = random_coupling(rng, 2, 1)
    with pytest.raises(ValidationError):
        eval_Da(f, TaggedSeq((1,)), None, None, EmpiricalMeasure([(99,), (98,)]), c)


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


def test_bound_rejects_data_outside_box():
    rng = random.Random(21)
    f = random_functional(rng, 1, 1, False)
    c = pair_coupling([(F(5),)], [(F(0),)])
    with pytest.raises(ValidationError):
        remainder_bound1(f, c, 1, (-1, 1))


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
            got = eval_Da(f, a, x0, disp, mu, c)
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
