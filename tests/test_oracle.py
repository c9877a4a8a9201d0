"""Lifted-polynomial ground truth against the derivative machinery."""

import itertools
import random
from fractions import Fraction

import pytest

from lionsjet.errors import ValidationError
from lionsjet.functional import MomentView, eval_derivative, lions_derivative
from lionsjet.measures import EmpiricalMeasure
from lionsjet.oracle import (
    classical_grad,
    convergence_study,
    fd_gradient,
    lift,
    ols_loglog_slope,
    regrouping_counts,
    schwarz_check,
    verify_empirical_deriv,
    verify_expansion_match,
    verify_fullsystem,
)
from lionsjet.partitions import enum_A
from lionsjet.poly import MPoly
from lionsjet.tagged import TaggedSeq, enum_A0

from test_functional import kernel_1d, random_functional, random_point

F = Fraction


def test_lift_examples():
    # int x dmu on two particles
    f = kernel_1d({(1,): F(1)}, arity=1)
    lifted = lift(f, 2)
    assert lifted.components[0].terms == {(1, 0): F(1, 2), (0, 1): F(1, 2)}
    # (int x dmu)^2 via the product kernel
    f2 = kernel_1d({(1, 1): F(1)}, arity=2)
    lifted2 = lift(f2, 2)
    assert lifted2.components[0].terms == {
        (2, 0): F(1, 4),
        (1, 1): F(1, 2),
        (0, 2): F(1, 4),
    }
    # x0 * int y dmu with the spatial slot substituted by particle 1
    f3 = kernel_1d({(1, 1): F(1)}, arity=1, spatial=True)
    lifted3 = lift(f3, 2, i=1)
    assert lifted3.components[0].terms == {(2, 0): F(1, 2), (1, 1): F(1, 2)}
    # with a separate spatial block the variable count grows by one block
    lifted4 = lift(f3, 2)
    assert lifted4.nvars == 3
    assert lifted4.components[0].terms == {
        (1, 1, 0): F(1, 2),
        (1, 0, 1): F(1, 2),
    }


def test_classical_grad_examples():
    f = kernel_1d({(1, 1): F(1)}, arity=2)
    lifted = lift(f, 2)
    for i in (1, 2):
        g = classical_grad(lifted, (i,))
        assert g[(0, 0)].degree() == 1
    g11 = classical_grad(lifted, (1, 1))
    g12 = classical_grad(lifted, (1, 2))
    assert g11[(0, 0, 0)].terms == {(0, 0): F(1, 2)}
    assert g12[(0, 0, 0)].terms == {(0, 0): F(1, 2)}
    f1 = kernel_1d({(1,): F(1)}, arity=1)
    lifted1 = lift(f1, 2)
    for i in (1, 2):
        assert classical_grad(lifted1, (i,))[(0, 0)].terms == {(0, 0): F(1, 2)}


def test_first_order_particle_gradient_identity():
    # the gradient in particle i is 1/N times the first derivative at x_i
    rng = random.Random(0)
    f = random_functional(rng, 1, 2, False)
    n = 3
    lifted = lift(f, n)
    d1 = lions_derivative(f, TaggedSeq((1,)))
    atoms = [
        tuple(MPoly.var(lifted.nvars, lifted.var(j, c)) for c in range(1))
        for j in range(1, n + 1)
    ]
    mu = MomentView(atoms, dim=1)
    for i in (1, 2, 3):
        lhs = classical_grad(lifted, (i,))[(0, 0)]
        rhs = eval_derivative(d1, None, mu, [atoms[i - 1]])[(0, 0)] * F(1, n)
        assert lhs == rhs


def test_second_order_particle_identity_splits_by_coincidence():
    rng = random.Random(1)
    f = random_functional(rng, 1, 2, False)
    n = 3
    lifted = lift(f, n)
    d11 = lions_derivative(f, TaggedSeq((1, 1)))
    d12 = lions_derivative(f, TaggedSeq((1, 2)))
    atoms = [
        tuple(MPoly.var(lifted.nvars, lifted.var(j, c)) for c in range(1))
        for j in range(1, n + 1)
    ]
    mu = MomentView(atoms, dim=1)
    i, j = 1, 2
    # distinct particles: only the two-variable derivative contributes
    lhs = classical_grad(lifted, (i, j))[(0, 0, 0)]
    rhs = eval_derivative(d12, None, mu, [atoms[i - 1], atoms[j - 1]])[(0, 0, 0)]
    assert lhs == rhs * F(1, n * n)
    # repeated particle: add the second spatial derivative with weight 1/N
    lhs2 = classical_grad(lifted, (i, i))[(0, 0, 0)]
    rhs2 = eval_derivative(d12, None, mu, [atoms[i - 1], atoms[i - 1]])[
        (0, 0, 0)
    ] * F(1, n * n) + eval_derivative(d11, None, mu, [atoms[i - 1]])[(0, 0, 0)] * F(
        1, n
    )
    assert lhs2 == rhs2


def test_verify_empirical_symbolic_batch():
    rng = random.Random(2)
    for trial in range(6):
        e = rng.choice([1, 2])
        f = random_functional(rng, e, rng.randint(1, 3), False)
        n = rng.randint(1, 4)
        idx = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3)))
        rep = verify_empirical_deriv(f, n, idx)
        assert rep.passed and rep.max_abs_difference == 0


def test_verify_empirical_at_points():
    rng = random.Random(3)
    f = random_functional(rng, 2, 2, False)
    pts = [random_point(rng, 2) for _ in range(3)]
    rep = verify_empirical_deriv(f, 3, (1, 3, 1), points=pts)
    assert rep.passed and rep.max_abs_difference == 0


def test_verify_fullsystem_first_order_display():
    # gradient of the per-particle component: measure term plus the spatial
    # term exactly when the index hits the distinguished particle
    rng = random.Random(4)
    f = random_functional(rng, 1, 2, True)
    n = 3
    for i in (1, 2):
        lifted = lift(f, n, i=i)
        atoms = [
            tuple(MPoly.var(lifted.nvars, lifted.var(p, c)) for c in range(1))
            for p in range(1, n + 1)
        ]
        mu = MomentView(atoms, dim=1)
        dmu = lions_derivative(f, TaggedSeq((1,)))
        d0 = lions_derivative(f, TaggedSeq((0,)))
        for j in (1, 2, 3):
            lhs = classical_grad(lifted, (j,))[(0, 0)]
            rhs = eval_derivative(dmu, atoms[i - 1], mu, [atoms[j - 1]])[
                (0, 0)
            ] * F(1, n)
            if i == j:
                rhs = rhs + eval_derivative(d0, atoms[i - 1], mu, [])[(0, 0)]
            assert lhs == rhs


def test_verify_fullsystem_batches():
    rng = random.Random(5)
    for trial in range(6):
        e = rng.choice([1, 2])
        f = random_functional(rng, e, rng.randint(1, 2), True)
        n = rng.randint(1, 4)
        i = rng.randint(1, n)
        idx = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 3)))
        rep = verify_fullsystem(f, n, i, idx)
        assert rep.passed and rep.max_abs_difference == 0
    pts = [random_point(rng, e) for _ in range(3)]
    rep = verify_fullsystem(f, 3, 2, (2, 1, 2), points=pts)
    assert rep.passed


def test_expansion_match_linear_is_exact_at_first_order():
    f = kernel_1d({(1,): F(2), (0,): F(1)}, arity=1)
    rng = random.Random(6)
    x = [random_point(rng, 1) for _ in range(2)]
    y = [random_point(rng, 1) for _ in range(2)]
    rep = verify_expansion_match(f, x, y, 1, box=(-30, 30))
    assert rep.passed
    assert rep.details["remainder_norm"] == 0


def test_expansion_match_quadratic_exhausts_at_order_two():
    f = kernel_1d({(1, 1): F(1)}, arity=2)
    rng = random.Random(7)
    x = [random_point(rng, 1) for _ in range(2)]
    y = [random_point(rng, 1) for _ in range(2)]
    rep = verify_expansion_match(f, x, y, 2, box=(-30, 30))
    assert rep.passed
    assert rep.details["remainder_norm"] == 0


def test_expansion_match_cubic_remainders_agree_nonzero():
    rng = random.Random(8)
    f = kernel_1d({(2, 1): F(1), (0, 3): F(1, 2)}, arity=2)
    x = [random_point(rng, 1) for _ in range(3)]
    y = [random_point(rng, 1) for _ in range(3)]
    rep = verify_expansion_match(f, x, y, 2, box=(-30, 30))
    assert rep.passed
    assert rep.details["remainder_norm"] > 0
    assert rep.details["bound"] >= rep.details["remainder_norm"]


def test_expansion_match_spatial():
    rng = random.Random(9)
    for trial in range(3):
        f = random_functional(rng, 1, 1, True)
        x = [random_point(rng, 1) for _ in range(2)]
        y = [random_point(rng, 1) for _ in range(2)]
        rep = verify_expansion_match(f, x, y, rng.randint(1, 2), box=(-50, 50))
        assert rep.passed


def test_schwarz_pair_exchange():
    rng = random.Random(10)
    f = random_functional(rng, 1, 2, True, degree=4)
    mu = EmpiricalMeasure([random_point(rng, 1) for _ in range(3)])
    x0 = random_point(rng, 1)
    free = [mu.atoms[0], mu.atoms[1]]
    dirs = [random_point(rng, 1) for _ in range(2)]
    rep = schwarz_check(f, TaggedSeq((1, 2)), (1, 0), x0, mu, free, dirs)
    assert rep.passed


def test_schwarz_spatial_transpose():
    rng = random.Random(11)
    f = random_functional(rng, 2, 1, True, degree=3)
    mu = EmpiricalMeasure([random_point(rng, 2) for _ in range(2)])
    x0 = random_point(rng, 2)
    t01 = eval_derivative(lions_derivative(f, TaggedSeq((0, 1))), x0, mu, [mu.atoms[0]])
    t10 = eval_derivative(lions_derivative(f, TaggedSeq((1, 0))), x0, mu, [mu.atoms[0]])
    for c1 in range(2):
        for c2 in range(2):
            assert t01[(0, c1, c2)] == t10[(0, c2, c1)]
    rep = schwarz_check(
        f,
        TaggedSeq((0, 1)),
        (1, 0),
        x0,
        mu,
        [mu.atoms[0]],
        [random_point(rng, 2), random_point(rng, 2)],
    )
    assert rep.passed


def test_schwarz_identity_permutation_trivial():
    rng = random.Random(12)
    f = random_functional(rng, 1, 2, True)
    mu = EmpiricalMeasure([random_point(rng, 1) for _ in range(2)])
    rep = schwarz_check(
        f,
        TaggedSeq((1, 1)),
        (0, 1),
        random_point(rng, 1),
        mu,
        [mu.atoms[0]],
        [random_point(rng, 1), random_point(rng, 1)],
    )
    assert rep.passed and rep.max_abs_difference == 0


def test_schwarz_all_sequences_up_to_three():
    rng = random.Random(13)
    f = random_functional(rng, 1, 2, True, degree=4)
    mu = EmpiricalMeasure([random_point(rng, 1) for _ in range(3)])
    x0 = random_point(rng, 1)
    for n in range(4):
        for a in enum_A0(n):
            free = [mu.atoms[k % 3] for k in range(a.m)]
            dirs = [random_point(rng, 1) for _ in range(n)]
            for sigma in itertools.permutations(range(n)):
                rep = schwarz_check(f, a, sigma, x0, mu, free, dirs)
                assert rep.passed, (a, sigma)


def test_regrouping_counts():
    for n_particles in range(1, 5):
        for n in range(1, 5):
            counts = regrouping_counts(n_particles, n)
            for a in enum_A(n):
                m = a.m
                expected = 1
                for k in range(m):
                    expected *= n_particles - k
                assert counts.get(a.values, 0) == max(expected, 0)


def test_finite_difference_sanity_tier():
    rng = random.Random(14)
    f = random_functional(rng, 1, 2, False)
    pts = [random_point(rng, 1) for _ in range(3)]
    fd = fd_gradient(f, pts, particle=2, coord=0)
    mu = EmpiricalMeasure(pts)
    d1 = lions_derivative(f, TaggedSeq((1,)))
    exact = eval_derivative(d1, None, mu, [pts[1]])[(0, 0)] / F(3)
    assert fd[0] == pytest.approx(float(exact), abs=1e-6)


def test_convergence_slopes():
    rng = random.Random(15)
    for n in (1, 2, 3):
        deg = n + 2
        terms = {(j,): F(rng.randint(1, 2), rng.randint(1, 2)) for j in range(deg + 1)}
        f = kernel_1d(terms, arity=1)
        pts = [(F(rng.randint(2, 4), 4),) for _ in range(2)]
        dirs = [(F(1),) for _ in range(2)]
        hs = [F(1, 2) ** k for k in range(1, 7)]
        rows, slope = convergence_study(f, pts, dirs, n, hs, box=(-3, 3))
        assert slope == pytest.approx(n + 1, abs=0.2)
        for row in rows:
            assert row["bound"] >= row["remainder"] * (1 - 1e-9) - 1e-12


def test_convergence_exact_below_degree():
    f = kernel_1d({(1,): F(2)}, arity=1)
    rows, slope = convergence_study(
        f, [(F(1),)], [(F(1),)], 2, [F(1, 2), F(1, 4)]
    )
    assert slope is None
    assert all(r["remainder"] == 0 for r in rows)


def test_ols_slope_helper():
    hs = [0.5, 0.25, 0.125]
    vals = [h**3 for h in hs]
    assert ols_loglog_slope(hs, vals) == pytest.approx(3.0)
    assert ols_loglog_slope(hs, [0.0, 0.0, 0.0]) is None


def test_convergence_study_without_a_fit_is_an_error_not_exact():
    # k(u) = u^4 + u^2: the remainder at h = 1e-8 is nonzero but under the
    # fit floor, so one row is left to fit; that used to return slope None,
    # which reads as "exact"
    f = kernel_1d({(4,): F(1), (2,): F(1)}, arity=1)
    pts, dirs = [(F(1, 2),), (F(3, 4),)], [(F(1),), (F(-1),)]
    with pytest.raises(ValidationError, match="fit floor"):
        convergence_study(f, pts, dirs, 1, [F(1, 2), 1e-8])
    with pytest.raises(ValidationError, match="fit floor"):
        ols_loglog_slope([0.5, 0.25], [0.0, 1e-16])
    rows, slope = convergence_study(f, pts, dirs, 1, [F(1, 2), F(1, 4)])
    assert slope is not None and all(r["remainder"] > 0 for r in rows)


def test_convergence_study_needs_two_distinct_positive_scales():
    f = kernel_1d({(3,): F(1), (2,): F(1)}, arity=1)
    pts, dirs = [(F(1, 2),)], [(F(1),)]
    for hs in ([F(1, 2)], [F(1, 2), F(1, 2)], [0.5, F(1, 2)], [F(1, 2), F(0)],
               [F(-1, 2), F(1, 4)], []):
        with pytest.raises(ValidationError, match="two distinct scales"):
            convergence_study(f, pts, dirs, 1, hs, box=(-3, 3))
    rows, slope = convergence_study(f, pts, dirs, 1, [F(1, 2), 0.25])
    assert len(rows) == 2 and slope is not None


def test_particle_checks_reject_points_of_another_dimension():
    rng = random.Random(41)
    f = random_functional(rng, 2, 2, False)
    fs = random_functional(rng, 2, 2, True)
    pts = [random_point(rng, 2) for _ in range(3)]
    assert verify_empirical_deriv(f, 3, (1, 2), points=pts).passed
    assert verify_fullsystem(fs, 3, 1, (1, 2), points=pts).passed
    cut = [p[:1] for p in pts]
    grown = [p + (F(1),) for p in pts]
    for bad in (cut, grown, pts[:2], pts[:2] + [cut[2]]):
        with pytest.raises(ValidationError, match="coordinates"):
            verify_empirical_deriv(f, 3, (1, 2), points=bad)
        with pytest.raises(ValidationError, match="coordinates"):
            verify_fullsystem(fs, 3, 1, (1, 2), points=bad)
