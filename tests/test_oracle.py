"""Lifted-polynomial ground truth against the derivative machinery."""

import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lionsjet import expansion, oracle
from lionsjet.errors import ValidationError
from lionsjet.expansion import SLOPE_FLOOR, _plan, convergence_study, ols_loglog_slope
from lionsjet.functional import MomentView, eval_derivative, lions_derivative
from lionsjet.measures import EmpiricalMeasure
from lionsjet.oracle import (
    Report,
    classical_grad,
    fd_gradient,
    lift,
    regrouping_counts,
    schwarz_check,
    verify_empirical_deriv,
    verify_expansion_match,
    verify_fullsystem,
)
from lionsjet.partitions import enum_A
from lionsjet.poly import MPoly
from lionsjet.tagged import Grading, TaggedSeq, enum_A0

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
    # a spatial functional lifts only at a distinguished particle
    with pytest.raises(ValidationError):
        lift(f3, 2)
    with pytest.raises(ValidationError):
        fd_gradient(f3, [(F(1),), (F(2),)], particle=1, coord=0)


def test_classical_grad_examples():
    f = kernel_1d({(1, 1): F(1)}, arity=2)
    lifted = lift(f, 2)
    for i in (1, 2):
        g = classical_grad(lifted, (i,))
        assert g[(0, 0)].degree() == 1
    for outside in ((0,), (3,), (1, 0)):
        with pytest.raises(ValidationError, match="outside"):
            classical_grad(lifted, outside)
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


def test_expansion_match_with_a_box_past_the_float_range():
    # u^62 at 400 moved by 1: the bound is inf and the remainder norm about
    # 2.6e159, whose squares overflow a float; the oracle still reports
    f = kernel_1d({(62,): F(1)}, arity=1)
    rep = verify_expansion_match(f, [(F(400),)], [(F(401),)], 1, box=(-1000, 1000))
    assert isinstance(rep, Report) and rep.passed
    assert rep.details["bound"] == math.inf
    assert 2.6e159 < rep.details["remainder_norm"] < 2.7e159


def test_expansion_match_spatial():
    rng = random.Random(9)
    for trial in range(3):
        f = random_functional(rng, 1, 1, True)
        x = [random_point(rng, 1) for _ in range(2)]
        y = [random_point(rng, 1) for _ in range(2)]
        rep = verify_expansion_match(f, x, y, rng.randint(1, 2), box=(-50, 50))
        assert rep.passed



@pytest.mark.parametrize("order", [2.5, F(5, 2), True, "2", 0], ids=repr)
@pytest.mark.parametrize("spatial", [False, True], ids=["measure", "spatial"])
def test_expansion_match_takes_an_integer_order(order, spatial):
    # True used to pass as order 1, and a spatial functional at order 5/2
    # was expanded with the grading truncated at level 3
    f = random_functional(random.Random(9), 1, 1, spatial)
    x, y = [(F(0),), (F(1, 2),)], [(F(1, 3),), (F(1),)]
    assert verify_expansion_match(f, x, y, 2).passed
    with pytest.raises(ValidationError, match="an order is an integer of at least 1"):
        verify_expansion_match(f, x, y, order)


def test_the_oracle_imports_no_engine_internals():
    # the ground truth must not run the optimised paths it checks: from the
    # package it imports public names only, and the convergence study it
    # re-exports is the engine's own
    names = []
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("lionsjet")):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name.startswith("lionsjet")]
    assert "expansion.taylor1" in names
    assert [name for name in names if any(part.startswith("_") for part in name.split("."))] == []
    assert oracle.convergence_study is expansion.convergence_study

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


def test_schwarz_rejects_points_and_directions_of_another_dimension():
    # the kernel has e = 1: a longer x0 used to be cut off by zip, and an
    # empty direction ended in an IndexError
    rng = random.Random(14)
    f = random_functional(rng, 1, 2, True, degree=4)
    mu = EmpiricalMeasure([random_point(rng, 1) for _ in range(3)])
    x0, free = random_point(rng, 1), [mu.atoms[0]]
    dirs = [random_point(rng, 1) for _ in range(3)]
    a, sigma = TaggedSeq((1, 0, 1)), (0, 2, 1)
    assert schwarz_check(f, a, sigma, x0, mu, free, dirs).passed
    wide = EmpiricalMeasure([p + (F(1),) for p in mu.atoms])
    for args in (
        (x0 + (F(1),), mu, free, dirs),
        (x0, mu, [free[0] + (F(1),)], dirs),
        (x0, wide, free, dirs),
        (x0, mu, free, [()] * 3),
        (x0, mu, free, dirs[:2] + [dirs[2] + (F(1),)]),
    ):
        with pytest.raises(ValidationError, match="coordinates"):
            schwarz_check(f, a, sigma, *args)


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


def test_convergence_study_of_an_exact_expansion_is_exact_in_float():
    # k(u1, u2) = u1 u2 + u1/3 at order 2: every boundary sequence is as long
    # as the kernel degree, so the remainder is 0; float rows carry rounding
    # noise under the fit floor, which used to raise "fewer than two scales"
    f = kernel_1d({(1, 1): F(1), (1, 0): F(1, 3)}, arity=2)
    pts, dirs = [(F(1, 3),), (F(2, 7),)], [(F(1, 5),), (F(-2, 3),)]
    float_pts = [tuple(map(float, p)) for p in pts]
    rational_hs = [F(1, 2), F(1, 10)]
    for points, hs in ((pts, [0.5, 0.1]), (float_pts, rational_hs), (pts, rational_hs)):
        rows, slope = convergence_study(f, points, dirs, 2, hs)
        assert slope is None and len(rows) == 2
        assert all(row["remainder"] < SLOPE_FLOOR for row in rows)
    # one order lower the remainder is not 0, and the study fits a slope
    rows, slope = convergence_study(f, pts, dirs, 1, [0.5, 0.1])
    assert slope == pytest.approx(2)


def test_a_study_called_exact_has_remainder_zero():
    # the rule: every boundary sequence at least as long as the kernel
    # degree makes every remainder integrand constant, so with rational
    # inputs each row is exactly 0, and the slope is None in float too
    hs = [F(1, 2), F(1, 4), F(1, 8)]
    exact = 0
    for seed in range(60):
        rng = random.Random(f"exact-rule:{seed}")
        graded = seed % 2 == 1
        e = rng.choice([1, 2])
        f = random_functional(rng, e, 2, graded, degree=rng.randint(1, 3))
        pts = [random_point(rng, e) for _ in range(2)]
        dirs = [random_point(rng, e) for _ in range(2)]
        spatial = {}
        if graded:
            spec = Grading(*rng.choice([(1, 1, F(5, 2)), (F(1, 2), 1, F(9, 4)), (1, F(1, 2), F(3, 2))]))
            spatial = {"x0": random_point(rng, e), "x0_direction": random_point(rng, e)}
        else:
            spec = rng.randint(1, 3)
        families = _plan(f, spec).families
        if not all(len(v) >= f.kernel.degree for *_, members in families for v in members):
            continue
        exact += 1
        rows, slope = convergence_study(f, pts, dirs, spec, hs, **spatial)
        assert slope is None and all(row["remainder"] == 0 for row in rows)
        float_dirs = [tuple(map(float, v)) for v in dirs]
        assert convergence_study(f, pts, float_dirs, spec, [0.5, 0.1], **spatial)[1] is None
    assert exact >= 30


def test_convergence_study_needs_two_distinct_positive_scales():
    f = kernel_1d({(3,): F(1), (2,): F(1)}, arity=1)
    pts, dirs = [(F(1, 2),)], [(F(1),)]
    for hs in ([F(1, 2)], [F(1, 2), F(1, 2)], [0.5, F(1, 2)], [F(1, 2), F(0)],
               [F(-1, 2), F(1, 4)], []):
        with pytest.raises(ValidationError, match="two distinct scales"):
            convergence_study(f, pts, dirs, 1, hs, box=(-3, 3))
    rows, slope = convergence_study(f, pts, dirs, 1, [F(1, 2), 0.25])
    assert len(rows) == 2 and slope is not None


def test_convergence_study_checks_its_spatial_arguments():
    # a grading without x0 or x0_direction used to end in a TypeError; an
    # order silently ignored them
    f = kernel_1d({(1, 1): F(1)}, arity=1, spatial=True)
    pts, dirs, hs = [(F(1, 2),)], [(F(1),)], [F(1, 2), F(1, 4)]
    g = Grading(1, 1, F(5, 2))
    for x0, dx0 in ((None, None), ((F(0),), None), (None, (F(1),))):
        with pytest.raises(ValidationError, match="grading needs"):
            convergence_study(f, pts, dirs, g, hs, x0=x0, x0_direction=dx0)
    m = kernel_1d({(2,): F(1)}, arity=1)
    for x0, dx0 in (((F(0),), (F(1),)), ((F(0),), None), (None, (F(1),))):
        with pytest.raises(ValidationError, match="need a grading"):
            convergence_study(m, pts, dirs, 2, hs, x0=x0, x0_direction=dx0)
    rows, _ = convergence_study(f, pts, dirs, g, hs, x0=(F(0),), x0_direction=(F(1),))
    assert len(rows) == 2
    # a direction longer than its point, or a direction for no point, used
    # to be cut off by zip
    for bad in ([(F(1), F(2))], dirs * 2):
        with pytest.raises(ValidationError, match="one direction per point"):
            convergence_study(m, pts, bad, 2, hs)
    with pytest.raises(ValidationError, match="x0_direction needs"):
        convergence_study(f, pts, dirs, g, hs, x0=(F(0),), x0_direction=(F(1), F(2)))


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
