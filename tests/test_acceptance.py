"""Acceptance criteria.

Each test covers one numbered criterion at its stated scale and tolerance and
prints one PASS line (a failure raises, so a printed line means the criterion
held). Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from lionsjet.cli import gen_kernel, gen_points, make_instance, run_instance
from lionsjet.expansion import (
    convergence_study,
    remainder_bound1,
    remainder_bound2,
    taylor1,
    taylor2,
    taylor_derivative,
)
from lionsjet.functional import eval_derivative, lions_derivative
from lionsjet.measures import EmpiricalMeasure, pair_coupling
from lionsjet.oracle import (
    regrouping_counts,
    schwarz_check,
    verify_empirical_deriv,
    verify_fullsystem,
)
from lionsjet.partitions import enum_A
from lionsjet.tagged import (
    Grading,
    TaggedSeq,
    enum_A0,
    enum_A_a,
    enum_Akn0,
    equiv_class_tagged,
    grade,
    iso_J,
    iso_J_inv,
)

from test_functional import kernel_1d, random_functional, random_point
from test_partitions import A4_LISTING, bell_numbers

F = Fraction


def _report(number, elapsed, detail):
    print(f"criterion {number}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_cardinalities_and_listings():
    start = time.perf_counter()
    bell = bell_numbers(10)
    for n in range(9):
        assert len(enum_A(n)) == bell[n]
    for n in range(8):
        assert len(enum_A0(n)) == bell[n + 1]
    assert [a.values for a in enum_A(2)] == [(1, 1), (1, 2)]
    assert [a.values for a in enum_A(3)] == [
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)
    ]
    assert [a.values for a in enum_A(4)] == A4_LISTING
    assert {a.values for a in enum_A0(1)} == {(0,), (1,)}
    assert {a.values for a in enum_A0(2)} == {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)}
    assert {a.values for a in enum_A0(3)} == {
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1),
        (1, 1, 0), (0, 1, 2), (1, 0, 2), (1, 2, 0), (1, 1, 1), (1, 1, 2),
        (1, 2, 1), (1, 2, 2), (1, 2, 3),
    }
    assert {a.values for a in enum_Akn0(1, 1)} == {(0, 1), (1, 0)}
    assert {a.values for a in enum_Akn0(2, 1)} == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}
    assert {a.values for a in enum_Akn0(1, 2)} == {
        (0, 1, 1), (0, 1, 2), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 2, 0)
    }
    base = TaggedSeq((1, 2, 1))
    assert {x.values for x in enum_A_a(base, 2)} == {
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3),
        (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3), (3, 4),
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, elapsed, "cardinalities to Bell(9), printed listings element-for-element")


def test_criterion_2_bijection_round_trips():
    from lionsjet.partitions import from_partition, to_partition

    start = time.perf_counter()
    checks = 0
    for n in range(7):
        for a in enum_A(n):
            assert from_partition(to_partition(a)) == a
            checks += 1
    # tagged sequences encode partitions of {0, 1, ..., n}: rebuild each
    # sequence from its block structure with 0 adjoined to the zero block
    for n in range(6):
        seen = set()
        for a in enum_A0(n):
            blocks = [(0,) + a.zero_block()] + list(a.positive_blocks())
            blocks = [b for b in blocks if b]
            key = frozenset(frozenset(b) for b in blocks)
            assert key not in seen
            seen.add(key)
            labels = [None] * n
            for b in blocks:
                tag = 0 in b
                for pos in b:
                    if pos:
                        labels[pos - 1] = ("zero",) if tag else min(b)
            rebuilt = equiv_class_tagged(labels, ("zero",)) if n else TaggedSeq(())
            assert rebuilt == a
            checks += 1
        assert len(seen) == bell_numbers(n + 2)[n + 1]
    for base in enum_A0(3):
        for n in range(4):
            image = set()
            for ext in enum_A_a(base, n):
                whole = iso_J(base, ext)
                assert iso_J_inv(base, whole) == ext
                image.add(whole.values)
                checks += 1
            expected = {
                a.values
                for a in enum_A0(n + len(base))
                if a.values[: len(base)] == base.values
            }
            assert image == expected
    elapsed = time.perf_counter() - start
    _report(2, elapsed, f"{checks} round trips, zero failures")


def test_criterion_3_particle_gradient_identities():
    start = time.perf_counter()
    total = 0
    worst = 0.0
    for k in range(250):
        rep = run_instance(make_instance("empirical", 30_000 + k))
        assert rep.passed, rep.to_json()
        worst = max(worst, rep.max_abs_difference)
        total += 1
    for k in range(250):
        rep = run_instance(make_instance("fullsystem", 40_000 + k))
        assert rep.passed, rep.to_json()
        worst = max(worst, rep.max_abs_difference)
        total += 1
    # exhaustive multi-index coverage at N=3, |idx|=3
    rng = random.Random(99)
    f_plain = gen_kernel(rng, 2, 1, 2, False, degree=3)
    f_spatial = gen_kernel(rng, 1, 1, 2, True, degree=3)
    pts2 = gen_points(rng, 3, 2)
    pts1 = gen_points(rng, 3, 1)
    for idx in itertools.product((1, 2, 3), repeat=3):
        rep = verify_empirical_deriv(f_plain, 3, idx, points=pts2)
        assert rep.passed and rep.max_abs_difference == 0
        total += 1
        rep = verify_fullsystem(f_spatial, 3, 1, idx, points=pts1)
        assert rep.passed and rep.max_abs_difference == 0
        total += 1
    assert total >= 500
    assert worst == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, elapsed, f"{total} instances, max absolute difference 0")


# shared instance list for criteria 4 and 5
_GRADINGS_BY_BRANCH = {
    "alpha<beta": [
        Grading(F(1, 2), 1, F(3, 2)),
        Grading(F(1, 2), 1, F(9, 4)),
        Grading(F(1, 2), 1, 3),
        Grading(F(2, 3), 1, F(7, 3)),
        Grading(1, 3, F(3, 2)),
    ],
    "alpha=beta": [
        Grading(1, 1, F(3, 2)),
        Grading(1, 1, F(5, 2)),
        Grading(1, 1, F(7, 2)),
    ],
    "alpha>beta": [
        Grading(1, F(1, 2), F(3, 2)),
        Grading(1, F(1, 2), F(9, 4)),
        Grading(1, F(1, 2), 3),
        Grading(3, 1, F(3, 2)),
        Grading(F(3, 2), 1, F(10, 3)),
    ],
}


def _expansion_instances():
    rng = random.Random(2026)
    instances = []
    for n in (1, 2, 3):
        for _ in range(30):
            e = rng.choice([1, 1, 1, 2])
            f = random_functional(rng, e, rng.randint(1, 2), False)
            x = [random_point(rng, e) for _ in range(rng.randint(1, 3))]
            y = [random_point(rng, e) for _ in range(len(x))]
            instances.append(("taylor1", f, pair_coupling(x, y), n, None, None))
    for branch, gradings in _GRADINGS_BY_BRANCH.items():
        for k in range(52):
            g = gradings[k % len(gradings)]
            e = rng.choice([1, 1, 1, 2])
            f = random_functional(rng, e, rng.randint(1, 2), True)
            x = [random_point(rng, e) for _ in range(rng.randint(1, 3))]
            y = [random_point(rng, e) for _ in range(len(x))]
            pts = (random_point(rng, e), random_point(rng, e))
            instances.append(("taylor2", f, pair_coupling(x, y), g, pts, branch))
    for values in [(0,), (1,), (1, 2)]:
        for _ in range(20):
            a = TaggedSeq(values)
            e = rng.choice([1, 2])
            f = random_functional(rng, e, 2, True)
            x = [random_point(rng, e) for _ in range(2)]
            y = [random_point(rng, e) for _ in range(2)]
            g = rng.choice(
                [Grading(F(1, 2), 1, 3), Grading(1, F(1, 2), 3), Grading(1, 1, F(7, 2))]
            )
            free = (
                [random_point(rng, e) for _ in range(a.m)],
                [random_point(rng, e) for _ in range(a.m)],
            )
            pts = (random_point(rng, e), random_point(rng, e))
            instances.append(("corollary", f, pair_coupling(x, y), (a, g, free), pts, None))
    return instances


def test_criterion_4_expansion_exactness():
    start = time.perf_counter()
    instances = _expansion_instances()
    counts = {"taylor1": 0, "taylor2": 0, "corollary": 0}
    branches = set()
    max_levels = 0
    for kind, f, c, spec, pts, branch in instances:
        if kind == "taylor1":
            res = taylor1(f, c.left(), c, spec)
        elif kind == "taylor2":
            res = taylor2(f, pts[0], pts[1], c, spec)
            branches.add(branch)
            levels = len({grade(TaggedSeq(t.seq.values), spec) for t in res.jet}) - 1
            max_levels = max(max_levels, levels)
        else:
            a, g, (fx, fy) = spec
            res = taylor_derivative(f, a, pts[0], pts[1], fx, fy, c, g)
        assert res.identity_gap() == 0, (kind, spec)
        counts[kind] += 1
    assert sum(counts.values()) >= 300
    assert branches == {"alpha<beta", "alpha=beta", "alpha>beta"}
    assert max_levels >= 3
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        4,
        elapsed,
        f"{sum(counts.values())} instances exact ({counts}), grade levels crossed: {max_levels}",
    )


def test_criterion_5_bounds_and_convergence():
    start = time.perf_counter()
    box = (-4, 4)
    checked = 0
    for kind, f, c, spec, pts, _ in _expansion_instances():
        if kind == "taylor1":
            res = taylor1(f, c.left(), c, spec)
            bound = remainder_bound1(f, c, spec, box)
        elif kind == "taylor2":
            res = taylor2(f, pts[0], pts[1], c, spec)
            bound = remainder_bound2(f, pts[0], pts[1], c, spec, box)
        else:
            continue
        assert bound >= res.remainder_norm() * (1 - 1e-9) - 1e-15, (kind, spec)
        checked += 1
    orders = []
    rng = random.Random(77)
    for n in (1, 2, 3):
        deg = n + 2
        terms = {(j,): F(rng.randint(1, 2), rng.randint(1, 2)) for j in range(deg + 1)}
        f = kernel_1d(terms, arity=1)
        pts = [(F(rng.randint(2, 4), 4),) for _ in range(2)]
        dirs = [(F(1),) for _ in range(2)]
        hs = [F(1, 2) ** k for k in range(1, 7)]
        _, order = convergence_study(f, pts, dirs, n, hs)
        assert order == n + 1
        orders.append(order)
    elapsed = time.perf_counter() - start
    _report(
        5,
        elapsed,
        f"bounds dominate on {checked} instances; exact remainder orders at n=1,2,3: {orders}",
    )


def test_criterion_6_schwarz_suite():
    start = time.perf_counter()
    rng = random.Random(606)
    checks = 0
    for kernel_index in range(50):
        e = 1 if kernel_index < 40 else 2
        f = random_functional(rng, e, 2, True, degree=4)
        mu = EmpiricalMeasure([random_point(rng, e) for _ in range(3)])
        x0 = random_point(rng, e)
        for n in range(4):
            for a in enum_A0(n):
                free = [mu.atoms[k % 3] for k in range(a.m)]
                dirs = [random_point(rng, e) for _ in range(n)]
                for sigma in itertools.permutations(range(n)):
                    rep = schwarz_check(f, a, sigma, x0, mu, free, dirs)
                    assert rep.passed and rep.max_abs_difference == 0, (a, sigma)
                    checks += 1
        # the spatial/measure transpose identity, exact and entrywise
        t01 = eval_derivative(
            lions_derivative(f, TaggedSeq((0, 1))), x0, mu, [mu.atoms[0]]
        )
        t10 = eval_derivative(
            lions_derivative(f, TaggedSeq((1, 0))), x0, mu, [mu.atoms[0]]
        )
        for c1 in range(e):
            for c2 in range(e):
                assert t01[(0, c1, c2)] == t10[(0, c2, c1)]
    elapsed = time.perf_counter() - start
    _report(6, elapsed, f"{checks} permutation checks on 50 kernels, all exact")


def test_criterion_7_multi_index_regrouping():
    start = time.perf_counter()
    for n_particles in range(1, 6):
        for n in range(1, 6):
            counts = regrouping_counts(n_particles, n)
            assert sum(counts.values()) == n_particles**n
            for a in enum_A(n):
                expected = 1
                for k in range(a.m):
                    expected *= n_particles - k
                assert counts.get(a.values, 0) == max(expected, 0), (
                    n_particles,
                    a.values,
                )
    elapsed = time.perf_counter() - start
    _report(7, elapsed, "counts match falling factorials for N, n <= 5")
