"""Empirical measures, couplings, moments, Wasserstein distances."""

import random
from fractions import Fraction

import pytest

from lionsjet.errors import UnsupportedError, ValidationError
from lionsjet.measures import (
    Coupling,
    EmpiricalMeasure,
    coupling_moment,
    interpolate,
    load_coupling,
    load_points,
    pair_coupling,
    save_coupling,
    save_points,
    wasserstein,
)
from lionsjet.measures import _assignment_distance, _brute_distance


def test_pair_coupling_examples():
    c = pair_coupling([(0,), (1,)], [(1,), (3,)])
    assert c.pairs == (((Fraction(0),), (Fraction(1),)), ((Fraction(1),), (Fraction(3),)))
    assert coupling_moment(c, 1, exact=True) == Fraction(3, 2)
    assert c.left() == EmpiricalMeasure([(0,), (1,)])
    with pytest.raises(ValidationError):
        pair_coupling([(0,)], [(1,), (2,)])


def test_diagonal_coupling():
    pts = [(1, 2), (3, 4)]
    c = pair_coupling(pts, pts)
    assert coupling_moment(c, 2, exact=True) == 0
    assert c.left() == c.right()


def test_interpolate():
    c = pair_coupling([(0,), (2,)], [(2,), (6,)])
    assert interpolate(c, 0) == c.left()
    assert interpolate(c, 1) == c.right()
    assert interpolate(c, Fraction(1, 2)).key() == ((Fraction(1),), (Fraction(4),))
    with pytest.raises(ValidationError):
        interpolate(c, 2)


def test_interpolation_is_affine_and_moments_scale():
    rng = random.Random(1)
    x = [(Fraction(rng.randint(-3, 3)),) for _ in range(4)]
    y = [(Fraction(rng.randint(-3, 3)),) for _ in range(4)]
    c = pair_coupling(x, y)
    for p in (1, 2, 3):
        base = coupling_moment(c, p, exact=True)
        for xi in (Fraction(1, 2), Fraction(1, 3)):
            partial = pair_coupling(x, interpolate(c, xi).atoms)
            assert coupling_moment(partial, p, exact=True) == xi**p * base


def test_coupling_moment_examples():
    c = Coupling([((0,), (1,)), ((0,), (-1,))])
    assert coupling_moment(c, 2, exact=True) == 1
    c2 = Coupling([((0, 0), (3, 4))])
    assert coupling_moment(c2, 1) == pytest.approx(5.0)
    assert coupling_moment(c2, 2, exact=True) == 25
    with pytest.raises(UnsupportedError):
        coupling_moment(c2, 1, exact=True)
    # dimension 1 stays exact at odd powers
    c3 = Coupling([((Fraction(1, 3),), (Fraction(1, 2),))])
    assert coupling_moment(c3, 3, exact=True) == Fraction(1, 216)


def test_wasserstein_examples():
    mu = EmpiricalMeasure([(0,), (1,)])
    nu = EmpiricalMeasure([(1,), (3,)])
    assert wasserstein(mu, mu, 1) == pytest.approx(0.0)
    assert wasserstein(mu, nu, 1) == pytest.approx(1.5)
    with pytest.raises(UnsupportedError):
        wasserstein(mu, EmpiricalMeasure([(0,), (1,), (2,)]), 1)
    with pytest.raises(ValidationError):
        wasserstein(mu, nu, 3)


def test_wasserstein_matches_bruteforce():
    rng = random.Random(7)
    for e in (1, 2):
        for n in (1, 2, 3, 4, 5):
            mu = EmpiricalMeasure(
                [tuple(rng.uniform(-2, 2) for _ in range(e)) for _ in range(n)]
            )
            nu = EmpiricalMeasure(
                [tuple(rng.uniform(-2, 2) for _ in range(e)) for _ in range(n)]
            )
            for q in (1, 2):
                assert wasserstein(mu, nu, q) == pytest.approx(
                    _brute_distance(mu, nu, q), rel=1e-9, abs=1e-12
                )


def test_wasserstein_1d_sort_matches_assignment():
    rng = random.Random(11)
    for n in (1, 2, 3, 5, 8, 13):
        for _ in range(5):
            mu = EmpiricalMeasure([(rng.uniform(-3, 3),) for _ in range(n)])
            nu = EmpiricalMeasure([(rng.uniform(-3, 3),) for _ in range(n)])
            for q in (1, 2):
                assert wasserstein(mu, nu, q) == pytest.approx(
                    _assignment_distance(mu, nu, q), rel=1e-9, abs=1e-12
                )


def test_wasserstein_metric_properties():
    rng = random.Random(3)
    for _ in range(10):
        ms = [
            EmpiricalMeasure([(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)])
            for _ in range(3)
        ]
        for q in (1, 2):
            d01 = wasserstein(ms[0], ms[1], q)
            d10 = wasserstein(ms[1], ms[0], q)
            d12 = wasserstein(ms[1], ms[2], q)
            d02 = wasserstein(ms[0], ms[2], q)
            assert d01 == pytest.approx(d10, rel=1e-9, abs=1e-12)
            assert d02 <= d01 + d12 + 1e-9
        # order monotonicity and the one-coupling upper bound
        assert wasserstein(ms[0], ms[1], 1) <= wasserstein(ms[0], ms[1], 2) + 1e-9
        c = pair_coupling(ms[0].atoms, ms[1].atoms)
        assert wasserstein(ms[0], ms[1], 1) <= coupling_moment(c, 1) + 1e-9


def test_point_io(tmp_path):
    pts = [(Fraction(1, 3), Fraction(-2)), (Fraction(0), Fraction(5, 7))]
    csv_path = tmp_path / "pts.csv"
    save_points(csv_path, pts)
    assert load_points(csv_path) == pts
    json_path = tmp_path / "pts.json"
    json_path.write_text('[["1/3", "-2"], ["0", "5/7"]]')
    assert load_points(json_path) == pts


def test_coupling_io(tmp_path):
    c = pair_coupling([(Fraction(1, 2),)], [(Fraction(3),)])
    path = tmp_path / "coupling.json"
    save_coupling(path, c)
    assert load_coupling(path).pairs == c.pairs
