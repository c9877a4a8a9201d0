"""Empirical measures, couplings, moments."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from lionsjet import measures
from lionsjet.errors import UnsupportedError, ValidationError
from lionsjet.measures import (
    Coupling,
    EmpiricalMeasure,
    MomentView,
    coupling_moment,
    interpolate,
    load_coupling,
    load_points,
    pair_coupling,
    save_coupling,
    save_points,
)
from lionsjet.poly import XiPoly


def test_pair_coupling_examples():
    c = pair_coupling([(0,), (1,)], [(1,), (3,)])
    assert c.pairs == (((Fraction(0),), (Fraction(1),)), ((Fraction(1),), (Fraction(3),)))
    assert coupling_moment(c, 1, exact=True) == Fraction(3, 2)
    assert c.left() == EmpiricalMeasure([(0,), (1,)])
    with pytest.raises(ValidationError):
        pair_coupling([(0,)], [(1,), (2,)])


def test_pair_coupling_validates_each_point_once(monkeypatch):
    calls = []
    as_point = measures._as_point
    monkeypatch.setattr(measures, "_as_point", lambda coords: calls.append(coords) or as_point(coords))
    c = pair_coupling([(0,), (1,)], [(1,), ("3",)])
    assert len(calls) == 4
    assert c.pairs == (((Fraction(0),), (Fraction(1),)), ((Fraction(1),), (Fraction(3),)))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
def test_non_finite_coordinates_are_refused(bad):
    # float coordinates used to be kept as given, so an expansion printed NaN
    with pytest.raises(ValidationError, match="finite"):
        EmpiricalMeasure([(0.5,), (bad,)])
    with pytest.raises(ValidationError, match="finite"):
        pair_coupling([(0.5, 0.0)], [(1.0, bad)])
    assert pair_coupling([(0.5,)], [(Fraction(10**400),)]).pairs[0][1] == (Fraction(10**400),)

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


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("p", [-1, 0.5, 2.0, True, Fraction(2), "2", None])
def test_coupling_moment_takes_only_an_integer_power_of_at_least_0(p, exact):
    # one gap is zero: p = -1 would divide by it, and an exact 0.5 would
    # reach an int-only branch
    c = Coupling([((0,), (0,)), ((0,), (2,))])
    with pytest.raises(ValidationError):
        coupling_moment(c, p, exact=exact)
    assert coupling_moment(c, 0, exact=exact) == 1


def test_pairs_and_dimension_are_read_only_so_kept_moments_stay_right():
    c = pair_coupling([(0,)], [(1,)])
    assert c.gap_squares() == [1] and coupling_moment(c, 2) == 1.0
    with pytest.raises(AttributeError):
        c.pairs = (((Fraction(0),), (Fraction(3),)),)
    with pytest.raises(AttributeError):
        c.dim = 2
    assert c.pairs == (((Fraction(0),), (Fraction(1),)),) and c.dim == 1
    assert coupling_moment(c, 2, exact=True) == 1 and coupling_moment(c, 2) == 1.0
    assert coupling_moment(pair_coupling([(0,)], [(3,)]), 2, exact=True) == 9


def test_gap_squares_are_computed_once_and_serve_every_power():
    c = pair_coupling([(Fraction(1, 2), 0), (-1, 2)], [(Fraction(3, 2), 1), (0, 0)])
    squares = c.gap_squares()
    assert squares == [2, 5] and c.gap_squares() is squares
    assert coupling_moment(c, 4, exact=True) == Fraction(29, 2)
    assert coupling_moment(c, 3) == (2.0**1.5 + 5.0**1.5) / 2


def test_coupling_moment_bounds_the_best_permutation():
    # the pairing of a coupling is one of the N! permutations, so its moment
    # is at least their minimum; each permuted pairing's moment is its sum
    rng = random.Random(3)
    for _ in range(10):
        x, y = ([(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)] for _ in range(2))
        costs = []
        for perm in itertools.permutations(range(3)):
            moment = coupling_moment(pair_coupling(x, [y[j] for j in perm]), 1)
            direct = sum(math.dist(x[i], y[j]) for i, j in enumerate(perm)) / 3
            assert moment == pytest.approx(direct, rel=1e-12)
            costs.append(moment)
        assert min(costs) <= coupling_moment(pair_coupling(x, y), 1)


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


# -- integer moment tables ----------------------------------------------------

_DENOMS = (3, 7, 5, 9)  # per-coordinate denominators, all non-unit


def _rational_points(rng, n, e):
    return [
        tuple(Fraction(rng.randint(-9, 9) or 1, _DENOMS[c] * rng.choice((1, 2))) for c in range(e))
        for _ in range(n)
    ]


def _literal(atoms, gaps, exps, gap_exps):
    """(1/N) sum_i prod_c atom_ic^exps_c * gap_ic^gap_exps_c, term by term;
    the sum is multiplied by Fraction(1, N), so that an `XiPoly` sum works."""
    total = Fraction(0)
    for i, atom in enumerate(atoms):
        term = Fraction(1)
        for c, p in enumerate(exps):
            term *= atom[c] ** p
        for c, p in enumerate(gap_exps):
            term *= gaps[i][c] ** p
        total += term
    return total * Fraction(1, len(atoms))


def _exponents(e, degree):
    return [x for x in itertools.product(range(degree + 1), repeat=e) if sum(x) <= degree]


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("with_gaps", [True, False], ids=["gaps", "no-gaps"])
def test_integer_moments_equal_the_literal_sum(n, e, with_gaps):
    # base, path and target views of one coupling, against the sum written
    # out in Fractions; on the path the moment is an XiPoly of degree at most
    # |exps|, so it is pinned down by its values at |exps| + 1 points
    rng = random.Random(f"moments:{n}:{e}")
    xs, ys = _rational_points(rng, n, e), _rational_points(rng, n, e)
    gs = [tuple(b - a for a, b in zip(x, y)) for x, y in zip(xs, ys)]
    base = MomentView(xs, dim=e, gaps=gs if with_gaps else None)
    path = base.with_atoms(
        [tuple(XiPoly.affine(a, g) for a, g in zip(x, gv)) for x, gv in zip(xs, gs)]
    )
    target = MomentView(ys, dim=e)
    gap_choices = _exponents(e, 2) if with_gaps else [(0,) * e]
    for exps in _exponents(e, 3):
        assert target.moment(exps) == _literal(ys, gs, exps, (0,) * e)
        assert type(target.moment(exps)) is Fraction
        for gap_exps in gap_choices:
            got = base.moment(exps, gap_exps)
            assert type(got) is Fraction and got == _literal(xs, gs, exps, gap_exps)
            on_path = path.moment(exps, gap_exps)
            if not any(exps):
                assert type(on_path) is Fraction and on_path == got
                continue
            assert type(on_path) is XiPoly and len(on_path.coeffs) <= sum(exps) + 1
            for xi in (Fraction(k, 3) for k in range(sum(exps) + 1)):
                moved = [tuple(a + xi * g for a, g in zip(x, gv)) for x, gv in zip(xs, gs)]
                assert on_path.eval(xi) == _literal(moved, gs, exps, gap_exps)
    assert path._gap_tables is base._gap_tables


def test_a_couplings_path_view_drops_its_atoms_and_keeps_its_moments():
    c = pair_coupling([(Fraction(1, 3), 0), (-1, 2)], [(Fraction(3, 2), 1), (0, 0)])
    path = c.path_view()
    assert path.atoms is None and path.n_atoms == c.n_atoms == 2
    built = c.base_view().with_atoms(
        [tuple(XiPoly.affine(a, b - a) for a, b in zip(x, y)) for x, y in c.pairs]
    )
    for exps in _exponents(2, 3):
        for gap_exps in _exponents(2, 2):
            assert path.moment(exps, gap_exps) == built.moment(exps, gap_exps)


def test_integer_moments_match_the_literal_sum_on_a_user_built_path_view():
    # XiPoly atoms of degree 0, 1 and 2, a zero coordinate, int gaps
    atoms = [
        (XiPoly((Fraction(1, 3), Fraction(2, 7))), XiPoly(())),
        (XiPoly((Fraction(-2, 9),)), XiPoly((1, Fraction(1, 2), Fraction(-3, 5)))),
    ]
    gaps = [(2, Fraction(-1, 4)), (Fraction(5, 6), 0)]
    view = MomentView(atoms, dim=2, gaps=gaps)
    assert view.exact and view.table_scales() == (2, 630, 12, True)
    for exps in _exponents(2, 3):
        for gap_exps in _exponents(2, 2):
            got = view.moment(exps, gap_exps)
            assert type(got) is (XiPoly if any(exps) else Fraction)
            assert got == _literal(atoms, gaps, exps, gap_exps)


@pytest.mark.parametrize("exps,gap_exps", [((1, 0, 2), None), ((1,), None), ((1, 0), (1, 0, 0))])
def test_moment_exponents_of_another_length_raise(exps, gap_exps):
    # they used to be paired up with the coordinates by zip, silently
    view = MomentView([(Fraction(1, 3), 2), (0.5, -1.0)], dim=2, gaps=[(1, 2), (3, 4)])
    with pytest.raises(ValidationError, match="2 entries"):
        view.moment(exps, gap_exps)


def test_high_degree_moments_match_the_literal_sum():
    # the tables used to be built by one recursive call per unit of
    # exponent, which exceeded the recursion limit from a total degree of
    # about 990; the path view is short (of degree 1 and 0 in xi) so that
    # the XiPoly powers it is checked against stay cheap
    rational = MomentView(
        [(Fraction(3, 2), Fraction(-1, 3)), (Fraction(-5, 7), Fraction(1)), (Fraction(1, 4), 2)],
        dim=2,
        gaps=[(Fraction(1, 2), 2), (Fraction(-1, 3), Fraction(1, 5)), (1, Fraction(-2, 3))],
    )
    path = MomentView(
        [(XiPoly.affine(Fraction(1, 2), Fraction(1, 3)), XiPoly((Fraction(-4, 5),))),
         (XiPoly.affine(-1, Fraction(2, 7)), XiPoly((Fraction(3, 2),)))],
        dim=2,
        gaps=[(Fraction(1, 3), 2), (-1, Fraction(1, 4))],
    )
    cases = {
        rational: [((700, 800), (0, 0)), ((699, 800), (1, 0)), ((1, 1500), (0, 2))],
        path: [((3, 1497), (0, 0)), ((2, 1498), (1, 0)), ((1, 1499), (0, 2))],
    }
    for view, requests in cases.items():
        assert view.exact
        for exps, gap_exps in requests:
            got = view.moment(exps, gap_exps)
            assert type(got) is (XiPoly if view is path else Fraction)
            assert got == _literal(view.atoms, view.gaps, exps, gap_exps)


@pytest.mark.parametrize("kind", ["float", "mixed"])
def test_float_and_mixed_atoms_read_tables_as_given(kind):
    rng = random.Random(kind)
    xs = _rational_points(rng, 3, 2)
    gs = _rational_points(rng, 3, 2)
    if kind == "float":
        xs = [tuple(map(float, x)) for x in xs]
        gs = [tuple(map(float, g)) for g in gs]
    else:
        xs = [(float(x[0]), x[1]) for x in xs]
    view = MomentView(xs, dim=2, gaps=gs)
    assert not view.exact and view.table_scales() == (3, 1, 1, False)
    for exps, gap_exps in [((1, 0), (0, 0)), ((2, 1), (0, 1)), ((0, 0), (2, 0))]:
        got = view.moment(exps, gap_exps)
        # a float factor makes the sum a float; mixed atoms with no weight
        # on their float coordinate sum to a Fraction
        assert type(got) is (float if kind == "float" or exps[0] else Fraction)
        assert math.isclose(got, float(_literal(xs, gs, exps, gap_exps)), rel_tol=1e-12)


def test_float_gaps_with_rational_atoms():
    # a view is exact only when its atoms and its gaps both are: here both
    # tables keep their values, and a moment of the rational atoms alone
    # is still their exact Fraction
    xs = [(Fraction(1, 3),), (Fraction(-2, 7),)]
    view = MomentView(xs, dim=1, gaps=[(0.5,), (-1.25,)])
    assert not view.exact and not view._gap_tables.exact
    assert view.moment((2,)) == _literal(xs, None, (2,), ()) and type(view.moment((2,))) is Fraction
    assert isinstance(view.moment((1,), (1,)), float)
    # the path view of exact atoms over these gaps is not exact either
    path = view.with_atoms([(XiPoly.affine(x, g),) for (x,), (g,) in zip(xs, view.gaps)])
    assert not path.exact and path._gap_tables is view._gap_tables


def test_a_view_checks_its_atoms_and_gaps():
    with pytest.raises(ValidationError):
        MomentView([], dim=1)
    with pytest.raises(ValidationError):
        MomentView([(1, 2), (3,)], dim=2)
    with pytest.raises(ValidationError):
        MomentView([(1,), (2,)], dim=1, gaps=[(1,)])
    with pytest.raises(ValidationError, match="view with gaps"):
        MomentView([(1,), (2,)], dim=1).moment((1,), (1,))
