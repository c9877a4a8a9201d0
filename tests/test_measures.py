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


@pytest.mark.parametrize("seed", range(8))
def test_gap_squares_of_a_rational_coupling_equal_the_literal_sum(seed, monkeypatch):
    # one int per pair from the coupling's integer gap rows, over scale^2:
    # the same Fractions as sum((y - x)**2), and neither they nor an exact
    # moment (an odd power of a one-dimensional gap too) subtract a Fraction
    rng = random.Random(f"gap squares:{seed}")
    e, n = rng.randint(1, 3), rng.randint(1, 5)
    xs, ys = _rational_points(rng, n, e), _rational_points(rng, n, e)
    want = [sum((b - a) ** 2 for a, b in zip(x, y)) for x, y in zip(xs, ys)]
    powers = range(6) if e == 1 else range(0, 6, 2)
    literal = [sum(sq ** (p // 2) if p % 2 == 0 else abs(y[0] - x[0]) ** p
                   for sq, x, y in zip(want, xs, ys)) / n for p in powers]
    c = pair_coupling(xs, ys)
    subtract, subtractions = Fraction.__sub__, []
    monkeypatch.setattr(Fraction, "__sub__", lambda a, b: subtractions.append(1) or subtract(a, b))
    squares = c.gap_squares()
    moments = [coupling_moment(c, p, exact=True) for p in powers]
    monkeypatch.undo()
    assert not subtractions
    assert squares == want and all(type(sq) is Fraction for sq in squares)
    assert moments == literal and all(type(m) is Fraction for m in moments)


def test_a_rational_coupling_is_scaled_once_and_its_views_share_its_rows():
    # starts in thirds, targets in halves: both marginals and all three
    # views read one scale, the lcm 6 over every coordinate, and the same
    # row objects; the gap rows are the differences of the integer rows
    xs = [(Fraction(1, 3), Fraction(-2, 3)), (Fraction(2, 3), Fraction(1))]
    ys = [(Fraction(1, 2), Fraction(0)), (Fraction(-3, 2), Fraction(5, 2))]
    c = pair_coupling(xs, ys)
    left, right = c.left(), c.right()
    base, path, target = c.base_view(), c.path_view(), c.target_view()
    assert [view.table_scales() for view in (left, right, base, target)] == [(2, 6, False)] * 4
    assert path.table_scales() == (2, 6, True)

    def rows(tables):
        return [unit[0] for unit in tables._units]

    starts, targets, gaps = rows(left._atom_tables), rows(right._atom_tables), rows(base._gap_tables)
    assert starts == [[2, 4], [-4, 6]] and targets == [[3, -9], [0, 15]]
    assert gaps == [[1, -13], [4, 9]]
    for view, want in ((base, starts), (path, starts), (target, targets)):
        assert all(a is b for a, b in zip(rows(view._atom_tables), want))
    assert all(unit[1] is g for unit, g in zip(path._atom_tables._units, gaps))
    assert path._gap_tables is base._gap_tables
    gs = [tuple(b - a for a, b in zip(x, y)) for x, y in zip(xs, ys)]
    for exps in _exponents(2, 3):
        assert left.moment(exps) == _literal(xs, None, exps, ())
        assert right.moment(exps) == target.moment(exps) == _literal(ys, None, exps, ())
        for gap_exps in _exponents(2, 2):
            assert base.moment(exps, gap_exps) == _literal(xs, gs, exps, gap_exps)
            on_path = path.moment(exps, gap_exps)
            for xi in (Fraction(0), Fraction(1), Fraction(2, 5)):
                moved = [tuple(a + xi * g for a, g in zip(x, gv)) for x, gv in zip(xs, gs)]
                got = on_path.eval(xi) if any(exps) else on_path
                assert got == _literal(moved, gs, exps, gap_exps)


def test_a_rational_coupling_validates_each_point_once(monkeypatch):
    # building the coupling validates its 2N points; its marginals and its
    # views read the coupling's rows and validate none of them again
    calls = []
    as_point = measures._as_point
    monkeypatch.setattr(measures, "_as_point", lambda coords: calls.append(coords) or as_point(coords))
    n = 5
    c = pair_coupling([(Fraction(k, 3), k) for k in range(n)], [(Fraction(1, k + 2), -k) for k in range(n)])
    c.left(), c.right(), c.base_view(), c.path_view(), c.target_view()
    assert len(calls) == 2 * n


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


def test_coordinates_of_5000_digits_round_trip_through_files(tmp_path):
    # past the 4,300 digits that Python converts between int and text by
    # default: 1/33...3 and 10^5000, as "p/q" text, a decimal and a JSON int
    huge = Fraction(1, (10**5000 - 1) // 3)
    pts = [(huge, Fraction(-1)), (Fraction(2, 3), -huge)]
    csv_path = tmp_path / "pts.csv"
    save_points(csv_path, pts)
    assert load_points(csv_path) == pts
    json_path = tmp_path / "pts.json"
    json_path.write_text('[["0.' + "5" * 5000 + '", 1' + "0" * 5000 + "]]")
    assert load_points(json_path) == [(Fraction(5 * (10**5000 - 1) // 9, 10**5000), Fraction(10**5000))]
    c = pair_coupling(pts, pts[::-1])
    save_coupling(tmp_path / "coupling.json", c)
    assert load_coupling(tmp_path / "coupling.json").pairs == c.pairs


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
    path = (base if with_gaps else MomentView(xs, dim=e, gaps=gs)).on_path()
    assert path.atoms is None and path.n_atoms == n
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
    if with_gaps:
        assert path._gap_tables is base._gap_tables
    # the empty monomial without gap: as a moment the int 1, a scalar on
    # every view, which a product by it leaves as it is; lifted to a degree,
    # N * scale^degree
    zero = (0,) * e
    floats = MomentView([tuple(map(float, x)) for x in xs], dim=e, gaps=[tuple(map(float, g)) for g in gs])
    for view in (base, path, target, floats, floats.on_path()):
        _, scale, on_path = view.table_scales()
        got = view.sums(zero)[zero]
        assert type(got) is int and got == 1
        assert type(view.moment(zero)) is Fraction and view.moment(zero) == 1
        lifted = view.sums(zero, 3)[zero]
        assert lifted == ([n * scale**3] if on_path else n * scale**3)


def _xi_points(starts, gaps):
    """The points start + xi * gap with `XiPoly` coordinates: a path as
    symbolic data, which literal sums and brute evaluations read as it is."""
    return [tuple(XiPoly.affine(a, g) for a, g in zip(x, gv)) for x, gv in zip(starts, gaps)]


def test_a_couplings_path_view_drops_its_atoms_and_keeps_its_moments():
    # its moments are those of the view of its `XiPoly` points, which
    # are symbolic data
    c = pair_coupling([(Fraction(1, 3), 0), (-1, 2)], [(Fraction(3, 2), 1), (0, 0)])
    path = c.path_view()
    assert path.atoms is None and path.n_atoms == c.n_atoms == 2
    starts = [x for x, _ in c.pairs]
    built = MomentView(_xi_points(starts, c.gaps()), dim=2, gaps=c.gaps())
    assert path.exact and not built.exact
    for exps in _exponents(2, 3):
        for gap_exps in _exponents(2, 2):
            assert path.moment(exps, gap_exps) == built.moment(exps, gap_exps)


def test_integer_moments_match_the_literal_sum_on_a_user_built_path_view():
    # a path view of a view built by hand: a zero start, int gaps, and a
    # coordinate that does not move, whose table is its start alone; start
    # and gap rows share the view's one scale, the lcm of 63 and 6
    starts = [(Fraction(1, 3), 0), (Fraction(-2, 9), Fraction(5, 7))]
    gaps = [(2, 0), (Fraction(5, 6), 0)]
    view = MomentView(starts, dim=2, gaps=gaps).on_path()
    assert view.exact and view.table_scales() == (2, 126, True)
    assert [len(unit) for unit in view._atom_tables._units] == [2, 1]
    atoms = _xi_points(starts, gaps)
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
    # about 990. On the path, the coordinate that moves is raised to a
    # high power only where the moment is checked at points of xi, so that
    # the XiPoly powers of the literal sum stay cheap
    rational = MomentView(
        [(Fraction(3, 2), Fraction(-1, 3)), (Fraction(-5, 7), Fraction(1)), (Fraction(1, 4), 2)],
        dim=2,
        gaps=[(Fraction(1, 2), 2), (Fraction(-1, 3), Fraction(1, 5)), (1, Fraction(-2, 3))],
    )
    starts = [(Fraction(1, 2), Fraction(-4, 5)), (-1, Fraction(3, 2))]
    gaps = [(Fraction(1, 3), 0), (Fraction(2, 7), 0)]
    path = MomentView(starts, dim=2, gaps=gaps).on_path()
    cases = [
        (rational, rational.atoms, [((700, 800), (0, 0)), ((699, 800), (1, 0)), ((1, 1500), (0, 2))]),
        (path, _xi_points(starts, gaps), [((3, 1497), (0, 0)), ((2, 1498), (1, 0)), ((1, 1499), (2, 0))]),
    ]
    for view, atoms, requests in cases:
        assert view.exact
        for exps, gap_exps in requests:
            got = view.moment(exps, gap_exps)
            assert type(got) is (XiPoly if view is path else Fraction)
            assert got == _literal(atoms, gaps if view is path else view.gaps, exps, gap_exps)
    got = path.moment((60, 1440), (1, 0))
    assert len(got.coeffs) == 61
    for xi in (Fraction(0), Fraction(1), Fraction(1, 3)):
        moved = [tuple(a + xi * g for a, g in zip(x, gv)) for x, gv in zip(starts, gaps)]
        assert got.eval(xi) == _literal(moved, gaps, (60, 1440), (1, 0))


def test_a_high_degree_path_power_takes_row_products_linear_in_the_degree(monkeypatch):
    # (x + xi * g)^D from its start and gap rows in closed form: about 3D
    # row products, where multiplying by the two-row table one factor at a
    # time took about D^2
    c = pair_coupling([(Fraction(1, 3),), (Fraction(-2, 5),)], [(Fraction(1, 2),), (Fraction(3, 4),)])
    path, degree, products = c.path_view(), 2000, []
    row_times = measures._row_times
    monkeypatch.setattr(measures, "_row_times", lambda a, b: products.append(1) or row_times(a, b))
    sums = path.sums((0,), degree)[(degree,)]
    assert len(products) <= 3 * degree and len(sums) == degree + 1
    # N * scale^D times the moment, at xi = 0, 1 and 1/2 (times 2^D)
    scale = path.table_scales()[1]
    for p, q in ((0, 1), (1, 1), (1, 2)):
        at = sum(s * p**k * q ** (degree - k) for k, s in enumerate(sums))
        assert at == sum((scale * (q * x + p * (y - x))) ** degree for (x,), (y,) in c.pairs)


def test_a_path_coordinate_that_does_not_move_is_one_row():
    c = pair_coupling([(Fraction(1, 3), 2), (0, Fraction(1, 4))], [(1, 2), (0, Fraction(1, 4))])
    path = c.path_view()
    assert [len(unit) for unit in path._atom_tables._units] == [2, 1]
    assert path.moment((0, 3)) == path.moment((0, 3)).coeffs[0] == (8 + Fraction(1, 64)) / 2
    with pytest.raises(ValidationError, match="view with gaps"):
        MomentView([(1,), (2,)], dim=1).on_path()


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
    assert not view.exact and view.table_scales() == (3, 1, False)
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
    path = view.on_path()
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
