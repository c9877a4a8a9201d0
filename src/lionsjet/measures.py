"""Empirical measures, couplings, interpolation and moments.

Only uniform empirical measures with equal atom counts are supported: every
construction used here pairs N atoms with N atoms, and all integrals are
finite sums.

`MomentView` is the one moment cache every evaluator integrates against; an
`EmpiricalMeasure` is a view whose atoms are validated rational or float
points. Every moment of a view is a sum over its power tables, which hold
each coordinate as one row, atoms and gaps scaled to integers by one lcm
when rational and as given otherwise; on the path atom + xi * gap
(`MomentView.on_path`), as its start and gap rows. A `Coupling` keeps its
marginals and views (its left marginal with the gaps, on the path too, and
its right marginal), all on one scaling of a rational coupling, and its
bounding box, so that every call on one coupling reads the same sums and box.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from fractions import Fraction

from .errors import UnsupportedError, ValidationError
from .poly import XiPoly, format_rational, json_int, parse_rational


def _as_point(coords):
    try:
        coords = tuple(coords)
    except TypeError:
        raise ValidationError(f"points must be sequences of coordinates, got {coords!r}") from None
    point = tuple(c if isinstance(c, (Fraction, float)) else parse_rational(c) for c in coords)
    for c in point:
        if isinstance(c, float) and not math.isfinite(c):
            raise ValidationError(f"point coordinates must be finite, got {c}")
    return point


def _point_count(points, name):
    """len(points) of the point list `name`; a value with no length, such
    as None, is a ValidationError."""
    try:
        return len(points)
    except TypeError:
        raise ValidationError(f"{name} must be a list of points, got {type(points).__name__}") from None


def _point_dim(point):
    """len(point), the coordinates of one point; a value with no length,
    such as an int, is a ValidationError."""
    try:
        return len(point)
    except TypeError:
        raise ValidationError(f"points must be sequences of coordinates, got {point!r}") from None


def _coordinate_text(c):
    """A point coordinate as text: a float as Python prints it, a rational
    as "p/q" of any size."""
    return str(c) if isinstance(c, float) else format_rational(c)


class _PowerTables:
    """Power tables of N vectors, exact or as given.

    `_units` holds each coordinate's table: one row, the coordinate in every
    vector or, on a path (`on_path`), the rows of its xi-coefficients. Exact
    tables hold every entry times `scale`, an integer that clears every
    denominator; others keep the entries as given, at scale 1. `rows(exps)`
    is the table of the monomial with exponents `exps`: row k lists, vector
    by vector, the coefficient of xi^k in scale^|exps| * prod_c v_c^exps_c.
    Only the coordinates' own tables are kept: a view keeps every sum it
    reads from a table (`MomentView.sums`), so a product table is built for
    one sum and dropped. Tables never change, so that views share them.
    """

    __slots__ = ("n", "scale", "exact", "path", "_units")

    def __init__(self, n, units, scale, exact, path=False):
        self.n, self._units, self.scale, self.exact, self.path = n, units, scale, exact, path

    def on_path(self, gaps):
        """The tables of vector + xi * gap, given the tables `gaps` of one
        gap per vector at this scale: per coordinate, its row here and,
        unless all are 0, its gap row, both as they are."""
        units = [unit + [g] if any(g) else unit for unit, (g,) in zip(self._units, gaps._units)]
        return _PowerTables(self.n, units, self.scale, self.exact, True)

    def rows(self, exps):
        """The table of `exps`: the coordinates' tables multiplied into it,
        coordinate 0 first, one factor at a time, but an exact path
        coordinate's power in closed form (`_binomial_power`: its int
        C(p, k) would overflow a float row)."""
        table = None
        for unit, p in zip(self._units, exps):
            closed = p and len(unit) == 2 and self.exact
            for factor in [_binomial_power(*unit, p)] if closed else [unit] * p:
                table = factor if table is None else _times(table, factor)
        return [[1] * self.n] if table is None else table


_RATIOS = {int: int.as_integer_ratio, Fraction: Fraction.as_integer_ratio}


def _ratios(vectors):
    """Per coordinate of the vectors, each entry's (numerator, denominator),
    read once; None at the first entry that is not an int or a Fraction."""
    try:
        return [[_RATIOS[type(q)](q) for q in col] for col in zip(*vectors)]
    except KeyError:
        return None


def _scaled(n, *ratios):
    """Exact power tables of groups of n vectors, given by their `_ratios`,
    at one scale: the lcm of every denominator."""
    scale = math.lcm(*{d for cols in ratios for col in cols for _, d in col})
    return [
        _PowerTables(n, [[[q * (scale // d) for q, d in col]] for col in cols], scale, True)
        for cols in ratios
    ]


def _tables(*groups):
    """The power tables of each group of N vectors (None stays None): exact
    at one scale when every entry is an int or a Fraction (`_scaled`), else
    their entries as given at scale 1."""
    ratios = [_ratios(g) for g in groups if g]
    if None in ratios:
        return [g and _PowerTables(len(g), [[list(col)] for col in zip(*g)], 1, False) for g in groups]
    tables = iter(_scaled(len(next(g for g in groups if g)), *ratios))
    return [g and next(tables) for g in groups]


def _row_times(a, b):
    """Vector-by-vector product of two rows."""
    return list(map(operator.mul, a, b))


def _binomial_power(start, gap, p):
    """The table of (start + xi * gap)^p, vector by vector: row k is
    C(p, k) * start^(p - k) * gap^k, from 3(p - 1) row products."""
    starts, gaps = [start], [gap]  # the powers 1, ..., p
    for _ in range(p - 1):
        starts.append(_row_times(starts[-1], start))
        gaps.append(_row_times(gaps[-1], gap))
    table, c = [starts[-1]], 1
    for k in range(1, p + 1):
        c = c * (p - k + 1) // k
        row = gaps[-1] if k == p else _row_times(starts[p - k - 1], gaps[k - 1])
        table.append(row if c == 1 else [c * q for q in row])
    return table


def _times(a, b):
    """Vector-by-vector product of two tables of xi-polynomials."""
    out = [None] * (len(a) + len(b) - 1)
    for j, b_row in enumerate(b):
        for k, a_row in enumerate(a, j):
            prod = _row_times(a_row, b_row)
            out[k] = prod if out[k] is None else list(map(operator.add, out[k], prod))
    return out


class MomentView:
    """Duck-typed empirical measure over atoms with generic scalar
    coordinates (Fractions, floats, symbolic polynomials).

    Provides the `moment` interface the evaluators integrate against. When
    `gaps` is given (one displacement vector per atom, e.g. the coupling gaps
    y_i - x_i), `moment(exps, gap_exps)` is the mixed coupling moment

        (1/N) * sum_i atom_i^exps * gap_i^gap_exps,

    which is what an averaged coupling variable contributes per monomial;
    `moment(exps)` is the case gap_exps = 0. A one-atom view is a point.

    Every moment is a sum over the power tables (`_PowerTables`) of the atoms
    and gaps. The view is `exact` when every atom coordinate and every gap
    is an int or a Fraction: atoms and gaps are then scaled together, by one
    lcm of all their denominators, and the sums are plain ints that the exact
    contraction reads lifted to a common degree (`sums`). Scaling by a common
    integer commutes with sums and products, so a moment is the exact value.
    Otherwise atoms and gaps both keep their values as given (`XiPoly`
    coordinates among them are symbolic data) and a moment is their sum
    times 1/N, of whatever type the products are.

    The constructor builds the tables with `_tables`; a coupling builds its
    marginals and, when a coordinate is a float, its base view the same way,
    and only a rational coupling scales its two columns together.

    One cache, keyed by (gap_exps, degree), holds the sums `sums` returns;
    under degree None they are the moments themselves, which an inexact
    contraction reads: on a path view, lists of xi-coefficients, which
    `moment` hands out as an `XiPoly` when an exponent is nonzero.
    """

    __slots__ = ("atoms", "dim", "gaps", "_sums", "_atom_tables", "_gap_tables")

    def __init__(self, atoms, dim, gaps=None):
        atoms = tuple(tuple(a) for a in atoms)
        gaps = None if gaps is None else [tuple(g) for g in gaps]
        vectors = atoms + tuple(gaps or ())
        if not atoms or any(len(v) != dim for v in vectors) or (
            gaps is not None and len(gaps) != len(atoms)
        ):
            raise ValidationError(f"a view needs atoms, and one gap per atom, of {dim} coordinates")
        self._set(atoms, dim, gaps, *_tables(atoms, gaps))

    def _set(self, atoms, dim, gaps, atom_tables, gap_tables):
        """Fill this view from power tables built already, which it shares."""
        self.atoms, self.dim, self.gaps = atoms, dim, gaps
        self._sums, self._atom_tables, self._gap_tables = {}, atom_tables, gap_tables
        return self

    @property
    def n_atoms(self):
        return self._atom_tables.n

    @property
    def exact(self):
        """Whether the power tables are scaled to integers."""
        return self._atom_tables.exact

    def on_path(self):
        """This view moved onto the straight path atom + xi * gap: a view
        that shares this view's gaps and gap tables, and whose power tables
        are this view's start and gap rows (`_PowerTables.on_path`). Its
        `atoms` is None; `n_atoms` still counts them."""
        gaps = self._gap_tables
        if gaps is None:
            raise ValidationError("a path view needs a view with gaps")
        view = MomentView.__new__(MomentView)
        return view._set(None, self.dim, self.gaps, self._atom_tables.on_path(gaps), gaps)

    def table_scales(self):
        """(N, scale, path) of the power tables: atoms and gaps share the
        one scale, which is 1 on a view that is not exact; on a path view a
        sum is a list, one entry per xi power."""
        tables = self._atom_tables
        return tables.n, tables.scale, tables.path

    def sums(self, gap_exps, degree=None):
        """The sums with gap exponents `gap_exps`: a dict, filled on first
        read and kept, from each exponent tuple r to the moment or, given a
        `degree` at least |r| on an exact view, to scale^(degree - |r|) times

            sum_i prod_c (scale * atom_ic)^r_c * (scale * gap_ic)^gap_exps_c,

        which is N * scale^(degree + |gap_exps|) times the moment.
        At scale 1 every lift is by 1, so one dict serves every degree.
        Under degree None the empty monomial without gap is the int 1 (on a
        path view too), by which a product keeps every value and type."""
        if degree is not None and self._atom_tables.scale == 1:
            degree = 0
        table = self._sums.get((gap_exps, degree))
        if table is None:
            if any(gap_exps) and self._gap_tables is None:
                raise ValidationError("gap moments need a view with gaps")
            table = _Lifted(self._atom_tables, self._gap_tables, gap_exps, degree)
            self._sums[(gap_exps, degree)] = table
        return table

    def moment(self, exps, gap_exps=None):
        exps, gap_exps = tuple(exps), tuple(gap_exps or (0,) * self.dim)
        if not len(exps) == len(gap_exps) == self.dim:
            raise ValidationError(f"moment exponents must have {self.dim} entries each")
        value = self.sums(gap_exps)[exps]
        if type(value) is list:  # on a path view
            return XiPoly(value) if any(exps) else value[0]
        return Fraction(value) if type(value) is int else value  # the empty monomial's 1


class _Lifted(dict):
    """`MomentView.sums`: filled by `__missing__` from the power tables and
    the gap weights of `gap`, built once (but for the moment of the empty
    monomial without gap, the int 1). It holds the tables, not the view, so
    that a view is freed with its last reference, not by the collector."""

    __slots__ = ("atoms", "gap", "degree", "weights")

    def __init__(self, atoms, gaps, gap, degree):
        self.atoms, self.gap, self.degree = atoms, gap, degree
        self.weights = gaps.rows(gap)[0] if any(gap) else None

    def __missing__(self, exps):
        if self.degree is None and self.weights is None and not any(exps):
            return self.setdefault(exps, 1)  # a scalar on every view
        atoms = self.atoms
        rows = atoms.rows(exps)
        if self.weights is not None:
            sums = [sum(map(operator.mul, row, self.weights)) for row in rows]
        else:
            sums = [sum(row) for row in rows]
        if self.degree is None:  # the moment: divide by N * scale^(|r| + |gap|)
            factor = Fraction(1, atoms.n * atoms.scale ** (sum(exps) + sum(self.gap)))
        else:  # lifted to `degree`, by 1 at scale 1 (where the degree is 0)
            factor = atoms.scale ** (self.degree - sum(exps)) if atoms.scale != 1 else 1
        value = [s * factor for s in sums] if atoms.path else sums[0] * factor
        self[exps] = value
        return value


class EmpiricalMeasure(MomentView):
    """Uniform average of N Dirac masses at points in R^e; `moment(exps)` is
    (1/N) * sum over atoms of the monomial with exponents `exps`."""

    __slots__ = ()

    def __init__(self, atoms):
        atoms = [_as_point(a) for a in atoms]
        if not atoms:
            raise ValidationError("empirical measure needs at least one atom")
        dim = len(atoms[0])
        if any(len(a) != dim for a in atoms):
            raise ValidationError("atoms of mixed dimension")
        super().__init__(atoms, dim)

    def key(self):
        """Multiset of atoms, for marginal comparisons."""
        return tuple(sorted(self.atoms))

    def __eq__(self, other):
        return isinstance(other, EmpiricalMeasure) and self.key() == other.key()

    def __repr__(self):
        return f"EmpiricalMeasure({len(self.atoms)} atoms in R^{self.dim})"


class Coupling:
    """Uniform measure on N point pairs (x_i, y_i) in R^e + R^e.

    The marginals are the empirical measures of the two columns. Every term
    of an expansion integrates against the same coupling, so the coupling
    keeps what it derives from its pairs, each built on first use: its
    marginals `left()` and `right()` (the right one is the view of the
    targets), the gaps y_i - x_i and their squares, the base and path views,
    all with their sums, the float moments and the bounding box of its
    atoms. Each view has that one name. The pairs and the dimension are read-only, so that this
    state never goes stale, and it dies with the coupling.
    Threads that race on a first use each build an equal value, and one of
    them is kept.
    """

    __slots__ = ("_pairs", "_dim", "_rows", "_gaps", "_gap_squares", "_path", "_moments", "_box")

    def __init__(self, pairs):
        pairs = [(_as_point(x), _as_point(y)) for x, y in pairs]
        if not pairs:
            raise ValidationError("coupling needs at least one pair")
        dim = len(pairs[0][0])
        if any(len(x) != dim or len(y) != dim for x, y in pairs):
            raise ValidationError("pairs of mixed dimension")
        self._pairs = tuple(pairs)
        self._dim = dim
        self._rows = self._gaps = self._gap_squares = self._path = self._box = None
        self._moments = {}

    @property
    def pairs(self):
        return self._pairs

    @property
    def dim(self):
        return self._dim

    @property
    def n_atoms(self):
        return len(self.pairs)

    def _views(self):
        """(left, right, base): the marginals and `base_view`, kept. A rational
        coupling is scaled once, by one lcm over every start and target
        coordinate: the three share its rows of ints (the base `gaps` is None).
        Otherwise each is built as a standalone view builds its tables
        (`_tables`): a marginal is scaled on its own, and the base view, whose
        gaps are float, keeps its starts and gaps as given."""
        if self._rows is None:
            n, xs, ys = self.n_atoms, *(tuple(col) for col in zip(*self.pairs))
            rx, ry = _ratios(xs), _ratios(ys)
            if rx is not None and ry is not None:  # the gap rows: differences of the integer rows
                starts, targets = _scaled(n, rx, ry)
                units = [[list(map(operator.sub, y, x))] for (x,), (y,) in zip(starts._units, targets._units)]
                gaps = _PowerTables(n, units, starts.scale, True)
                base = MomentView.__new__(MomentView)._set(xs, self.dim, None, starts, gaps)
            else:  # a float coordinate, so a float gap: the base view keeps its values as given
                (starts,), (targets,) = _tables(xs), _tables(ys)
                base = MomentView(xs, self.dim, self.gaps())
            self._rows = (
                EmpiricalMeasure.__new__(EmpiricalMeasure)._set(xs, self.dim, None, starts, None),
                EmpiricalMeasure.__new__(EmpiricalMeasure)._set(ys, self.dim, None, targets, None),
                base,
            )
        return self._rows

    def scaled_rows(self):
        """(scale, starts, gaps) of a rational coupling: per coordinate the
        row of its start coordinates and the row of its gaps, each times the
        coupling's one scale, as ints."""
        base = self.base_view()
        starts, gaps = base._atom_tables, base._gap_tables
        return starts.scale, [row for (row,) in starts._units], [row for (row,) in gaps._units]

    def left(self):
        return self._views()[0]

    def right(self):
        return self._views()[1]

    def gaps(self):
        """Displacements y_i - x_i, a tuple of tuples, kept."""
        if self._gaps is None:
            self._gaps = tuple(tuple(b - a for a, b in zip(x, y)) for x, y in self.pairs)
        return self._gaps

    def gap_squares(self):
        """|y_i - x_i|^2 per pair, exact for rational points (an int per
        pair over scale^2, from the base view's gap rows), kept."""
        if self._gap_squares is None:
            gaps, squares = self.base_view()._gap_tables, [0] * self.n_atoms
            for (g,) in gaps._units:
                squares = [s + q**2 for s, q in zip(squares, g)]
            self._gap_squares = [Fraction(s, gaps.scale**2) for s in squares] if gaps.exact else squares
        return self._gap_squares

    def bounding_box(self):
        """(lows, highs): per coordinate, the least and the greatest value
        over both columns, compared exactly, kept."""
        if self._box is None:
            columns = list(zip(*(p for pair in self.pairs for p in pair)))
            self._box = (tuple(map(min, columns)), tuple(map(max, columns)))
        return self._box

    def base_view(self):
        """The view of the left marginal carrying the gaps, which the
        averaged coupling variables of a contraction read; kept."""
        return self._views()[2]

    def path_view(self):
        """The base view on the straight path x + xi * (y - x)
        (`MomentView.on_path`), its `atoms` None; kept."""
        if self._path is None:
            self._path = self.base_view().on_path()
        return self._path

    def to_json(self):
        return [[list(map(_coordinate_text, x)), list(map(_coordinate_text, y))] for x, y in self.pairs]

    @classmethod
    def from_json(cls, data):
        return cls([(x, y) for x, y in data])

    def __repr__(self):
        return f"Coupling({len(self.pairs)} pairs in R^{self.dim})"


def pair_coupling(x, y):
    """Diagonal coupling of two point lists: pair x_j with y_j."""
    if _point_count(x, "x") != _point_count(y, "y"):
        raise ValidationError("point lists of different length")
    return Coupling(zip(x, y))


def interpolate(coupling, xi):
    """Pushforward of the coupling under x + xi*(y - x)."""
    xi = parse_rational(xi) if not isinstance(xi, float) else xi
    if xi < 0 or xi > 1:
        raise ValidationError("interpolation parameter outside [0, 1]")
    atoms = [
        tuple(a + xi * (b - a) for a, b in zip(x, y)) for x, y in coupling.pairs
    ]
    return EmpiricalMeasure(atoms)


def coupling_moment(coupling, p, exact=False):
    """(1/N) * sum of |y_i - x_i|^p, Euclidean norm.

    With exact=True the result is a Fraction; this requires p even or
    dimension 1 (odd powers of Euclidean norms are irrational in general).
    A float moment is kept on the coupling by p. `p` is an int >= 0.
    """
    if type(p) is not int or p < 0:
        raise ValidationError(f"a coupling moment's power is an integer >= 0, not {p!r}")
    n = coupling.n_atoms
    if exact:
        if p % 2 == 0:
            total = sum(sq ** (p // 2) for sq in coupling.gap_squares())
            return Fraction(total, n)
        if coupling.dim == 1:  # the base view's one row of gaps, at its scale
            gaps = coupling.base_view()._gap_tables
            return Fraction(sum(abs(g) ** p for g in gaps._units[0][0]), n * gaps.scale**p)
        raise UnsupportedError(
            "odd-power moments of multi-dimensional gaps are irrational; "
            "use float mode"
        )
    moment = coupling._moments.get(p)
    if moment is None:
        moment = coupling._moments[p] = float_moment(coupling.gap_squares(), p)
    return moment


def float_moment(squares, p):
    """(1/N) * sum of sq^(p/2) over the N gap squares `squares`, in floats:
    the float coupling moment M_p of gaps with these squared lengths."""
    return sum(float(sq) ** (p / 2) for sq in squares) / len(squares)


def load_points(path):
    """Point set from CSV (one point per row) or JSON (array of arrays)."""
    with open(path) as fh:
        text = fh.read()
    if str(path).endswith(".json") or text.lstrip().startswith("["):
        return [_as_point(row) for row in json.loads(text, parse_int=parse_rational)]
    rows = [r for r in csv.reader(text.splitlines()) if r]
    return [_as_point(row) for row in rows]


def save_points(path, points):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for p in points:
            writer.writerow(map(_coordinate_text, p))


def load_coupling(path):
    with open(path) as fh:
        return Coupling.from_json(json.load(fh, parse_int=json_int))


def save_coupling(path, coupling):
    with open(path, "w") as fh:
        json.dump(coupling.to_json(), fh)
