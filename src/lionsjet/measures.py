"""Empirical measures, couplings, interpolation and moments.

Only uniform empirical measures with equal atom counts are supported: every
construction used here pairs N atoms with N atoms, and all integrals are
finite sums.

`MomentView` is the one moment cache every evaluator integrates against; an
`EmpiricalMeasure` is a view whose atoms are validated rational or float
points. Every moment of a view is a sum over its power tables, which are
scaled to integers when the atoms and gaps are rational and keep the values
as given otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from fractions import Fraction

from .errors import UnsupportedError, ValidationError
from .poly import XiPoly, parse_rational


def _as_point(coords):
    point = tuple(
        c if isinstance(c, (Fraction, float)) else parse_rational(c) for c in coords
    )
    for c in point:
        if isinstance(c, float) and not math.isfinite(c):
            raise ValidationError(f"point coordinates must be finite, got {c}")
    return point


def _exact(vectors, path=True):
    """Whether the power tables of `vectors` scale to integers: every
    coordinate is an int or a Fraction or, if `path`, every one is an
    `XiPoly` with such coefficients."""
    kinds = {type(c) for v in vectors for c in v}
    if path and kinds == {XiPoly}:
        kinds = {type(q) for v in vectors for c in v for q in c.coeffs}
    return kinds <= {int, Fraction}


class _PowerTables:
    """Power tables of N vectors, exact or as given.

    Exact tables (vectors that `_exact` accepts) scale every coordinate
    once by `scale`, the lcm of all denominators, so that it is an integer
    (an integer coefficient list for an `XiPoly`: `poly`). Other tables
    keep the coordinates as given (floats, symbolic polynomials, mixes of
    rationals and `XiPoly`), at scale 1. `rows(exps)` is the table of the
    monomial with exponents `exps`: row k lists, vector by vector, the
    coefficient of xi^k in scale^|exps| * prod_c v_c^exps_c (a single row of
    the products themselves unless `poly`). Each table is one elementwise
    product of a smaller table and a coordinate's table, built on first use
    and kept.
    """

    __slots__ = ("n", "scale", "poly", "exact", "_rows")

    def __init__(self, vectors, exact):
        self.n = len(vectors)
        columns = list(zip(*vectors))  # coordinate c of every vector
        self.exact = exact
        self.poly = exact and any(type(c) is XiPoly for c in vectors[0])
        if not exact:
            scale = 1
            units = [[list(col)] for col in columns]
        elif not self.poly:
            scale = math.lcm(*(c.denominator for v in vectors for c in v))
            units = [[[c.numerator * (scale // c.denominator) for c in col]] for col in columns]
        else:
            columns = [[c.coeffs for c in col] for col in columns]
            scale = math.lcm(*(q.denominator for col in columns for cs in col for q in cs))
            units = [
                [[_scaled(cs, k, scale) for cs in col] for k in range(max(1, *map(len, col)))]
                for col in columns
            ]
        self.scale = scale
        dim = len(units)
        self._rows = {(0,) * dim: [[1] * self.n]}
        for c, table in enumerate(units):
            self._rows[(0,) * c + (1,) + (0,) * (dim - c - 1)] = table

    def rows(self, exps):
        """The table of `exps`, built when missing in a loop: lower the last
        nonzero exponent until a table is cached, then multiply back up by
        the unit tables. Only the requested table is kept; the ones in
        between of a high-degree path view would hold cubically many bits."""
        table = self._rows.get(exps)
        if table is None:
            steps = []
            lower = exps
            while table is None:
                c = max(i for i, p in enumerate(lower) if p)
                steps.append((0,) * c + (1,) + (0,) * (len(exps) - c - 1))
                lower = lower[:c] + (lower[c] - 1,) + lower[c + 1 :]
                table = self._rows.get(lower)
            for unit in reversed(steps):
                table = _times(table, self._rows[unit])
            self._rows[exps] = table
        return table


def _scaled(coeffs, k, scale):
    """scale times the coefficient of xi^k in `coeffs`, as an int."""
    if k >= len(coeffs):
        return 0
    q = coeffs[k]
    return q.numerator * (scale // q.denominator)


def _times(a, b):
    """Vector-by-vector product of two tables of xi-polynomials."""
    out = [None] * (len(a) + len(b) - 1)
    for j, b_row in enumerate(b):
        for k, a_row in enumerate(a, j):
            prod = list(map(operator.mul, a_row, b_row))
            out[k] = prod if out[k] is None else list(map(operator.add, out[k], prod))
    return out


class MomentView:
    """Duck-typed empirical measure over atoms with generic scalar
    coordinates (Fractions, floats, path or symbolic polynomials).

    Provides the `moment` interface the evaluators integrate against. When
    `gaps` is given (one displacement vector per atom, e.g. the coupling gaps
    y_i - x_i), `moment(exps, gap_exps)` is the mixed coupling moment

        (1/N) * sum_i atom_i^exps * gap_i^gap_exps,

    which is what an averaged coupling variable contributes per monomial;
    `moment(exps)` is the case gap_exps = 0. A one-atom view is a point.

    Every moment is a sum over the power tables (`_PowerTables`) of the atoms
    and gaps. The view is `exact` when every atom coordinate is an int or a
    Fraction, or every one an `XiPoly` with such coefficients (the path
    view), and every gap is an int or a Fraction: atoms and gaps are then
    each scaled once by the lcm of their denominators, and the sums are
    plain ints (one int per xi power on a path view) that the exact
    contraction reads lifted to a common degree (`sums`). Scaling by a common
    integer commutes with sums and products, so `moment` is the exact value,
    a Fraction, or an `XiPoly` when a nonzero exponent falls on a path
    coordinate. Otherwise atoms and gaps both keep their values as given
    and a moment is their sum times 1/N, of whatever type the products are.

    One cache, keyed by (gap_exps, degree), holds the sums `sums` returns;
    under degree None they are the moments themselves.
    """

    __slots__ = ("atoms", "dim", "gaps", "_no_gaps", "_sums", "_atom_tables", "_gap_tables")

    def __init__(self, atoms, dim, gaps=None):
        self.atoms = tuple(tuple(a) for a in atoms)
        self.dim = dim
        self.gaps = None if gaps is None else [tuple(g) for g in gaps]
        vectors = self.atoms + tuple(self.gaps or ())
        if not self.atoms or any(len(v) != dim for v in vectors) or (
            self.gaps is not None and len(self.gaps) != len(self.atoms)
        ):
            raise ValidationError(f"a view needs atoms, and one gap per atom, of {dim} coordinates")
        self._no_gaps = (0,) * self.dim
        self._sums = {}
        exact = _exact(self.atoms) and (self.gaps is None or _exact(self.gaps, path=False))
        self._atom_tables = _PowerTables(self.atoms, exact)
        self._gap_tables = self.gaps and _PowerTables(self.gaps, exact)

    @property
    def n_atoms(self):
        return len(self.atoms)

    @property
    def exact(self):
        """Whether the power tables are scaled to integers."""
        return self._atom_tables.exact

    def with_atoms(self, atoms):
        """The view of `atoms`, one per atom of this view, carrying this
        view's gaps and sharing their power tables when both views are
        exact or both are not."""
        view = MomentView(atoms, self.dim)
        if view.exact != self.exact:
            return MomentView(atoms, self.dim, self.gaps)
        view.gaps, view._gap_tables = self.gaps, self._gap_tables
        return view

    def table_scales(self):
        """(N, scale, gap_scale, path) of the power tables; scale and
        gap_scale are 1 on a view that is not exact, and on a path view a
        sum is a list of ints, one per xi power."""
        atoms, gaps = self._atom_tables, self._gap_tables
        return self.n_atoms, atoms.scale, gaps.scale if gaps else 1, atoms.poly

    def sums(self, gap_exps, degree=None):
        """The sums with gap exponents `gap_exps`: a dict, filled on first
        read and kept, from each exponent tuple r to the moment or, given a
        `degree` at least |r| on an exact view, to scale^(degree - |r|) times

            sum_i prod_c (scale * atom_ic)^r_c * (gap_scale * gap_ic)^gap_exps_c,

        which is N * scale^degree * gap_scale^|gap_exps| times the moment."""
        table = self._sums.get((gap_exps, degree))
        if table is None:
            if any(gap_exps) and self.gaps is None:
                raise ValidationError("gap moments need a view with gaps")
            table = _Lifted(self._atom_tables, self._gap_tables, gap_exps, degree)
            self._sums[(gap_exps, degree)] = table
        return table

    def moment(self, exps, gap_exps=None):
        exps, gap_exps = tuple(exps), tuple(gap_exps or self._no_gaps)
        if not len(exps) == len(gap_exps) == self.dim:
            raise ValidationError(f"moment exponents must have {self.dim} entries each")
        return self.sums(gap_exps)[exps]


class _Lifted(dict):
    """`MomentView.sums`: filled by `__missing__` from the power tables. It
    holds the tables, not the view, so that a view is freed with its last
    reference rather than by the cycle collector."""

    __slots__ = ("atoms", "gaps", "gap", "degree")

    def __init__(self, atoms, gaps, gap, degree):
        self.atoms, self.gaps, self.gap, self.degree = atoms, gaps, gap, degree

    def __missing__(self, exps):
        atoms = self.atoms
        rows = atoms.rows(exps)
        if any(self.gap):
            (weights,) = self.gaps.rows(self.gap)
            sums = [sum(map(operator.mul, row, weights)) for row in rows]
        else:
            sums = [sum(row) for row in rows]
        if self.degree is None:  # the moment: divide by N * scale^|r| * gap_scale^|gap|
            gap_scale = self.gaps.scale if self.gaps else 1
            denom = atoms.n * atoms.scale ** sum(exps) * gap_scale ** sum(self.gap)
            if not atoms.exact:
                value = sums[0] * Fraction(1, denom)
            elif atoms.poly and any(exps):
                value = XiPoly([Fraction(s, denom) for s in sums])
            else:
                value = Fraction(sums[0], denom)
        else:
            lift = atoms.scale ** (self.degree - sum(exps))
            value = [s * lift for s in sums] if atoms.poly else sums[0] * lift
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

    The marginals are the empirical measures of the two columns.
    """

    __slots__ = ("pairs", "dim", "_gap_squares")

    def __init__(self, pairs):
        pairs = [(_as_point(x), _as_point(y)) for x, y in pairs]
        if not pairs:
            raise ValidationError("coupling needs at least one pair")
        dim = len(pairs[0][0])
        if any(len(x) != dim or len(y) != dim for x, y in pairs):
            raise ValidationError("pairs of mixed dimension")
        self.pairs = tuple(pairs)
        self.dim = dim
        self._gap_squares = None

    @property
    def n_atoms(self):
        return len(self.pairs)

    def left(self):
        return EmpiricalMeasure([x for x, _ in self.pairs])

    def right(self):
        return EmpiricalMeasure([y for _, y in self.pairs])

    def gaps(self):
        """Displacements y_i - x_i."""
        return [tuple(b - a for a, b in zip(x, y)) for x, y in self.pairs]

    def gap_squares(self):
        """|y_i - x_i|^2 per pair, exact for rational points, computed on
        first use and kept."""
        if self._gap_squares is None:
            self._gap_squares = [
                sum((b - a) ** 2 for a, b in zip(x, y)) for x, y in self.pairs
            ]
        return self._gap_squares

    def to_json(self):
        return [[[str(c) for c in x], [str(c) for c in y]] for x, y in self.pairs]

    @classmethod
    def from_json(cls, data):
        return cls([(x, y) for x, y in data])

    def __repr__(self):
        return f"Coupling({len(self.pairs)} pairs in R^{self.dim})"


def pair_coupling(x, y):
    """Diagonal coupling of two point lists: pair x_j with y_j."""
    if len(x) != len(y):
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
    """
    n = coupling.n_atoms
    if exact:
        if p % 2 == 0:
            total = sum(sq ** (p // 2) for sq in coupling.gap_squares())
            return Fraction(total, n)
        if coupling.dim == 1:
            total = sum(abs(y[0] - x[0]) ** p for x, y in coupling.pairs)
            return Fraction(total, n)
        raise UnsupportedError(
            "odd-power moments of multi-dimensional gaps are irrational; "
            "use float mode"
        )
    total = sum(float(sq) ** (p / 2) for sq in coupling.gap_squares())
    return total / n


def load_points(path):
    """Point set from CSV (one point per row) or JSON (array of arrays)."""
    with open(path) as fh:
        text = fh.read()
    if str(path).endswith(".json") or text.lstrip().startswith("["):
        return [_as_point(row) for row in json.loads(text)]
    rows = [r for r in csv.reader(text.splitlines()) if r]
    return [_as_point(row) for row in rows]


def save_points(path, points):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for p in points:
            writer.writerow([str(c) for c in p])


def load_coupling(path):
    with open(path) as fh:
        return Coupling.from_json(json.load(fh))


def save_coupling(path, coupling):
    with open(path, "w") as fh:
        json.dump(coupling.to_json(), fh)
