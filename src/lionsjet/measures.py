"""Empirical measures, couplings, interpolation and moments.

Only uniform empirical measures with equal atom counts are supported: every
construction used here pairs N atoms with N atoms, and all integrals are
finite sums.

`MomentView` is the one moment cache every evaluator integrates against; an
`EmpiricalMeasure` is a view whose atoms are validated rational or float
points.
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


class _PowerTables:
    """Integer power tables of N vectors whose coordinates are all rationals
    (`int` or `Fraction`), or all `XiPoly` with rational coefficients.

    Every coordinate is scaled once by `scale`, the lcm of all denominators,
    so that it is an integer (an integer coefficient list for an `XiPoly`).
    `rows(exps)` is the table of the monomial with exponents `exps`: row k
    lists, vector by vector, the coefficient of xi^k in
    scale^|exps| * prod_c v_c^exps_c (a single row for rational
    coordinates). Each table is one elementwise product of a smaller table
    and a coordinate's table, built on first use and kept.
    """

    __slots__ = ("scale", "poly", "_rows")

    def __init__(self, scale, poly, units, n):
        self.scale = scale
        self.poly = poly
        dim = len(units)
        self._rows = {(0,) * dim: [[1] * n]}
        for c, table in enumerate(units):
            self._rows[(0,) * c + (1,) + (0,) * (dim - c - 1)] = table

    @classmethod
    def of(cls, vectors, dim):
        """The tables of `vectors`, or None when a coordinate is of another
        kind (float, symbolic, or a mix of rationals and `XiPoly`) or a
        vector is not of length `dim`."""
        if any(len(v) != dim for v in vectors):
            return None
        kinds = {type(c) for v in vectors for c in v}
        columns = list(zip(*vectors))  # coordinate c of every vector
        if kinds <= {int, Fraction}:
            scale = math.lcm(*(c.denominator for v in vectors for c in v))
            units = [[[c.numerator * (scale // c.denominator) for c in col]] for col in columns]
            return cls(scale, False, units, len(vectors))
        if kinds != {XiPoly}:
            return None
        columns = [[c.coeffs for c in col] for col in columns]
        coeffs = [q for col in columns for cs in col for q in cs]
        if not {type(q) for q in coeffs} <= {int, Fraction}:
            return None
        scale = math.lcm(*(q.denominator for q in coeffs))
        units = [
            [[_scaled(cs, k, scale) for cs in col] for k in range(max(1, *map(len, col)))]
            for col in columns
        ]
        return cls(scale, True, units, len(vectors))

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

    When every atom coordinate is an int or a Fraction, or every one is an
    `XiPoly` with such coefficients (the path view), and every gap is an int
    or a Fraction, atoms and gaps are each scaled once by the lcm of their
    denominators (`_PowerTables`) and the moments are sums of plain ints
    (one int per xi power on a path view): `sums` and `integer_scales`.
    Scaling by a common integer commutes with sums and products, so
    `moment` returns the exact value the Fraction loop gives, of the same
    type: a Fraction, or an `XiPoly` when a nonzero exponent falls on a path
    coordinate. Float and symbolic atoms take the loop.

    One cache, keyed by (gap_exps, degree), holds the integer sums `sums`
    returns, divided on demand by `moment`; under degree None it holds the
    loop moments of the exponents the tables cannot serve.
    """

    __slots__ = ("atoms", "dim", "gaps", "_no_gaps", "_sums", "_atom_tables", "_gap_tables")

    def __init__(self, atoms, dim, gaps=None):
        self.atoms = tuple(tuple(a) for a in atoms)
        self.dim = dim
        self.gaps = None if gaps is None else [tuple(g) for g in gaps]
        self._no_gaps = (0,) * self.dim
        self._sums = {}
        self._atom_tables = self.atoms and _PowerTables.of(self.atoms, self.dim)
        gap_tables = self.gaps and _PowerTables.of(self.gaps, self.dim)
        self._gap_tables = None if gap_tables and gap_tables.poly else gap_tables

    @property
    def n_atoms(self):
        return len(self.atoms)

    def with_atoms(self, atoms):
        """The view of `atoms`, one per atom of this view, carrying this
        view's gaps and sharing their power tables."""
        view = MomentView(atoms, self.dim)
        view.gaps, view._gap_tables = self.gaps, self._gap_tables
        return view

    def integer_scales(self, weighted):
        """(N, scale, gap_scale, path) when `sums` serves this view (with
        gap exponents if `weighted`), else None; on a path view a sum is a
        list of ints, one per xi power."""
        atoms, gaps = self._atom_tables, self._gap_tables
        if not atoms or (weighted and not gaps):
            return None
        return len(self.atoms), atoms.scale, gaps.scale if gaps else 1, atoms.poly

    def sums(self, gap_exps, degree):
        """The integer sums with gap exponents `gap_exps` lifted to `degree`:
        a dict, filled on first read and kept, from each exponent tuple r of
        total at most `degree` to scale^(degree - |r|) times

            sum_i prod_c (scale * atom_ic)^r_c * (gap_scale * gap_ic)^gap_exps_c,

        which is N * scale^degree * gap_scale^|gap_exps| times the moment."""
        table = self._sums.get((gap_exps, degree))
        if table is None:
            table = _Lifted(self._atom_tables, self._gap_tables, gap_exps, degree)
            self._sums[(gap_exps, degree)] = table
        return table

    def moment(self, exps, gap_exps=None):
        exps, gap_exps = tuple(exps), tuple(gap_exps or self._no_gaps)
        weighted = any(gap_exps)
        if weighted and self.gaps is None:
            raise ValidationError("gap moments need a view with gaps")
        scales = self.integer_scales(weighted)
        if scales is None or not len(exps) == len(gap_exps) == self.dim:
            loops = self._sums.setdefault((gap_exps, None), {})
            if exps not in loops:
                loops[exps] = self._loop_moment(exps, gap_exps if weighted else None)
            return loops[exps]
        n, scale, gap_scale, path = scales
        degree = sum(exps)
        denom = n * scale**degree * gap_scale ** sum(gap_exps)
        total = self.sums(gap_exps, degree)[exps]
        if path and degree:
            return XiPoly([Fraction(s, denom) for s in total])
        return Fraction(total[0] if path else total, denom)

    def _loop_moment(self, exps, gap_exps):
        total = 0
        for i, atom in enumerate(self.atoms):
            factor = Fraction(1)
            for c, e in zip(atom, exps):
                if e:
                    factor = factor * c**e
            if gap_exps is not None:
                for c, e in zip(self.gaps[i], gap_exps):
                    if e:
                        factor = factor * c**e
            total = total + factor
        return total * Fraction(1, len(self.atoms))


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
        lift = atoms.scale ** (self.degree - sum(exps))
        value = self[exps] = [s * lift for s in sums] if atoms.poly else sums[0] * lift
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
