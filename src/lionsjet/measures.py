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

    def __init__(self, scale, poly, coeff_lists, n, dim):
        self.scale = scale
        self.poly = poly
        self._rows = {(0,) * dim: [[1] * n]}
        for c in range(dim):
            unit = tuple(int(i == c) for i in range(dim))
            length = max(1, max(len(v[c]) for v in coeff_lists))
            self._rows[unit] = [
                [_scaled(v[c], k, scale) for v in coeff_lists] for k in range(length)
            ]

    @classmethod
    def of(cls, vectors, dim):
        """The tables of `vectors`, or None when a coordinate is of another
        kind (float, symbolic, or a mix of rationals and `XiPoly`) or a
        vector is not of length `dim`."""
        if any(len(v) != dim for v in vectors):
            return None
        kinds = {type(c) for v in vectors for c in v}
        if kinds <= {int, Fraction}:
            poly, coeff_lists = False, [[(c,) for c in v] for v in vectors]
        elif kinds == {XiPoly}:
            poly, coeff_lists = True, [[c.coeffs for c in v] for v in vectors]
            if not {type(q) for v in coeff_lists for c in v for q in c} <= {int, Fraction}:
                return None
        else:
            return None
        scale = math.lcm(*(q.denominator for v in coeff_lists for c in v for q in c))
        return cls(scale, poly, coeff_lists, len(vectors), dim)

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

    which is what an averaged coupling variable contributes per monomial.
    One cache serves both: it is keyed by (exps, gap_exps), and `moment(exps)`
    is the case gap_exps = 0.

    When every atom coordinate is an int or a Fraction, or every one is an
    `XiPoly` with such coefficients (the path view), and every gap is an int
    or a Fraction, the sum runs over integers: atoms and gaps are each
    scaled once by the lcm of their denominators (`_PowerTables`), the
    scaled powers are summed as plain ints, and the sum is divided once by
    N * scale^degree. Scaling by a common integer commutes with sums and
    products, so the result is the exact value the Fraction loop gives, of
    the same type: a Fraction, or an `XiPoly` when a nonzero exponent falls
    on a path coordinate. Float and symbolic atoms take the loop.
    """

    __slots__ = ("atoms", "dim", "gaps", "_no_gaps", "_moments", "_atom_tables", "_gap_tables")

    def __init__(self, atoms, dim, gaps=None):
        self.atoms = tuple(tuple(a) for a in atoms)
        self.dim = dim
        self.gaps = None if gaps is None else [tuple(g) for g in gaps]
        self._no_gaps = (0,) * self.dim
        self._moments = {}
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

    def moment(self, exps, gap_exps=None):
        key = (tuple(exps), tuple(gap_exps or self._no_gaps))
        cached = self._moments.get(key)
        if cached is None:
            exps, gap_exps = key
            weighted = any(gap_exps)
            if weighted and self.gaps is None:
                raise ValidationError("gap moments need a view with gaps")
            tables = self._atom_tables and (self._gap_tables or not weighted)
            if tables and len(exps) == len(gap_exps) == self.dim:
                cached = self._integer_moment(exps, gap_exps if weighted else None)
            else:
                cached = self._loop_moment(exps, gap_exps if weighted else None)
            self._moments[key] = cached
        return cached

    def _integer_moment(self, exps, gap_exps):
        atoms = self._atom_tables
        rows = atoms.rows(exps)
        denom = len(self.atoms) * atoms.scale ** sum(exps)
        if gap_exps is None:
            sums = [sum(row) for row in rows]
        else:
            gaps = self._gap_tables
            (weights,) = gaps.rows(gap_exps)
            denom *= gaps.scale ** sum(gap_exps)
            sums = [sum(map(operator.mul, row, weights)) for row in rows]
        if atoms.poly and any(exps):
            return XiPoly([Fraction(s, denom) for s in sums])
        return Fraction(sums[0], denom)

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

    __slots__ = ("pairs", "dim")

    def __init__(self, pairs):
        pairs = [(_as_point(x), _as_point(y)) for x, y in pairs]
        if not pairs:
            raise ValidationError("coupling needs at least one pair")
        dim = len(pairs[0][0])
        if any(len(x) != dim or len(y) != dim for x, y in pairs):
            raise ValidationError("pairs of mixed dimension")
        self.pairs = tuple(pairs)
        self.dim = dim

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


def _gap_sq(x, y):
    return sum((b - a) ** 2 for a, b in zip(x, y))


def coupling_moment(coupling, p, exact=False):
    """(1/N) * sum of |y_i - x_i|^p, Euclidean norm.

    With exact=True the result is a Fraction; this requires p even or
    dimension 1 (odd powers of Euclidean norms are irrational in general).
    """
    n = coupling.n_atoms
    if exact:
        if p % 2 == 0:
            total = sum(_gap_sq(x, y) ** (p // 2) for x, y in coupling.pairs)
            return Fraction(total, n)
        if coupling.dim == 1:
            total = sum(abs(y[0] - x[0]) ** p for x, y in coupling.pairs)
            return Fraction(total, n)
        raise UnsupportedError(
            "odd-power moments of multi-dimensional gaps are irrational; "
            "use float mode"
        )
    total = sum(float(_gap_sq(x, y)) ** (p / 2) for x, y in coupling.pairs)
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
