"""Cylindrical polynomial measure functionals and their iterated derivatives.

A functional is f(x0, mu) = int ... int k(x0, u_1, ..., u_p) dmu(u_1) ... dmu(u_p)
for a polynomial kernel k (the spatial argument x0 is optional). On empirical
measures every integral is a finite sum, so all derivative identities are
evaluated with zero truncation error.

Differentiating with respect to the measure inserts a Dirac mass: it pins one
still-integrated kernel slot to a fresh free variable and differentiates that
slot, summed over all choices of slot. Differentiating in a free variable (or
in x0) differentiates the slot already pinned to it. A derivative indexed by a
tagged sequence a with m = max(a) free variables is therefore a sum with one
term per injective map of the free variables 1..m into the integrated slots
1..arity: arity!/(arity - m)! terms, none when m > arity. Each term records
which slot each free variable pins and which slot each tensor direction hit.

Each derivative is compiled once per functional into cells over x0, the
free variables and the integrated slots (`DerivTermSum.joint`), and kept on
the functional, so every later expansion, bound or norm report of it reads
the same cells. A cell holds its monomials split by argument group: per
group a column of interned exponent tuples, and integer numerators over the
kernel's common denominator (a kernel with a coefficient that is not
rational keeps its values as given, over 1). It is compiled from its
prefix's cells, one letter at a time as the derivative is defined
(`_joint`): one differentiation per cell and coordinate for a spatial or an
already used letter, and one per cell, coordinate and slot for a fresh one.
A derivative object (`DerivTermSum`) holds only its functional and its
sequence. The contraction, the certified sup and the grid report all read
these cells; only the reference evaluator `eval_derivative_brute` walks the
terms, and it differentiates the kernel on its own. Beside the cells the
functional keeps one layout per derivative, direction pattern and number of
given points (`_layout`): the output shape, where each cell lands in the
flat output, which vector coordinates weigh it and which gap exponents each
group reads. A contraction runs on one side (`_Side`): the views of the
given points and of the measure and the vectors, read once per side, which
the expansion engine keeps for every contraction on that side. It reads
each slot's sums from the power tables of those `measures.MomentView`s,
runs one monomial loop over the layout for every number type (two on the
path: in integers and on the values as given) and returns one
`poly.RationalTensor` type: integer numerators over one
denominator when every input is rational, for the expansion to keep in
integers, and the values as given over 1 (floats, symbolic or mixed data)
otherwise; on the path each entry is a list of xi-coefficients. `eval_derivative` divides each entry once. A derivative
longer than the kernel degree, or with more free variables than the kernel
arity, vanishes identically (`_vanishes`): it has no cells, and the
expansion engine skips it without building it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .measures import MomentView, _point_count, _point_dim  # MomentView re-exported
from .poly import ZERO, MPoly, RationalTensor, Tensor, format_rational, parse_rational
from .tagged import TaggedSeq, as_tagged


class PolyKernel:
    """Polynomial kernel k: (R^e)^(arity [+ spatial]) -> R^d.

    Scalar variables are laid out slot-major: the spatial slot first when
    present, then the integrated slots 1..arity, each contributing e
    coordinates. `degree` is the largest total degree of a component (0 for
    a constant or zero kernel), and `denominator` the lcm of the coefficient
    denominators when every coefficient is an int or a Fraction (else
    None), both computed once here. Differentiating multiplies coefficients
    by integers and compiling adds them, so `denominator` is a common
    denominator of every derivative's coefficients too.
    """

    __slots__ = ("e", "d", "arity", "has_spatial", "components", "degree", "denominator")

    def __init__(self, e, d, arity, has_spatial, components):
        self.e = e
        self.d = d
        self.arity = arity
        self.has_spatial = bool(has_spatial)
        nvars = (arity + self.has_spatial) * e
        components = tuple(components)
        if len(components) != d:
            raise ValidationError("one polynomial per output component required")
        for comp in components:
            if comp.nvars != nvars:
                raise ValidationError("component variable count mismatch")
        self.components = components
        self.degree = max((c.degree() for c in components), default=0)
        coeffs = [q for c in components for q in c.terms.values()]
        self.denominator = (
            math.lcm(*(q.denominator for q in coeffs))
            if all(type(q) in (int, Fraction) for q in coeffs)
            else None
        )

    @property
    def nvars(self):
        return (self.arity + self.has_spatial) * self.e

    @property
    def n_slots(self):
        return self.arity + self.has_spatial

    def slot_offset(self, slot):
        """First variable index of a slot (slot 0 is spatial when present)."""
        if self.has_spatial:
            return slot * self.e
        if slot == 0:
            raise ValidationError("kernel has no spatial slot")
        return (slot - 1) * self.e

    def slots(self):
        start = 0 if self.has_spatial else 1
        return range(start, self.arity + 1)

    def add(self, other):
        if (self.e, self.d, self.arity, self.has_spatial) != (
            other.e,
            other.d,
            other.arity,
            other.has_spatial,
        ):
            raise ValidationError("kernel shapes differ")
        return PolyKernel(
            self.e,
            self.d,
            self.arity,
            self.has_spatial,
            [a + b for a, b in zip(self.components, other.components)],
        )

    def to_json(self):
        terms = []
        for out, comp in enumerate(self.components):
            for exps in sorted(comp.terms):
                rows = [
                    list(exps[i * self.e : (i + 1) * self.e])
                    for i in range(self.n_slots)
                ]
                terms.append(
                    {
                        "out": out,
                        "coeff": format_rational(comp.terms[exps]),
                        "exps": rows,
                    }
                )
        return {
            "e": self.e,
            "d": self.d,
            "arity": self.arity,
            "spatial": self.has_spatial,
            "terms": terms,
        }

    @classmethod
    def from_json(cls, data):
        e, d, arity, spatial = data["e"], data["d"], data["arity"], data["spatial"]
        for name, value, least in (("e", e, 1), ("d", d, 1), ("arity", arity, 0)):
            if type(value) is not int or value < least:
                raise ValidationError(
                    f"kernel {name} must be an integer >= {least}, got {value!r}"
                )
        if type(spatial) is not bool:
            raise ValidationError(f"kernel spatial must be true or false, got {spatial!r}")
        nvars = (arity + spatial) * e
        comps = [dict() for _ in range(d)]
        for term in data["terms"]:
            rows = term["exps"]
            if len(rows) != arity + spatial:
                raise ValidationError("exponent matrix has wrong row count")
            flat = tuple(x for row in rows for x in row)
            if len(flat) != nvars or any(type(x) is not int or x < 0 for x in flat):
                raise ValidationError(
                    f"exponent matrix must hold {e} integers >= 0 per row, got {rows!r}"
                )
            out = term["out"]
            if type(out) is not int or not 0 <= out < d:
                raise ValidationError(
                    f"term output must be an integer in 0..{d - 1}, got {out!r}"
                )
            comps[out][flat] = comps[out].get(flat, Fraction(0)) + parse_rational(
                term["coeff"]
            )
        return cls(e, d, arity, spatial, [MPoly(nvars, c) for c in comps])

    def __repr__(self):
        return (
            f"PolyKernel(e={self.e}, d={self.d}, arity={self.arity}, "
            f"spatial={self.has_spatial})"
        )


class PolyFunctional:
    """A kernel integrated against the measure in every non-spatial slot.

    `_joints` holds the compiled cells of its derivatives (`_joint`), keyed
    by sequence values: one entry for each sequence some call asked for and
    for each of its prefixes (a derivative is compiled from its prefix's),
    never one for a sequence whose derivative vanishes identically
    (`_vanishes`); `_tuples` interns the tuples of cells and layouts. `_layouts`
    holds each derivative's contraction layout per direction pattern and
    number of given points (`_layout`). `_plans` holds the truncation plans
    of the expansions, bounds and studies of it (`expansion._plan`), keyed
    by (order or grading, base sequence values): the graded core, its
    boundary families and each member's orbit; each plan keeps its own bound
    plans by normalized box (`expansion._Plan.bounds`). Only a spec
    that passed its checks is planned. All start empty and die with the
    functional. A write stores a finished, equal value under its key, so
    threads sharing a functional may race to fill them.
    """

    __slots__ = ("kernel", "_joints", "_tuples", "_layouts", "_plans")

    def __init__(self, kernel):
        self.kernel = kernel
        self._joints, self._tuples, self._layouts, self._plans = {}, {}, {}, {}

    @property
    def has_spatial(self):
        return self.kernel.has_spatial

    def __add__(self, other):
        return PolyFunctional(self.kernel.add(other.kernel))

    def eval(self, x0, mu):
        """f(x0, mu) as a length-d vector of scalars: the derivative indexed
        by the empty sequence."""
        return eval_derivative(lions_derivative(self, ()), x0, mu, []).data

    def to_json(self):
        return self.kernel.to_json()

    @classmethod
    def from_json(cls, data):
        return cls(PolyKernel.from_json(data))

    def __repr__(self):
        return f"PolyFunctional({self.kernel!r})"


@dataclass(frozen=True)
class DerivTerm:
    """One term of an iterated derivative.

    pins: kernel slot assigned to each free variable 1..m (in order), all
          distinct; every remaining non-spatial slot stays integrated.
    dirs: the kernel slot each tensor direction differentiated: 0 (the
          spatial argument) for letter 0, pins[j - 1] for letter j > 0.
    """

    pins: tuple
    dirs: tuple


class DerivTermSum:
    """The derivative of a functional indexed by a tagged sequence: the
    functional and the sequence, nothing more. Its cells (`joint`) are
    compiled from its prefix's and kept on the functional.

    `terms` is the slot-assignment form, built on each read for the
    reference evaluator (and counted by tracers): one term per injective
    map `pins` of the free variables 1..m into the slots 1..arity, in
    lexicographic order, with letter 0 on the spatial argument and letter
    j > 0 on the slot pinned to free variable j. No compile reads them.
    """

    __slots__ = ("functional", "seq")

    def __init__(self, functional, seq):
        self.functional = functional
        self.seq = seq

    @property
    def terms(self):
        return tuple(
            DerivTerm(pins, tuple(pins[v - 1] if v else 0 for v in self.seq.values))
            for pins in itertools.permutations(range(1, self.kernel.arity + 1), self.seq.m)
        )

    @property
    def kernel(self):
        return self.functional.kernel

    @property
    def order(self):
        return len(self.seq)

    @property
    def n_free(self):
        return self.seq.m

    @property
    def n_groups(self):
        """Argument groups of the cells, e variables each: x0
        when the kernel is spatial, the free variables 1..m, then the
        integrated slots 1..arity."""
        return self.kernel.n_slots + self.n_free

    def joint(self):
        """The derivative compiled once per functional: for each (output,
        direction coordinates) cell that is not identically zero, the
        monomials over the argument groups, split by group, whose
        expectation over independent integrated slots is that entry.

        Compiled from its prefix's cells (`_joint`). A derivative that
        `_vanishes` has no cells and no cache entry, so the contraction
        returns zeros and the certified sup 0.0 without differentiating
        anything."""
        return _joint(self.functional, self.seq.values)

    def __repr__(self):
        n_terms = math.perm(self.kernel.arity, self.n_free)  # without building them
        return f"DerivTermSum(seq={self.seq.values}, {n_terms} terms, kernel={self.kernel!r})"


def _vanishes(kernel, values):
    """Whether the derivative indexed by the tagged sequence `values` is
    identically zero: longer than the kernel degree, every partial
    derivative of a polynomial past its total degree is zero; with more
    free variables than the kernel has integrated slots, no slot assignment
    exists. The engine, the convergence study and the bound read this rule
    before they key, build or contract a derivative."""
    return len(values) > kernel.degree or max(values, default=0) > kernel.arity


def _joint(f, values):
    """The cells of the derivative of `f` indexed by `values`, kept on `f`:
    a dict from each (output, direction coordinates) cell that is not
    identically zero to its monomials, over the groups [x0 if spatial] +
    free groups 1..m + integrated slots 1..arity, e variables each.

    A cell is one tuple: per group the column of its monomials' exponent
    tuples, then their coefficients, in integers over the kernel's
    `denominator` (as given, over 1, for a kernel without one). Group
    tuples, columns and integer coefficient tuples are interned on `f`
    (`_tuples`), so that equal ones are one object.

    The empty sequence's cells are the nonzero kernel components, in the
    kernel's own term order. Any other derivative is one derivative of its
    prefix's (compiled first if no call asked for it), cell by cell in the
    prefix's order with the new coordinate c last (`_diff`). A letter 0, or
    j <= m, differentiates in coordinate c of x0 or of free group j: it
    lowers that group's entry and multiplies the coefficient by it. A fresh
    letter m + 1 inserts a free group before the integrated slots and sums,
    slot by slot, the derivative in coordinate c of slot s with slot s
    moved into the new group and zeroed; a term that pins s has no variables
    there and adds zero. Terms that land on one monomial merge, in the order
    they come, and a cancellation drops the monomial."""
    kernel, cache = f.kernel, f._joints
    if _vanishes(kernel, values):
        return {}
    joint = cache.get(values)
    if joint is not None:
        return joint
    e, intern, exact = kernel.e, f._tuples.setdefault, kernel.denominator is not None
    joint = {}
    if not values:
        den = kernel.denominator
        for comp, poly in enumerate(kernel.components):
            if poly:
                joint[(comp, ())] = _cell(intern, exact, {
                    tuple(intern(exps[lo : lo + e], exps[lo : lo + e]) for lo in range(0, len(exps), e)):
                    q.numerator * (den // q.denominator) if exact else q
                    for exps, q in poly.terms.items()
                })
    else:
        prefix, letter = _joint(f, values[:-1]), values[-1]
        m = max(values[:-1], default=0)
        first, fresh = kernel.has_spatial + m, letter > m  # first: the first integrated group
        if fresh:
            slots = range(first, first + kernel.arity)
        else:  # x0 or the free group of a used letter
            slots = [kernel.has_spatial + letter - 1 if letter else 0]
        zero = intern((0,) * e, (0,) * e)
        for (comp, coords), cell in prefix.items():
            monomials = list(_monomials(cell))
            for c in range(e):
                merged = {}
                for s in slots:
                    for num, gs in _diff(intern, monomials, s, c):
                        if fresh:  # slot s moves into the new free group
                            gs = gs[:first] + (gs[s],) + gs[first:s] + (zero,) + gs[s + 1 :]
                        if gs in merged:
                            num = merged[gs] + num
                            if not num:
                                del merged[gs]
                                continue
                        merged[gs] = num
                if merged:
                    joint[(comp, coords + (c,))] = _cell(intern, exact, merged)
    cache[values] = joint
    return joint


def _cell(intern, exact, monomials):
    """A cell from a nonempty dict of its monomials, from their group
    tuples to their coefficients, in order: its columns and coefficients,
    interned by `intern` (the `setdefault` of the functional's `_tuples`;
    coefficients only when they are integers, so that no equal value of
    another type stands in for one)."""
    nums = tuple(monomials.values())
    cols = [intern(col, col) for col in zip(*monomials)]
    return (*cols, intern(nums, nums) if exact else nums)


def _monomials(cell):
    """The (coefficient, group tuples) monomials of a cell, in order."""
    cols, nums = cell[:-1], cell[-1]
    return zip(nums, zip(*cols) if cols else itertools.repeat(()))


def _diff(intern, monomials, g, c):
    """The monomials differentiated in coordinate c of group g, in order:
    each with that exponent k > 0 becomes k times itself with k lowered by
    one, the new group tuple interned by `intern`."""
    out = []
    for num, gs in monomials:
        k = gs[g][c]
        if k:
            group = gs[g]
            lowered = group[:c] + (k - 1,) + group[c + 1 :]
            out.append((num * k, gs[:g] + (intern(lowered, lowered),) + gs[g + 1 :]))
    return out


def lions_derivative(f, a):
    """Symbolic mixed derivative of `f` indexed by the tagged sequence `a`:
    arity!/(arity - m)! slot-assignment terms (`DerivTermSum.terms`), none
    when m > arity."""
    a = as_tagged(a)
    if 0 in a.values and not f.kernel.has_spatial:
        raise ValidationError(
            "sequence contains spatial letters but the functional has no "
            "spatial argument"
        )
    return DerivTermSum(f, a)


def eval_derivative(ts, x0, mu, free):
    """Evaluate a derivative at (x0, mu, free variables).

    Returns a tensor of shape (d, e, ..., e) with one e-axis per tensor
    direction (i.e. per letter of the indexing sequence). Exact when the
    inputs are rational.
    """
    kernel = ts.kernel
    if kernel.has_spatial and x0 is None:
        raise ValidationError("missing spatial argument")
    if not kernel.has_spatial and x0 is not None:
        raise ValidationError("functional has no spatial argument")
    n_free = _point_count(free, "free")
    if n_free != ts.n_free:
        raise ValidationError(f"expected {ts.n_free} free points, got {n_free}")
    if not isinstance(mu, MomentView):
        raise ValidationError(f"empirical measure required, got {type(mu).__name__}")
    points, e = ([x0] if kernel.has_spatial else []) + list(free), kernel.e
    if mu.dim != e or any(_point_dim(p) != e for p in points):
        raise ValidationError(f"points and atoms must have e = {e} coordinates, as the kernel has")
    if not ts.joint():  # no cells: an exact zero, with no point to wrap
        return Tensor((kernel.d,) + (e,) * ts.order)
    return contract_derivative(ts, _Side(points, mu), (None,) * ts.order, ()).tensor()


def eval_derivative_brute(ts, x0, mu, free):
    """Reference evaluator, independent of the compiled cells: per
    slot-assignment term, each kernel component differentiated with
    `MPoly.diff` once per direction, direction p in coordinate coords[p] of
    slot term.dirs[p], then the integrated slots summed by explicit nested
    loops over atom assignments. Used to cross-check the factorized path."""
    kernel = ts.kernel
    e, d, n = kernel.e, kernel.d, ts.order
    out = Tensor((d,) + (e,) * n)
    for term in ts.terms:
        partials = []
        for comp in range(d):
            for coords in itertools.product(range(e), repeat=n):
                poly = kernel.components[comp]
                for slot, c in zip(term.dirs, coords):
                    poly = poly.diff(kernel.slot_offset(slot) + c)
                if poly:
                    partials.append(((comp,) + coords, poly))
        given = dict(zip(term.pins, free))
        if kernel.has_spatial:
            given[0] = x0
        int_slots = [
            s for s in range(1, kernel.arity + 1) if s not in term.pins
        ]
        scale = Fraction(1, mu.n_atoms ** len(int_slots))
        for assign in itertools.product(mu.atoms, repeat=len(int_slots)):
            slot_values = {**given, **dict(zip(int_slots, assign))}
            flat = [c for s in kernel.slots() for c in slot_values[s]]
            for idx, poly in partials:
                out[idx] = out[idx] + scale * poly.eval(flat)
    return out


_VECTOR = "vector"  # a direction contracted against a given vector, in a direction pattern


def _layout(ts, pattern, n_given):
    """The layout of the derivative `ts` for the direction pattern `pattern`
    (per direction None to stay free, `_VECTOR`, or the averaged variable j
    whose gap it takes) and `n_given` given points, kept on its functional;
    None, with nothing kept, for a derivative without cells.

    (shape, size, degree, n_gaps, n_int, offsets, weights, slots, cells,
    gaps): the output shape and its size, the kernel degree less the order,
    the count of gap directions and of the argument groups past the given
    points, then one entry per cell in the cells' order: its flat output
    offset, the flat index of its vector-direction coordinates in the table
    of vector weights, its slot and the cell itself. A slot stands for one
    tuple of gap-direction coordinates, in order of first use, and `gaps`
    holds per slot the gap exponents of each argument group past the given
    points (theirs are all 0). Its tuples of integers are interned with the
    cells' (`_tuples`)."""
    f, key = ts.functional, (ts.seq.values, pattern, n_given)
    layout = f._layouts.get(key)
    if layout is not None:
        return layout
    joint = _joint(f, key[0])
    if not joint:
        return None
    kernel, intern = f.kernel, f._tuples.setdefault
    e, n_int = kernel.e, ts.n_groups - n_given
    free, vecs, gap_dirs = [], [], []  # the directions by kind: (direction, j) for a gap
    for p, v in enumerate(pattern):
        if v is None:
            free.append(p)
        elif v is _VECTOR:
            vecs.append(p)
        else:
            gap_dirs.append((p, v))
    offsets, weights, slots, firsts = [], [], [], {}
    for comp, coords in joint:
        offset, weight = comp, 0
        for p in free:
            offset = offset * e + coords[p]
        for p in vecs:
            weight = weight * e + coords[p]
        offsets.append(offset)
        weights.append(weight)
        slots.append(firsts.setdefault(tuple([coords[p] for p, _ in gap_dirs]), len(firsts)))
    zero, gaps = intern((0,) * e, (0,) * e), []
    for gap_coords in firsts:
        groups = [zero] * n_int
        for (_, j), c in zip(gap_dirs, gap_coords):
            row = list(groups[j])
            row[c] += 1
            groups[j] = intern(tuple(row), tuple(row))
        groups = tuple(groups)
        gaps.append(intern(groups, groups))
    shape = (kernel.d,) + (e,) * len(free)
    offsets, weights, slots, gaps = tuple(offsets), tuple(weights), tuple(slots), tuple(gaps)
    layout = f._layouts[key] = (
        shape, math.prod(shape), kernel.degree - len(pattern), len(gap_dirs), n_int,
        intern(offsets, offsets), intern(weights, weights), intern(slots, slots),
        tuple(joint.values()), intern(gaps, gaps),
    )
    return layout


class _Side:
    """One expansion side as its contractions read it: the views of the
    given points (x0 of a spatial kernel, then the given free points), the
    view `mu` of every other argument group, and the vectors, each named by
    its letter (its index). A point given as coordinates becomes its
    one-atom view here, and what every contraction on the side reads is
    taken once: `exact` (every view exact), each rational vector's integer
    numerators at the lcm of its denominators (None for any other), N, the
    table scale and the path flag of each view, and per degree the sums its
    contractions read (`readers`). The engine builds one side per expansion
    side and keeps it for the call; any other call builds a one-use side.
    The caller checks the points and vectors.
    """

    __slots__ = ("given", "mu", "vectors", "scaled", "exact", "n", "scale", "scales", "paths",
                 "mu_path", "_sums")

    def __init__(self, points, mu, vectors=()):
        self.given = [p if isinstance(p, MomentView) else MomentView([p], mu.dim) for p in points]
        self.mu, self.vectors = mu, [tuple(v) for v in vectors]
        self.exact = mu.exact and all(view.exact for view in self.given)
        self.scaled = []  # per vector: (integer numerators, lcm), None unless rational
        for vec in self.vectors:
            if all(type(c) in (int, Fraction) for c in vec):
                lcm = math.lcm(*(c.denominator for c in vec))
                self.scaled.append(([c.numerator * (lcm // c.denominator) for c in vec], lcm))
            else:
                self.scaled.append(None)
        self.n, self.scale, self.mu_path = mu.table_scales()
        self.scales = [view.table_scales() for view in self.given]  # (N, scale, path) each
        self.paths = [listed for *_, listed in self.scales]
        self._sums = {}

    def setup(self, unit, degree, n_gaps, letters, n_int):
        """(degree, den, table, flags, path) of a contraction of a kernel
        with common denominator `unit` (None: not rational), `n_gaps` gap
        directions, the vectors of `letters` and `n_int` groups that read
        `mu`. It is exact at `degree` when the kernel, the views and those
        vectors are rational, and runs on the values as given (degree None,
        den 1) otherwise. Then the denominator, the weight of each tuple of
        vector coordinates by flat index, and the path flag of each group
        and whether any is set."""
        if unit is None or not self.exact or any(self.scaled[v] is None for v in letters):
            degree, vecs, den = None, [self.vectors[v] for v in letters], 1
        else:
            vecs, den = [], unit * (self.n * self.scale**degree) ** n_int * self.scale**n_gaps
            den *= math.prod(k * s**degree for k, s, _ in self.scales)  # the given points
            for v in letters:
                nums, lcm = self.scaled[v]
                vecs.append(nums)
                den *= lcm
        table = [1]  # the weight of each tuple of vector coordinates, by flat index
        for vec in vecs:
            table = [w * c for w in table for c in vec]
        flags = self.paths + [self.mu_path] * n_int
        return degree, den, table, flags, any(flags)

    def readers(self, slot_gaps, degree):
        """Per slot of a layout, the sums (`MomentView.sums`) each group
        reads at `degree`: the given views' without gap, then `mu`'s at the
        slot's gap exponents `slot_gaps`, each read once per side."""
        got = self._sums.get(degree)
        if got is None:
            zero = (0,) * self.mu.dim
            got = self._sums[degree] = (
                [view.sums(zero, degree) for view in self.given], _SumsByGap(self.mu, degree)
            )
        given, by_gap = got
        return [given + [by_gap[gap] for gap in gaps] for gaps in slot_gaps]


class _SumsByGap(dict):
    """The sums of one view at one degree, by gap exponents, each read from
    the view on first use."""

    __slots__ = ("view", "degree")

    def __init__(self, view, degree):
        self.view, self.degree = view, degree

    def __missing__(self, gap):
        sums = self[gap] = self.view.sums(gap, self.degree)
        return sums


def contract_derivative(ts, side, pattern, letters):
    """Evaluate and contract tensor directions on one expansion side.

    `side` (`_Side`) holds the given points (x0 of a spatial kernel, then
    the given free points), the view `mu` of the other argument groups and
    the vectors. `pattern` has one entry per direction: None to leave it
    uncontracted, `_VECTOR` to contract it against a vector, or an int j for
    the gap of averaged coupling variable j; `letters` names, per vector
    direction in order, its vector on the side. Free variables beyond the
    given points are the averaged coupling variables 0, 1, ...: each is
    drawn uniformly from the atoms of `mu` (a `MomentView` with gaps) and
    the result is the average over all such draws. Returns a tensor of
    shape (d, e, ..., e) with one axis per uncontracted direction.

    Each cell of the derivative (`DerivTermSum.joint`) is evaluated group by
    group: x0 and the given free points contribute the sums of their
    one-atom views, averaged coupling variable j the mixed moment sums of
    `mu` with the gap exponents of its directions, and an integrated slot
    the moment sums of `mu`. Per monomial the average over the atoms
    factorizes into those moments, so the cost is linear in the atom count
    rather than a sum over configurations. What depends only on the
    derivative and the pattern (the output shape, where each cell lands,
    which vector coordinates weigh it and which gap exponents each group
    reads) is laid out once per functional (`_layout`), and the sums each
    group reads once per side and degree (`_Side.readers`). A call reads
    both, forms the denominator and the vector weights of its letters
    (`_Side.setup`), runs the monomial loop and writes one flat list.

    The contraction is exact when the side's views, the vectors of its
    letters and the kernel coefficients are rational. It then runs on integers: a monomial has degree at most
    D = kernel degree - order, so each group reads its integer sums lifted
    to degree D (`MomentView.sums`), the cells hold numerators over the
    kernel's common denominator and vectors are scaled by the lcm of their
    denominators. All monomials then share one denominator: those scales,
    N * scale^D per group, and mu's scale to the number of gap directions.
    Each output entry sums plain ints (xi-coefficient lists on the path),
    and the result is a `RationalTensor` of those numerators over that
    denominator, whose `tensor()` divides each entry once. Otherwise
    (float, symbolic or mixed data) the same loop reads each group's
    moments (`MomentView.sums` under degree None, lists on a path view),
    takes the coefficients' values and the vectors as given and returns a
    `RationalTensor` of those values over 1, not `exact`. Off the path
    every number type multiplies the groups in order; on the path exact
    data multiply the scalar groups first, and values as given keep the
    group order, or their float bits would move. A derivative without
    cells contracts to an exact zero.
    """
    n_given = len(side.given)
    layout = _layout(ts, pattern, n_given)
    if layout is None:  # no cells: an exact zero, whatever the data
        shape = (ts.kernel.d,) + (ts.kernel.e,) * pattern.count(None)
        return RationalTensor(shape, [0] * math.prod(shape), 1)
    shape, size, degree, n_gaps, n_int, offsets, weight_at, slots, cells, slot_gaps = layout
    unit = ts.kernel.denominator
    degree, den, table, on_path, path = side.setup(unit, degree, n_gaps, letters, n_int)
    exact = degree is not None
    readers = side.readers(slot_gaps, degree)
    out = [0 if exact else ZERO] * size
    for offset, weight, groups, cell in zip(
        offsets, map(table.__getitem__, weight_at), map(readers.__getitem__, slots), cells
    ):
        if not weight:
            continue
        terms = cell[-1]
        if not exact and unit is not None:  # a rational kernel's values
            terms = map(Fraction, terms, itertools.repeat(unit))
        if not path:  # the monomial loop, in C
            for sums, col in zip(groups, cell):
                terms = map(operator.mul, terms, map(sums.__getitem__, col))
            out[offset] += sum(terms) * weight
            continue
        total = [0]
        if exact:  # in integers, the scalar groups first: a list of one coefficient is a scalar
            lists = []
            for sums, col, listed in zip(groups, cell, on_path):
                values = map(sums.__getitem__, col)
                if listed:
                    lists.append(values)
                else:
                    terms = map(operator.mul, terms, values)
            for num, *factors in zip(terms, *lists):
                poly = None
                for v in factors:
                    if len(v) == 1:
                        num *= v[0]
                    else:
                        poly = v if poly is None else _xi_times(poly, v)
                if poly is None:
                    total[0] += num
                else:
                    _xi_add(total, _xi_times(poly, num))
        else:  # the values as given, the groups in order
            for term, *exps in zip(terms, *cell[:-1]):
                term = [term]
                for sums, g in zip(groups, exps):
                    term = _xi_times(term, sums[g])
                _xi_add(total, term)
        acc = out[offset]
        if type(acc) is not list:
            acc = out[offset] = [0]
        _xi_add(acc, [t * weight for t in total])
    return RationalTensor(shape, out, den, exact)


def _xi_times(a, b):
    """Product of a nonempty xi-coefficient list and a scalar or another
    such list."""
    if type(b) is not list:
        return [x * b for x in a]
    if len(a) == 1:
        return [a[0] * y for y in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def _xi_add(total, term):
    """Add the xi-coefficient list `term` into `total`, in place."""
    total.extend([0] * (len(term) - len(total)))
    for k, t in enumerate(term):
        total[k] += t


def normalize_box(box, e):
    """Accept (lo, hi) or a per-coordinate list of (lo, hi) pairs of finite
    endpoints."""
    try:
        if len(box) == 2 and not hasattr(box[0], "__len__"):
            box = [box] * e
        box = [(float(lo), float(hi)) for lo, hi in box]
    except (TypeError, ValueError):
        raise ValidationError(f"box must be (lo, hi) or a list of {e} (lo, hi) pairs of numbers") from None
    if len(box) != e:
        raise ValidationError(f"box must have {e} coordinate intervals")
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"box endpoints must be finite, got ({lo}, {hi})")
        if not lo < hi:
            raise ValidationError("degenerate box interval")
    return box


@dataclass(frozen=True)
class NormValue:
    """A certified upper bound together with its grid estimate.

    `value` is the certified sup (`_certified_sup`'s coefficient-wise bound,
    a true supremum bound on the box, and the number the remainder bounds
    use); `grid` is the largest value seen on a sample mesh, and `slack` =
    `value` - `grid` is how much the certified bound could be loose by. Only
    `norms_on_box` evaluates the grid.
    """

    value: float
    grid: float
    slack: float


@dataclass(frozen=True)
class NormEstimates:
    """Box-restricted norms of one derivative: the sup norm and the
    Lipschitz constants in the spatial argument, the measure, and each free
    variable. All values are certified upper bounds on the box."""

    sup: NormValue
    lip_spatial: NormValue | None
    lip_measure: NormValue
    lip_free: tuple


def _crude_sup(cell, unit, bounds):
    """Certified sup of |cell| on the box, `bounds` the largest |value| of
    each coordinate and `unit` the cell's denominator: sum of |coeff| *
    prod bound^exp, or inf when that exceeds the float range."""
    total = 0.0
    try:
        for num, groups in _monomials(cell):
            factor = abs(float(num / unit))
            for g in groups:
                for b, p in zip(bounds, g):
                    if p:
                        factor *= b**p
            total += factor
    except OverflowError:
        return math.inf
    return total


def _frobenius_sup(ts, box):
    """Certified Frobenius sup of a derivative over its argument groups in
    the (normalized) box and measures supported in it: the root of the sum
    of the squared coefficient-wise bounds of its cells."""
    bounds = [max(abs(lo), abs(hi)) for lo, hi in box]
    unit = ts.kernel.denominator or 1
    certified_sq = 0.0
    for cell in ts.joint().values():
        sup = _crude_sup(cell, unit, bounds)
        certified_sq += sup * sup
    return math.sqrt(certified_sq)


def _cell_poly(cell, unit, nvars):
    """A cell as the polynomial in `nvars` variables it stands for, its
    numerators divided by `unit` (None: the coefficients as given)."""
    return MPoly(
        nvars,
        {sum(groups, ()): Fraction(num, unit) if unit else num for num, groups in _monomials(cell)},
    )


def _certified_sup(f, seq, box):
    """Certified Frobenius sup of the derivative of `f` indexed by `seq`, with
    no grid evaluated."""
    return _frobenius_sup(lions_derivative(f, seq), box)


GRID_SAMPLES = 5  # mesh points per variable of the `norms_on_box` grid, before its cap


def _grid_points(box_scalar, samples, budget):
    """Deterministic mesh over the scalar variables, capped in size."""
    nvars = len(box_scalar)
    while samples > 2 and samples**nvars > budget:
        samples -= 1
    if samples**nvars > budget:
        return []
    axes = []
    for lo, hi in box_scalar:
        axes.append([lo + (hi - lo) * i / (samples - 1) for i in range(samples)])
    return itertools.product(*axes)


def _sup_report(ts, box):
    """The certified Frobenius sup of a derivative, as `_certified_sup`
    computes it, with the largest value on a sample mesh beside it."""
    certified = _frobenius_sup(ts, box)
    grid = 0.0
    unit, nvars = ts.kernel.denominator, ts.n_groups * ts.kernel.e
    entries = [_cell_poly(cell, unit, nvars) for cell in ts.joint().values()]
    if entries:
        budget = max(1, 2048 // len(entries))
        for point in _grid_points(box * ts.n_groups, GRID_SAMPLES, budget):
            point = list(point)
            sq = sum(float(p.eval(point)) ** 2 for p in entries)
            grid = max(grid, math.sqrt(sq))
    grid = min(grid, certified)
    return NormValue(value=certified, grid=grid, slack=certified - grid)


def norms_on_box(ts, box):
    """Box-restricted sup and Lipschitz estimates of a derivative, with
    their slack.

    The sup norm is over spatial/free arguments in the box and measures
    supported in the box; each Lipschitz constant is the sup of the
    corresponding next derivative (exact for polynomials by the mean value
    theorem on the convex box): in the spatial argument (letter 0), in each
    free variable j (letter j) and in the measure (letter m + 1). Every
    `value` is the certified sup that the remainder bounds read from
    `_certified_sup`, equal to it bit for bit; this report alone also
    evaluates the grid and states the slack.
    """
    box = normalize_box(box, ts.kernel.e)
    f, values, m = ts.functional, ts.seq.values, ts.n_free

    def next_norm(letter):
        return _sup_report(lions_derivative(f, TaggedSeq(values + (letter,))), box)

    return NormEstimates(
        sup=_sup_report(ts, box),
        lip_spatial=next_norm(0) if f.has_spatial else None,
        lip_measure=next_norm(m + 1),
        lip_free=tuple(next_norm(j) for j in range(1, m + 1)),
    )
