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

Each derivative is compiled once per functional into joint polynomials over
x0, the free variables and the integrated slots (`DerivTermSum.joint`), and
kept on the functional, so every later expansion, bound or norm report of it
reads the same cells. The contraction, the certified sup and the grid report
all read that form; only the reference evaluator `eval_derivative_brute`
walks the terms. The contraction is one loop over the cells that reads the
power tables of its `measures.MomentView`s: in integers, with one
denominator, when every input is rational, and on the values as given
(floats, symbolic or mixed data) otherwise. A derivative longer than the
kernel degree, or with more free variables than the kernel arity, vanishes
identically (`_vanishes`): it has no cells, and the expansion engine skips
it without building it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .measures import MomentView  # re-exported
from .poly import MPoly, Tensor, XiPoly, format_rational, parse_rational
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

    `_joints` holds the compiled joint cells of its derivatives, keyed by
    sequence values: at most one entry per distinct sequence, not vanishing
    identically (`_vanishes`), that some call asked for. It starts empty and
    dies with the functional. A write stores a finished, equal value under
    its key, so threads sharing a functional may race to fill it.
    """

    __slots__ = ("kernel", "_joints")

    def __init__(self, kernel):
        self.kernel = kernel
        self._joints = {}

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
    """The derivative of a functional indexed by a tagged sequence, as a sum
    of slot-assignment terms over the shared kernel.

    `terms` is built on first read: one term per injective map `pins` of
    the free variables 1..m into the slots 1..arity, in lexicographic
    order, with letter 0 on the spatial argument and letter j > 0 on the
    slot pinned to free variable j. Only a compile and
    `eval_derivative_brute` read them, so a derivative whose joint cells
    are already on its functional never builds them.

    `partials` is the table of partial derivatives of the kernel components
    that `deriv_poly` reads and fills, keyed by (output, sorted variables).
    It is local to this derivative and serves its compile and
    `eval_derivative_brute`; only the compiled joint cells are kept, on the
    functional.
    """

    __slots__ = ("functional", "seq", "_terms", "partials")

    def __init__(self, functional, seq):
        self.functional = functional
        self.seq = seq
        self._terms = None
        self.partials = {}

    @property
    def terms(self):
        if self._terms is None:
            self._terms = tuple(
                DerivTerm(pins, tuple(pins[v - 1] if v else 0 for v in self.seq.values))
                for pins in itertools.permutations(range(1, self.kernel.arity + 1), self.seq.m)
            )
        return self._terms

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
        """Argument groups of the joint polynomials, e variables each: x0
        when the kernel is spatial, the free variables 1..m, then the
        integrated slots 1..arity."""
        return self.kernel.n_slots + self.n_free

    def joint(self):
        """The derivative compiled once per functional: for each (output,
        direction coordinates) cell that is not identically zero, the
        polynomial over the argument groups whose expectation over
        independent integrated slots is that entry.

        Each term maps its kernel slots into the groups, a pinned slot to its
        free variable's group, and the mapped partial derivatives are summed,
        so distinct terms that land on one monomial merge and cancellations
        between them are kept. A derivative that `_vanishes` has no cells
        and no cache entry, so the contraction returns zeros and the
        certified sup 0.0 without differentiating anything."""
        kernel, cache = self.kernel, self.functional._joints
        if _vanishes(kernel, self.seq.values):
            return {}
        joint = cache.get(self.seq.values)
        if joint is not None:
            return joint
        joint = {}
        e, spatial, m = kernel.e, int(kernel.has_spatial), self.n_free
        nvars = self.n_groups * e
        mappings = []
        terms = self.terms
        for term in terms:
            groups = list(range(spatial + m, spatial + m + kernel.arity))
            for j, slot in enumerate(term.pins):
                groups[slot - 1] = spatial + j
            mappings.append([g * e + c for g in [0] * spatial + groups for c in range(e)])
        for comp in range(kernel.d):
            for coords in itertools.product(range(e), repeat=self.order):
                total = None
                for term, mapping in zip(terms, mappings):
                    poly = self.deriv_poly(comp, term, coords)
                    if poly:
                        poly = poly.map_vars(nvars, mapping)
                        total = poly if total is None else total + poly
                if total:
                    joint[(comp, coords)] = total
        cache[self.seq.values] = joint
        return joint

    def deriv_poly(self, out, term, coords):
        """The kernel component differentiated once per direction, direction
        p acting on coordinate coords[p] of slot term.dirs[p].

        Partial derivatives commute, so the table keys them by the sorted
        variables; each entry is one `diff` of the entry for its prefix, and
        the zero polynomial once a prefix is zero."""
        kernel = self.kernel
        variables = tuple(
            sorted(
                kernel.slot_offset(slot) + c for slot, c in zip(term.dirs, coords)
            )
        )
        return _partial(self.partials, kernel, out, variables)

    def __repr__(self):
        return (
            f"DerivTermSum(seq={self.seq.values}, {len(self.terms)} terms, "
            f"kernel={self.kernel!r})"
        )


def _vanishes(kernel, values):
    """Whether the derivative indexed by the tagged sequence `values` is
    identically zero: longer than the kernel degree, every partial
    derivative of a polynomial past its total degree is zero; with more
    free variables than the kernel has integrated slots, no slot assignment
    exists. The engine, the convergence study and the bound read this rule
    before they key, build or contract a derivative."""
    return len(values) > kernel.degree or max(values, default=0) > kernel.arity


def _partial(table, kernel, out, variables):
    key = (out, variables)
    poly = table.get(key)
    if poly is None:
        if not variables:
            poly = kernel.components[out]
        else:
            prefix = _partial(table, kernel, out, variables[:-1])
            poly = prefix.diff(variables[-1]) if prefix else prefix
        table[key] = poly
    return poly


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
    if len(free) != ts.n_free:
        raise ValidationError(
            f"expected {ts.n_free} free points, got {len(free)}"
        )
    if mu is None or mu.n_atoms < 1:
        raise ValidationError("empirical measure required")
    e = kernel.e
    if mu.dim != e or any(len(p) != e for p in [x0, *free] if p is not None):
        raise ValidationError(f"points and atoms must have e = {e} coordinates, as the kernel has")
    return contract_derivative(ts, x0, mu, free, [None] * ts.order)


def eval_derivative_brute(ts, x0, mu, free):
    """Reference evaluator: integrated slots summed by explicit nested loops
    over atom assignments. Used to cross-check the factorized path."""
    kernel = ts.kernel
    e, d, n = kernel.e, kernel.d, ts.order
    out = Tensor((d,) + (e,) * n)
    for term in ts.terms:
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
            for comp in range(d):
                for coords in itertools.product(range(e), repeat=n):
                    poly = ts.deriv_poly(comp, term, coords)
                    if not poly:
                        continue
                    idx = (comp,) + coords
                    out[idx] = out[idx] + scale * poly.eval(flat)
    return out


def contract_derivative(ts, x0, mu, free, direction_vectors):
    """Evaluate and contract tensor directions against given vectors.

    direction_vectors has one entry per direction: a length-e vector, None to
    leave that direction uncontracted, or an int j for the gap of averaged
    coupling variable j. Free variables beyond len(free) are the averaged
    coupling variables 0, 1, ...: each is drawn uniformly from the atoms of
    `mu` (a `MomentView` with gaps) and the result is the average over all
    such draws. Returns a tensor of shape (d, e, ..., e) with one axis per
    uncontracted direction. x0 and each given point may be passed as its
    one-atom `MomentView`, whose power tables a caller then builds once.

    Each cell of the joint form (`DerivTermSum.joint`) is evaluated group by
    group: x0 and the given free points contribute the sums of their
    one-atom views, averaged coupling variable j the mixed moment sums of
    `mu` with the gap exponents of its directions, and an integrated slot
    the moment sums of `mu`. Per monomial the average over the atoms
    factorizes into those moments, so the cost is linear in the atom count
    rather than a sum over configurations.

    The contraction is exact when every view is, the kernel coefficients
    and the vectors are rational. It then runs on integers: a monomial has
    degree at most D = kernel degree - order, so each group reads its
    integer sums lifted to degree D (`MomentView.sums`), coefficients
    become numerators over the kernel's common denominator and vectors are
    scaled by the lcm of their denominators. All monomials then share one
    denominator: those scales, N * scale^D per group, and the gap scale to
    the number of gap directions. Each output entry sums plain ints
    (xi-coefficient lists on the path) and is divided once; a path entry
    without xi terms is a Fraction. Otherwise (float, symbolic or mixed
    data) the same loop reads each group's moments, skips a moment without
    exponents or gap (it is 1) and takes coefficients and vectors as given.
    """
    kernel = ts.kernel
    e = kernel.e
    free_dirs, vec_dirs, gap_dirs = [], [], []
    for p, v in enumerate(direction_vectors):
        if v is None:
            free_dirs.append(p)
        elif isinstance(v, int):
            gap_dirs.append((p, v))
        else:
            vec_dirs.append((p, v))
    out = Tensor((kernel.d,) + (e,) * len(free_dirs))
    joint = ts.joint()
    if not joint:
        return out
    points = ([x0] if kernel.has_spatial else []) + list(free)
    given = [p if isinstance(p, MomentView) else MomentView([p], e) for p in points]
    views = given + [mu] * (ts.n_groups - len(given))
    unit, den, weights, degree, path = kernel.denominator, 1, vec_dirs, None, False
    exact = (
        unit is not None
        and mu.exact
        and all(view.exact for view in given)
        and all(type(c) in (int, Fraction) for _, vec in vec_dirs for c in vec)
    )
    if exact:
        den, weights, degree = unit, [], kernel.degree - ts.order
        for p, vec in vec_dirs:
            scale = math.lcm(*(c.denominator for c in vec))
            weights.append((p, [c.numerator * (scale // c.denominator) for c in vec]))
            den *= scale
        scales = [view.table_scales() for view in given]
        n, mu_scale, gap_scale, mu_path = mu.table_scales()
        den *= (n * mu_scale**degree) ** (len(views) - len(given)) * gap_scale ** len(gap_dirs)
        den *= math.prod(k * s**degree for k, s, *_ in scales)  # the given points
        path = mu_path or any(poly for *_, poly in scales)
    n_avg = ts.n_free + kernel.has_spatial - len(given)
    readers_by_gaps, sums = {}, {}
    for (comp, coords), poly in joint.items():
        weight = 1
        for p, vec in weights:
            weight *= vec[coords[p]]
        if not weight:
            continue
        # (lo, hi, sums, weighted) per group, fixed by the coordinates of the gap directions
        gap_coords = tuple(coords[p] for p, _ in gap_dirs)
        readers = readers_by_gaps.get(gap_coords)
        if readers is None:
            gap_rows = [[0] * e for _ in range(n_avg)]
            for (_, j), c in zip(gap_dirs, gap_coords):
                gap_rows[j][c] += 1
            readers = readers_by_gaps[gap_coords] = []
            for g, view in enumerate(views):
                j = g - len(given)
                gap = tuple(gap_rows[j]) if 0 <= j < n_avg else (0,) * e
                readers.append((g * e, g * e + e, view.sums(gap, degree), not exact and any(gap)))
        idx = (comp,) + tuple(coords[p] for p in free_dirs)
        if path:
            total = [0]
            for exps, coeff in poly.terms.items():
                term = [coeff.numerator * (unit // coeff.denominator)]
                for lo, hi, cache, _ in readers:
                    term = _xi_times(term, cache[exps[lo:hi]])
                _xi_add(total, term)
            _xi_add(sums.setdefault(idx, [0]), [t * weight for t in total])
        else:
            total = 0
            if exact:
                for exps, coeff in poly.terms.items():
                    term = coeff.numerator * (unit // coeff.denominator)
                    for lo, hi, cache, _ in readers:
                        term *= cache[exps[lo:hi]]
                    total += term
            else:  # a moment without exponents or gap is 1
                for exps, term in poly.terms.items():
                    for lo, hi, cache, weighted in readers:
                        if weighted or any(exps[lo:hi]):
                            term *= cache[exps[lo:hi]]
                    total += term
            sums[idx] = sums.get(idx, 0) + total * weight
    for idx, total in sums.items():
        if not exact:
            out[idx] = total
        elif path and any(total[1:]):
            out[idx] = XiPoly([Fraction(t, den) for t in total])
        else:
            out[idx] = Fraction(total[0] if path else total, den)
    return out


def _xi_times(a, b):
    """Product of a nonempty int xi-coefficient list and an int or another
    such list."""
    if type(b) is int:
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
    """Add the int xi-coefficient list `term` into `total`, in place."""
    total.extend([0] * (len(term) - len(total)))
    for k, t in enumerate(term):
        total[k] += t


def normalize_box(box, e):
    """Accept (lo, hi) or a per-coordinate list of (lo, hi) pairs of finite
    endpoints."""
    if len(box) == 2 and not hasattr(box[0], "__len__"):
        box = [box] * e
    box = [(float(lo), float(hi)) for lo, hi in box]
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


def _crude_sup(poly, var_bounds):
    """Certified sup of |poly| on the box: sum of |coeff| * prod bound^exp,
    or inf when that exceeds the float range."""
    total = 0.0
    try:
        for exps, coeff in poly.terms.items():
            factor = abs(float(coeff))
            for b, p in zip(var_bounds, exps):
                if p:
                    factor *= b**p
            total += factor
    except OverflowError:
        return math.inf
    return total


def _frobenius_sup(ts, box):
    """Certified Frobenius sup of a derivative over its argument groups in
    the (normalized) box and measures supported in it: the root of the sum
    of the squared coefficient-wise bounds of its joint cells."""
    var_bounds = [max(abs(lo), abs(hi)) for lo, hi in box] * ts.n_groups
    certified_sq = 0.0
    for poly in ts.joint().values():
        sup = _crude_sup(poly, var_bounds)
        certified_sq += sup * sup
    return math.sqrt(certified_sq)


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
    entries = list(ts.joint().values())
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
