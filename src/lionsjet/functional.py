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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .measures import MomentView  # re-exported
from .poly import MPoly, Tensor, format_rational, parse_rational
from .tagged import TaggedSeq, as_tagged


class PolyKernel:
    """Polynomial kernel k: (R^e)^(arity [+ spatial]) -> R^d.

    Scalar variables are laid out slot-major: the spatial slot first when
    present, then the integrated slots 1..arity, each contributing e
    coordinates. `degree` is the largest total degree of a component (0 for
    a constant or zero kernel), computed once here.
    """

    __slots__ = ("e", "d", "arity", "has_spatial", "components", "degree")

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
        e, d, arity = data["e"], data["d"], data["arity"]
        spatial = data["spatial"]
        nvars = (arity + bool(spatial)) * e
        comps = [dict() for _ in range(d)]
        for term in data["terms"]:
            rows = term["exps"]
            if len(rows) != arity + bool(spatial):
                raise ValidationError("exponent matrix has wrong row count")
            flat = tuple(int(x) for row in rows for x in row)
            if len(flat) != nvars or any(x < 0 for x in flat):
                raise ValidationError("bad exponent matrix")
            out = term["out"]
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
    """A kernel integrated against the measure in every non-spatial slot."""

    __slots__ = ("kernel",)

    def __init__(self, kernel):
        self.kernel = kernel

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


def _eval_poly_slots(kernel, poly, slot_values, measure, gaps):
    """Evaluate a kernel-variable polynomial; slots absent from
    `slot_values` are integrated against `measure`.

    Per monomial, the integration over independent slots factorizes into a
    product of per-slot moments, so cost is linear in the atom count. A slot
    listed in `gaps` is an averaged coupling variable: its moment carries the
    gap exponents gaps[slot].
    """
    e = kernel.e
    total = 0
    for exps, coeff in poly.terms.items():
        factor = coeff
        for slot in kernel.slots():
            off = kernel.slot_offset(slot)
            row = exps[off : off + e]
            gap_row = gaps.get(slot)
            if gap_row:
                factor = factor * measure.moment(row, gap_row)
                continue
            if not any(row):
                continue
            vals = slot_values.get(slot)
            if vals is None:
                if measure is None:
                    raise ValidationError("integrated slot without a measure")
                factor = factor * measure.moment(row)
            else:
                for c, p in zip(vals, row):
                    if p:
                        factor = factor * c**p
        total = total + factor
    return total


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

    `partials` is the table of partial derivatives of the kernel components
    that `deriv_poly` reads and fills, keyed by (output, sorted variables).
    `lions_derivative` gives each derivative a fresh one; the derivatives
    built within one expansion, bound or norm report share one (see
    `_derivative`), so a partial derivative that several sequences reach is
    computed once per call.
    """

    __slots__ = ("functional", "seq", "terms", "partials")

    def __init__(self, functional, seq, terms):
        self.functional = functional
        self.seq = seq
        self.terms = tuple(terms)
        self.partials = {}

    @property
    def kernel(self):
        return self.functional.kernel

    @property
    def order(self):
        return len(self.seq)

    @property
    def n_free(self):
        return self.seq.m

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


def _past_degree(kernel, order):
    """Whether every derivative indexed by a sequence of `order` letters is
    identically zero: each of its terms differentiates a kernel component
    once per letter, and every partial derivative of a polynomial of order
    above its total degree is zero."""
    return order > kernel.degree


def lions_derivative(f, a):
    """Symbolic mixed derivative of `f` indexed by the tagged sequence `a`.

    One term per injective map `pins` of the free variables 1..m into the
    slots 1..arity, in lexicographic order: arity!/(arity - m)! terms, none
    when m > arity. Letter 0 differentiates the spatial argument and letter
    j > 0 the slot pinned to free variable j.
    """
    a = as_tagged(a)
    kernel = f.kernel
    if 0 in a.values and not kernel.has_spatial:
        raise ValidationError(
            "sequence contains spatial letters but the functional has no "
            "spatial argument"
        )
    terms = [
        DerivTerm(pins, tuple(pins[v - 1] if v else 0 for v in a.values))
        for pins in itertools.permutations(range(1, kernel.arity + 1), a.m)
    ]
    return DerivTermSum(f, a, terms)


def _derivative(f, a, partials):
    """`lions_derivative(f, a)` reading and filling the partial-derivative
    table `partials`, which the caller shares among the derivatives of `f`
    it builds. The table is made by and dropped with that one call (an
    expansion, a bound or a norm report); nothing keeps it on the kernel,
    functional or coupling, so no call reuses another's work."""
    ts = lions_derivative(f, a)
    ts.partials = partials
    return ts


def _slot_values_for(ts, term, x0, free):
    kernel = ts.kernel
    slot_values = {}
    if kernel.has_spatial:
        slot_values[0] = tuple(x0)
    for slot, point in zip(term.pins, free):
        slot_values[slot] = tuple(point)
    return slot_values


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
    return contract_derivative(ts, x0, mu, free, [None] * ts.order)


def eval_derivative_brute(ts, x0, mu, free):
    """Reference evaluator: integrated slots summed by explicit nested loops
    over atom assignments. Used to cross-check the factorized path."""
    kernel = ts.kernel
    e, d, n = kernel.e, kernel.d, ts.order
    out = Tensor((d,) + (e,) * n)
    for term in ts.terms:
        base_values = _slot_values_for(ts, term, x0, free)
        int_slots = [
            s for s in range(1, kernel.arity + 1) if s not in term.pins
        ]
        scale = Fraction(1, mu.n_atoms ** len(int_slots))
        for assign in itertools.product(mu.atoms, repeat=len(int_slots)):
            slot_values = dict(base_values)
            for slot, atom in zip(int_slots, assign):
                slot_values[slot] = tuple(atom)
            flat = []
            for s in kernel.slots():
                flat.extend(slot_values[s])
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
    such draws. Per monomial that average factorizes into the mixed moments
    mu.moment(row, gap_exps) of the pinned slots, so the cost is linear in
    the atom count rather than a sum over configurations. Returns a tensor of
    shape (d, e, ..., e) with one axis per uncontracted direction.

    A sequence longer than the kernel degree returns that zero tensor at
    once. This is exact, not an approximation: every entry of such a
    derivative is a partial derivative of a kernel component past its total
    degree, so the evaluation below would skip every cell and return the
    same zeros after visiting all e^n of them.
    """
    kernel = ts.kernel
    e, d, n = kernel.e, kernel.d, ts.order
    n_fixed = len(free)
    free_dirs, vec_dirs, gap_dirs = [], [], []
    for p, v in enumerate(direction_vectors):
        if v is None:
            free_dirs.append(p)
        elif isinstance(v, int):
            gap_dirs.append((p, v))
        else:
            vec_dirs.append((p, v))
    if _past_degree(kernel, n):
        return Tensor((d,) + (e,) * len(free_dirs))
    # Per direction coordinates: the contraction weight, the gap exponents
    # of each averaged coupling variable, and the output coordinates.
    cells = []
    for coords in itertools.product(range(e), repeat=n):
        weight = 1
        for p, vec in vec_dirs:
            weight = weight * vec[coords[p]]
        if not weight:
            continue
        gap_rows = {}
        for p, j in gap_dirs:
            gap_rows.setdefault(j, [0] * e)[coords[p]] += 1
        gap_rows = {j: tuple(row) for j, row in gap_rows.items()}
        cells.append((coords, weight, gap_rows, tuple(coords[p] for p in free_dirs)))
    out = Tensor((d,) + (e,) * len(free_dirs))
    for term in ts.terms:
        slot_values = _slot_values_for(ts, term, x0, free)
        for coords, weight, gap_rows, kept in cells:
            gaps = {term.pins[n_fixed + j]: row for j, row in gap_rows.items()}
            for comp in range(d):
                poly = ts.deriv_poly(comp, term, coords)
                if not poly:
                    continue
                val = _eval_poly_slots(kernel, poly, slot_values, mu, gaps)
                out[(comp,) + kept] += val * weight if vec_dirs else val
    return out


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


def _combined_polys(ts):
    """For each (output, direction coordinates): the joint polynomial in
    (x0, free variables, integration variables) whose expectation over
    independent box-supported integration variables is the derivative.

    Keeping the terms in one polynomial preserves cancellations in the sup
    bound."""
    kernel = ts.kernel
    e = kernel.e
    m = ts.n_free
    spatial = 1 if kernel.has_spatial else 0
    nvars_g = (spatial + m + kernel.arity) * e
    # Each term's map of kernel variables into groups of e joint variables:
    # x0, free variables 1..m, then slots 1..arity (a pinned slot goes to its
    # free variable's group).
    mappings = []
    for term in ts.terms:
        groups = list(range(spatial + m, spatial + m + kernel.arity))
        for j, slot in enumerate(term.pins):
            groups[slot - 1] = spatial + j
        mappings.append([g * e + c for g in [0] * spatial + groups for c in range(e)])

    out = {}
    for comp in range(kernel.d):
        for coords in itertools.product(range(e), repeat=ts.order):
            total = MPoly.zero(nvars_g)
            for term, mapping in zip(ts.terms, mappings):
                poly = ts.deriv_poly(comp, term, coords)
                if poly:
                    total = total + poly.map_vars(nvars_g, mapping)
            out[(comp, coords)] = total
    return out, nvars_g


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


def _box_scalar(box, nvars_g, e):
    """The (lo, hi) interval of each scalar variable of the combined
    polynomials: the box repeated once per argument group."""
    return (box * (nvars_g // e))[:nvars_g]


def _frobenius_sup(polys, box_scalar):
    """Certified Frobenius sup of the tensor whose entries are `polys`: the
    root of the sum of the squared coefficient-wise entry bounds."""
    var_bounds = [max(abs(lo), abs(hi)) for lo, hi in box_scalar]
    certified_sq = 0.0
    for poly in polys:
        sup = _crude_sup(poly, var_bounds)
        certified_sq += sup * sup
    return math.sqrt(certified_sq)


def _certified_sup(f, seq, box, partials):
    """Certified Frobenius sup of the derivative of `f` indexed by `seq`
    over spatial and free arguments in the (normalized) box and measures
    supported in it. No grid is evaluated. `partials` is the
    partial-derivative table the caller shares among its derivatives of `f`
    (see `_derivative`).

    A sequence longer than the kernel degree gives 0.0 without building the
    derivative: every entry of its combined polynomials is zero, so the sum
    of squared entry bounds is 0.0 and so is its root.
    """
    if _past_degree(f.kernel, len(seq)):
        return 0.0
    polys, nvars_g = _combined_polys(_derivative(f, seq, partials))
    return _frobenius_sup(polys.values(), _box_scalar(box, nvars_g, f.kernel.e))


GRID_SAMPLES = 5  # mesh points per variable of the `norms_on_box` grid, before its cap


def _grid_points(box_scalar, nvars, samples, budget):
    """Deterministic mesh over the scalar variables, capped in size."""
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
    polys, nvars_g = _combined_polys(ts)
    box_scalar = _box_scalar(box, nvars_g, ts.kernel.e)
    certified = _frobenius_sup(polys.values(), box_scalar)
    grid = 0.0
    entries = [p for p in polys.values() if p]
    if entries:
        budget = max(1, 2048 // len(entries))
        for point in _grid_points(box_scalar, nvars_g, GRID_SAMPLES, budget):
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
    partials = {}

    def next_norm(letter):
        seq = TaggedSeq(values + (letter,))
        return _sup_report(_derivative(f, seq, partials), box)

    return NormEstimates(
        sup=_sup_report(ts, box),
        lip_spatial=next_norm(0) if f.has_spatial else None,
        lip_measure=next_norm(m + 1),
        lip_free=tuple(next_norm(j) for j in range(1, m + 1)),
    )
