"""Jet operators and graded Taylor expansions with exact remainder terms.

The jet operator contracts a derivative against coupling gaps, averaged over
every coupling configuration: one atom pair per coupling variable of the
derivative. Per monomial of the derivative's cells that m-fold
average factorizes into a product of mixed coupling moments
(1/N) sum_i x_i^alpha (y_i - x_i)^beta, one per coupling variable, so the
operator costs time linear in the atom count N (see
`functional.contract_derivative`, which reads the views a
`measures.Coupling` keeps). Truncating the expansion at an order (or at a
grading level) leaves remainder terms indexed by the boundary families; on
the interpolation path the atoms have coordinates polynomial in the path
parameter, so the same moments are polynomials and the integrals are taken
in closed form, and

    predicted + sum of remainder terms == value at the target

holds as exact rational arithmetic. That identity is asserted by the tests.
Every contraction returns a `poly.RationalTensor`, and the engine keeps that
type up to the output: with rational data, integer numerators over one
denominator, each output entry divided once when the result is built.

A contracted jet term or remainder integrand depends only on the symmetry
orbit of its sequence (`tagged._orbit_key`), together with which argument
groups sit on the interpolation path: permuting the positions of a sequence
permutes the directions of its mixed derivative (Schwarz symmetry, checked
on its own route by `oracle.schwarz_check`), and the contraction sums over
every direction; relabelling its fresh letters permutes the averaged
coupling variables, which are exchangeable. In rational mode the
contractions are equal, not merely close; a float sum may change by
rounding with the order of its terms.

Each truncation is planned once per functional (`_plan`), down to the
derivative, direction pattern and vector letters of each live orbit. One
graded engine (`_graded_engine`) computes every expansion from that plan,
one contraction per orbit and sides (`_orbit_cache`): `taylor2` and
`taylor_derivative` over tagged sequences, `taylor1` at alpha = beta = 1,
gamma = n over partition sequences, and `convergence_study` on one coupling
for every scale h. One bound engine turns the remainder into a certified
upper bound over the plan's families: planned once per plan and box
(`_bound_plan`), priced with one coupling's moments (`_bound_price`). So a
call costs its live orbits, not the members: a live member's terms are its
orbit's tensors, as they are, and a member whose derivative vanishes
identically (`functional._vanishes`) gets the result's one zero and a
constant of 0.0, with nothing keyed, built, contracted or added into the
prediction for it. Skipping an add of an exact zero leaves every sum as it
was, floats included, since the prediction starts from an exact zero and so
never holds -0.0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError
from .functional import (
    _VECTOR,
    MomentView,
    _certified_sup,
    _Side,
    _vanishes,
    contract_derivative,
    lions_derivative,
    normalize_box,
)
from .measures import Coupling, _as_point, _point_count, _point_dim, coupling_moment, float_moment
from .measures import pair_coupling
from .partitions import PartitionSeq
from .poly import RationalTensor, Tensor, format_rational
from .tagged import (
    ExtendedSeq,
    Grading,
    TaggedSeq,
    _built,
    _graded_value_families,
    _orbit_key,
    as_tagged,
    grade,
)

_EMPTY = TaggedSeq(())


class JetTerm:
    """One jet term: the contracted operator value and the same value before
    division by the factorial of the sequence length.

    A term keeps its member's value tuple, which `seq_values()` returns, and
    `kind`: the sequence class and the base (None but for an `ExtendedSeq`).
    `seq` builds the indexing sequence from the two on each read: a
    `PartitionSeq` (an order expansion), a `TaggedSeq` (a graded one) or an
    `ExtendedSeq` over the base of an expanded derivative. The tensors are
    read-only: the terms of one orbit share theirs, and every vanishing
    term of a result holds its one zero.
    """

    __slots__ = ("values", "value", "raw", "kind")

    def __init__(self, values, value, raw, kind):
        self.values, self.value, self.raw, self.kind = values, value, raw, kind

    @property
    def seq(self):
        cls, base = self.kind
        return _built(cls, self.values, base)

    def seq_values(self):
        return self.values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.seq, self.value, self.raw) == (other.seq, other.value, other.raw)

    def __repr__(self):
        return f"JetTerm(seq={self.seq!r}, value={self.value!r}, raw={self.raw!r})"


@dataclass
class ExpansionResult:
    """A truncated expansion with its exact remainder decomposition.

    predicted + sum(remainder_terms.values()) equals actual entry by entry
    (exactly, in rational mode). remainder_exact is actual - predicted.
    """

    jet: list
    predicted: Tensor
    actual: Tensor
    remainder_exact: Tensor
    remainder_terms: dict
    remainder_bound: float | None = None
    bound_terms: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def identity_gap(self):
        """Max abs entry of actual - predicted - sum of remainder terms."""
        total = self.predicted
        for term in self.remainder_terms.values():
            total = total + term
        return (self.actual - total).max_abs()

    def remainder_norm(self):
        return self.remainder_exact.frobenius()

    def to_json(self, floats=False):
        """The result as JSON data. Rational entries print as "p/q"; with
        `floats` (float mode) every entry prints as a float. Otherwise, in a
        result that holds any float entry, an exact zero (a vanishing term,
        a tensor that starts from Fraction(0)) prints as 0.0 beside them."""
        tensors = [t for term in self.jet for t in (term.value, term.raw)]
        tensors += [self.predicted, self.actual, self.remainder_exact]
        tensors += self.remainder_terms.values()
        zeros = floats or any(isinstance(v, float) for t in tensors for v in t.data)

        def num(v):
            as_float = floats or isinstance(v, float) or zeros and not v
            return float(v) if as_float else format_rational(v)

        def tensor(t):
            def walk(x):
                return [walk(v) for v in x] if isinstance(x, list) else num(x)

            return walk(t.to_nested())

        remainder = {}  # by family, then sequence, both sorted
        for (family, values), t in sorted(self.remainder_terms.items()):
            remainder.setdefault(family, {})[",".join(map(str, values))] = tensor(t)
        return {
            "jet": {
                ",".join(map(str, term.seq_values())): {
                    "value": tensor(term.value),
                    "raw": tensor(term.raw),
                }
                for term in self.jet
            },
            "predicted": tensor(self.predicted),
            "actual": tensor(self.actual),
            "remainder_exact": tensor(self.remainder_exact),
            "remainder_terms": remainder,
            "remainder_bound": self.remainder_bound,
            "bound_terms": self.bound_terms,
            "meta": self.meta,
        }


def _check_coupling(c):
    """`c` must be a `Coupling`."""
    if not isinstance(c, Coupling):
        raise ValidationError(f"expected a coupling, got {type(c).__name__}")


def _check_dimension(f, c, points):
    """`c` is a coupling whose atoms, and every given point, have the kernel's e coordinates."""
    _check_coupling(c)
    e = f.kernel.e
    if c.dim != e or any(_point_dim(p) != e for p in points):
        raise ValidationError(f"points must have e = {e} coordinates, as the kernel does")


def _check_pairs(f, c, tagged_pairs):
    """The spatial pair leads the tagged pairs exactly when f has a spatial slot."""
    if bool(tagged_pairs) != f.has_spatial:
        raise ValidationError("spatial points go with a spatial slot, and only with one")
    _check_dimension(f, c, [p for pair in tagged_pairs for p in pair])


def _as_pair(x, y):
    """A start and a target point as tuples; a point that is not a sequence
    of coordinates is a ValidationError."""
    try:
        return tuple(x), tuple(y)
    except TypeError:
        raise ValidationError(f"points must be sequences of coordinates, got {x!r} and {y!r}") from None


def _check_marginal(coupling, mu):
    """`mu`, the measure `taylor1` expands about, must be the coupling's
    left marginal: `c.left()`, which the coupling keeps, passes at once; any
    other measure is compared as a multiset. The coupling is checked first."""
    _check_coupling(coupling)
    if mu is not None and mu is not coupling.left() and coupling.left() != mu:
        raise ValidationError("coupling left marginal differs from the measure")


def eval_Da(f, a, x0, displacement, c):
    """The jet operator on the coupling `c`: the m[a]-fold coupling average
    of the derivative indexed by `a`, at its left marginal, contracted with
    one displacement per letter (the spatial displacement for letter 0, the
    atom gap of coupling variable j for letter j). For the empty sequence
    this is f(x0, c.left())."""
    a = as_tagged(a)
    _check_dimension(f, c, [p for p in (x0, displacement) if p is not None])
    if f.has_spatial and (x0 is None or displacement is None):
        raise ValidationError("spatial argument and displacement required")
    if not f.has_spatial and (x0 is not None or displacement is not None):
        raise ValidationError("functional has no spatial argument")
    pattern = tuple(_VECTOR if v == 0 else v - 1 for v in a.values)
    side = _Side([x0], c.base_view(), [displacement]) if f.has_spatial else _Side([], c.base_view())
    return contract_derivative(lions_derivative(f, a), side, pattern, (0,) * a.values.count(0)).tensor()


def _family_sides(alpha, beta):
    """(family, moving, frozen) for star, plus and cross, in the order
    `_graded_value_families` lists them. `moving` and `frozen` say whether
    the tagged group and the measure group sit on the interpolation path in
    the family's two integrands; a group moves iff the two flags differ. The
    full difference splits into a measure-group step and a tagged-group step,
    and which step lands in which family swaps with the order of alpha and
    beta (for alpha == beta the plus and cross families are empty)."""
    if beta > alpha:
        plus, cross = ((True, True), (True, False)), ((True, False), (False, False))
    else:
        plus, cross = ((True, True), (False, True)), ((False, True), (False, False))
    return (("star", (True, True), (False, False)), ("plus", *plus), ("cross", *cross))


def _orbit_cache(f, plan, tagged_pairs, c):
    """The engine's contractions over the coupling `c` and the (start,
    target) pairs of the tagged slots 0..m[base] (slot 0 is the spatial
    point), one per call of its `_plan` and sides.

    Returns evaluate(k, tagged_at_xi, measure_at_xi): the call
    `plan.calls[k]` (live orbit k, or -1 for the base itself) contracted on
    the side with the tagged group and/or the measure group on the
    interpolation path: computed once per call and sides (the star and
    cross families' frozen side is the jet's), and the same tensor on every
    later request. Each of the at most four sides is one `functional._Side`,
    built on its first request and kept for the call: the tagged starts'
    one-atom views or their path views, the coupling's base or path view,
    and the tagged displacements, scaled once.
    """
    _check_pairs(f, c, tagged_pairs)
    # one-atom views, so that every side reads the same power tables; a path
    # view from its start and displacement rows
    disps = [tuple(b - a for a, b in zip(x, y)) for x, y in tagged_pairs]
    starts = [MomentView([x], c.dim) for x, _ in tagged_pairs]
    paths = [MomentView([x], c.dim, [gap]).on_path() for (x, _), gap in zip(tagged_pairs, disps)]
    calls, sides, contractions = plan.calls, {}, {}  # by sides; by call and sides

    def evaluate(k, tagged_at_xi, measure_at_xi):
        key = (k, tagged_at_xi, measure_at_xi)
        done = contractions.get(key)
        if done is None:
            side = sides.get(key[1:])
            if side is None:
                view = c.path_view() if measure_at_xi else c.base_view()
                side = sides[key[1:]] = _Side(paths if tagged_at_xi else starts, view, disps)
            ts, pattern, letters = calls[k]
            done = contractions[key] = contract_derivative(ts, side, pattern, letters)
        return done

    return evaluate


def _orbit_jets(plan, evaluate):
    """Each orbit's raw contraction at the starts, and that raw divided by
    the factorial of its length, as two lists in `plan.orbits` order: a live
    core member's jet term is the entry its `plan.of` names."""
    raws = [evaluate(k, False, False) for k in range(len(plan.orbits))]
    return raws, [raw.scale(1, math.factorial(len(rep))) for rep, raw in zip(plan.orbits, raws)]


class _Plan:
    """A truncation resolved once per functional (`_plan`): its orbit table
    and the call of each live orbit.

    core: the member value tuples of the graded core, in the order the jet
          lists them (by length for a functional without a spatial slot).
    orbits: each live orbit's canonical representative (`_orbit_key`), in
          the order of its first core member.
    of: per core member the index of its orbit in `orbits`, or None when its
          derivative vanishes identically (`_vanishes`).
    calls: per live orbit in `orbits` order, then last for the base itself,
          (derivative, pattern, letters): the derivative of base +
          representative (`lions_derivative`), its direction pattern (the
          base's directions free, a tagged letter v its displacement, a
          fresh letter the gap of its averaged variable) and its vector
          letters, the tagged letters in order. The base's own call (that
          of the empty extension, orbit 0 when it is live) gives the value
          at the targets and a study's path.
    families: (family, moving, frozen, of, members) per boundary family,
          zipped with `_family_sides`, `of` that of its members.
    level: the truncation level, lowered by the grade of the base.
    bounds: the bound plans over its families (`_bound_plan`), by
          normalized box, filled on first use.

    A plan holds no tensor: every result builds its own.
    """

    __slots__ = ("core", "orbits", "of", "calls", "families", "level", "bounds")

    def __init__(self, core, orbits, of, calls, families, level):
        self.core, self.orbits, self.of, self.calls = core, orbits, of, calls
        self.families, self.level, self.bounds = families, level, {}


def _plan(f, spec, base=None):
    """The truncation of `f` at `spec`, resolved once per functional: an
    order n for a functional without a spatial slot (alpha = beta = 1,
    gamma = n over partition sequences) or a `Grading` for a spatial one,
    its level lowered by the grade of `base`. The spec is checked on every
    call, before the lookup (True == 1 and hash(2.0) == hash(2)); a spec and
    base that pass are planned once (`_Plan`) and kept in `f._plans`, so the
    engine, the bound and the convergence study of every later call read
    one search, one orbit key per member, one derivative per live orbit and
    one bound plan per box."""
    if isinstance(spec, Grading) != f.has_spatial:
        raise ValidationError(
            "grading required: an order expands only a functional without a spatial slot"
            if f.has_spatial else "a grading expands only a functional with a spatial slot"
        )
    if not f.has_spatial and (isinstance(spec, bool) or not isinstance(spec, int) or spec < 1):
        raise ValidationError(f"an order is an integer of at least 1, not {spec!r}")
    prefix = base.values if base is not None else ()
    plan = f._plans.get((spec, prefix))
    if plan is not None:
        return plan
    if not f.has_spatial:
        alpha = beta = first = 1
        level = spec
    else:
        alpha, beta, level, first = spec.alpha, spec.beta, spec.gamma, 0
    if base is not None:
        level -= grade(base, spec)
        if level < 0:
            raise ValidationError("sequence lies outside the graded set")
        if level < spec.lo:
            raise ValidationError("threshold after discounting the sequence grade is below "
                                  "one derivative step")
    m0 = base.m if base is not None else 0
    core, *families = _graded_value_families(alpha, beta, level, m0, first)
    if not f.has_spatial:
        core.sort(key=len)  # the jet lists partition sequences length-major, as `enum_A` does
    orbits, kernel = {}, f.kernel  # representative: its index

    def orbit(values):
        if _vanishes(kernel, prefix + values):
            return None
        key = _orbit_key(values, m0)
        return orbits.setdefault(values if key == values else key, len(orbits))

    of = {values: orbit(values) for values in core}
    families = [
        (*sides, [of[values] for values in members], members)
        for sides, members in zip(_family_sides(alpha, beta), families)
    ]

    def call(rep):  # its tuples interned with the functional's cells (`_tuples`)
        pattern = (None,) * len(prefix) + tuple(_VECTOR if v <= m0 else v - m0 - 1 for v in rep)
        letters = tuple(v for v in rep if v <= m0)
        ts = lions_derivative(f, _built(TaggedSeq, prefix + rep))
        return ts, f._tuples.setdefault(pattern, pattern), f._tuples.setdefault(letters, letters)

    calls = [call(rep) for rep in orbits]
    calls.append(calls[0] if of[()] == 0 else call(()))  # the base: the empty extension's call
    plan = _Plan(core, list(orbits), list(of.values()), calls, families, level)
    return f._plans.setdefault((spec, prefix), plan)


def _graded_engine(f, base, tagged_pairs, c, plan, box=None):
    """The one expansion engine: jet and exact remainder terms of the
    derivative indexed by `base`, over the core and the families of its
    `_plan`, and given a `box` the certified bound over the same families.

    base: the sequence whose derivative is being expanded (empty for the
          plain expansions).
    tagged_pairs: (start, target) pairs for the tagged slots 0..m[base]
          (slot 0 is the spatial point). A measure-only functional has none:
          its sequences start at letter 1, and its jet is listed
          length-major, as `enum_A` lists sequences.
    Returns the ExpansionResult, whose `meta` its caller fills; its tensors
    have one e-axis per letter of `base` after the leading output axis.
    """
    evaluate = _orbit_cache(f, plan, tagged_pairs, c)
    raws, terms = _orbit_jets(plan, evaluate)
    shape = (f.kernel.d,) + (f.kernel.e,) * len(base)  # of every jet and remainder term
    zero = Tensor(shape)  # every vanishing term's
    tensors = [(term.tensor(), raw.tensor()) for term, raw in zip(terms, raws)]  # by orbit
    kind = (ExtendedSeq, base) if base else (TaggedSeq if f.has_spatial else PartitionSeq, None)
    jet_terms = [
        JetTerm(values, zero, zero, kind) if k is None else JetTerm(values, *tensors[k], kind)
        for values, k in zip(plan.core, plan.of)
    ]

    remainder_terms, integrated = {}, {}  # integrated: one term per orbit and sides
    for family, moving, frozen, of, members in plan.families:
        for values, k in zip(members, of):
            if k is None:
                remainder_terms[(family, values)] = zero
                continue
            term = integrated.get((k, moving, frozen))
            if term is None:
                acc = evaluate(k, *moving) - evaluate(k, *frozen)
                term = integrated[k, moving, frozen] = acc.taylor_integral(len(plan.orbits[k]) - 1).tensor()
            remainder_terms[(family, values)] = term

    ts, pattern, letters = plan.calls[-1]  # the base's own derivative: its value at the targets
    actual = contract_derivative(ts, _Side([y for _, y in tagged_pairs], c.right()), pattern, letters)
    predicted = RationalTensor(shape, [0] * math.prod(shape), 1)  # an exact zero
    for k in plan.of:
        if k is not None:
            predicted = predicted + terms[k]
    result = ExpansionResult(
        jet=jet_terms,
        predicted=predicted.tensor(),
        actual=actual.tensor(),
        remainder_exact=(actual - predicted).tensor(),
        remainder_terms=remainder_terms,
    )
    if box is not None:
        result.remainder_bound, result.bound_terms = _bound_terms(f, tagged_pairs, c, plan, box)
    return result


def taylor1(f, mu, c, n, box=None):
    """Expansion of a measure-only functional about the left marginal of a
    coupling, truncated at order n, with exact remainder terms over the
    length-n sequences: the graded expansion with alpha = beta = 1 and
    gamma = n over partition sequences."""
    plan = _plan(f, n)
    _check_marginal(c, mu)
    result = _graded_engine(f, _EMPTY, [], c, plan, box)
    result.meta = {"kind": "order", "order": n}
    return result


def taylor2(f, x0, y0, c, g, box=None):
    """Graded expansion of a spatial functional in both arguments, truncated
    at level gamma, with the three-family exact remainder decomposition."""
    result = _graded_engine(f, _EMPTY, [_as_pair(x0, y0)], c, _plan(f, g), box)
    result.meta = {"kind": "graded", "grading": g.to_json()}
    return result


def taylor_derivative(f, a, x0, y0, free_x, free_y, c, g):
    """Graded expansion of the derivative indexed by `a`: its free variables
    are treated as tagged slots with fixed displacements, the truncation
    level drops by the grade of `a`, and the same exactness identity holds
    tensor-entry by tensor-entry."""
    a = as_tagged(a)
    if _point_count(free_x, "free_x") != a.m or _point_count(free_y, "free_y") != a.m:
        raise ValidationError(f"expected {a.m} free start and target points")
    plan = _plan(f, g, a)
    pairs = [_as_pair(x0, y0)] + [_as_pair(u, v) for u, v in zip(free_x, free_y)]
    result = _graded_engine(f, a, pairs, c, plan)
    result.meta = {"kind": "derivative", "seq": list(a.values), "grading": g.to_json(),
                   "eta": format_rational(plan.level)}
    return result


def _outside_box(box):
    """The test of whether a point lies outside the normalized `box`,
    compared exactly: a float coordinate with the float endpoints, any other
    with the endpoints as Fractions (each float is one exactly)."""
    exact = [(Fraction(lo), Fraction(hi)) for lo, hi in box]

    def outside(p):
        return any(
            not (lo <= coord <= hi if type(coord) is float else q_lo <= coord <= q_hi)
            for (lo, hi), (q_lo, q_hi), coord in zip(box, exact, p)
        )

    return outside


def _refuse_outside(outside, points):
    """Raise ValidationError naming the first of `points` outside the box."""
    for p in points:
        if outside(p):
            raise ValidationError(f"point {p} outside box")


def _check_box_membership(box, c, points):
    """Every atom of the coupling `c` and every one of `points` lies in the
    box (`_outside_box`). The atoms are checked by the two corners of the
    coupling's kept bounding box; only when a corner lies outside are they
    scanned, to name one."""
    outside = _outside_box(box)
    scan = list(points)
    if any(map(outside, c.bounding_box())):
        scan = [x for x, _ in c.pairs] + [y for _, y in c.pairs] + scan
    _refuse_outside(outside, scan)


def _displacement_norm(tagged_pairs):
    """|y0 - x0| in floats, over the coordinates of every tagged pair."""
    return math.sqrt(
        sum((float(b) - float(a)) ** 2 for x, y in tagged_pairs for a, b in zip(x, y))
    )


def _product(constant, *factors):
    """constant * factors[0] * factors[1] * ..., multiplied left to right,
    and 0.0 when a factor is exactly 0: a term whose moment or displacement
    vanishes contributes nothing, even when its constant overflowed to inf
    (inf * 0.0 would make the bound nan)."""
    if not all(factors):
        return 0.0
    for factor in factors:
        constant *= factor
    return constant


def _bound_plan(f, plan, box):
    """What a certified bound over the families of a `_plan` reads of f and
    the normalized `box` alone: per family, one entry per member, (z, ks,
    spatial, measure, free, 1/len!) with z its spatial letters, ks its block
    sizes k_1..k_m, `spatial` the spatial Lipschitz constant (None when the
    spatial group does not move), `measure` the measure constant (None when
    the measure group does not move) and `free` the constants of the free
    variables 1..m (none when it does not). Equal entries are one object.

    Each constant is `_certified_sup` of the next derivative on the box. It
    depends only on the orbit of that derivative's sequence, so it is
    computed once per orbit; a constant whose next derivative vanishes
    (`_vanishes`) is 0.0, with no orbit keyed and nothing compiled. The
    result is kept in `plan.bounds` by box, so every later bound over that
    plan and box, and every scale of a convergence study, reads it.
    """
    key = tuple(box)
    bound = plan.bounds.get(key)
    if bound is not None:
        return bound
    lips, entries = {}, {}  # by orbit representative; each entry once

    def lip(values, letter):
        seq = values + (letter,)
        if _vanishes(f.kernel, seq):
            return 0.0
        rep = _orbit_key(seq, 0)
        if rep not in lips:
            lips[rep] = _certified_sup(f, _built(TaggedSeq, rep), box)
        return lips[rep]

    bound = []
    for _, moving, frozen, _, members in plan.families:
        spatial_moves = f.has_spatial and moving[0] != frozen[0]
        measure_moves = moving[1] != frozen[1]
        family = []
        for values in members:
            ks = tuple(values.count(j) for j in range(1, max(values, default=0) + 1))
            spatial = lip(values, 0) if spatial_moves else None
            measure, free = None, ()
            if measure_moves:
                free = tuple(lip(values, q) for q in range(1, len(ks) + 1))
                measure = lip(values, len(ks) + 1)
            entry = (values.count(0), ks, spatial, measure, free, 1.0 / math.factorial(len(values)))
            family.append(entries.setdefault(entry, entry))
        bound.append(family)
    return plan.bounds.setdefault(key, bound)


def _bound_price(plan, bound, disp_norm, moment):
    """The certified bound of the `_bound_plan` `bound` of a `_plan` for one
    coupling and spatial pair, with one record per family member.
    `disp_norm` is |y0 - x0| and `moment(p)` the coupling moment M_p.

    A member with z spatial letters and block sizes k_1..k_m is bounded by
    its constants divided by its length factorial: the spatial constant
    times |y0 - x0|^(z+1) * prod M_k; the measure constant times M_1 *
    |y0 - x0|^z * prod M_k (the first coupling moment M_1 dominates the
    transport distance moved along the path); the constant of free
    variable q times |y0 - x0|^z and the block-moment product whose q-th
    factor is raised by one. Each moment is read once, and each product is
    multiplied once per block-size tuple, left to right.
    """
    mom = functools.cache(moment)
    prod = functools.cache(lambda ks: math.prod(map(mom, ks)))
    total = 0.0
    breakdown = []
    for (*_, members), entries in zip(plan.families, bound):
        for values, (z, ks, spatial, measure, free, inverse) in zip(members, entries):
            record = {"seq": list(values)}
            term = 0.0
            if spatial is not None:
                record["lip_spatial"] = spatial
                term += _product(spatial, disp_norm ** (z + 1), prod(ks))
            if measure is not None:
                dz = disp_norm**z
                record["lip_measure"] = measure
                record["lip_free"] = list(free)
                record["block_moments"] = [mom(k) for k in ks]
                term += _product(measure, mom(1), dz, prod(ks))
                for q, lip_q in enumerate(free):
                    term += _product(lip_q, dz, prod(ks[:q] + (ks[q] + 1,) + ks[q + 1 :]))
            term *= inverse
            record["term"] = term
            total += term
            breakdown.append(record)
    return total, breakdown


def _bound_terms(f, tagged_pairs, c, plan, box):
    """Certified bound for the remainder of the plain expansion (empty base)
    over the families of its `_plan`, on the coupling `c` and the tagged
    pairs, with one record per family member: the points are checked to lie
    in the box, then the bound is planned (`_bound_plan`, once per plan and
    box) and priced (`_bound_price`) with the moments the coupling keeps
    (`coupling_moment`)."""
    box = normalize_box(box, f.kernel.e)
    _check_pairs(f, c, tagged_pairs)
    _check_box_membership(box, c, [p for pair in tagged_pairs for p in pair])
    moment = functools.partial(coupling_moment, c)
    return _bound_price(plan, _bound_plan(f, plan, box), _displacement_norm(tagged_pairs), moment)


def remainder_bound1(f, c, n, box):
    """Certified upper bound for the norm of the order-n remainder."""
    return _bound_terms(f, [], c, _plan(f, n), box)[0]


def remainder_bound2(f, x0, y0, c, g, box):
    """Certified upper bound for the norm of the graded remainder."""
    return _bound_terms(f, [_as_pair(x0, y0)], c, _plan(f, g), box)[0]


SLOPE_FLOOR = 1e-14  # remainders at or below this are float rounding, left out of fits


def ols_loglog_slope(h_values, values):
    """Least-squares slope of log2(values) against log2(h) over the finite
    rows above SLOPE_FLOOR. Returns None when every value is exactly zero;
    raises ValidationError when some value is nonzero but fewer than two
    distinct scales have a finite one above the floor: no fit, nor exact."""
    xs, ys = [], []
    for h, v in zip(h_values, values):
        if v is not None and SLOPE_FLOOR < v < math.inf:
            xs.append(math.log2(float(h)))
            ys.append(math.log2(v))
    if len(set(xs)) < 2:
        if any(values):
            raise ValidationError(
                f"fewer than two scales h have a remainder above the fit floor {SLOPE_FLOOR:g}"
            )
        return None
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    denom = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom


def _reach(box, c):
    """The largest h at which every target x + h * (y - x) of the rational
    coupling `c`, whose base points x lie in the box, does too: coordinate
    by coordinate, while h <= (hi - x) / gap for a positive gap and
    (lo - x) / gap for a negative one. Exact and in integers: with the
    coupling's rows at its scale S (x = X / S, gap = G / S) and an endpoint
    p / q, a bound is (p S - q X) / (q G); inf when no gap moves."""
    scale, starts, gaps = c.scaled_rows()
    least = None  # (num, den) of the least bound so far, den > 0
    for (lo, hi), xs, gs in zip(box, starts, gaps):
        ends = (lo.as_integer_ratio(), hi.as_integer_ratio())
        for x, g in zip(xs, gs):
            if g:
                p, q = ends[g > 0]
                num, den = p * scale - q * x, q * g
                if den < 0:
                    num, den = -num, -den
                if least is None or num * least[1] < least[0] * den:
                    least = (num, den)
    return math.inf if least is None else Fraction(*least)


def convergence_study(
    f, points, directions, order_or_grading, h_list, x0=None, x0_direction=None, box=None
):
    """Scale the target configuration toward the base along fixed directions
    and record the exact remainder (and, when a box is given, its certified
    bound) at each scale h. `h_list` needs at least two distinct scales, all
    positive and finite, for the slope to be a fit.

    At scale h every coupling gap is h times a direction and the spatial
    step h times `x0_direction`, while the base points stay put: the targets
    of scale h are the points at xi = h on the straight path of the h = 1
    coupling, the only coupling the study builds. A jet term indexed by a
    sequence of length k contracts one of these displacements per letter,
    so it is homogeneous of degree k in h: the jet is computed once, at
    h = 1, and summed by length into J_k, and the prediction at h is the sum
    of h^k J_k. f is contracted once, on the path, into one polynomial in xi
    per entry, and the value at the targets of scale h is that polynomial at
    xi = h. With rational points and scales, the polynomial's value, J_k,
    h^k J_k and the remainder stay integer numerators over one denominator,
    and the rows equal those of a full expansion at every h; a float h or
    float points may move a remainder by rounding.

    The truncation plan (`_plan`, once per functional and spec) gives the
    jet its core and the bound its families. The bound plan
    (`_bound_plan`, once per functional, spec and box) holds its box
    Lipschitz constants, which depend on f, the box and the orbit of a
    sequence, not on h. Each scale prices that plan (`_bound_price`) with
    its own coupling moments and spatial step, computed from that scale's
    gaps by the arithmetic of a coupling built at h, so every bound equals
    that of the coupling of scale h bit for bit; with rational points and a
    rational h every gap is h times its gap at h = 1, and the squared gap
    lengths are scaled in integers. The base points are checked to lie in
    the box once and each scale's targets and spatial pair at that scale,
    exactly: with rational data a target stays in the box up to a largest
    scale, computed once, and the targets are built only to name the one
    outside.

    Returns (rows, slope): rows are dicts with h, remainder norm, bound; the
    slope is the least-squares log-log fit, or None ("exact") when every
    member of every boundary family is at least as long as the kernel
    degree, or when every remainder is exactly zero. Under that rule each
    remainder integrand is a constant, so the remainder is 0 at every h and
    float rows hold only rounding. Raises ValidationError when some
    remainder is nonzero but fewer than two clear `SLOPE_FLOOR`.

    `x0` and `x0_direction` are the spatial base point and its direction:
    a grading needs both, an order takes neither. Every direction has as
    many coordinates as its point.
    """
    graded = isinstance(order_or_grading, Grading)
    if graded and (x0 is None or x0_direction is None):
        raise ValidationError("a grading needs x0 and x0_direction")
    if not graded and (x0 is not None or x0_direction is not None):
        raise ValidationError("x0 and x0_direction need a grading, not an order")
    try:
        hs = [Fraction(h) if not isinstance(h, float) else h for h in h_list]
    except (TypeError, ValueError):
        raise ValidationError(f"h_list must hold numbers, got {h_list!r}") from None
    if not all(0 < h < math.inf for h in hs) or len(set(hs)) < 2:
        raise ValidationError("h_list needs at least two distinct scales h, all positive and finite")
    if _point_count(directions, "directions") != _point_count(points, "points") or any(
        _point_dim(v) != _point_dim(p) for p, v in zip(points, directions)
    ):
        raise ValidationError("need one direction per point, of as many coordinates as the point")
    if graded and _point_dim(x0_direction) != _point_dim(x0):
        raise ValidationError("x0_direction needs as many coordinates as x0")
    plan = _plan(f, order_or_grading)

    def moved(point, direction, h):
        return tuple(p + h * d for p, d in zip(point, direction))

    def targets(h):
        """The targets of scale h as a coupling of them holds them (its
        `_as_point` refuses a non-finite one)."""
        return [_as_point(moved(p, v, h)) for p, v in zip(points, directions)]

    c = pair_coupling(points, [moved(p, v, 1) for p, v in zip(points, directions)])
    pairs = [(tuple(x0), moved(x0, x0_direction, 1))] if graded else []
    evaluate = _orbit_cache(f, plan, pairs, c)
    _, terms = _orbit_jets(plan, evaluate)
    jets = {}  # J_k: the live jet terms at h = 1 summed by sequence length k
    for values, i in zip(plan.core, plan.of):
        if i is not None:
            k = len(values)
            jets[k] = jets[k] + terms[i] if k in jets else terms[i]
    along = evaluate(-1, True, True)  # f on the path of the h = 1 coupling
    exact = c.base_view().exact
    reach = math.inf  # with rational data every target lies in the box up to this h
    if box is not None:
        box = normalize_box(box, f.kernel.e)
        outside = _outside_box(box)
        _refuse_outside(outside, [x for x, _ in c.pairs])
        reach = _reach(box, c) if exact else reach
        bound_plan = _bound_plan(f, plan, box)
    rows = []
    for h in hs:
        # rational data within reach: every gap is h times its gap at h = 1,
        # and no target is built (one outside the box is built, to name it)
        scaled = exact and type(h) is Fraction and h <= reach
        ys = [] if scaled else targets(h)
        rem = along.at(h)
        p, q = (h, 1) if type(h) is float else (h.numerator, h.denominator)
        for k, jet in jets.items():
            rem = rem - jet.scale(p**k, q**k)  # h^k, for a rational h as a pair of ints
        norm = rem.tensor().frobenius()
        bound = None
        if box is not None:
            spatial = [(tuple(x0), moved(x0, x0_direction, h))] if graded else []
            _refuse_outside(outside, ys + [p for pair in spatial for p in pair])
            if scaled:  # |h * gap|^2 in floats, as float(h^2 * |gap|^2) rounds it
                p2, q2 = h.numerator**2, h.denominator**2
                squares = [p2 * sq.numerator / (q2 * sq.denominator) for sq in c.gap_squares()]
            else:
                squares = [sum((b - a) ** 2 for a, b in zip(x, y)) for (x, _), y in zip(c.pairs, ys)]
            moment = functools.partial(float_moment, squares)
            bound = _bound_price(plan, bound_plan, _displacement_norm(spatial), moment)[0]
        rows.append({"h": float(h), "remainder": norm, "bound": bound})
    degree = f.kernel.degree
    if all(len(values) >= degree for *_, members in plan.families for values in members):
        return rows, None  # every remainder integrand is constant: exact
    return rows, ols_loglog_slope([r["h"] for r in rows], [r["remainder"] for r in rows])

