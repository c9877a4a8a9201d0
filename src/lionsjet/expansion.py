"""Jet operators and graded Taylor expansions with exact remainder terms.

The jet operator contracts a derivative against coupling gaps, averaged over
every coupling configuration: one atom pair per coupling variable of the
derivative. Per monomial of the derivative's joint polynomials that m-fold
average factorizes into a product of mixed coupling moments
(1/N) sum_i x_i^alpha (y_i - x_i)^beta, one per coupling variable, so the
operator costs time linear in the atom count N (see
`functional.contract_derivative`). Every argument group reads the power
tables of a view (`measures.MomentView`). The coupling keeps its base,
path and target views, which share their gap tables, with their sums,
so every expansion, bound and evaluation on one coupling reads the
same ones; the start of each tagged slot is a one-atom view, and its path
point that view with its displacement on the path (`MomentView.on_path`),
each built once per call. Every contraction returns a `poly.RationalTensor`
and the engine keeps that type up to the output: the jet's 1/k!, the
remainder's path integral and 1/r!, the prediction sums, actual - predicted
and a study's value at h and h^k. With rational data they stay integer
numerators over one denominator, each output entry divided once, into a
reduced Fraction, when the result is built; other data keeps its values as
given, and an exact tensor that meets a float is divided first. Each
derivative compiles its joint polynomials once per functional and keeps
them on it, so every later expansion, bound or study of that functional,
and both the base and the path contraction, read the same cells.
Truncating the expansion at an order (or at a grading level) leaves
remainder terms indexed by the
boundary families; on the interpolation path the atoms have coordinates
polynomial in the path parameter, so the same moments are polynomials and
the integrals are taken in closed form, and

    predicted + sum of remainder terms == value at the target

holds as exact rational arithmetic. That identity is asserted by the tests.

A contracted jet term or remainder integrand depends only on the symmetry
orbit of its sequence, together with which argument groups sit on the
interpolation path. Permuting the positions of a sequence permutes the
directions of its mixed derivative (Schwarz symmetry, checked on its own
route by `oracle.schwarz_check`), and the contraction sums over every
direction; relabelling its fresh letters permutes the averaged coupling
variables, which are exchangeable. So the orbit is fixed by the tagged
letters, the sorted block sizes of the fresh letters and the sides, and
`tagged._orbit_key` names it by a canonical representative. The engine
keys each live member's orbit once, contracts the representative once per
orbit and sides, scales each orbit's jet term by 1/k! once and copies it
to every other member; the remainder loop reads the jet loop's keys and
integrates each orbit's term once per sides, and the bound computes each
constant once per orbit.
In rational mode the contractions are equal, not merely close. A float
sum (a float-mode contraction, or a constant, which sums float terms) may
change by rounding with the order of its terms; on the benchmark and test
instances every constant was bit-equal to that of its own sequence.

Each call resolves its truncation once (`_plan`): the order or grading,
the level and one search for the graded core and its boundary families.
One graded engine computes every expansion from that plan. `taylor2` and
`taylor_derivative` run it over tagged sequences; `taylor1` is the same
engine at alpha = beta = 1, gamma = n over partition sequences (there is no
spatial letter), whose core is every sequence of length at most n and whose
star family is the length-n sequences. `convergence_study` plans once
and builds one coupling, at h = 1: it sums the engine's jet by sequence
length once, contracts f once on that coupling's path, whose point at
xi = h is the target of scale h, and plans its bound once.

One bound engine, over the plan's families, turns the remainder into a
certified upper bound: per family member, the box Lipschitz constants of
the moving groups times displacement and coupling-moment factors, with
every factor reported. It runs in two steps: the plan (`_bound_plan`)
looks up each member's vanishing rule, orbit and constants, which depend
on f and the box alone, and the price (`_bound_price`) multiplies them by
one coupling's moments and one displacement, each block-moment product once.
`remainder_bound1` is it at alpha = beta = 1, gamma = n; `remainder_bound2`
with the spatial pair (x0, y0); the engine with a box plans and prices
once, and a convergence study prices one plan at every scale. Each constant
is `functional._certified_sup` of the next derivative: the coefficient-wise
sup bound alone, with no sample grid (the grid and its slack are reported
only by `norms_on_box`, whose `.value`s equal these constants bit for bit).
A derivative vanishes identically when its sequence is longer than the
kernel degree or has more free variables than the kernel arity
(`functional._vanishes`); with a low-degree kernel most family members are
such zeros. The engine, the study and the bound read that rule first: a
vanishing member gets fresh zero tensors as its jet and remainder terms and
a constant of 0.0, and nothing is keyed, built, contracted, scaled,
integrated or added into the prediction for it. Skipping an add of an
exact zero leaves every sum as it was, floats included, since the
prediction starts from an exact zero and so never holds -0.0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError
from .functional import (
    MomentView,
    _certified_sup,
    _vanishes,
    contract_derivative,
    lions_derivative,
    normalize_box,
)
from .measures import (
    EmpiricalMeasure,
    _as_point,
    coupling_moment,
    float_moment,
    pair_coupling,
)
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


@dataclass(frozen=True)
class JetTerm:
    """One jet term: the contracted operator value and the same value before
    division by the factorial of the sequence length."""

    seq: object
    value: Tensor
    raw: Tensor

    def seq_values(self):
        return self.seq.values


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
        return math.sqrt(sum(float(v) ** 2 for v in self.remainder_exact.data))

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
            "remainder_terms": {
                family: {
                    ",".join(map(str, values)): tensor(t)
                    for (fam, values), t in sorted(self.remainder_terms.items())
                    if fam == family
                }
                for family in sorted({fam for fam, _ in self.remainder_terms})
            },
            "remainder_bound": self.remainder_bound,
            "bound_terms": self.bound_terms,
            "meta": self.meta,
        }


def _check_dimension(f, c, points):
    """Every atom and every given point has the kernel's e coordinates."""
    e = f.kernel.e
    if c.dim != e or any(len(p) != e for p in points):
        raise ValidationError(f"points must have e = {e} coordinates, as the kernel does")


def _check_pairs(f, c, tagged_pairs):
    """The spatial pair leads the tagged pairs exactly when f has a spatial slot."""
    if bool(tagged_pairs) != f.has_spatial:
        raise ValidationError("spatial points go with a spatial slot, and only with one")
    _check_dimension(f, c, [p for pair in tagged_pairs for p in pair])


def _check_marginal(coupling, mu):
    """`mu` must be the coupling's left marginal. Atoms in the order of the
    left column pass at once (`c.left()` holds the coupling's own coordinate
    objects, so they compare by identity); any other order is compared as a
    multiset."""
    if mu is None or isinstance(mu, EmpiricalMeasure) and mu.atoms == tuple(
        x for x, _ in coupling.pairs
    ):
        return
    if coupling.left() != mu:
        raise ValidationError("coupling left marginal differs from the measure")


def eval_Da(f, a, x0, displacement, mu, c):
    """The jet operator: the m[a]-fold coupling average of the derivative
    indexed by `a`, contracted with one displacement per letter (the spatial
    displacement for letter 0, the atom gap of coupling variable j for
    letter j). For the empty sequence this is f(x0, mu)."""
    a = as_tagged(a)
    _check_marginal(c, mu)
    _check_dimension(f, c, [p for p in (x0, displacement) if p is not None])
    if f.has_spatial and (x0 is None or displacement is None):
        raise ValidationError("spatial argument and displacement required")
    if not f.has_spatial and (x0 is not None or displacement is not None):
        raise ValidationError("functional has no spatial argument")
    dirvecs = [tuple(displacement) if v == 0 else v - 1 for v in a.values]
    return contract_derivative(lions_derivative(f, a), x0, c.base_view(), [], dirvecs).tensor()


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


def _orbit_cache(f, base, tagged_pairs, c):
    """The engine's contractions over the coupling `c` and the (start,
    target) pairs of the tagged slots 0..m[base] (slot 0 is the spatial
    point), one per orbit and sides.

    Returns (key, evaluate). key(values) is the orbit representative of the
    member `values` (`_orbit_key`), or None when the derivative of
    base+values vanishes identically (`_vanishes`), which then is never
    built. evaluate(rep, tagged_at_xi, measure_at_xi) is the derivative for
    base+rep contracted with one displacement per letter of `rep`, averaged
    over the coupling, with the tagged group and/or the measure group on
    the interpolation path: computed once per orbit and sides, and the same
    tensor on every later request, so callers copy what they hand out.
    """
    _check_pairs(f, c, tagged_pairs)
    kernel, m0, n0 = f.kernel, base.m, len(base)
    # one-atom views, so that every contraction reads the same power tables;
    # a path view from its start and displacement rows
    tagged_base = [MomentView([x], c.dim) for x, _ in tagged_pairs]
    tagged_disp = [tuple(b - a for a, b in zip(x, y)) for x, y in tagged_pairs]
    tagged_path = [
        MomentView([x], c.dim, [gap]).on_path() for (x, _), gap in zip(tagged_pairs, tagged_disp)
    ]
    derivs, contractions = {}, {}  # by representative; by (representative, sides)

    def key(values):
        return None if _vanishes(kernel, base.values + values) else _orbit_key(values, m0)

    def evaluate(rep, tagged_at_xi, measure_at_xi):
        sides = (rep, tagged_at_xi, measure_at_xi)
        done = contractions.get(sides)
        if done is None:
            ts = derivs.get(rep)
            if ts is None:
                ts = derivs[rep] = lions_derivative(f, _built(TaggedSeq, base.values + rep))
            tagged = tagged_path if tagged_at_xi else tagged_base
            view = c.path_view() if measure_at_xi else c.base_view()
            dirvecs = [None] * n0 + [
                tagged_disp[v] if v <= m0 else v - m0 - 1 for v in rep
            ]
            x0 = tagged[0] if tagged else None
            done = contractions[sides] = contract_derivative(ts, x0, view, tagged[1:], dirvecs)
        return done

    return key, evaluate


def _jet_loop(key, evaluate, core):
    """The engine's jet loop: per core sequence, (values, rep, raw, value)
    with its orbit representative, the orbit's raw contraction at the
    starts and that divided by the factorial of its length. Both tensors
    are made once per orbit and shared by its members; a member whose
    derivative vanishes has rep, raw and value None."""
    scaled = {}
    for values in core:
        rep = key(values)
        if rep is None:
            yield values, None, None, None
            continue
        done = scaled.get(rep)
        if done is None:
            raw = evaluate(rep, False, False)
            done = scaled[rep] = (raw, raw.scale(Fraction(1, math.factorial(len(values)))))
        yield values, rep, *done


def _plan(f, spec, base=None):
    """One call's truncation, resolved once: an order n for a functional
    without a spatial slot (alpha = beta = 1, gamma = n over partition
    sequences) or a `Grading` for a spatial one, its level lowered by the
    grade of `base`. Returns (core, [(family, moving, frozen, members), ...],
    meta), the families zipped with `_family_sides`; the engine, the bound
    and the convergence study all read it, so a call searches once."""
    if isinstance(spec, Grading) != f.has_spatial:
        raise ValidationError(
            "grading required: an order expands only a functional without a spatial slot"
            if f.has_spatial else "a grading expands only a functional with a spatial slot"
        )
    if not f.has_spatial:
        if isinstance(spec, bool) or not isinstance(spec, int) or spec < 1:
            raise ValidationError(f"an order is an integer of at least 1, not {spec!r}")
        alpha = beta = first = 1
        level, meta = spec, {"kind": "order", "order": spec}
    else:
        alpha, beta, level, first = spec.alpha, spec.beta, spec.gamma, 0
        meta = {"kind": "graded", "grading": spec.to_json()}
    if base is not None:
        level -= grade(base, spec)
        if level < 0:
            raise ValidationError("sequence lies outside the graded set")
        if level < spec.lo:
            raise ValidationError("threshold after discounting the sequence grade is below "
                                  "one derivative step")
        meta = {"kind": "derivative", "seq": list(base.values), "grading": spec.to_json(),
                "eta": format_rational(level)}
    core, *families = _graded_value_families(alpha, beta, level, base.m if base else 0, first)
    return core, [(*sides, m) for sides, m in zip(_family_sides(alpha, beta), families)], meta


def _graded_engine(f, base, tagged_pairs, c, core, families, meta, box=None):
    """The one expansion engine: jet and exact remainder terms of the
    derivative indexed by `base`, over the `core` and `families` of its
    `_plan`, and given a `box` the certified bound over the same families.

    base: the sequence whose derivative is being expanded (empty for the
          plain expansions).
    tagged_pairs: (start, target) pairs for the tagged slots 0..m[base]
          (slot 0 is the spatial point). A measure-only functional has none:
          its sequences start at letter 1, and its jet is listed
          length-major, as `enum_A` lists sequences.
    Returns the ExpansionResult; its tensors have one e-axis per letter of
    `base` after the leading output axis.
    """
    key, evaluate = _orbit_cache(f, base, tagged_pairs, c)
    shape = (f.kernel.d,) + (f.kernel.e,) * len(base)  # of every jet and remainder term
    seq_type = TaggedSeq if f.has_spatial else PartitionSeq
    reps, jet_terms = {}, []  # reps: each core member's orbit, None when it vanishes
    jets = {}  # by orbit: its value as contracted, then its value and raw as Tensors
    for values, rep, raw, value in _jet_loop(key, evaluate, core):
        reps[values] = rep
        seq = _built(ExtendedSeq, values, base) if base else _built(seq_type, values)
        if rep is None:
            jet_terms.append(JetTerm(seq, Tensor(shape), Tensor(shape)))
            continue
        if rep not in jets:
            jets[rep] = (value, value.tensor(), raw.tensor())
        _, value, raw = jets[rep]
        jet_terms.append(JetTerm(seq, Tensor(shape, value.data), Tensor(shape, raw.data)))
    if not f.has_spatial:
        jet_terms.sort(key=lambda term: len(term.seq))

    remainder_terms, integrated = {}, {}  # integrated: one term per orbit and sides
    for family, moving, frozen, members in families:
        for values in members:
            rep = reps[values]  # every family member is in the core
            if rep is None:
                remainder_terms[(family, values)] = Tensor(shape)
                continue
            term = integrated.get((rep, moving, frozen))
            if term is None:
                acc = evaluate(rep, *moving) - evaluate(rep, *frozen)
                term = integrated[rep, moving, frozen] = acc.taylor_integral(len(values) - 1).tensor()
            remainder_terms[(family, values)] = Tensor(term.shape, term.data)

    targets = [tuple(y) for _, y in tagged_pairs]
    actual = contract_derivative(  # `eval_derivative` at the targets, kept in integers
        lions_derivative(f, base),
        targets[0] if f.has_spatial else None,
        c.target_view(),
        targets[1:],
        [None] * len(base),
    )
    predicted = RationalTensor(shape, [0] * math.prod(shape), 1)  # an exact zero
    for term in jet_terms:
        rep = reps[term.seq.values]
        if rep is not None:
            predicted = predicted + jets[rep][0]
    result = ExpansionResult(
        jet=jet_terms,
        predicted=predicted.tensor(),
        actual=actual.tensor(),
        remainder_exact=(actual - predicted).tensor(),
        remainder_terms=remainder_terms,
        meta=meta,
    )
    if box is not None:
        result.remainder_bound, result.bound_terms = _bound_terms(f, tagged_pairs, c, families, box)
    return result


def taylor1(f, mu, c, n, box=None):
    """Expansion of a measure-only functional about the left marginal of a
    coupling, truncated at order n, with exact remainder terms over the
    length-n sequences: the graded expansion with alpha = beta = 1 and
    gamma = n over partition sequences."""
    plan = _plan(f, n)
    _check_marginal(c, mu)
    return _graded_engine(f, _EMPTY, [], c, *plan, box)


def taylor2(f, x0, y0, c, g, box=None):
    """Graded expansion of a spatial functional in both arguments, truncated
    at level gamma, with the three-family exact remainder decomposition."""
    return _graded_engine(f, _EMPTY, [(tuple(x0), tuple(y0))], c, *_plan(f, g), box)


def taylor_derivative(f, a, x0, y0, free_x, free_y, c, g):
    """Graded expansion of the derivative indexed by `a`: its free variables
    are treated as tagged slots with fixed displacements, the truncation
    level drops by the grade of `a`, and the same exactness identity holds
    tensor-entry by tensor-entry."""
    a = as_tagged(a)
    if len(free_x) != a.m or len(free_y) != a.m:
        raise ValidationError(f"expected {a.m} free start and target points")
    plan = _plan(f, g, a)
    pairs = [(tuple(x0), tuple(y0))] + [
        (tuple(u), tuple(v)) for u, v in zip(free_x, free_y)
    ]
    return _graded_engine(f, a, pairs, c, *plan)


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


def _bound_plan(f, families, box):
    """What a certified bound over the `families` of a `_plan` reads of f
    and the normalized `box` alone, looked up once per call: per family
    member, (values, z, ks, spatial, measure, 1/len!) with z its spatial
    letters, ks its block sizes k_1..k_m, `spatial` the spatial Lipschitz
    constant (None when the spatial group does not move) and `measure` the
    pair (measure constant, free constants) (None when the measure group
    does not move).

    Each constant is `_certified_sup` of the next derivative on the box. It
    depends only on the orbit of that derivative's sequence, so it is
    computed once per orbit and call; a constant whose next derivative
    vanishes (`_vanishes`) is 0.0, with no orbit keyed and nothing
    compiled. A call that prices several couplings (`convergence_study`, one
    per scale h) plans once.
    """
    lips = {}  # by orbit representative

    def lip(values, letter):
        seq = values + (letter,)
        if _vanishes(f.kernel, seq):
            return 0.0
        rep = _orbit_key(seq, 0)
        if rep not in lips:
            lips[rep] = _certified_sup(f, _built(TaggedSeq, rep), box)
        return lips[rep]

    plan = []
    for _, moving, frozen, members in families:
        spatial_moves = f.has_spatial and moving[0] != frozen[0]
        measure_moves = moving[1] != frozen[1]
        for values in members:
            ks = tuple(values.count(j) for j in range(1, max(values, default=0) + 1))
            spatial = lip(values, 0) if spatial_moves else None
            measure = None
            if measure_moves:
                free = [lip(values, q) for q in range(1, len(ks) + 1)]
                measure = lip(values, len(ks) + 1), free
            inverse = 1.0 / math.factorial(len(values))
            plan.append((values, values.count(0), ks, spatial, measure, inverse))
    return plan


def _bound_price(plan, disp_norm, moment):
    """The certified bound of a `_bound_plan` for one coupling and spatial
    pair, with one record per family member. `disp_norm` is |y0 - x0| and
    `moment(p)` the coupling moment M_p.

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
    for values, z, ks, spatial, measure, inverse in plan:
        record = {"seq": list(values)}
        term = 0.0
        if spatial is not None:
            record["lip_spatial"] = spatial
            term += _product(spatial, disp_norm ** (z + 1), prod(ks))
        if measure is not None:
            dz = disp_norm**z
            record["lip_measure"], free = measure
            record["lip_free"] = list(free)
            record["block_moments"] = [mom(k) for k in ks]
            term += _product(record["lip_measure"], mom(1), dz, prod(ks))
            for q, lip_q in enumerate(free):
                term += _product(lip_q, dz, prod(ks[:q] + (ks[q] + 1,) + ks[q + 1 :]))
        term *= inverse
        record["term"] = term
        total += term
        breakdown.append(record)
    return total, breakdown


def _bound_terms(f, tagged_pairs, c, families, box):
    """Certified bound for the remainder of the plain expansion (empty base)
    over the `families` of its `_plan`, on the coupling `c` and the tagged
    pairs, with one record per family member: the points are checked to lie
    in the box, then the bound is planned (`_bound_plan`) and priced
    (`_bound_price`) with the moments the coupling keeps
    (`coupling_moment`)."""
    box = normalize_box(box, f.kernel.e)
    _check_pairs(f, c, tagged_pairs)
    _check_box_membership(box, c, [p for pair in tagged_pairs for p in pair])
    moment = functools.partial(coupling_moment, c)
    return _bound_price(_bound_plan(f, families, box), _displacement_norm(tagged_pairs), moment)


def remainder_bound1(f, c, n, box):
    """Certified upper bound for the norm of the order-n remainder."""
    return _bound_terms(f, [], c, _plan(f, n)[1], box)[0]


def remainder_bound2(f, x0, y0, c, g, box):
    """Certified upper bound for the norm of the graded remainder."""
    return _bound_terms(f, [(tuple(x0), tuple(y0))], c, _plan(f, g)[1], box)[0]


SLOPE_FLOOR = 1e-14  # remainders at or below this are float rounding, left out of fits


def ols_loglog_slope(h_values, values):
    """Least-squares slope of log2(values) against log2(h) over the rows
    above SLOPE_FLOOR. Returns None when every value is exactly zero; raises
    ValidationError when some value is nonzero but fewer than two distinct
    scales clear the floor, since that is neither exact nor a fit."""
    xs, ys = [], []
    for h, v in zip(h_values, values):
        if v is not None and v > SLOPE_FLOOR:
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
    (lo - x) / gap for a negative one. Exact; inf when no gap moves."""
    reach = math.inf
    for (x, _), gap in zip(c.pairs, c.gaps()):
        for (lo, hi), a, g in zip(box, x, gap):
            if g:
                reach = min(reach, (Fraction(hi if g > 0 else lo) - a) / g)
    return reach


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

    The truncation is planned once (`_plan`): the jet reads its core, and
    the bound its families. The bound is planned once too (`_bound_plan`):
    its box Lipschitz constants depend on f, the box and the orbit of a
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
    hs = [Fraction(h) if not isinstance(h, float) else h for h in h_list]
    if not all(0 < h < math.inf for h in hs) or len(set(hs)) < 2:
        raise ValidationError("h_list needs at least two distinct scales h, all positive and finite")
    if len(directions) != len(points) or any(
        len(v) != len(p) for p, v in zip(points, directions)
    ):
        raise ValidationError("need one direction per point, of as many coordinates as the point")
    if graded and len(x0_direction) != len(x0):
        raise ValidationError("x0_direction needs as many coordinates as x0")
    core, families, _ = _plan(f, order_or_grading)

    def moved(point, direction, h):
        return tuple(p + h * d for p, d in zip(point, direction))

    def targets(h):
        """The targets of scale h as a coupling of them holds them (its
        `_as_point` refuses a non-finite one)."""
        return [_as_point(moved(p, v, h)) for p, v in zip(points, directions)]

    c = pair_coupling(points, [moved(p, v, 1) for p, v in zip(points, directions)])
    pairs = [(tuple(x0), moved(x0, x0_direction, 1))] if graded else []
    key, evaluate = _orbit_cache(f, _EMPTY, pairs, c)
    jets = {}  # J_k: the live jet terms at h = 1 summed by sequence length k
    for values, rep, _, value in _jet_loop(key, evaluate, core):
        if rep is not None:
            k = len(values)
            jets[k] = jets[k] + value if k in jets else value
    along = evaluate((), True, True)  # f on the path of the h = 1 coupling
    exact = c.base_view().exact
    reach = math.inf  # with rational data every target lies in the box up to this h
    if box is not None:
        box = normalize_box(box, f.kernel.e)
        outside = _outside_box(box)
        _refuse_outside(outside, [x for x, _ in c.pairs])
        reach = _reach(box, c) if exact else reach
        plan = _bound_plan(f, families, box)
    rows = []
    for h in hs:
        # rational data within reach: every gap is h times its gap at h = 1,
        # and no target is built (one outside the box is built, to name it)
        scaled = exact and type(h) is Fraction and h <= reach
        ys = [] if scaled else targets(h)
        rem = along.at(h)
        for k, jet in jets.items():
            rem = rem - jet.scale(h**k)
        norm = math.sqrt(sum(float(v) ** 2 for v in rem.tensor().data))
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
            bound = _bound_price(plan, _displacement_norm(spatial), moment)[0]
        rows.append({"h": float(h), "remainder": norm, "bound": bound})
    degree = f.kernel.degree
    if all(len(values) >= degree for *_, members in families for values in members):
        return rows, None  # every remainder integrand is constant: exact
    return rows, ols_loglog_slope([r["h"] for r in rows], [r["remainder"] for r in rows])

