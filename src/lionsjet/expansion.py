"""Jet operators and graded Taylor expansions with exact remainder terms.

The jet operator contracts a derivative against coupling gaps, averaged over
every coupling configuration: one atom pair per coupling variable of the
derivative. Per kernel monomial that m-fold average factorizes into a product
of mixed coupling moments (1/N) sum_i x_i^alpha (y_i - x_i)^beta, one per
pinned slot, so the operator costs time linear in the atom count N (see
`functional.contract_derivative`). Truncating the expansion at an order (or
at a grading level) leaves remainder terms indexed by the boundary families;
on the interpolation path the atoms have coordinates polynomial in the path
parameter, so the same moments are polynomials and the integrals are taken
in closed form, and

    predicted + sum of remainder terms == value at the target

holds as exact rational arithmetic. That identity is asserted by the tests;
the `remainder_bound*` functions produce certified upper bounds assembled
from box norms and coupling moments, with every factor reported.

One graded engine computes every expansion. `taylor2` and
`taylor_derivative` run it over tagged sequences; `taylor1` is the same
engine at alpha = beta = 1, gamma = n over partition sequences (there is no
spatial letter), whose core is every sequence of length at most n and whose
star family is the length-n sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError
from .functional import (
    MomentView,
    contract_derivative,
    eval_derivative,
    lions_derivative,
    normalize_box,
    norms_on_box,
)
from .measures import coupling_moment
from .partitions import PartitionSeq, enum_A
from .poly import Tensor, XiPoly, format_rational
from .tagged import (
    ExtendedSeq,
    Grading,
    TaggedSeq,
    _graded_value_families,
    as_tagged,
    enum_graded,
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

    def to_json(self):
        def num(v):
            return float(v) if isinstance(v, float) else format_rational(v)

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


def _affine_point(x, y):
    """Point whose coordinates follow the straight path x + xi * (y - x)."""
    return tuple(XiPoly.affine(a, b - a) for a, b in zip(x, y))


def _integrate_entry(value, r):
    """Integral over [0,1] of value(xi) * (1-xi)^r; value may be constant."""
    if isinstance(value, XiPoly):
        return value.integrate_weighted(r)
    return value * Fraction(1, r + 1)


def _at_one(value):
    return value.eval(Fraction(1)) if isinstance(value, XiPoly) else value


def _check_marginal(coupling, mu):
    if mu is not None and coupling.left() != mu:
        raise ValidationError("coupling left marginal differs from the measure")


def eval_Da(f, a, x0, displacement, mu, c):
    """The jet operator: the m[a]-fold coupling average of the derivative
    indexed by `a`, contracted with one displacement per letter (the spatial
    displacement for letter 0, the atom gap of coupling variable j for
    letter j). For the empty sequence this is f(x0, mu)."""
    a = as_tagged(a)
    _check_marginal(c, mu)
    if f.has_spatial and (x0 is None or displacement is None):
        raise ValidationError("spatial argument and displacement required")
    if not f.has_spatial and (x0 is not None or displacement is not None):
        raise ValidationError("functional has no spatial argument")
    view = MomentView([x for x, _ in c.pairs], dim=c.dim, gaps=c.gaps())
    dirvecs = [tuple(displacement) if v == 0 else v - 1 for v in a.values]
    return contract_derivative(lions_derivative(f, a), x0, view, [], dirvecs)


def _coupling_views(c):
    """Views of the left marginal, of the straight path to the right
    marginal (coordinates in `XiPoly`), and of the right marginal; the first
    two carry the coupling gaps for the averaged coupling variables."""
    gaps = c.gaps()
    base = MomentView([x for x, _ in c.pairs], dim=c.dim, gaps=gaps)
    path = MomentView(
        [_affine_point(x, y) for x, y in c.pairs], dim=c.dim, gaps=gaps
    )
    target = MomentView([y for _, y in c.pairs], dim=c.dim)
    return base, path, target


def _graded_engine(f, base, tagged_pairs, c, alpha, beta, eta, meta):
    """The one expansion engine: graded jet and exact remainder terms of the
    derivative indexed by `base`, truncated at level eta.

    base: the sequence whose derivative is being expanded (empty for the
          plain expansions).
    tagged_pairs: (start, target) pairs for the tagged slots 0..m[base]
          (slot 0 is the spatial point). A measure-only functional has none:
          its sequences start at letter 1, and its jet is listed
          length-major, as `enum_A` lists sequences.
    Returns the ExpansionResult; its tensors have one e-axis per letter of
    `base` after the leading output axis.
    """
    base = as_tagged(base)
    kernel = f.kernel
    m0 = base.m
    n0 = len(base)
    base_view, path_view, target_view = _coupling_views(c)

    tagged_base = [tuple(x) for x, _ in tagged_pairs]
    tagged_target = [tuple(y) for _, y in tagged_pairs]
    tagged_path = [_affine_point(x, y) for x, y in tagged_pairs]
    tagged_disp = [
        tuple(b - a for a, b in zip(x, y)) for x, y in tagged_pairs
    ]

    first, seq_type = (0, TaggedSeq) if f.has_spatial else (1, PartitionSeq)
    core, star, plus, cross = _graded_value_families(alpha, beta, eta, m0, first)
    dts_cache = {}

    def evaluate(values, tagged_at_xi, measure_at_xi):
        """Contract the derivative for base+values, averaged over the
        coupling, with the tagged group and/or the measure group on the
        interpolation path."""
        ts = dts_cache.get(values)
        if ts is None:
            ts = lions_derivative(f, TaggedSeq(base.values + values))
            dts_cache[values] = ts
        tagged = tagged_path if tagged_at_xi else tagged_base
        view = path_view if measure_at_xi else base_view
        dirvecs = [None] * n0 + [
            tagged_disp[v] if v <= m0 else v - m0 - 1 for v in values
        ]
        x0 = tagged[0] if tagged else None
        return contract_derivative(ts, x0, view, tagged[1:], dirvecs)

    jet_terms = []
    for values in core:
        raw = evaluate(values, False, False)
        value = raw.scale(Fraction(1, math.factorial(len(values))))
        seq = ExtendedSeq(base, values) if n0 else seq_type(values)
        jet_terms.append(JetTerm(seq=seq, value=value, raw=raw))
    if not f.has_spatial:
        jet_terms.sort(key=lambda term: len(term.seq))

    # Which argument groups move in each family integrand. The full
    # difference splits into a measure-group step and a tagged-group step;
    # which step lands in which family swaps with the order of alpha, beta.
    star_sides = ((True, True), (False, False))
    if beta > alpha:
        plus_sides = ((True, True), (True, False))
        cross_sides = ((True, False), (False, False))
    else:
        plus_sides = ((True, True), (False, True))
        cross_sides = ((False, True), (False, False))

    remainder_terms = {}
    for family, members, sides in (
        ("star", star, star_sides),
        ("plus", plus, plus_sides),
        ("cross", cross, cross_sides),
    ):
        if alpha == beta and family != "star":
            continue
        moving, frozen = sides
        for values in members:
            r = len(values) - 1
            acc = evaluate(values, *moving) - evaluate(values, *frozen)
            if r < 0:
                term = acc.map(_at_one)
            else:
                term = acc.map(lambda v: _integrate_entry(v, r)).scale(
                    Fraction(1, math.factorial(r))
                )
            remainder_terms[(family, values)] = term

    actual = eval_derivative(
        lions_derivative(f, base),
        tagged_target[0] if kernel.has_spatial else None,
        target_view,
        tagged_target[1:],
    )
    predicted = Tensor(actual.shape)
    for term in jet_terms:
        predicted = predicted + term.value
    return ExpansionResult(
        jet=jet_terms,
        predicted=predicted,
        actual=actual,
        remainder_exact=actual - predicted,
        remainder_terms=remainder_terms,
        meta=meta,
    )


def taylor1(f, mu, c, n, box=None):
    """Expansion of a measure-only functional about the left marginal of a
    coupling, truncated at order n, with exact remainder terms over the
    length-n sequences: the graded expansion with alpha = beta = 1 and
    gamma = n over partition sequences."""
    if f.has_spatial:
        raise ValidationError("taylor1 expects a functional without a spatial slot")
    if n < 1:
        raise ValidationError("order must be at least 1")
    _check_marginal(c, mu)
    result = _graded_engine(
        f, _EMPTY, [], c, 1, 1, n, {"kind": "order", "order": n}
    )
    if box is not None:
        result.remainder_bound, result.bound_terms = _bound1_terms(f, c, n, box)
    return result


def taylor2(f, x0, y0, c, g, box=None):
    """Graded expansion of a spatial functional in both arguments, truncated
    at level gamma, with the three-family exact remainder decomposition."""
    if not f.has_spatial:
        raise ValidationError("taylor2 expects a functional with a spatial slot")
    if not isinstance(g, Grading):
        raise ValidationError("grading required")
    result = _graded_engine(
        f,
        _EMPTY,
        [(tuple(x0), tuple(y0))],
        c,
        g.alpha,
        g.beta,
        g.gamma,
        {"kind": "graded", "grading": g.to_json()},
    )
    if box is not None:
        result.remainder_bound, result.bound_terms = _bound2_terms(
            f, x0, y0, c, g, box
        )
    return result


def taylor_derivative(f, a, x0, y0, free_x, free_y, c, g):
    """Graded expansion of the derivative indexed by `a`: its free variables
    are treated as tagged slots with fixed displacements, the truncation
    level drops by the grade of `a`, and the same exactness identity holds
    tensor-entry by tensor-entry."""
    a = as_tagged(a)
    if not f.has_spatial:
        raise ValidationError("expansion of derivatives needs a spatial slot")
    if len(free_x) != a.m or len(free_y) != a.m:
        raise ValidationError(f"expected {a.m} free start and target points")
    used = grade(a, g)
    if used > g.gamma:
        raise ValidationError("sequence lies outside the graded set")
    eta = g.gamma - used
    if eta < min(g.alpha, g.beta):
        raise ValidationError(
            "threshold after discounting the sequence grade is below one "
            "derivative step"
        )
    pairs = [(tuple(x0), tuple(y0))] + [
        (tuple(u), tuple(v)) for u, v in zip(free_x, free_y)
    ]
    meta = {
        "kind": "derivative",
        "seq": list(a.values),
        "grading": g.to_json(),
        "eta": format_rational(eta),
    }
    return _graded_engine(f, a, pairs, c, g.alpha, g.beta, eta, meta)


def _check_box_membership(box, points):
    for p in points:
        for (lo, hi), coord in zip(box, p):
            if not (lo <= float(coord) <= hi):
                raise ValidationError(f"point {p} outside box")


def _moments(c, orders):
    return {p: coupling_moment(c, p) for p in sorted(orders)}


def _bound1_terms(f, c, n, box):
    """Certified bound for the order-n remainder: for each length-n sequence,
    Lipschitz norms on the box times per-block coupling moments, divided by
    n factorial. The measure-Lipschitz factor is paired with the first
    coupling moment, which dominates the transport distance moved along the
    interpolation path."""
    box = normalize_box(box, f.kernel.e)
    _check_box_membership(box, [x for x, _ in c.pairs])
    _check_box_membership(box, [y for _, y in c.pairs])
    seqs = enum_A(n)
    orders = {1}
    for a in seqs:
        ks = [len(b) for b in a.blocks()]
        orders.update(ks)
        orders.update(k + 1 for k in ks)
    mom = _moments(c, orders)
    total = 0.0
    breakdown = []
    scale = 1.0 / math.factorial(n)
    for a in seqs:
        norms = norms_on_box(lions_derivative(f, a), box, samples=2)
        ks = [len(b) for b in a.blocks()]
        prod = math.prod(mom[k] for k in ks)
        term = norms.lip_measure.value * mom[1] * prod
        for q in range(1, a.m + 1):
            prod_q = math.prod(
                mom[k + (1 if j == q else 0)] for j, k in enumerate(ks, start=1)
            )
            term += norms.lip_free[q - 1].value * prod_q
        total += scale * term
        breakdown.append(
            {
                "seq": list(a.values),
                "lip_measure": norms.lip_measure.value,
                "lip_free": [nv.value for nv in norms.lip_free],
                "block_moments": [mom[k] for k in ks],
                "term": scale * term,
            }
        )
    return total, breakdown


def remainder_bound1(f, c, n, box):
    """Certified upper bound for the norm of the order-n remainder."""
    value, _ = _bound1_terms(f, c, n, box)
    return value


def _family_bound_terms(f, seqs, kind, disp_norm, mom, box, alpha, beta):
    """kind: which Lipschitz payload the family carries. "full" uses all
    three; "measure" the measure and free-variable constants; "spatial" only
    the spatial constant."""
    out = 0.0
    breakdown = []
    for a in seqs:
        norms = norms_on_box(lions_derivative(f, a), box, samples=2)
        z = a.zero_count
        ks = [len(b) for b in a.positive_blocks()]
        prod = math.prod(mom[k] for k in ks)
        dz = disp_norm**z
        term = 0.0
        if kind in ("full", "spatial"):
            term += norms.lip_spatial.value * disp_norm ** (z + 1) * prod
        if kind in ("full", "measure"):
            term += norms.lip_measure.value * mom[1] * dz * prod
            for q in range(1, a.m + 1):
                prod_q = math.prod(
                    mom[k + (1 if j == q else 0)]
                    for j, k in enumerate(ks, start=1)
                )
                term += norms.lip_free[q - 1].value * dz * prod_q
        term /= math.factorial(len(a))
        out += term
        breakdown.append({"seq": list(a.values), "kind": kind, "term": term})
    return out, breakdown


def _bound2_terms(f, x0, y0, c, g, box):
    box = normalize_box(box, f.kernel.e)
    _check_box_membership(box, [x for x, _ in c.pairs])
    _check_box_membership(box, [y for _, y in c.pairs])
    _check_box_membership(box, [x0, y0])
    fam = enum_graded(g)
    disp_norm = math.sqrt(sum((float(b) - float(a)) ** 2 for a, b in zip(x0, y0)))
    orders = {1}
    for a in fam.star + fam.plus + fam.cross:
        ks = [len(b) for b in a.positive_blocks()]
        orders.update(ks)
        orders.update(k + 1 for k in ks)
    mom = _moments(c, orders)
    total = 0.0
    breakdown = []
    star_val, star_terms = _family_bound_terms(
        f, fam.star, "full", disp_norm, mom, box, g.alpha, g.beta
    )
    total += star_val
    breakdown += star_terms
    if g.alpha != g.beta:
        plus_kind = "measure" if g.beta > g.alpha else "spatial"
        cross_kind = "spatial" if g.beta > g.alpha else "measure"
        plus_val, plus_terms = _family_bound_terms(
            f, fam.plus, plus_kind, disp_norm, mom, box, g.alpha, g.beta
        )
        cross_val, cross_terms = _family_bound_terms(
            f, fam.cross, cross_kind, disp_norm, mom, box, g.alpha, g.beta
        )
        total += plus_val + cross_val
        breakdown += plus_terms + cross_terms
    return total, breakdown


def remainder_bound2(f, x0, y0, c, g, box):
    """Certified upper bound for the norm of the graded remainder."""
    value, _ = _bound2_terms(f, x0, y0, c, g, box)
    return value
