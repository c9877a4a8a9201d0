"""Symbolic derivatives of polynomial functionals, evaluation, box norms."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from lionsjet.errors import ValidationError
from lionsjet.expansion import taylor1
from lionsjet.functional import (
    DerivTerm,
    MomentView,
    PolyFunctional,
    PolyKernel,
    _derivative,
    contract_derivative,
    eval_derivative,
    eval_derivative_brute,
    lions_derivative,
    norms_on_box,
)
from lionsjet.measures import EmpiricalMeasure, pair_coupling
from lionsjet.partitions import enum_A
from lionsjet.poly import MPoly, XiPoly
from lionsjet.tagged import TaggedSeq, enum_A0

F = Fraction


def kernel_1d(terms, arity, spatial=False):
    nv = arity + bool(spatial)
    return PolyFunctional(
        PolyKernel(1, 1, arity, spatial, [MPoly(nv, terms)])
    )


def random_functional(rng, e, arity, spatial, degree=3, d=1):
    nv = (arity + spatial) * e
    comps = []
    for _ in range(d):
        terms = {}
        for _ in range(4):
            exps = [0] * nv
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(nv)] += 1
            terms[tuple(exps)] = F(rng.randint(-3, 3), rng.randint(1, 2))
        comps.append(MPoly(nv, terms))
    return PolyFunctional(PolyKernel(e, d, arity, spatial, comps))


def random_point(rng, e):
    return tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(e))


def test_kernel_degree_is_the_largest_component_degree():
    two = MPoly(2, {(1, 1): F(1), (1, 0): F(2)})
    three = MPoly(2, {(0, 3): F(-1)})
    assert PolyKernel(1, 2, 1, True, [two, three]).degree == 3
    assert PolyKernel(1, 1, 2, False, [MPoly(2)]).degree == 0
    assert PolyKernel(1, 0, 2, False, []).degree == 0


def test_kernel_json_round_trip():
    rng = random.Random(0)
    f = random_functional(rng, 2, 2, True, d=2)
    data = f.to_json()
    back = PolyFunctional.from_json(data)
    assert back.to_json() == data
    assert data["terms"][0]["exps"][0] is not None
    with pytest.raises(ValidationError):
        PolyKernel.from_json({"e": 1, "d": 1, "arity": 1, "spatial": False,
                              "terms": [{"out": 0, "coeff": "1", "exps": [[1], [1]]}]})


def test_functional_eval():
    # f(mu) = int x^2 dmu
    f = kernel_1d({(2,): F(1)}, arity=1)
    mu = EmpiricalMeasure([(1,), (3,)])
    assert f.eval(None, mu) == [F(5)]
    with pytest.raises(ValidationError):
        f.eval((F(0),), mu)
    fs = kernel_1d({(1, 1): F(1)}, arity=1, spatial=True)
    assert fs.eval((F(2),), mu) == [F(4)]
    with pytest.raises(ValidationError):
        fs.eval(None, mu)


def test_first_derivative_is_kernel_gradient():
    # d_mu of int k dmu at x is grad k(x), independent of the measure
    f = kernel_1d({(3,): F(1)}, arity=1)
    d = lions_derivative(f, TaggedSeq((1,)))
    for atoms in ([(0,)], [(1,), (-2,), (5,)]):
        mu = EmpiricalMeasure(atoms)
        assert eval_derivative(d, None, mu, [(F(2),)])[(0, 0)] == 12


def test_second_measure_derivative_of_linear_functional_vanishes():
    f = kernel_1d({(3,): F(1)}, arity=1)
    d = lions_derivative(f, TaggedSeq((1, 2)))
    assert d.terms == ()
    mu = EmpiricalMeasure([(1,)])
    assert eval_derivative(d, None, mu, [(F(1),), (F(2),)]).max_abs() == 0


def test_spatial_gradient_of_convolution_carries_inner_sign():
    # f(x0, mu) = int k(x0 - y) dmu(y) with k(z) = z^2:
    # the measure derivative differentiates the inner argument, so it is
    # -grad k(x0 - x1) = -2 (x0 - x1)
    f = kernel_1d({(2, 0): F(1), (1, 1): F(-2), (0, 2): F(1)}, 1, spatial=True)
    d = lions_derivative(f, TaggedSeq((1,)))
    mu = EmpiricalMeasure([(0,)])
    x0, x1 = (F(3),), (F(1),)
    assert eval_derivative(d, x0, mu, [x1])[(0, 0)] == -2 * (3 - 1)
    # and the spatial derivative integrates grad k(x0 - y) dmu(y)
    d0 = lions_derivative(f, TaggedSeq((0,)))
    assert eval_derivative(d0, x0, mu, [])[(0, 0)] == 2 * 3


def test_mixed_derivative_is_kernel_hessian():
    f = kernel_1d({(4,): F(1)}, arity=1)
    d = lions_derivative(f, TaggedSeq((1, 1)))
    mu = EmpiricalMeasure([(7,)])
    assert eval_derivative(d, None, mu, [(F(2),)])[(0, 0, 0)] == 48


def test_empty_sequence_is_plain_evaluation():
    rng = random.Random(1)
    f = random_functional(rng, 2, 2, True)
    d = lions_derivative(f, TaggedSeq(()))
    mu = EmpiricalMeasure([random_point(rng, 2) for _ in range(3)])
    x0 = random_point(rng, 2)
    t = eval_derivative(d, x0, mu, [])
    assert [t[(0,)]] == [f.eval(x0, mu)[0]]


def test_product_kernel_second_derivative_constant():
    # k(x1, x2) = x1 x2: the (1,2) derivative is the constant 2 (both slot
    # orders), for any measure
    f = kernel_1d({(1, 1): F(1)}, arity=2)
    d = lions_derivative(f, TaggedSeq((1, 2)))
    assert len(d.terms) == 2
    mu = EmpiricalMeasure([(0,), (1,), (2,)])
    assert eval_derivative(d, None, mu, [(F(5),), (F(7),)])[(0, 0, 0)] == 2
    # brute-force confirmation: expand the lift by hand and differentiate
    n = 3
    lifted = MPoly.zero(n)
    for i in range(n):
        for j in range(n):
            lifted = lifted + MPoly.var(n, i) * MPoly.var(n, j) * F(1, n * n)
    # second partial in two distinct particles times N^2
    dd = lifted.diff(0).diff(1)
    assert dd.eval([F(0), F(1), F(2)]) * n * n == 2


def test_too_many_free_variables_gives_empty_sum():
    f = kernel_1d({(1, 1): F(1)}, arity=2)
    d = lions_derivative(f, TaggedSeq((1, 2, 3)))
    assert d.terms == ()


def test_spatial_letter_requires_spatial_slot():
    f = kernel_1d({(1,): F(1)}, arity=1)
    with pytest.raises(ValidationError):
        lions_derivative(f, TaggedSeq((0,)))


def test_argument_validation():
    f = kernel_1d({(1,): F(1)}, arity=1)
    d = lions_derivative(f, TaggedSeq((1,)))
    mu = EmpiricalMeasure([(1,)])
    with pytest.raises(ValidationError):
        eval_derivative(d, None, mu, [])
    with pytest.raises(ValidationError):
        eval_derivative(d, (F(0),), mu, [(F(1),)])


def test_factorized_matches_brute_force():
    rng = random.Random(42)
    for e in (1, 2):
        for spatial in (False, True):
            f = random_functional(rng, e, 2, spatial, d=2)
            mu = EmpiricalMeasure([random_point(rng, e) for _ in range(3)])
            x0 = random_point(rng, e) if spatial else None
            for values in [(1,), (1, 1), (1, 2), (0, 1) if spatial else (1, 2)]:
                a = TaggedSeq(values)
                d = lions_derivative(f, a)
                free = [random_point(rng, e) for _ in range(a.m)]
                assert eval_derivative(d, x0, mu, free) == eval_derivative_brute(
                    d, x0, mu, free
                )


def test_letterwise_recursion_commutes():
    # deriving by (a . j) extends every term of the derivative by a by one
    # letter: j = 0 or a repeated j adds one direction, and a new j = m + 1
    # pins each still-integrated slot in turn, in increasing order
    f = random_functional(random.Random(9), 1, 3, True)
    for n in range(4):
        for a in enum_A0(n):
            prefix = lions_derivative(f, a).terms
            for j in range(a.m + 2):
                whole = lions_derivative(f, TaggedSeq(a.values + (j,))).terms
                if j <= a.m:
                    dirs = [t.pins[j - 1] if j else 0 for t in prefix]
                    expected = [DerivTerm(t.pins, t.dirs + (s,)) for t, s in zip(prefix, dirs)]
                else:
                    expected = [
                        DerivTerm(t.pins + (s,), t.dirs + (s,))
                        for t in prefix
                        for s in range(1, 4)
                        if s not in t.pins
                    ]
                assert list(whole) == expected


def test_linearity():
    rng = random.Random(5)
    f = random_functional(rng, 1, 2, False)
    g = random_functional(rng, 1, 2, False)
    mu = EmpiricalMeasure([random_point(rng, 1) for _ in range(3)])
    for values in [(1,), (1, 2), (1, 1)]:
        a = TaggedSeq(values)
        free = [random_point(rng, 1) for _ in range(a.m)]
        lhs = eval_derivative(lions_derivative(f + g, a), None, mu, free)
        rhs = eval_derivative(lions_derivative(f, a), None, mu, free) + eval_derivative(
            lions_derivative(g, a), None, mu, free
        )
        assert lhs == rhs


def test_contraction_is_multilinear():
    rng = random.Random(11)
    f = random_functional(rng, 2, 2, False)
    a = TaggedSeq((1, 2))
    d = lions_derivative(f, a)
    mu = EmpiricalMeasure([random_point(rng, 2) for _ in range(2)])
    free = [random_point(rng, 2) for _ in range(2)]
    v1, v2, w1 = (random_point(rng, 2) for _ in range(3))
    full = eval_derivative(d, None, mu, free)

    def contract(u1, u2):
        return contract_derivative(d, None, mu, free, [u1, u2])[(0,)]

    expected = sum(
        full[(0, c1, c2)] * v1[c1] * v2[c2] for c1 in range(2) for c2 in range(2)
    )
    assert contract(v1, v2) == expected
    s = F(3, 7)
    assert contract(tuple(s * c for c in v1), v2) == s * contract(v1, v2)
    assert contract(tuple(a + b for a, b in zip(v1, w1)), v2) == contract(
        v1, v2
    ) + contract(w1, v2)


def test_generic_scalars_path_evaluation():
    # coordinates carrying a path parameter evaluate to path polynomials
    f = kernel_1d({(2,): F(1)}, arity=1)
    d = lions_derivative(f, TaggedSeq((1,)))
    from lionsjet.functional import MomentView

    mu = MomentView([(XiPoly.affine(F(1), F(2)),)], dim=1)
    val = eval_derivative(d, None, mu, [(XiPoly.affine(F(0), F(1)),)])[(0, 0)]
    assert isinstance(val, XiPoly)
    assert val.eval(F(0)) == 0 and val.eval(F(1)) == 2


def test_norms_constant_kernel():
    f = kernel_1d({(0,): F(-3)}, arity=1)
    n0 = norms_on_box(lions_derivative(f, TaggedSeq(())), (-1, 1))
    assert n0.sup.value == pytest.approx(3.0)
    assert n0.lip_measure.value == 0
    n1 = norms_on_box(lions_derivative(f, TaggedSeq((1,))), (-1, 1))
    assert n1.sup.value == 0


def test_norms_linear_kernel():
    f = kernel_1d({(1,): F(1)}, arity=1)
    est = norms_on_box(lions_derivative(f, TaggedSeq((1,))), (-1, 1))
    assert est.sup.value == pytest.approx(1.0)
    assert est.lip_free[0].value == 0
    assert est.lip_measure.value == 0


def test_norms_quadratic_kernel():
    f = kernel_1d({(2,): F(1)}, arity=1)
    est = norms_on_box(lions_derivative(f, TaggedSeq((1,))), (-1, 1))
    assert est.sup.value == pytest.approx(2.0)
    assert est.sup.grid == pytest.approx(2.0)
    assert est.sup.slack == pytest.approx(0.0)
    assert est.lip_free[0].value == pytest.approx(2.0)


def test_norms_dominate_samples():
    rng = random.Random(2)
    f = random_functional(rng, 1, 2, True)
    a = TaggedSeq((1,))
    d = lions_derivative(f, a)
    est = norms_on_box(d, (-1, 1))
    for _ in range(30):
        atoms = [(F(rng.randint(-4, 4), 4),) for _ in range(3)]
        mu = EmpiricalMeasure(atoms)
        x0 = (F(rng.randint(-4, 4), 4),)
        x1 = (F(rng.randint(-4, 4), 4),)
        val = eval_derivative(d, x0, mu, [x1])
        assert val.frobenius() <= est.sup.value + 1e-9


def test_term_structure_invariants():
    # every term pins each free variable to exactly one slot, pins are
    # distinct slots, and the direction count equals the sequence length
    rng = random.Random(30)
    f = random_functional(rng, 1, 3, True)
    for values in [(1,), (1, 2), (1, 1, 2), (0, 1, 2), (1, 2, 3)]:
        a = TaggedSeq(values)
        d = lions_derivative(f, a)
        for term in d.terms:
            assert len(term.pins) == a.m
            assert len(set(term.pins)) == len(term.pins)
            assert len(term.dirs) == len(values)
            for p, letter in enumerate(values):
                if letter == 0:
                    assert term.dirs[p] == 0
                else:
                    assert term.dirs[p] == term.pins[letter - 1]


def test_terms_are_the_injective_pin_maps_in_lexicographic_order():
    # Built independently of `lions_derivative`: every map of the free
    # variables 1..m into the slots 1..arity, the injective ones kept in
    # lexicographic order, each direction read off its letter. The order is
    # part of the contract: it fixes the float summation order of
    # `contract_derivative`.
    for arity in range(4):
        for spatial in (False, True):
            f = kernel_1d({}, arity, spatial)
            for n in range(6):
                for a in list(enum_A(n)) + list(enum_A0(n)):
                    if 0 in a.values and not spatial:
                        with pytest.raises(ValidationError, match="spatial"):
                            lions_derivative(f, a)
                        continue
                    expected = [
                        DerivTerm(pins, tuple(pins[v - 1] if v else 0 for v in a.values))
                        for pins in itertools.product(range(1, arity + 1), repeat=a.m)
                        if len(set(pins)) == a.m
                    ]
                    assert list(lions_derivative(f, a).terms) == expected
                    assert len(expected) == math.perm(arity, a.m)


def test_pinned_slots_share_their_free_variable_in_the_sup():
    # f(mu) = int int (u1^2 - u2^2) dmu dmu (times x0) is identically zero,
    # and so is its first measure derivative. Its two terms cancel in the
    # combined polynomial only when each term's pinned slot is mapped to the
    # one free variable, so the certified sup is exactly 0.0.
    for spatial in (False, True):
        if spatial:
            terms, seqs = {(1, 2, 0): F(1), (1, 0, 2): F(-1)}, [(1,), (0, 1)]
        else:
            terms, seqs = {(2, 0): F(1), (0, 2): F(-1)}, [(1,)]
        f = kernel_1d(terms, arity=2, spatial=spatial)
        for values in seqs:
            sup = norms_on_box(lions_derivative(f, TaggedSeq(values)), (-1, 2)).sup
            assert sup.value == 0.0 and sup.grid == 0.0


# -- the per-call partial-derivative table ------------------------------------


def _direct_partial(f, out, term, coords):
    """The kernel component differentiated variable by variable, in the
    order the directions list them, with no table."""
    kernel = f.kernel
    poly = kernel.components[out]
    for slot, c in zip(term.dirs, coords):
        poly = poly.diff(kernel.slot_offset(slot) + c)
    return poly


def test_shared_table_partials_equal_direct_differentiation():
    rng = random.Random(11)
    f = random_functional(rng, 2, 2, True, degree=4, d=2)
    partials = {}
    seqs = list(enum_A0(3))
    rng.shuffle(seqs)  # fill the table in no particular order
    for a in seqs:
        ts = _derivative(f, a, partials)
        assert ts.partials is partials
        for term in ts.terms:
            for out in range(f.kernel.d):
                for coords in itertools.product(range(2), repeat=len(a)):
                    assert ts.deriv_poly(out, term, coords) == _direct_partial(f, out, term, coords)
    # each entry is keyed by (output, sorted variables), zeros included
    assert all(list(variables) == sorted(variables) for _, variables in partials)


def test_contraction_through_shared_table_equals_fresh_derivative():
    rng = random.Random(12)
    f = random_functional(rng, 2, 3, False, degree=4)
    atoms = [random_point(rng, 2) for _ in range(3)]
    view = MomentView(atoms, dim=2, gaps=[random_point(rng, 2) for _ in range(3)])
    partials = {}
    for values in [(1, 2), (1,), (1, 1, 2), (1, 2, 3), (1, 2, 1)]:
        a = TaggedSeq(values)
        dirvecs = [v - 1 for v in values]
        shared = contract_derivative(_derivative(f, a, partials), None, view, [], dirvecs)
        fresh = contract_derivative(lions_derivative(f, a), None, view, [], dirvecs)
        assert shared == fresh


def test_no_partial_table_outlives_a_call(monkeypatch):
    # the second of two identical calls differentiates exactly as much as
    # the first: nothing it computed is kept on the functional or kernel
    rng = random.Random(13)
    f = random_functional(rng, 2, 2, False, degree=4)
    points = [random_point(rng, 2) for _ in range(4)]
    c = pair_coupling(points[:2], points[2:])
    calls = []
    original = MPoly.diff

    def counting_diff(self, index):
        calls.append(index)
        return original(self, index)

    monkeypatch.setattr(MPoly, "diff", counting_diff)
    counts = []
    for _ in range(2):
        calls.clear()
        taylor1(f, c.left(), c, 2, box=(-4, 4))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
