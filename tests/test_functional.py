"""Symbolic derivatives of polynomial functionals, evaluation, box norms."""

import itertools
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lionsjet.errors import ValidationError
from lionsjet.expansion import taylor1, taylor2
from lionsjet.functional import (
    DerivTerm,
    DerivTermSum,
    MomentView,
    PolyFunctional,
    PolyKernel,
    _certified_sup,
    _vanishes,
    contract_derivative,
    eval_derivative,
    eval_derivative_brute,
    lions_derivative,
    normalize_box,
    norms_on_box,
)
from lionsjet.measures import EmpiricalMeasure, pair_coupling
from lionsjet.partitions import enum_A
from lionsjet.poly import MPoly, XiPoly
from lionsjet.tagged import Grading, TaggedSeq, enum_A0

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


def every_slot_functional(rng, e, spatial, arity=3, degree=5, d=2, nterms=6):
    """Random kernel whose every monomial has a positive degree in every slot."""
    n_slots = arity + spatial
    comps = []
    for _ in range(d):
        terms = {}
        for _ in range(nterms):
            exps = [0] * (n_slots * e)
            for slot in range(n_slots):
                exps[slot * e + rng.randrange(e)] += 1
            for _ in range(degree - n_slots):
                exps[rng.randrange(len(exps))] += 1
            terms[tuple(exps)] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
        comps.append(MPoly(n_slots * e, terms))
    return PolyFunctional(PolyKernel(e, d, arity, spatial, comps))


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
    # three free variables on an arity-3 kernel: distinct terms of one
    # derivative land on the same joint monomial and merge there
    merged = 0
    for e in (1, 2):
        for spatial in (False, True):
            f = every_slot_functional(rng, e, spatial)
            mu = EmpiricalMeasure([random_point(rng, e) for _ in range(3)])
            x0 = random_point(rng, e) if spatial else None
            for values in [(1, 2, 3), (1, 2, 1, 3)] + [(0, 1, 2, 3)] * spatial:
                d = lions_derivative(f, TaggedSeq(values))
                free = [random_point(rng, e) for _ in range(3)]
                got = eval_derivative(d, x0, mu, free)
                assert got == eval_derivative_brute(d, x0, mu, free)
                assert got.max_abs() != 0
                per_term = sum(
                    len(d.deriv_poly(out, term, coords).terms)
                    for term in d.terms
                    for out, coords in d.joint()
                )
                merged += per_term > sum(len(p.terms) for p in d.joint().values())
    assert merged > 0


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
        return contract_derivative(d, None, mu, free, [u1, u2]).tensor()[(0,)]

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
    # joint polynomial only when each term's pinned slot is mapped to the
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


# -- the compiled joints kept on the functional -------------------------------


def _direct_partial(f, out, term, coords):
    """The kernel component differentiated variable by variable, in the
    order the directions list them, with no table."""
    kernel = f.kernel
    poly = kernel.components[out]
    for slot, c in zip(term.dirs, coords):
        poly = poly.diff(kernel.slot_offset(slot) + c)
    return poly


def test_partials_equal_direct_differentiation():
    rng = random.Random(11)
    f = random_functional(rng, 2, 2, True, degree=4, d=2)
    seqs = list(enum_A0(3))
    rng.shuffle(seqs)  # fill the tables in no particular order
    for a in seqs:
        ts = lions_derivative(f, a)
        for term in ts.terms:
            for out in range(f.kernel.d):
                for coords in itertools.product(range(2), repeat=len(a)):
                    assert ts.deriv_poly(out, term, coords) == _direct_partial(f, out, term, coords)
        # each entry is keyed by (output, sorted variables), zeros included
        assert all(list(variables) == sorted(variables) for _, variables in ts.partials)


def test_contraction_through_cached_joint_equals_fresh_derivative():
    rng = random.Random(12)
    f = random_functional(rng, 2, 3, False, degree=4)
    atoms = [random_point(rng, 2) for _ in range(3)]
    view = MomentView(atoms, dim=2, gaps=[random_point(rng, 2) for _ in range(3)])
    for values in [(1, 2), (1,), (1, 1, 2), (1, 2, 3), (1, 2, 1)]:
        a = TaggedSeq(values)
        dirvecs = [v - 1 for v in values]
        lions_derivative(f, a).joint()  # fill the cache of f
        shared = contract_derivative(lions_derivative(f, a), None, view, [], dirvecs)
        fresh = contract_derivative(
            lions_derivative(PolyFunctional(f.kernel), a), None, view, [], dirvecs
        )
        assert shared.tensor() == fresh.tensor()


def test_a_repeated_call_differentiates_nothing(monkeypatch):
    # the compiled joints stay on the functional, so the second of two
    # identical calls reads them and differentiates nothing
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
    counts, results = [], []
    for _ in range(2):
        calls.clear()
        results.append(taylor1(f, c.left(), c, 2, box=(-4, 4)).to_json())
        counts.append(len(calls))
    assert counts[0] > 0 and counts[1] == 0
    assert results[0] == results[1]


def test_cached_joint_equals_a_fresh_compile():
    rng = random.Random(15)
    f = random_functional(rng, 2, 2, True, degree=3, d=2)
    points = [random_point(rng, 2) for _ in range(4)]
    c = pair_coupling(points[:2], points[2:])
    x0, y0 = random_point(rng, 2), random_point(rng, 2)
    taylor2(f, x0, y0, c, Grading(F(1, 2), 1, F(5, 2)), box=(-4, 4))
    assert f._joints
    for values, cells in f._joints.items():
        fresh = lions_derivative(PolyFunctional(f.kernel), TaggedSeq(values)).joint()
        assert cells.keys() == fresh.keys()
        for cell, poly in cells.items():
            assert poly == fresh[cell]


def test_no_compile_builds_terms(monkeypatch):
    # a compile whose prefixes are compiled on demand, a compile from a
    # cached prefix and a cached read all run on joint cells alone; the
    # terms stay available to the reference evaluator
    f = kernel_1d({(2, 1, 0): F(1), (0, 1, 1): F(-2)}, arity=2, spatial=True)
    seqs = [TaggedSeq(values) for values in [(0, 1), (0,), (0, 0, 1), (0, 1)]]
    derivs = [lions_derivative(f, a) for a in seqs]
    monkeypatch.setattr(DerivTermSum, "terms", property(lambda ts: pytest.fail("terms built")))
    joints = [ts.joint() for ts in derivs]
    assert all(ts._terms is None for ts in derivs)
    assert joints[3] is joints[0] and all(joints)
    monkeypatch.undo()
    assert len(derivs[0].terms) == 2 and derivs[0]._terms is not None


def test_the_cache_holds_the_requested_sequences_and_their_prefixes():
    f = kernel_1d({(2, 1, 0): F(1), (0, 1, 1): F(-2)}, arity=2, spatial=True)
    past = TaggedSeq((0, 1, 1, 2))
    assert len(past) > f.kernel.degree == 3
    assert lions_derivative(f, past).joint() == {}
    assert _certified_sup(f, past, normalize_box((-1, 1), 1)) == 0.0
    assert f._joints == {}
    lions_derivative(f, TaggedSeq((0, 1, 1))).joint()
    assert list(f._joints) == [(), (0,), (0, 1), (0, 1, 1)]
    # a vanishing extension (past the degree, or a third free variable on
    # two slots) adds nothing; a new request adds itself and no other entry
    for values in [(0, 1, 1, 2), (1, 2, 3), (0, 1, 2)]:
        lions_derivative(f, TaggedSeq(values)).joint()
    assert list(f._joints) == [(), (0,), (0, 1), (0, 1, 1), (0, 1, 2)]
    assert not any(_vanishes(f.kernel, values) for values in f._joints)


def _slot_assignment_joint(ts):
    """The joint cells of `ts` compiled from the kernel, independently of
    any prefix: per (output, coordinates) cell, each slot-assignment term's
    partial mapped into the argument groups (a pinned slot to its free
    variable's group), summed over the terms in their order."""
    kernel = ts.kernel
    e, spatial, m = kernel.e, int(kernel.has_spatial), ts.n_free
    mappings = []
    for term in ts.terms:
        groups = list(range(spatial + m, spatial + m + kernel.arity))
        for j, slot in enumerate(term.pins):
            groups[slot - 1] = spatial + j
        mappings.append([g * e + c for g in [0] * spatial + groups for c in range(e)])
    joint = {}
    for comp in range(kernel.d):
        for coords in itertools.product(range(e), repeat=ts.order):
            total = None
            for term, mapping in zip(ts.terms, mappings):
                poly = ts.deriv_poly(comp, term, coords)
                if poly:
                    poly = poly.map_vars(ts.n_groups * e, mapping)
                    total = poly if total is None else total + poly
            if total:
                joint[(comp, coords)] = total
    return joint


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_prefix_compile_equals_the_slot_assignment_compile(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    spatial, floats = data.draw(st.booleans()), data.draw(st.booleans())
    e, d, arity = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)), data.draw(
        st.integers(0 if spatial else 1, 3)
    )
    f = random_functional(rng, e, arity, spatial, degree=4, d=d)
    if floats:
        f = PolyFunctional(PolyKernel(e, d, arity, spatial, [
            MPoly(p.nvars, {exps: rng.uniform(-3, 3) for exps in p.terms})
            for p in f.kernel.components
        ]))
    enum = enum_A0 if spatial else enum_A
    seqs = [a for n in range(5) for a in enum(n)]
    # in a random order, so that a prefix is compiled before some requests
    # and on demand for others
    for a in data.draw(st.permutations(seqs)):
        ts = lions_derivative(f, a)
        got, want = ts.joint(), _slot_assignment_joint(ts)
        assert list(got) == list(want)
        for cell, poly in got.items():
            if floats:
                assert poly.terms.keys() == want[cell].terms.keys()
                for exps, coeff in poly.terms.items():
                    assert math.isclose(coeff, want[cell].terms[exps], rel_tol=1e-12)
            else:
                assert poly == want[cell]


def test_a_compile_from_a_cached_prefix_makes_one_diff_per_cell_and_coordinate(monkeypatch):
    # a tagged letter (0 or j <= m) differentiates each prefix cell once per
    # coordinate, and a fresh letter once per coordinate and slot
    rng = random.Random(16)
    for e, arity, spatial in [(1, 2, True), (2, 3, True), (2, 2, False), (2, 3, False)]:
        f = random_functional(rng, e, arity, spatial, degree=4, d=2)
        calls = []
        original = MPoly.diff

        def counting_diff(self, index):
            calls.append(index)
            return original(self, index)

        monkeypatch.setattr(MPoly, "diff", counting_diff)
        monkeypatch.setattr(DerivTermSum, "terms", property(lambda ts: pytest.fail("terms built")))
        enum = enum_A0 if spatial else enum_A
        for a in [a for n in range(5) for a in enum(n)]:
            if _vanishes(f.kernel, a.values) or not a.values:
                continue
            prefix = lions_derivative(f, TaggedSeq(a.values[:-1])).joint()
            calls.clear()
            lions_derivative(f, a).joint()
            fresh = a.values[-1] > max(a.values[:-1], default=0)
            assert len(calls) == len(prefix) * e * (arity if fresh else 1)
        monkeypatch.undo()


def test_a_new_functional_starts_with_an_empty_cache():
    rng = random.Random(17)
    f = random_functional(rng, 2, 2, True, degree=3)
    g = random_functional(rng, 2, 2, True, degree=3)
    for h in (f, g):
        lions_derivative(h, TaggedSeq((0, 1))).joint()
        assert h._joints
    assert (f + g)._joints == {}
    assert PolyFunctional.from_json(f.to_json())._joints == {}
    assert PolyFunctional(f.kernel)._joints == {}


THREADS = 4  # more than the cores of a small host, so that threads preempt each other


def _kept_sums(view):
    return {key: dict(sums) for key, sums in view._sums.items()}


def test_threads_sharing_a_fresh_functional_and_coupling_agree_with_a_serial_run():
    rng = random.Random(18)
    kernel = random_functional(rng, 2, 2, True, degree=4, d=2).kernel
    points = [random_point(rng, 2) for _ in range(6)]
    x0, y0 = random_point(rng, 2), random_point(rng, 2)
    g = Grading(F(1, 2), 1, F(9, 4))
    serial_f, serial_c = PolyFunctional(kernel), pair_coupling(points[:3], points[3:])
    serial = taylor2(serial_f, x0, y0, serial_c, g, box=(-4, 4)).to_json()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that the compiles interleave
    try:
        for _ in range(10):
            f, c = PolyFunctional(kernel), pair_coupling(points[:3], points[3:])
            start = threading.Barrier(THREADS)

            def expand(_, f=f, c=c, start=start):
                start.wait(timeout=60)
                return taylor2(f, x0, y0, c, g, box=(-4, 4)).to_json()

            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                results = list(pool.map(expand, range(THREADS), timeout=120))
            assert results == [serial] * THREADS
            # every write stored an equal value under its key; a view that
            # lost a race to be kept holds what its own thread asked for
            assert f._joints == serial_f._joints
            assert c._moments == serial_c._moments
            for view in ("base_view", "path_view", "target_view"):
                kept, want = (_kept_sums(getattr(d, view)()) for d in (c, serial_c))
                assert kept.keys() <= want.keys()
                for key, sums in kept.items():
                    assert sums.items() <= want[key].items()
    finally:
        sys.setswitchinterval(interval)


def test_joint_form_is_built_once_and_is_the_only_past_degree_shortcut(monkeypatch):
    rng = random.Random(14)
    f = random_functional(rng, 2, 2, True, degree=3)
    atoms = [random_point(rng, 2) for _ in range(3)]
    gaps = [random_point(rng, 2) for _ in range(3)]
    base = MomentView(atoms, dim=2, gaps=gaps)
    path = base.on_path()
    x0, vec = random_point(rng, 2), random_point(rng, 2)
    calls = {"deriv_poly": 0, "map_vars": 0}

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    deriv_poly = DerivTermSum.deriv_poly
    monkeypatch.setattr(DerivTermSum, "deriv_poly", counting("deriv_poly", deriv_poly))
    monkeypatch.setattr(MPoly, "map_vars", counting("map_vars", MPoly.map_vars))
    # past the kernel degree: zeros and 0.0, with nothing differentiated
    past = TaggedSeq((0, 1, 1, 2))
    assert len(past) > f.kernel.degree
    zeros = contract_derivative(lions_derivative(f, past), x0, base, [], [vec, None, 0, 1])
    assert zeros.shape == (1, 2) and not any(zeros.data)
    assert _certified_sup(f, past, normalize_box((-1, 1), 2)) == 0.0
    assert calls == {"deriv_poly": 0, "map_vars": 0}
    # the base and the path contraction of one derivative share one build
    ts = lions_derivative(f, TaggedSeq((0, 1)))
    contract_derivative(ts, x0, base, [], [vec, 0])
    built = calls["map_vars"]
    contract_derivative(ts, x0, path, [], [vec, 0])
    assert built > 0 and calls["map_vars"] == built


def test_evaluation_rejects_points_of_another_dimension():
    # f = int x0 u dmu with e = 1: x0 = (2, 5) used to be read as x0 = 2
    f = kernel_1d({(1, 1): F(1)}, arity=1, spatial=True)
    mu = EmpiricalMeasure([(F(1),), (F(3),)])
    assert f.eval((F(2),), mu) == [F(4)]
    wide = EmpiricalMeasure([(F(1), F(0)), (F(3), F(0))])
    d1 = lions_derivative(f, TaggedSeq((1,)))
    for call in (
        lambda: f.eval((F(2), F(5)), mu),
        lambda: f.eval((), mu),
        lambda: f.eval((F(2),), wide),
        lambda: eval_derivative(d1, (F(2),), mu, [(F(1), F(1))]),
    ):
        with pytest.raises(ValidationError, match="coordinates"):
            call()
    assert eval_derivative(d1, (F(2),), mu, [(F(1),)]).data == [F(2)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_vanishing_derivative_is_zero(data):
    # the rule implies no joint cells and an all-zero brute evaluation
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    e, arity, spatial = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)), data.draw(
        st.booleans()
    )
    f = random_functional(rng, e, arity, spatial, degree=data.draw(st.integers(0, 4)))
    values, running = [], 0
    for _ in range(data.draw(st.integers(0, 5))):
        values.append(data.draw(st.integers(0 if spatial else 1, running + 1)))
        running = max(running, values[-1])
    values = tuple(values)
    if not _vanishes(f.kernel, values):
        return
    ts = lions_derivative(f, TaggedSeq(values))
    assert ts.joint() == {} and values not in f._joints
    mu = EmpiricalMeasure([random_point(rng, e) for _ in range(2)])
    x0 = random_point(rng, e) if spatial else None
    free = [random_point(rng, e) for _ in range(ts.n_free)]
    out = eval_derivative_brute(ts, x0, mu, free)
    assert out.shape == (f.kernel.d,) + (e,) * len(values)
    assert all(v == 0 for v in out.data)
