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
from lionsjet.expansion import convergence_study, taylor1, taylor2
from lionsjet import functional
from lionsjet.functional import (
    DerivTerm,
    DerivTermSum,
    MomentView,
    PolyFunctional,
    PolyKernel,
    _cell_poly,
    _certified_sup,
    _VECTOR,
    _Side,
    _vanishes,
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

from config_loop_reference import contract_once

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
                    len(_direct_partial(f, out, term, coords).terms)
                    for term in d.terms
                    for out, coords in d.joint()
                )
                merged += per_term > sum(len(p.terms) for p in _joint_polys(d).values())
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
        return contract_once(d, None, mu, free, [u1, u2]).tensor()[(0,)]

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


def test_contraction_through_cached_joint_equals_fresh_derivative():
    rng = random.Random(12)
    f = random_functional(rng, 2, 3, False, degree=4)
    atoms = [random_point(rng, 2) for _ in range(3)]
    view = MomentView(atoms, dim=2, gaps=[random_point(rng, 2) for _ in range(3)])
    for values in [(1, 2), (1,), (1, 1, 2), (1, 2, 3), (1, 2, 1)]:
        a = TaggedSeq(values)
        dirvecs = [v - 1 for v in values]
        lions_derivative(f, a).joint()  # fill the cache of f
        shared = contract_once(lions_derivative(f, a), None, view, [], dirvecs)
        fresh = contract_once(
            lions_derivative(PolyFunctional(f.kernel), a), None, view, [], dirvecs
        )
        assert shared.tensor() == fresh.tensor()


def _counting(monkeypatch, name):
    """Patch `functional.<name>` to record each call's arguments; returns
    the record."""
    calls, original = [], getattr(functional, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(functional, name, counted)
    return calls


def _joint_polys(ts):
    """The cells of `ts` converted back to polynomials over all its
    variables, in their order."""
    nvars = ts.n_groups * ts.kernel.e
    return {key: _cell_poly(cell, ts.kernel.denominator, nvars) for key, cell in ts.joint().items()}


def test_a_repeated_call_differentiates_nothing(monkeypatch):
    # the compiled cells stay on the functional, so the second of two
    # identical calls reads them and differentiates nothing
    rng = random.Random(13)
    f = random_functional(rng, 2, 2, False, degree=4)
    points = [random_point(rng, 2) for _ in range(4)]
    c = pair_coupling(points[:2], points[2:])
    calls = _counting(monkeypatch, "_diff")
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
    assert joints[3] is joints[0] and all(joints)
    monkeypatch.undo()
    assert len(derivs[0].terms) == 2


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
                poly = _direct_partial(ts.functional, comp, term, coords)
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
        got, want = _joint_polys(ts), _slot_assignment_joint(ts)
        assert list(got) == list(want)
        for cell, poly in got.items():
            if floats:
                assert poly.terms.keys() == want[cell].terms.keys()
                for exps, coeff in poly.terms.items():
                    assert math.isclose(coeff, want[cell].terms[exps], rel_tol=1e-12)
            else:
                assert poly == want[cell]


def _letterwise_polynomial_joint(f, values):
    """The cells of the derivative of `f` indexed by `values` as
    polynomials over all its variables, compiled from the kernel one letter
    at a time with `MPoly.diff` and `MPoly.map_vars`: a letter 0 or j <= m
    differentiates x0 or free group j; a fresh letter sums, slot by slot,
    the derivative in slot s with slot s moved into a new free group."""
    kernel, e = f.kernel, f.kernel.e
    joint = {(comp, ()): poly for comp, poly in enumerate(kernel.components) if poly}
    for n, letter in enumerate(values):
        m = max(values[:n], default=0)
        split = (kernel.has_spatial + m) * e  # the first integrated variable
        nvars = split + (kernel.arity + 1) * e
        if letter <= m:
            slots = [((kernel.has_spatial + letter - 1) * e if letter else 0, None)]
        else:
            shifted = list(range(split)) + list(range(split + e, nvars))
            moved = list(range(split, split + e))
            slots = [(lo, shifted[:lo] + moved + shifted[lo + e :]) for lo in range(split, nvars - e, e)]
        step = {}
        for (comp, coords), poly in joint.items():
            for c in range(e):
                cell = None
                for lo, mapping in slots:
                    part = poly.diff(lo + c)
                    if part:
                        part = part.map_vars(nvars, mapping) if mapping else part
                        cell = part if cell is None else cell + part
                if cell:
                    step[(comp, coords + (c,))] = cell
        joint = step
    return joint


def test_cells_keep_the_letter_by_letter_monomial_order():
    # on seeded kernels, rational and float, every cell converted back is
    # the letter-by-letter polynomial compile monomial by monomial, in its
    # order (which fixes the float summation order of a contraction and of
    # a certified sup), and the slot-assignment compile as a polynomial:
    # that compile sums its terms pin map by pin map, so its monomials may
    # come in another order
    for seed in range(12):
        rng = random.Random(seed)
        spatial, e, arity = seed % 2 == 0, 1 + seed % 2, 1 + seed % 3
        f = random_functional(rng, e, arity, spatial, degree=4, d=2)
        floats = seed % 3 == 0
        if floats:
            f = PolyFunctional(PolyKernel(e, 2, arity, spatial, [
                MPoly(p.nvars, {exps: rng.uniform(-3, 3) for exps in p.terms})
                for p in f.kernel.components
            ]))
        for a in [a for n in range(5) for a in (enum_A0 if spatial else enum_A)(n)]:
            if _vanishes(f.kernel, a.values):
                continue
            ts = lions_derivative(f, a)
            got, want = _joint_polys(ts), _letterwise_polynomial_joint(f, a.values)
            assert list(got) == list(want)
            for key, poly in got.items():
                assert list(poly.terms.items()) == list(want[key].terms.items())
            if not floats:
                assert got == _slot_assignment_joint(ts)


def _dense_functional(rng, e, arity, degree, n_terms):
    """A spatial functional whose one component has `n_terms` random
    monomials of degree `degree` - 2 to `degree`."""
    nv = (arity + 1) * e
    terms = {}
    for _ in range(n_terms):
        exps = [0] * nv
        for _ in range(rng.randint(degree - 2, degree)):
            exps[rng.randrange(nv)] += 1
        terms[tuple(exps)] = F(rng.randint(-3, 3), rng.randint(1, 4))
    return PolyFunctional(PolyKernel(e, 1, arity, True, [MPoly(nv, terms)]))


def test_a_kept_side_contracts_as_a_one_use_side_per_call():
    # eleven derivatives of the base (0, 1), in fourteen direction patterns,
    # through one kept side in mixed order and twice, equal a one-use side
    # per call byte for byte, for exact, float and path data and for exact
    # views with one float vector, where a contraction is exact iff its
    # letters are rational. The side keeps its sums by degree; (2, 2) and
    # (2, 3), (0, 2, 2) and (0, 2, 3) differ only in their free count,
    # (0, 2) and (1, 2) only in their letters, and each of the last three
    # only in its gap directions from its pattern with the last direction
    # left free
    rng = random.Random("kept-side")
    f = _dense_functional(rng, 2, 3, 6, 40)
    base, m0 = (0, 1), 1
    cases = []  # (representative, direction pattern, vector letters), as the engine makes them
    for rep in [(0,), (1,), (2,), (0, 1), (2, 2), (2, 3), (0, 2), (1, 2), (0, 2, 2), (0, 2, 3), (1, 2, 3)]:
        pattern = (None,) * len(base) + tuple(_VECTOR if v <= m0 else v - m0 - 1 for v in rep)
        cases.append((rep, pattern, tuple(v for v in rep if v <= m0)))
    cases += [(rep, pattern[:-1] + (None,), letters) for rep, pattern, letters in cases[-3:]]
    starts, disps = [random_point(rng, 2) for _ in range(2)], [random_point(rng, 2) for _ in range(2)]
    atoms, gaps = [random_point(rng, 2) for _ in range(3)], [random_point(rng, 2) for _ in range(3)]
    as_float = lambda points: [tuple(map(float, p)) for p in points]
    data = {
        "exact": ([MomentView([x], 2) for x in starts], MomentView(atoms, 2, gaps), disps),
        "float": (
            [MomentView([x], 2) for x in as_float(starts)],
            MomentView(as_float(atoms), 2, as_float(gaps)),
            as_float(disps),
        ),
        "path": (
            [MomentView([x], 2, [d]).on_path() for x, d in zip(starts, disps)],
            MomentView(atoms, 2, gaps).on_path(),
            disps,
        ),
        "float vector 1": (
            [MomentView([x], 2) for x in starts],
            MomentView(atoms, 2, gaps),
            [disps[0], *as_float(disps[1:])],
        ),
    }
    checked = 0
    for label, (given, mu, vectors) in data.items():
        kept = _Side(given, mu, vectors)
        order = cases * 2
        rng.shuffle(order)
        for rep, pattern, letters in order:
            ts = lions_derivative(f, TaggedSeq(base + rep))
            got = functional.contract_derivative(ts, kept, pattern, letters)
            want = functional.contract_derivative(ts, _Side(given, mu, vectors), pattern, letters)
            assert (got.shape, repr(got.data), got.den, got.exact) == (
                want.shape, repr(want.data), want.den, want.exact
            ), (label, rep)
            assert got.exact == (label != "float" and (label != "float vector 1" or 1 not in letters))
            checked += any(got.data)
    assert checked == len(data) * len(cases) * 2


def test_a_repeated_contraction_builds_no_layout(monkeypatch):
    # one layout per direction pattern and number of given points, kept on
    # the functional: the base and the path view share it, and a repeated
    # contraction, with other vectors too, interns and lays out nothing
    rng = random.Random(19)
    f = random_functional(rng, 2, 2, True, degree=4, d=2)
    atoms = [random_point(rng, 2) for _ in range(3)]
    base = MomentView(atoms, dim=2, gaps=[random_point(rng, 2) for _ in range(3)])
    x0, vec, other = (random_point(rng, 2) for _ in range(3))
    ts = lions_derivative(f, TaggedSeq((0, 1, 2)))
    patterns = [[vec, 0, None], [None, None, 1], [vec, 0, 1]]

    def contract(vector):
        return [
            contract_once(ts, x0, view, [], [vector if type(v) is tuple else v for v in dirs])
            for view in (base, base.on_path())
            for dirs in patterns
        ]

    first = [t.tensor() for t in contract(vec)]
    kept = dict(f._layouts)
    assert len(kept) == len(patterns)
    compiled, interned = _counting(monkeypatch, "_cell"), len(f._tuples)
    assert [t.tensor() for t in contract(vec)] == first
    contract(other)
    assert not compiled and len(f._tuples) == interned
    assert f._layouts.keys() == kept.keys()
    assert all(f._layouts[key] is layout for key, layout in kept.items())
    # a given free point makes another layout
    contract_once(ts, x0, base, [atoms[0]], [vec, None, 0])
    assert len(f._layouts) == len(patterns) + 1


class _Unsliced(tuple):
    """A tuple whose slicing fails the test."""

    def __getitem__(self, index):
        if isinstance(index, slice):
            pytest.fail("a tuple was sliced")
        return tuple.__getitem__(self, index)


def test_an_exact_contraction_on_a_kept_layout_makes_no_fraction_and_slices_nothing():
    rng = random.Random(20)
    kernel = random_functional(rng, 2, 2, True, degree=4, d=2).kernel
    atoms = [random_point(rng, 2) for _ in range(3)]
    base = MomentView(atoms, dim=2, gaps=[random_point(rng, 2) for _ in range(3)])
    x0 = MomentView([random_point(rng, 2)], 2)  # a one-atom view, as the engine passes
    vec = random_point(rng, 2)
    views, seq = (base, base.on_path()), TaggedSeq((0, 1, 2))
    fresh = lions_derivative(PolyFunctional(kernel), seq)
    want = [contract_once(fresh, x0, view, [], [vec, 0, None]).tensor() for view in views]
    f = PolyFunctional(kernel)
    ts = lions_derivative(f, seq)
    cells = ts.joint()
    for key, cell in cells.items():  # every tuple a contraction reads, unsliceable
        cols = [_Unsliced(_Unsliced(g) for g in col) for col in cell[:-1]]
        cells[key] = _Unsliced(cols + [_Unsliced(cell[-1])])
    for view in views:  # lay out and fill the sums
        contract_once(ts, x0, view, [], [vec, 0, None])
    made, new = [], Fraction.__new__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            made.append(frame)

    sys.setprofile(profile)
    try:
        got = [contract_once(ts, x0, view, [], [vec, 0, None]) for view in views]
    finally:
        sys.setprofile(None)
    assert not made and all(t.exact for t in got)
    assert [t.tensor() for t in got] == want


def test_a_float_coefficient_kernel_contracts_as_before():
    # the values, types and float bits that the polynomial cells gave, on
    # rational and float views, off and on the path
    f = PolyFunctional(PolyKernel(1, 1, 2, True, [MPoly(3, {
        (1, 1, 1): 0.1, (2, 0, 1): -2.5, (0, 2, 1): F(1, 3), (1, 2, 0): 0.75,
    })]))
    base = MomentView([(F(1, 3),), (F(-2, 5),), (F(3, 2),)], 1, [(F(1, 2),), (F(1, 7),), (F(-1, 3),)])
    floats = MomentView([(0.3,), (-0.7,)], 1, [(0.25,), (-0.5,)])
    got = []
    for view in (base, base.on_path(), floats, floats.on_path()):
        for values, dirs in [
            ((), []), ((0,), [(F(2, 3),)]), ((0, 1), [None, 0]), ((1, 1), [0, None]),
            ((1, 2), [0, 1]), ((0, 1, 2), [(F(1, 2),), 0, None]),
        ]:
            ts = lions_derivative(f, TaggedSeq(values))
            out = contract_once(ts, (F(1, 4),), view, [], dirs).tensor()
            got.append((values, [repr(v) for v in out.data]))
    assert got == _FLOAT_KERNEL_VALUES


_FLOAT_KERNEL_VALUES = [  # per view: base, its path, float atoms, their path
    ((), ['0.222460219478738']),
    ((0,), ['0.03725514403292177']),
    ((0, 1), ['-0.314347442680776']),
    ((1, 1), ['0.07155349794238683']),
    ((1, 2), ['-0.01737318384143781']),
    ((0, 1, 2), ['0.010317460317460317']),
    ((), ['XiPoly([0.222460219478738, -0.07502216833235352, 0.035411855071246605, Fraction(8749, 2000376)])']),
    ((0,), ['XiPoly([0.03725514403292177, -0.209564961787184, 0.06429621231208532])']),
    ((0, 1), ['XiPoly([-0.314347442680776, 0.19288863693625596])']),
    ((1, 1), ['XiPoly([0.07155349794238683, Fraction(169, 23814)])']),
    ((1, 2), ['XiPoly([-0.01737318384143781, Fraction(8749, 500094)])']),
    ((0, 1, 2), ['0.010317460317460317']),
    ((), ['0.06729166666666667']),
    ((0,), ['0.31433333333333324']),
    ((0, 1), ['0.48']),
    ((1, 1), ['-0.030208333333333337']),
    ((1, 2), ['-0.03463541666666667']),
    ((0, 1, 2), ['-0.0125']),
    ((), ['XiPoly([0.06729166666666667, 0.06005208333333333, 0.0015625000000000014, -0.006510416666666666])']),
    ((0,), ['XiPoly([0.31433333333333324, 0.31999999999999995, 0.07916666666666666])']),
    ((0, 1), ['XiPoly([0.48, 0.2375])']),
    ((1, 1), ['XiPoly([-0.030208333333333337, 0.010416666666666666])']),
    ((1, 2), ['XiPoly([-0.03463541666666667, -0.026041666666666664])']),
    ((0, 1, 2), ['-0.0125']),
]


def test_values_as_given_contract_as_before():
    # the repr of every raw entry of contractions of float, symbolic and
    # mixed data, with a rational kernel: float atoms with a float vector
    # and a gap direction, off and on the path; a float x0 over the path of a
    # rational coupling whose first coordinate's gaps sum to 0, so that a
    # sum has an exact-zero xi-coefficient and a zero keeps its type; and
    # symbolic `MPoly` atoms, off and on the path
    f = PolyFunctional(PolyKernel(2, 2, 2, True, [MPoly(6, {(1, 0, 1, 0, 0, 0): F(3, 2)}), MPoly(6, {
        (1, 0, 1, 0, 1, 0): F(1, 3), (0, 1, 2, 0, 0, 0): F(-5, 2), (0, 0, 1, 1, 0, 1): F(3, 4),
        (2, 0, 0, 0, 0, 1): F(7), (0, 0, 0, 0, 0, 0): F(-1, 6), (0, 0, 1, 0, 0, 0): F(2, 9),
    })]))
    floats = MomentView([(0.3, -1.5), (-0.7, 0.0), (1.25, 2.0)], 2, [(0.5, -0.125), (-0.25, 0.0), (0.75, -1.0)])
    rational = MomentView([(F(1, 3), F(1, 2)), (F(-2, 5), 0)], 2, [(1, F(1, 3)), (-1, F(-1, 2))])
    x, y = MPoly(2, {(1, 0): F(1)}), MPoly(2, {(0, 1): F(1, 2), (0, 0): F(-1)})
    symbolic = MomentView([(x, y), (y, F(2))], 2, [(F(1, 2), 0), (x, F(-1, 3))])
    got = []
    for label, x0, view in [
        ("float atoms", (0.5, -0.25), floats),
        ("float path", (0.5, -0.25), floats.on_path()),
        ("float x0, rational path", (0.5, -0.0), rational.on_path()),
        ("symbolic", (F(1, 4), 1), symbolic),
        ("symbolic path", (F(1, 4), 1), symbolic.on_path()),
    ]:
        for values, dirs in [
            ((), []), ((0,), [(0.5, -1.25)]), ((0,), [None]), ((1,), [0]), ((0, 1), [None, 0]),
            ((1, 1), [0, (0.5, -1.25)]), ((1, 2), [0, 1]), ((1, 1, 2), [(F(1, 2), 3), 0, None]),
        ]:
            out = contract_once(lions_derivative(f, TaggedSeq(values)), x0, view, [], dirs)
            got.append((label, values, [repr(v) for v in out.data]))
    assert got == _VALUES_AS_GIVEN


_VALUES_AS_GIVEN = [
    ('float atoms', (), ['0.2125', '0.7331134259259259']),
    ('float atoms', (0,), ['0.2125', '2.828483796296296']),
    ('float atoms', (0,), ['0.425', 'Fraction(0, 1)', '1.1934259259259257', '-1.7854166666666664']),
    ('float atoms', (1,), ['0.25', '-0.2392361111111112']),
    ('float atoms', (0, 1), ['0.5', 'Fraction(0, 1)', '-2.562037037037037', '-2.1041666666666665']),
    ('float atoms', (1, 1), ['Fraction(0, 1)', '0.1328125']),
    ('float atoms', (1, 2), ['Fraction(0, 1)', '0.13781828703703705']),
    ('float atoms', (1, 1, 2), ['Fraction(0, 1)', 'Fraction(0, 1)', 'Fraction(0, 1)', '0.609375']),
    ('float path', (), ['[0.2125, 0.25]', '[0.7331134259259259, -0.2392361111111112, 0.21734664351851846, 0.076171875]']),
    ('float path', (0,), ['[0.2125, 0.25]', '[2.828483796296296, 1.3491898148148145, 0.9299768518518516]']),
    ('float path', (0,), ['[0.425, 0.5]', 'Fraction(0, 1)', '[1.1934259259259257, -2.562037037037037, 0.037037037037037035]', '[-1.7854166666666664, -2.1041666666666665, -0.7291666666666665]']),
    ('float path', (1,), ['[0.25]', '[-0.2392361111111112, 0.4346932870370369, 0.228515625]']),
    ('float path', (0, 1), ['[0.5]', 'Fraction(0, 1)', '[-2.562037037037037, 0.07407407407407407]', '[-2.1041666666666665, -1.458333333333333]']),
    ('float path', (1, 1), ['Fraction(0, 1)', '[0.1328125, 0.169921875]']),
    ('float path', (1, 2), ['Fraction(0, 1)', '[0.13781828703703705, 0.3046875]']),
    ('float path', (1, 1, 2), ['Fraction(0, 1)', 'Fraction(0, 1)', 'Fraction(0, 1)', '[0.609375]']),
    ('float x0, rational path', (), ['[-0.025, 0.0]', '[0.27923611111111113, -0.07499999999999998, 0.05277777777777778, Fraction(-5, 192)]']),
    ('float x0, rational path', (0,), ['[-0.025, 0.0]', '[1.2987962962962962, 2.0, 3.125]']),
    ('float x0, rational path', (0,), ['[Fraction(-1, 20), Fraction(0, 1)]', 'Fraction(0, 1)', '[1.7503703703703704, -0.5833333333333333, 0]', '[Fraction(-61, 180), Fraction(-11, 6), Fraction(-5, 2)]']),
    ('float x0, rational path', (1,), ['[0.0]', '[-0.07499999999999998, 0.10555555555555556, Fraction(-5, 64)]']),
    ('float x0, rational path', (0, 1), ['[Fraction(0, 1)]', 'Fraction(0, 1)', '[-0.5833333333333333, Fraction(0, 1)]', '[Fraction(-11, 6), Fraction(-5, 1)]']),
    ('float x0, rational path', (1, 1), ['Fraction(0, 1)', '[-0.0078125, 0.0026041666666666665]']),
    ('float x0, rational path', (1, 2), ['Fraction(0, 1)', '[-0.050694444444444445, Fraction(-5, 48)]']),
    ('float x0, rational path', (1, 1, 2), ['Fraction(0, 1)', 'Fraction(0, 1)', 'Fraction(0, 1)', '[Fraction(-1, 32)]']),
    ('symbolic', (), ['MPoly(-3/16 + 3/32*x1 + 3/16*x0)', 'MPoly(-479/288 + 803/576*x1 + -41/192*x1^2 + -17/144*x0 + 1/48*x0*x1 + 3/64*x0*x1^2 + -59/48*x0^2)']),
    ('symbolic', (0,), ['MPoly(-0.375 + 0.1875*x1 + 0.375*x0)', 'MPoly(2.4791666666666665 + -1.1666666666666667*x1 + 0.4010416666666667*x1^2 + -0.08333333333333333*x0 + 0.041666666666666664*x0*x1 + 1.6041666666666667*x0^2)']),
    ('symbolic', (0,), ['MPoly(-3/4 + 3/8*x1 + 3/4*x0)', 'Fraction(0, 1)', 'MPoly(11/6 + 19/24*x1 + 1/48*x1^2 + -1/6*x0 + 1/12*x0*x1 + 1/12*x0^2)', 'MPoly(-5/4 + 5/4*x1 + -5/16*x1^2 + -5/4*x0^2)']),
    ('symbolic', (1,), ['MPoly(3/32 + 3/16*x0)', 'MPoly(1/18 + -5/96*x1 + 1/128*x1^2 + 16/9*x0 + -103/96*x0*x1 + 1/24*x0^2)']),
    ('symbolic', (0, 1), ['MPoly(3/8 + 3/4*x0)', 'Fraction(0, 1)', 'MPoly(-2/3 + 1/24*x1 + -1/12*x0 + 1/12*x0*x1 + 1/6*x0^2)', 'MPoly(5/4*x0 + -5/4*x0*x1)']),
    ('symbolic', (1, 1), ['Fraction(0, 1)', 'MPoly(-0.7734375 + -0.07421875*x1 + -1.484375*x0 + -0.1171875*x0*x1)']),
    ('symbolic', (1, 2), ['Fraction(0, 1)', 'MPoly(1/32 + -1/96*x1 + -5/24*x0 + 1/24*x0^2)']),
    ('symbolic', (1, 1, 2), ['Fraction(0, 1)', 'Fraction(0, 1)', 'Fraction(0, 1)', 'MPoly(1/2 + 9/8*x0)']),
    ('symbolic path', (), ['[MPoly(-3/16 + 3/32*x1 + 3/16*x0), MPoly(3/32 + 3/16*x0)]', '[MPoly(-479/288 + 803/576*x1 + -41/192*x1^2 + -17/144*x0 + 1/48*x0*x1 + 3/64*x0*x1^2 + -59/48*x0^2), MPoly(1/18 + -5/96*x1 + 1/128*x1^2 + 16/9*x0 + -103/96*x0*x1 + 1/24*x0^2), MPoly(-19/64 + -1/192*x1 + -1/6*x0 + -1/32*x0*x1 + -59/48*x0^2), MPoly(1/48*x0)]']),
    ('symbolic path', (0,), ['[MPoly(-0.375 + 0.1875*x1 + 0.375*x0), MPoly(0.1875 + 0.375*x0)]', '[MPoly(2.4791666666666665 + -1.1666666666666667*x1 + 0.4010416666666667*x1^2 + -0.08333333333333333*x0 + 0.041666666666666664*x0*x1 + 1.6041666666666667*x0^2), MPoly(-0.3333333333333333 + 0.020833333333333332*x1 + -1.6041666666666667*x0 + 1.6041666666666667*x0*x1 + 0.08333333333333333*x0^2), MPoly(0.4010416666666667 + 0.041666666666666664*x0 + 1.6041666666666667*x0^2)]']),
    ('symbolic path', (0,), ['[MPoly(-3/4 + 3/8*x1 + 3/4*x0), MPoly(3/8 + 3/4*x0)]', 'Fraction(0, 1)', '[MPoly(11/6 + 19/24*x1 + 1/48*x1^2 + -1/6*x0 + 1/12*x0*x1 + 1/12*x0^2), MPoly(-2/3 + 1/24*x1 + -1/12*x0 + 1/12*x0*x1 + 1/6*x0^2), MPoly(1/48 + 1/12*x0 + 1/12*x0^2)]', '[MPoly(-5/4 + 5/4*x1 + -5/16*x1^2 + -5/4*x0^2), MPoly(5/4*x0 + -5/4*x0*x1), MPoly(-5/16 + -5/4*x0^2)]']),
    ('symbolic path', (1,), ['[MPoly(3/32 + 3/16*x0)]', '[MPoly(1/18 + -5/96*x1 + 1/128*x1^2 + 16/9*x0 + -103/96*x0*x1 + 1/24*x0^2), MPoly(-19/32 + -1/96*x1 + -1/3*x0 + -1/16*x0*x1 + -59/24*x0^2), MPoly(1/16*x0)]']),
    ('symbolic path', (0, 1), ['[MPoly(3/8 + 3/4*x0)]', 'Fraction(0, 1)', '[MPoly(-2/3 + 1/24*x1 + -1/12*x0 + 1/12*x0*x1 + 1/6*x0^2), MPoly(1/24 + 1/6*x0 + 1/6*x0^2)]', '[MPoly(5/4*x0 + -5/4*x0*x1), MPoly(-5/8 + -5/2*x0^2)]']),
    ('symbolic path', (1, 1), ['Fraction(0, 1)', '[MPoly(-0.7734375 + -0.07421875*x1 + -1.484375*x0 + -0.1171875*x0*x1), MPoly(0.049479166666666664 + 0.078125*x0)]']),
    ('symbolic path', (1, 2), ['Fraction(0, 1)', '[MPoly(1/32 + -1/96*x1 + -5/24*x0 + 1/24*x0^2), MPoly(1/12*x0)]']),
    ('symbolic path', (1, 1, 2), ['Fraction(0, 1)', 'Fraction(0, 1)', 'Fraction(0, 1)', '[MPoly(1/2 + 9/8*x0)]']),
]


def test_a_compile_from_a_cached_prefix_makes_one_diff_per_cell_and_coordinate(monkeypatch):
    # a tagged letter (0 or j <= m) differentiates each prefix cell once per
    # coordinate, and a fresh letter once per coordinate and slot
    rng = random.Random(16)
    for e, arity, spatial in [(1, 2, True), (2, 3, True), (2, 2, False), (2, 3, False)]:
        f = random_functional(rng, e, arity, spatial, degree=4, d=2)
        calls = _counting(monkeypatch, "_diff")
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
            for view in ("base_view", "path_view", "right"):
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
    diffs, cells = _counting(monkeypatch, "_diff"), _counting(monkeypatch, "_cell")
    poly_diffs = []
    monkeypatch.setattr(MPoly, "diff", lambda poly, index: poly_diffs.append(index))
    # past the kernel degree: zeros and 0.0, with nothing differentiated,
    # laid out or kept
    past = TaggedSeq((0, 1, 1, 2))
    assert len(past) > f.kernel.degree
    zeros = contract_once(lions_derivative(f, past), x0, base, [], [vec, None, 0, 1])
    assert zeros.shape == (1, 2) and not any(zeros.data)
    assert _certified_sup(f, past, normalize_box((-1, 1), 2)) == 0.0
    assert not diffs and not cells and not poly_diffs
    assert f._joints == f._layouts == f._tuples == {}
    # the base and the path contraction of one derivative share one build:
    # its cells and its one layout for that direction pattern
    ts = lions_derivative(f, TaggedSeq((0, 1)))
    contract_once(ts, x0, base, [], [vec, 0])
    built, layouts = len(diffs), dict(f._layouts)
    contract_once(ts, x0, path, [], [vec, 0])
    assert built > 0 and len(diffs) == built and not poly_diffs
    assert len(layouts) == 1 and f._layouts == layouts
    # expansions, their bounds, a norm report and a study differentiate no
    # polynomial either: every derivative is read from its cells
    c, f1 = pair_coupling(atoms, gaps), random_functional(rng, 2, 2, False, degree=3)
    taylor2(f, x0, random_point(rng, 2), c, Grading(F(1, 2), 1, F(5, 2)), box=(-4, 4))
    norms_on_box(ts, (-4, 4))
    taylor1(f1, c.left(), c, 2, box=(-4, 4))
    convergence_study(f1, atoms, gaps, 2, [F(1, 2), F(1, 4)], box=(-4, 4))
    assert not poly_diffs


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
