"""An expansion costs its live orbits: the plan keeps each live orbit's call,
the terms of one orbit share their tensors, and a jet term builds its
sequence only when it is read."""

import random
from fractions import Fraction

from lionsjet import expansion, functional, tagged
from lionsjet.expansion import JetTerm, convergence_study, taylor1, taylor2, taylor_derivative
from lionsjet.functional import PolyFunctional, PolyKernel
from lionsjet.measures import pair_coupling
from lionsjet.partitions import PartitionSeq, enum_A
from lionsjet.poly import MPoly, Tensor
from lionsjet.tagged import ExtendedSeq, Grading, TaggedSeq, enum_graded, graded_families_ext

from test_functional import random_functional, random_point

F = Fraction


def _derivative_case():
    """A `taylor_derivative` call shaped like the benchmark's costliest op:
    e = 2, arity 2, degree 4, base (1,), grading (gamma, alpha, beta) =
    (3, 1, 1/2), N = 3. Returns (f, run)."""
    rng = random.Random("live-orbits")
    f = random_functional(rng, 2, 2, True, degree=4)
    xs, ys = [random_point(rng, 2) for _ in range(3)], [random_point(rng, 2) for _ in range(3)]
    c = pair_coupling(xs, ys)
    x0, y0, u, v = (random_point(rng, 2) for _ in range(4))
    a, g = TaggedSeq((1,)), Grading(1, F(1, 2), 3)
    return f, lambda: taylor_derivative(f, a, x0, y0, [u], [v], c, g)


def _counting(monkeypatch, counts, owner, name, key):
    """Count the calls of `owner.name` under `counts[key]`."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_warm_call_builds_per_live_orbit_not_per_member(monkeypatch):
    # the per-op object counts of the benchmark's costliest op: no sequence
    # object unless `seq` is read, one JetTerm per core member, Tensors by
    # live orbit and integrated term, and no derivative built on a warm call
    f, run = _derivative_case()
    run()  # plans the truncation
    plan = expansion._plan(f, Grading(1, F(1, 2), 3), TaggedSeq((1,)))
    integrated = {
        (k, moving, frozen) for _, moving, frozen, of, _ in plan.families for k in of if k is not None
    }
    assert len(plan.core) == 150 and 2 * len(plan.orbits) + len(integrated) + 4 < len(plan.core)
    counts = {}
    for owner, name, key in (
        (Tensor, "__init__", "Tensor"),
        (JetTerm, "__init__", "JetTerm"),
        (TaggedSeq, "__post_init__", "sequence"),
        (ExtendedSeq, "__post_init__", "sequence"),
        (expansion, "_built", "sequence"),
        (tagged, "_built", "sequence"),
        (expansion, "lions_derivative", "derivative"),
        (functional, "lions_derivative", "derivative"),
    ):
        _counting(monkeypatch, counts, owner, name, key)
    res = run()
    assert "sequence" not in counts and "derivative" not in counts
    assert counts["JetTerm"] == len(res.jet) == len(plan.core)
    assert counts["Tensor"] <= 2 * len(plan.orbits) + len(integrated) + 4
    seqs = [term.seq for term in res.jet]
    assert counts["sequence"] == len(seqs)


def test_a_jet_term_builds_the_sequence_of_its_expansion():
    rng = random.Random("jet-term-seq")
    f1 = random_functional(rng, 2, 2, False, degree=3)
    f2 = random_functional(rng, 2, 2, True, degree=3)
    xs, ys = [random_point(rng, 2) for _ in range(2)], [random_point(rng, 2) for _ in range(2)]
    c = pair_coupling(xs, ys)
    x0, y0, u, v = (random_point(rng, 2) for _ in range(4))
    g = Grading(1, F(1, 2), F(5, 2))
    a = TaggedSeq((1,))
    cases = [
        (taylor1(f1, c.left(), c, 3), [PartitionSeq(s.values) for n in range(4) for s in enum_A(n)]),
        (taylor2(f2, x0, y0, c, g), [TaggedSeq(s.values) for s in enum_graded(g).core]),
        (
            taylor_derivative(f2, a, x0, y0, [u], [v], c, g),
            [ExtendedSeq(TaggedSeq((1,)), s.values)
             for s in graded_families_ext(a, g.alpha, g.beta, g.gamma - g.beta)[0]],
        ),
    ]
    for res, want in cases:
        seqs = [term.seq for term in res.jet]
        assert seqs == want
        assert [type(s) for s in seqs] == [type(s) for s in want]
        assert [getattr(s, "base", None) for s in seqs] == [getattr(s, "base", None) for s in want]
        assert [term.seq_values() for term in res.jet] == [s.values for s in want]
        for term, seq in zip(res.jet, want):
            assert repr(term) == f"JetTerm(seq={seq!r}, value={term.value!r}, raw={term.raw!r})"
    # equality reads the sequence's class, values and base, and the tensors
    (r1, _), (r2, _), _ = cases
    t1, t2 = r1.jet[0], r2.jet[0]
    assert t1.seq_values() == t2.seq_values() == ()
    assert t1 != JetTerm((), t1.value, t1.raw, (TaggedSeq, None))
    assert t1 == JetTerm((), t1.value, t1.raw, (PartitionSeq, None))
    assert t2 != JetTerm((), t2.value, t2.value.scale(2), (TaggedSeq, None))


def test_a_zero_kernel_expands_and_converges_to_exact_zeros():
    rng = random.Random("zero-kernel")
    points = [random_point(rng, 1) for _ in range(3)]
    moved = [random_point(rng, 1) for _ in range(3)]
    c = pair_coupling(points, moved)
    f1 = PolyFunctional(PolyKernel(1, 1, 2, False, [MPoly(2)]))
    f2 = PolyFunctional(PolyKernel(1, 1, 2, True, [MPoly(3)]))
    g = Grading(1, F(1, 2), F(5, 2))
    for res in (taylor1(f1, c.left(), c, 2), taylor2(f2, points[0], moved[0], c, g)):
        tensors = [res.predicted, res.actual, res.remainder_exact, *res.remainder_terms.values()]
        tensors += [t for term in res.jet for t in (term.value, term.raw)]
        assert all(v == 0 and type(v) is Fraction for t in tensors for v in t.data)
        assert res.identity_gap() == 0 and res.remainder_norm() == 0
    rows, order = convergence_study(f1, points, moved, 2, [F(1, 2), F(1, 4)], box=(-4, 4))
    assert [(r["remainder"], r["bound"]) for r in rows] == [(0.0, 0.0), (0.0, 0.0)]
    assert order is None
    rows, order = convergence_study(
        f2, points, moved, g, [F(1, 2), F(1, 4)], x0=points[0], x0_direction=moved[0]
    )
    assert [r["remainder"] for r in rows] == [0.0, 0.0] and order is None
