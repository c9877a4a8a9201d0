"""Float data are read exactly and rounded once: every float-mode output entry
is the float nearest the output of the same call with each float replaced by
the Fraction it holds, and ±inf past the float range."""

import io
import json
import random
from fractions import Fraction

import pytest

from lionsjet.cli import main
from lionsjet.expansion import eval_Da, taylor1, taylor2, taylor_derivative
from lionsjet.functional import PolyFunctional, PolyKernel, eval_derivative, lions_derivative
from lionsjet.measures import EmpiricalMeasure, pair_coupling
from lionsjet.poly import MPoly, Tensor
from lionsjet.tagged import Grading, TaggedSeq

from test_functional import _read_exactly, _rounded, random_functional, random_point

F = Fraction


def _tensors(result):
    """Every tensor of an expansion result, in a fixed order."""
    if isinstance(result, Tensor):
        return [result]
    tensors = [t for term in result.jet for t in (term.value, term.raw)]
    tensors += [result.predicted, result.actual, result.remainder_exact]
    return tensors + [result.remainder_terms[key] for key in sorted(result.remainder_terms)]


def _assert_rounded_once(got, exact):
    """Each entry of `got` (float data) is the nearest float to the entry of
    `exact` (the same call on Fractions), every exact entry a Fraction."""
    pairs = list(zip(_tensors(got), _tensors(exact), strict=True))
    for g, x in pairs:
        assert all(type(v) is Fraction for v in x.data)
        assert g.shape == x.shape and g.data == [_rounded(v) for v in x.data]
    return len(pairs)


# u1^2 u2 at points near 1e300: the jet terms `1` and `1,2` and the
# prediction read nan when float data were computed in floats (inf - inf);
# read exactly, each entry is its exact value rounded, ±inf past the range
BIG_KERNEL = {"e": 1, "d": 1, "arity": 2, "spatial": False,
              "terms": [{"out": 0, "coeff": "1", "exps": [[2], [1]]}]}
BIG_X, BIG_Y = [(1e300,), (-2e300,)], [(1.5e300,), (-1e300,)]
BIG_OUTPUT = {
    "jet": {"": ["-inf"], "1": ["inf"], "1,1": ["-inf"], "1,2": ["-inf"]},
    "predicted": ["-inf"],
    "actual": ["inf"],
    "remainder_exact": ["inf"],
    "remainder_terms": {"star": {"1,1": ["inf"], "1,2": ["inf"]}},
}


def _named(result):
    """An expansion result's entries by name, as strict JSON prints them."""

    def entries(t):
        return [repr(v) for v in t.data]

    return {
        "jet": {",".join(map(str, term.seq_values())): entries(term.value) for term in result.jet},
        "predicted": entries(result.predicted),
        "actual": entries(result.actual),
        "remainder_exact": entries(result.remainder_exact),
        "remainder_terms": {"star": {",".join(map(str, values)): entries(t)
                                     for (_, values), t in sorted(result.remainder_terms.items())}},
    }


def test_float_data_past_the_float_range_round_to_inf(tmp_path):
    f = PolyFunctional.from_json(BIG_KERNEL)
    c, exact_c = pair_coupling(BIG_X, BIG_Y), pair_coupling(_read_exactly(BIG_X), _read_exactly(BIG_Y))
    got = taylor1(f, c.left(), c, 2)
    assert _assert_rounded_once(got, taylor1(f, exact_c.left(), exact_c, 2)) == 13
    assert _named(got) == BIG_OUTPUT
    paths = {name: tmp_path / f"{name}.csv" for name in ("x", "y")}
    for name, points in (("x", BIG_X), ("y", BIG_Y)):
        paths[name].write_text("".join(f"{p}\n" for (p,) in points))
    (tmp_path / "k.json").write_text(json.dumps(BIG_KERNEL))
    out = io.StringIO()
    code = main(["expand", "--kernel", str(tmp_path / "k.json"), "--points", str(paths["x"]),
                 "--points2", str(paths["y"]), "--order", "2", "--mode", "float"], out=out)
    assert code == 0

    def refuse(name):  # strict JSON: a non-finite float prints as a string
        raise AssertionError(f"bare {name} in the output")

    printed = json.loads(out.getvalue(), parse_constant=refuse)
    jet = printed.pop("jet")
    assert {key: printed[key] for key in BIG_OUTPUT if key != "jet"} == {
        key: value for key, value in BIG_OUTPUT.items() if key != "jet"
    }
    assert all(term["raw"] == term["value"] for term in jet.values())
    assert {values: term["value"] for values, term in jet.items()} == BIG_OUTPUT["jet"]


def _float_point(rng, e):
    return tuple(rng.uniform(-2, 2) for _ in range(e))


def _float_kernel(rng, e, arity, spatial, degree=4):
    """Kernel components as {exponents: coefficient} dicts: rational
    coefficients, or on every other draw floats."""
    nv = (arity + spatial) * e
    floats = rng.random() < 0.5
    comps = []
    for _ in range(2):
        terms = {}
        for _ in range(4):
            exps = [0] * nv
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(nv)] += 1
            terms[tuple(exps)] = rng.uniform(-3, 3) if floats else F(rng.randint(-3, 3), rng.randint(1, 2))
        comps.append(terms)
    return e, arity, spatial, comps


def _functional(kernel):
    e, arity, spatial, comps = kernel
    nv = (arity + spatial) * e
    return PolyFunctional(PolyKernel(e, 2, arity, spatial, [MPoly(nv, terms) for terms in comps]))


def _calls(rng):
    """Seeded calls on float data: (name, run), where run(read) makes the
    call on the data passed through `read`."""
    e, n = rng.choice([(1, 3), (2, 2)])
    k1, k2 = _float_kernel(rng, e, 2, False), _float_kernel(rng, e, 2, True)
    xs = [_float_point(rng, e) for _ in range(n)]
    ys = [_float_point(rng, e) for _ in range(n)]
    x0, y0, disp = (_float_point(rng, e) for _ in range(3))
    free = [(_float_point(rng, e), _float_point(rng, e)) for _ in range(2)]
    g = rng.choice([Grading(F(1, 2), 1, F(9, 4)), Grading(1, 1, F(5, 2)), Grading(1, F(1, 2), F(9, 4))])
    a = TaggedSeq(rng.choice([(0,), (1,), (0, 1), (1, 2)]))

    def coupling(read):
        return pair_coupling(read(xs), read(ys))

    def expand1(read, order):
        c = coupling(read)
        return taylor1(_functional(read(k1)), c.left(), c, order)

    calls = [(f"taylor1 order {order}", lambda read, order=order: expand1(read, order)) for order in (1, 2, 3)]
    calls += [
        ("taylor2", lambda read: taylor2(_functional(read(k2)), read(x0), read(y0), coupling(read), g)),
        ("taylor_derivative", lambda read: taylor_derivative(
            _functional(read(k2)), a, read(x0), read(y0),
            [read(u) for u, _ in free[: a.m]], [read(v) for _, v in free[: a.m]], coupling(read),
            Grading(g.alpha, g.beta, g.gamma + 2))),
        ("eval_Da", lambda read: eval_Da(
            _functional(read(k2)), TaggedSeq((0, 1, 1)), read(x0), read(disp), coupling(read))),
        ("eval_derivative", lambda read: eval_derivative(
            lions_derivative(_functional(read(k2)), a), read(x0), EmpiricalMeasure(read(xs)),
            [read(u) for u, _ in free[: a.m]])),
    ]
    return calls


def _as_given(value):
    return value


@pytest.mark.parametrize("seed", range(12))
def test_float_output_is_the_rounded_exact_output(seed):
    # each entry of a call on float data (points, coupling, kernel
    # coefficients) equals the nearest float to the entry of the same call
    # with every float replaced by the Fraction it holds
    for name, run in _calls(random.Random(f"rounded-once:{seed}")):
        got, exact = run(_as_given), run(_read_exactly)
        assert _assert_rounded_once(got, exact), name


@pytest.mark.parametrize("seed", range(4))
def test_every_entry_that_reads_a_float_target_is_rounded(seed):
    # a rational start and coupling with a float target y0: each entry whose
    # exact value moves with y0 read it, on the path x0 + xi * (y0 - x0) or
    # as the displacement, and is the float nearest its exact value; every
    # other entry is its exact value or the float nearest it
    rng = random.Random(f"float-target:{seed}")
    f = random_functional(rng, 1, 2, True, degree=4)
    c = pair_coupling([random_point(rng, 1) for _ in range(3)], [random_point(rng, 1) for _ in range(3)])
    x0, y0 = random_point(rng, 1), rng.uniform(-2, 2)
    g = Grading(F(1, 2), 1, F(9, 4))
    got, exact, moved = (_tensors(taylor2(f, x0, (y,), c, g)) for y in (y0, F(y0), F(y0) + F(1, 7)))
    checked = 0
    for t, x, m in zip(got, exact, moved, strict=True):
        for v, want, other in zip(t.data, x.data, m.data, strict=True):
            if want != other:
                assert type(v) is float and v == _rounded(want)
                checked += 1
            else:
                assert v in (want, _rounded(want))
    assert checked
