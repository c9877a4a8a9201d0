"""The benchmark tracer wraps functions by dotted name; every name it lists
must still resolve in the package, or `perfbench/run.py --trace 1` breaks."""

import ast
import importlib
import importlib.util
import math
import random
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _listed_names():
    """The TRACED and COUNTED tuples of the tracer, read from its source."""
    names = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("TRACED", "COUNTED"):
                names[target.id] = ast.literal_eval(node.value)
    return names


def test_every_traced_name_resolves():
    names = _listed_names()
    assert names["TRACED"] and names["COUNTED"]
    for dotted in names["TRACED"] + names["COUNTED"]:
        module, *attrs = dotted.split(".")
        obj = importlib.import_module(f"lionsjet.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"{dotted} does not resolve"
            obj = getattr(obj, attr)
        assert callable(obj), f"{dotted} is not callable"


def _load_tracing():
    """perfbench/tracing.py as a module, loaded by its path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_runs_over_expansions_and_a_study():
    # `--trace 1` wraps the traced functions, counts the counted methods and
    # reads the terms of every derivative it sees built
    from fractions import Fraction

    from lionsjet.expansion import convergence_study, taylor2
    from lionsjet.measures import pair_coupling
    from lionsjet.tagged import Grading

    from test_functional import random_functional

    rng = random.Random("tracer")
    f2 = random_functional(rng, 2, 2, True, degree=3)
    f1 = random_functional(rng, 2, 2, False, degree=3)
    points = [tuple(Fraction(rng.randint(-4, 4), 3) for _ in range(2)) for _ in range(4)]
    g = Grading(1, Fraction(1, 2), Fraction(5, 2))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for point in (tuple, lambda p: tuple(map(float, p))):
            xs, ys = [point(p) for p in points[:2]], [point(p) for p in points[2:]]
            taylor2(f2, xs[0], ys[0], pair_coupling(xs, ys), g, box=(-4, 4))
        convergence_study(f1, points[:2], points[2:], 2, [Fraction(1, 2), 0.25], box=(-4, 4))
    finally:
        tracer.remove()
    summary = tracer.summary({tracer.op: 1.0})
    assert summary["functional.contract_derivative.calls"] > 0
    # the terms counted are arity!/(arity - m)! per derivative seen built
    seen = tracer.keys["functional.lions_derivative", tracer.op]
    expected = sum(
        math.perm(tracer.keep[fid].kernel.arity, max(values, default=0)) for fid, values in seen
    )
    assert summary["functional.lions_derivative.terms"] == expected > 0


def test_every_contraction_passes_the_traced_name():
    # under the tracer, one taylor2 with a box and one study count as many
    # `functional.contract_derivative` calls as they make contractions: one
    # per distinct live (orbit, sides) and one at the targets, and one per
    # live orbit of the study's core and one of f on its path
    from fractions import Fraction

    from lionsjet.expansion import _family_sides, convergence_study, taylor2
    from lionsjet.functional import _vanishes
    from lionsjet.measures import pair_coupling
    from lionsjet.tagged import Grading, _graded_value_families, _orbit_key

    from test_functional import random_functional

    rng = random.Random("tracer-contractions")
    f2 = random_functional(rng, 2, 2, True, degree=4)
    f1 = random_functional(rng, 2, 2, False, degree=4)
    points = [tuple(Fraction(rng.randint(-4, 4), 3) for _ in range(2)) for _ in range(4)]
    g = Grading(1, Fraction(1, 2), Fraction(5, 2))
    core, *families = _graded_value_families(g.alpha, g.beta, g.gamma, 0, 0)
    requests = [(values, (False, False)) for values in core]
    for (_, moving, frozen), members in zip(_family_sides(g.alpha, g.beta), families):
        requests += [(values, sides) for values in members for sides in (moving, frozen)]
    live = {(_orbit_key(v, 0), sides) for v, sides in requests if not _vanishes(f2.kernel, v)}
    study_core = _graded_value_families(1, 1, 2, 0, 1)[0]
    study = {_orbit_key(v, 0) for v in study_core if not _vanishes(f1.kernel, v)}
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        taylor2(f2, points[0], points[1], pair_coupling(points[:2], points[2:]), g, box=(-4, 4))
        convergence_study(f1, points[:2], points[2:], 2, [Fraction(1, 2), 0.25], box=(-4, 4))
    finally:
        tracer.remove()
    calls = tracer.summary({tracer.op: 1.0})["functional.contract_derivative.calls"]
    assert calls == len(live) + 1 + len(study) + 1 > 2
