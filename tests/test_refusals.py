"""One-line refusals of malformed library calls, one case per check."""

from fractions import Fraction as F

import pytest

from lionsjet import cli
from lionsjet.errors import ValidationError
from lionsjet.expansion import eval_Da, taylor_derivative
from lionsjet.functional import PolyFunctional, PolyKernel, normalize_box
from lionsjet.measures import Coupling, EmpiricalMeasure, pair_coupling
from lionsjet.oracle import schwarz_check, verify_empirical_deriv, verify_expansion_match, verify_fullsystem
from lionsjet.poly import MPoly, parse_rational
from lionsjet.tagged import (
    ExtendedSeq,
    Grading,
    TaggedSeq,
    compose_tagged,
    equiv_class_tagged,
    graded_families_ext,
    iso_J,
    iso_J_inv,
)


def _kernel(arity, spatial):
    """The kernel sum of the coordinates of every slot, e = d = 1."""
    nvars = arity + spatial
    units = {tuple(int(i == j) for j in range(nvars)): F(1) for i in range(nvars)}
    return PolyKernel(1, 1, arity, spatial, [MPoly(nvars, units)])


F1, FS = PolyFunctional(_kernel(2, False)), PolyFunctional(_kernel(2, True))
C = pair_coupling([(F(0),), (F(1),)], [(F(1, 2),), (F(2),)])
X, Y = (F(1, 3),), (F(1, 2),)

REFUSED = {
    "eval_Da-missing-spatial": lambda: eval_Da(FS, (0,), X, None, C),
    "eval_Da-extra-spatial": lambda: eval_Da(F1, (1,), X, X, C),
    # grade of (0, 1) is 2, which leaves 1/2 of 5/2: below one step of 1
    "taylor_derivative-base-below-one-step": lambda: taylor_derivative(
        FS, (0, 1), X, Y, [X], [Y], C, Grading(1, 1, F(5, 2))
    ),
    "PolyKernel-components": lambda: PolyKernel(1, 2, 1, False, [MPoly(1, {})]),
    "PolyKernel-variables": lambda: PolyKernel(1, 1, 1, False, [MPoly(2, {})]),
    "PolyKernel-slot_offset": lambda: _kernel(1, False).slot_offset(0),
    "PolyKernel-add": lambda: _kernel(1, False).add(_kernel(2, False)),
    "normalize_box-intervals": lambda: normalize_box([(0, 1)], 2),
    "normalize_box-degenerate": lambda: normalize_box((1, 1), 1),
    "EmpiricalMeasure-empty": lambda: EmpiricalMeasure([]),
    "EmpiricalMeasure-mixed": lambda: EmpiricalMeasure([(F(1),), (F(1), F(2))]),
    "Coupling-empty": lambda: Coupling([]),
    "verify_empirical_deriv-idx": lambda: verify_empirical_deriv(F1, 2, (3,)),
    "verify_empirical_deriv-spatial": lambda: verify_empirical_deriv(FS, 2, (1,)),
    "verify_fullsystem-no-spatial": lambda: verify_fullsystem(F1, 2, 1, (1,)),
    "verify_fullsystem-i": lambda: verify_fullsystem(FS, 2, 3, (1,)),
    "verify_expansion_match-sizes": lambda: verify_expansion_match(F1, [X], [X, Y], 1),
    "schwarz_check-sigma": lambda: schwarz_check(FS, (1, 2), (0, 0), X, None, [X, Y], [X, Y]),
    "schwarz_check-dirs": lambda: schwarz_check(FS, (1, 2), (1, 0), X, None, [X, Y], [X]),
    "equiv_class_tagged-empty": lambda: equiv_class_tagged((), 1),
    "compose_tagged-length": lambda: compose_tagged((1, 2), TaggedSeq((1,))),
    "iso_J-base": lambda: iso_J(TaggedSeq((1,)), ExtendedSeq(TaggedSeq((0,)), (1,))),
    "iso_J_inv-prefix": lambda: iso_J_inv(TaggedSeq((1,)), TaggedSeq((0, 1))),
    "graded_families_ext-level": lambda: graded_families_ext((), 1, 1, F(1, 2)),
    "parse_rational-decimal-numerator": lambda: parse_rational("1.5/2"),
    "make_instance-identity": lambda: cli.make_instance("bogus", 1),
    "run_instance-identity": lambda: cli.run_instance(dict(cli.make_instance("empirical", 1), identity="bogus")),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_a_malformed_call_is_refused_in_one_line(name):
    with pytest.raises(ValidationError) as err:
        REFUSED[name]()
    assert str(err.value) and "\n" not in str(err.value)
