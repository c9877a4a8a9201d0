"""Partition-sequence combinatorics and exact Taylor calculus for polynomial
functionals of empirical measures.

The package has two independent computational routes to every identity it
implements: symbolic iterated derivatives of measure functionals (indexed by
partition sequences) and classical calculus on the lifted finite-dimensional
polynomial. The test suite and the `verify` command check that the two agree
exactly.
"""

from .errors import (
    CompositionError,
    EnumerationLimitError,
    UnsupportedError,
    ValidationError,
)
from .expansion import (
    ExpansionResult,
    JetTerm,
    convergence_study,
    eval_Da,
    remainder_bound1,
    remainder_bound2,
    taylor1,
    taylor2,
    taylor_derivative,
)
from .functional import (
    DerivTerm,
    DerivTermSum,
    NormEstimates,
    PolyFunctional,
    PolyKernel,
    eval_derivative,
    lions_derivative,
    norms_on_box,
)
from .measures import (
    Coupling,
    EmpiricalMeasure,
    coupling_moment,
    interpolate,
    pair_coupling,
)
from .oracle import (
    classical_grad,
    lift,
    regrouping_counts,
    schwarz_check,
    verify_empirical_deriv,
    verify_expansion_match,
    verify_fullsystem,
)
from .partitions import (
    PartitionSeq,
    SetPartition,
    compose,
    enum_A,
    equiv_class,
    from_partition,
    refines,
    to_partition,
)
from .poly import MPoly, Tensor, XiPoly
from .tagged import (
    ExtendedSeq,
    Grading,
    RemainderFamilies,
    TaggedSeq,
    enum_A0,
    enum_A_a,
    enum_Akn0,
    enum_graded,
    equiv_class_tagged,
    families_of,
    grade,
    grade_ext,
    iso_J,
    iso_J_inv,
    refines_tagged,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
