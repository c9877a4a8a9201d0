"""Independent ground truth: classical calculus on lifted polynomials.

Substituting the empirical measure of N points into a polynomial functional
gives an ordinary polynomial on (R^e)^N. Its iterated partial derivatives and
its classical Taylor expansion are computed here directly, with no reference
to the derivative recursion in `functional` or the jet machinery in
`expansion`; agreement between the two routes is the package's master check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError
from .expansion import convergence_study  # re-exported under its old public name
from .expansion import remainder_bound1, remainder_bound2, taylor1, taylor2
from .functional import MomentView, eval_derivative, lions_derivative
from .measures import pair_coupling
from .partitions import enum_A, equiv_class
from .poly import MPoly, Tensor
from .tagged import (
    Grading,
    TaggedSeq,
    compose_tagged,
    enum_A0,
    equiv_class_tagged,
    refines_tagged,
)


class LiftedPoly:
    """A functional evaluated on the empirical measure of N particles.

    Scalar variables are particle-major, one block of e coordinates per
    particle (1-based).
    """

    __slots__ = ("n_particles", "dim", "components")

    def __init__(self, n_particles, dim, components):
        self.n_particles = n_particles
        self.dim = dim
        self.components = tuple(components)

    @property
    def nvars(self):
        return self.n_particles * self.dim

    def var(self, particle, coord):
        """Scalar variable index of a particle coordinate (particle numbers
        are 1-based)."""
        if not 1 <= particle <= self.n_particles:
            raise ValidationError(f"particle {particle} outside 1..{self.n_particles}")
        return (particle - 1) * self.dim + coord

    def eval(self, points):
        flat = [c for p in points for c in p]
        return [comp.eval(flat) for comp in self.components]


def lift(f, n_particles, i=None):
    """Exact polynomial expansion of f on N-point empirical measures.

    A spatial functional needs a distinguished index i (1-based): its
    spatial argument is substituted by particle i, matching the
    per-particle component of the lifted field.
    """
    kernel = f.kernel
    e = kernel.e
    if kernel.has_spatial and i is None:
        raise ValidationError("a spatial functional lifts at a distinguished particle i")
    layout = LiftedPoly(n_particles, e, ())  # variable numbering only
    weight = Fraction(1, n_particles**kernel.arity)
    comps = [MPoly.zero(layout.nvars) for _ in range(kernel.d)]
    for assignment in itertools.product(
        range(1, n_particles + 1), repeat=kernel.arity
    ):
        mapping = [0] * kernel.nvars
        if kernel.has_spatial:
            off = kernel.slot_offset(0)
            for c in range(e):
                mapping[off + c] = layout.var(i, c)
        for slot in range(1, kernel.arity + 1):
            off = kernel.slot_offset(slot)
            for c in range(e):
                mapping[off + c] = layout.var(assignment[slot - 1], c)
        for out, comp in enumerate(kernel.components):
            comps[out] = comps[out] + comp.map_vars(layout.nvars, mapping) * weight
    return LiftedPoly(n_particles, e, comps)


def classical_grad(lifted, idx):
    """Iterated partial derivatives of the lift along a particle multi-index.

    Returns a tensor of polynomials with shape (d, e, ..., e): one e-axis per
    entry of `idx`, axis p differentiating particle idx[p].
    """
    e, d = lifted.dim, len(lifted.components)
    n = len(idx)
    out = Tensor((d,) + (e,) * n)
    for comp in range(d):
        for coords in itertools.product(range(e), repeat=n):
            poly = lifted.components[comp]
            for particle, c in zip(idx, coords):
                poly = poly.diff(lifted.var(particle, c))
            out[(comp,) + coords] = poly
    return out


def classical_grad_at(lifted, idx, points):
    """`classical_grad` evaluated at a particle configuration."""
    flat = [c for p in points for c in p]
    return classical_grad(lifted, idx).map(lambda p: p.eval(flat))


@dataclass
class Report:
    """Outcome of one identity check."""

    identity: str
    max_abs_difference: float
    passed: bool
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def to_json(self):
        out = {
            "identity": self.identity,
            "instance_seed": self.seed,
            "max_abs_difference": self.max_abs_difference,
            "pass": self.passed,
        }
        if self.details:
            out["details"] = self.details
        return out


def _sym_atoms(lifted):
    """Particle coordinates as polynomial variables, for symbolic checks."""
    e = lifted.dim
    return [
        tuple(
            MPoly.var(lifted.nvars, lifted.var(j, c)) for c in range(e)
        )
        for j in range(1, lifted.n_particles + 1)
    ]


def _max_abs(tensor):
    vals = []
    for v in tensor.data:
        if isinstance(v, MPoly):
            vals.append(float(v.max_abs_coeff()))
        else:
            vals.append(abs(float(v)))
    return max(vals, default=0.0)


def _particle_gradient_check(f, n_particles, i, idx, points, seed):
    """The classical gradient of the lift along `idx` against the sum over
    sequences finer than the class of `idx` of N^{-m} times the derivative at
    the composed free variables. With a distinguished particle i the lift is
    its per-particle component: entries of `idx` equal to i are tagged and
    the sum runs over tagged sequences; with i None it runs over partition
    sequences."""
    n = len(idx)
    if any(j < 1 or j > n_particles for j in idx):
        raise ValidationError("multi-index entries outside 1..N")
    e = f.kernel.e
    if points is not None and (
        len(points) != n_particles or any(len(p) != e for p in points)
    ):
        raise ValidationError(
            f"need {n_particles} points of e = {e} coordinates, as the kernel has"
        )
    lifted = lift(f, n_particles, i=i)
    symbolic = points is None
    atoms = _sym_atoms(lifted) if symbolic else [tuple(p) for p in points]
    if symbolic:
        lhs = classical_grad(lifted, idx)
    else:
        lhs = classical_grad_at(lifted, idx, atoms)
    mu = MomentView(atoms, dim=lifted.dim)
    x0 = None if i is None else atoms[i - 1]
    cls = equiv_class_tagged(idx, tag=i) if n else None
    e, d = lifted.dim, len(lifted.components)
    rhs = Tensor((d,) + (e,) * n)
    for a in enum_A(n) if i is None else enum_A0(n):
        if n and not refines_tagged(a, cls):
            continue
        labels = compose_tagged(idx, a)
        free = [atoms[lab - 1] for lab in labels]
        value = eval_derivative(lions_derivative(f, a), x0, mu, free)
        rhs = rhs + value.scale(Fraction(1, n_particles**a.m))
    diff = _max_abs(lhs - rhs)
    details = {"idx": list(idx)}
    if i is not None:
        details["i"] = i
    details.update(N=n_particles, symbolic=symbolic)
    return Report(
        identity="empirical-derivative" if i is None else "fullsystem-derivative",
        max_abs_difference=diff,
        passed=diff == 0,
        seed=seed,
        details=details,
    )


def verify_empirical_deriv(f, n_particles, idx, points=None, seed=None):
    """Check the particle-gradient identity for a measure-only functional:
    the classical gradient of the lift along `idx` equals the sum over
    partition sequences finer than the class of `idx` of N^{-m} times the
    corresponding derivative at the composed free variables.

    With `points` the check runs at that configuration; otherwise both sides
    are compared as polynomials in the particle coordinates (stronger).
    """
    if f.has_spatial:
        raise ValidationError("use verify_fullsystem for spatial functionals")
    return _particle_gradient_check(f, n_particles, None, idx, points, seed)


def verify_fullsystem(f, n_particles, i, idx, points=None, seed=None):
    """Same identity for the per-particle component of a spatial functional:
    entries of `idx` equal to the distinguished particle i are tagged, and
    the sum runs over tagged sequences finer than the tagged class of `idx`.
    """
    if not f.has_spatial:
        raise ValidationError("use verify_empirical_deriv without a spatial slot")
    if i < 1 or i > n_particles:
        raise ValidationError("distinguished index outside 1..N")
    return _particle_gradient_check(f, n_particles, i, idx, points, seed)


def _classical_jet_term(lifted, order, x, gaps):
    """Classical Taylor term of the lift at order `order`: the sum over
    particle multi-indices of the gradient contracted with the gaps."""
    d = len(lifted.components)
    total = [Fraction(0)] * d
    particles = range(1, lifted.n_particles + 1)
    e = lifted.dim
    for idx in itertools.product(particles, repeat=order):
        grad = classical_grad_at(lifted, idx, x)
        for coords in itertools.product(range(e), repeat=order):
            weight = Fraction(1)
            for particle, c in zip(idx, coords):
                g = gaps[particle - 1][c]
                if not g:
                    weight = Fraction(0)
                    break
                weight = weight * g
            if not weight:
                continue
            for comp in range(d):
                total[comp] += grad[(comp,) + coords] * weight
    scale = Fraction(1, math.factorial(order))
    return [scale * t for t in total]


def _float_norm(values):
    """The Euclidean norm of `values` as floats (`math.hypot`), inf when an
    entry or the norm lies past the float range."""
    try:
        return math.hypot(*map(float, values))
    except OverflowError:
        return math.inf


def verify_expansion_match(f, x, y, n, box=None, seed=None):
    """Compare the classical Taylor expansion of the lift with the jet
    expansion over partition sequences, order by order, on the diagonal
    coupling of two particle configurations.

    For a spatial functional the per-particle components are expanded with
    the unit grading truncated at n + 1/2, whose jet runs over tagged
    sequences of length at most n. Also checks the remainder bound when a
    box is supplied.
    """
    if len(x) != len(y):
        raise ValidationError("configurations of different size")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"an order is an integer of at least 1, not {n!r}")
    n_particles = len(x)
    c = pair_coupling(x, y)
    gaps = c.gaps()
    details = {"N": n_particles, "order": n}
    worst = 0.0
    checks = []

    def tensors_equal(u, v):
        return max(float(abs(a - b)) for a, b in zip(u, v)) if u else 0.0

    zero = [Fraction(0)] * f.kernel.d
    if f.has_spatial:
        g = Grading(1, 1, Fraction(2 * n + 1, 2))
        particles = range(1, n_particles + 1)
    else:
        particles = [None]
    for i in particles:
        lifted = lift(f, n_particles, i=i)
        if i is None:
            result = taylor1(f, c.left(), c, n)
        else:
            result = taylor2(f, x[i - 1], y[i - 1], c, g)
        jet_by_order = {}
        for term in result.jet:
            acc = jet_by_order.setdefault(len(term.seq_values()), list(zero))
            for comp in range(f.kernel.d):
                acc[comp] += term.value[(comp,)]
        for order in range(n + 1):
            classical = _classical_jet_term(lifted, order, x, gaps)
            worst = max(worst, tensors_equal(classical, jet_by_order.get(order, zero)))
        actual = lifted.eval(y)
        rem_classical = [
            a - sum(jet_by_order.get(k, zero)[comp] for k in range(n + 1))
            for comp, a in enumerate(actual)
        ]
        rem_lions = [result.remainder_exact[(comp,)] for comp in range(f.kernel.d)]
        worst = max(worst, tensors_equal(rem_classical, rem_lions))
        if box is not None:
            if i is None:
                bound = remainder_bound1(f, c, n, box)
            else:
                bound = remainder_bound2(f, x[i - 1], y[i - 1], c, g, box)
            rem_norm = _float_norm(rem_lions)
            ok = bound >= rem_norm * (1 - 1e-9) - 1e-12
            checks.append(("bound" if i is None else f"bound[{i}]", ok))
            if i is None:
                details["bound"] = bound
                details["remainder_norm"] = rem_norm
    passed = worst == 0 and all(ok for _, ok in checks)
    return Report(
        identity="expansion-match",
        max_abs_difference=worst,
        passed=passed,
        seed=seed,
        details=details,
    )


def schwarz_check(f, a, sigma, x0, mu, free, dirs, seed=None):
    """Permutation symmetry of mixed derivatives: contracting the derivative
    indexed by `a` with directions v_1..v_n equals contracting the derivative
    indexed by the canonical form of the permuted sequence with the permuted
    directions, at the correspondingly reindexed free variables.

    `sigma` is a 0-based permutation tuple; position p of the permuted
    sequence carries letter a[sigma[p]] and direction dirs[sigma[p]].
    """
    a = a if isinstance(a, TaggedSeq) else TaggedSeq(tuple(a))
    n = len(a)
    if sorted(sigma) != list(range(n)):
        raise ValidationError("sigma is not a permutation of the positions")
    if len(dirs) != n:
        raise ValidationError("one direction per derivative required")
    e, d = f.kernel.e, f.kernel.d
    if any(len(v) != e for v in dirs):
        raise ValidationError(f"directions must have e = {e} coordinates, as the kernel has")
    permuted = tuple(a.values[sigma[p]] for p in range(n))
    a2 = equiv_class_tagged(permuted, tag=0) if n else a
    labels = compose_tagged(permuted, a2) if n else ()
    free2 = [free[lab - 1] for lab in labels]

    t1 = eval_derivative(lions_derivative(f, a), x0, mu, free)
    t2 = eval_derivative(lions_derivative(f, a2), x0, mu, free2)

    worst = Fraction(0)
    # entrywise: T1[c] == T2[c o sigma]
    for comp in range(d):
        for coords in itertools.product(range(e), repeat=n):
            c2 = tuple(coords[sigma[p]] for p in range(n))
            diff = abs(t1[(comp,) + coords] - t2[(comp,) + c2])
            worst = max(worst, diff)
    # contracted against the supplied directions
    lhs = [Fraction(0)] * d
    rhs = [Fraction(0)] * d
    for comp in range(d):
        for coords in itertools.product(range(e), repeat=n):
            w1 = Fraction(1)
            for p in range(n):
                w1 *= dirs[p][coords[p]]
            lhs[comp] += t1[(comp,) + coords] * w1
            w2 = Fraction(1)
            for p in range(n):
                w2 *= dirs[sigma[p]][coords[p]]
            rhs[comp] += t2[(comp,) + coords] * w2
        worst = max(worst, abs(lhs[comp] - rhs[comp]))
    return Report(
        identity="schwarz",
        max_abs_difference=float(worst),
        passed=worst == 0,
        seed=seed,
        details={"a": list(a.values), "sigma": list(sigma)},
    )


def regrouping_counts(n_particles, n):
    """Count multi-indices in {1..N}^n by their partition class.

    The count for class `a` must be N (N-1) ... (N - m[a] + 1): the proof of
    the jet regrouping rests on exactly this enumeration.
    """
    counts = {}
    for idx in itertools.product(range(1, n_particles + 1), repeat=n):
        a = equiv_class(idx)
        counts[a.values] = counts.get(a.values, 0) + 1
    return counts


def fd_gradient(f, points, particle, coord, step=1e-4):
    """Central finite difference of the lift: float sanity tier only."""
    lifted = lift(f, len(points))
    base = [list(map(float, p)) for p in points]
    up = [row[:] for row in base]
    down = [row[:] for row in base]
    up[particle - 1][coord] += step
    down[particle - 1][coord] -= step
    hi = lifted.eval(up)
    lo = lifted.eval(down)
    return [(h - l) / (2 * step) for h, l in zip(hi, lo)]
