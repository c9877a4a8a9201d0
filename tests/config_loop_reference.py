"""Test-only reference for the jet and remainder operators.

Every jet term and remainder integrand is an m-fold average over coupling
configurations idx in [N]^m. This module computes it literally: one
contraction per configuration, with averaged coupling variable j at atom
idx[j] and its gap vector as the direction. Cost grows as N^m; the library
computes the same averages from mixed coupling moments, and the tests check
the two agree exactly.
"""

import itertools
import math
from fractions import Fraction

from lionsjet.functional import _VECTOR, MomentView, _Side, contract_derivative, lions_derivative
from lionsjet.partitions import enum_A
from lionsjet.poly import XiPoly
from lionsjet.tagged import TaggedSeq, as_tagged, graded_families_ext


def path_point(x, y):
    """Point whose coordinates follow the straight path x + xi * (y - x)."""
    return tuple(XiPoly.affine(a, b - a) for a, b in zip(x, y))


def contract_once(ts, x0, mu, free, direction_vectors):
    """`contract_derivative` on a one-use side: x0 (spatial kernels only)
    and the `free` points given, the view `mu`, and one entry per direction,
    a vector, None to leave the direction free, or the int j of averaged
    variable j's gap; each vector is its own letter."""
    vectors = [v for v in direction_vectors if v is not None and not isinstance(v, int)]
    pattern = tuple(v if v is None or isinstance(v, int) else _VECTOR for v in direction_vectors)
    side = _Side(([x0] if ts.kernel.has_spatial else []) + list(free), mu, vectors)
    return contract_derivative(ts, side, pattern, tuple(range(len(vectors))))


def config_average(ts, x0, view, fixed, directions, n_avg, gaps):
    """(1/N^n_avg) times the sum over idx in [N]^n_avg of the contraction
    with free variables fixed + (atoms of `view` at idx), an int direction j
    standing for the gap vector gaps[idx[j]]."""
    n = view.n_atoms
    total = None
    for idx in itertools.product(range(n), repeat=n_avg):
        free = list(fixed) + [view.atoms[i] for i in idx]
        dirvecs = [gaps[idx[v]] if isinstance(v, int) else v for v in directions]
        term = contract_once(ts, x0, view, free, dirvecs).tensor()
        total = term if total is None else total + term
    return total.scale(Fraction(1, n**n_avg))


def integrated(acc, r):
    """Entry by entry the integral over [0, 1] of acc(xi) (1 - xi)^r / r!
    for a `Tensor` of constants and path polynomials, by the Beta integral
    of `XiPoly.integrate_weighted`; the value at xi = 1 when r < 0."""

    def entry(v):
        v = v if isinstance(v, XiPoly) else XiPoly.const(v)
        if r < 0:
            return v.eval(1)
        return v.integrate_weighted(r) * Fraction(1, math.factorial(r))

    return acc.map(entry)


def _views(c):
    base = MomentView([x for x, _ in c.pairs], dim=c.dim)
    path = MomentView([path_point(x, y) for x, y in c.pairs], dim=c.dim)
    return base, path


def taylor1_reference(f, c, n):
    """taylor1's jet raw values by sequence and its remainder terms."""
    gaps = c.gaps()
    base, path = _views(c)

    def average(a, view):
        ts = lions_derivative(f, a)
        dirs = [v - 1 for v in a.values]
        return config_average(ts, None, view, [], dirs, a.m, gaps)

    jet = {a.values: average(a, base) for k in range(n + 1) for a in enum_A(k)}
    remainder = {}
    for a in enum_A(n):
        acc = average(a, path) - average(a, base)
        remainder[("star", a.values)] = integrated(acc, n - 1)
    return jet, remainder


def graded_reference(f, base, tagged_pairs, c, alpha, beta, eta):
    """The graded engine's jet raw values by extension and its remainder
    terms, for the derivative indexed by `base` with tagged slots
    `tagged_pairs` (slot 0 spatial)."""
    base = as_tagged(base)
    m0, n0 = base.m, len(base)
    gaps = c.gaps()
    views = dict(zip((False, True), _views(c)))
    tagged = {
        False: [tuple(x) for x, _ in tagged_pairs],
        True: [path_point(x, y) for x, y in tagged_pairs],
    }
    disp = [tuple(b - a for a, b in zip(x, y)) for x, y in tagged_pairs]

    def average(values, tagged_at_xi, measure_at_xi):
        ts = lions_derivative(f, TaggedSeq(base.values + values))
        pts = tagged[tagged_at_xi]
        dirs = [None] * n0 + [disp[v] if v <= m0 else v - m0 - 1 for v in values]
        n_avg = max(0, max(values, default=0) - m0)
        return config_average(
            ts, pts[0], views[measure_at_xi], pts[1:], dirs, n_avg, gaps
        )

    core, star, plus, cross = graded_families_ext(base, alpha, beta, eta)
    jet = {ext.values: average(ext.values, False, False) for ext in core}

    star_sides = ((True, True), (False, False))
    if beta > alpha:
        plus_sides = ((True, True), (True, False))
        cross_sides = ((True, False), (False, False))
    else:
        plus_sides = ((True, True), (False, True))
        cross_sides = ((False, True), (False, False))
    remainder = {}
    for family, members, (moving, frozen) in (
        ("star", star, star_sides),
        ("plus", plus, plus_sides),
        ("cross", cross, cross_sides),
    ):
        if alpha == beta and family != "star":
            continue
        for ext in members:
            values = ext.values
            acc = average(values, *moving) - average(values, *frozen)
            remainder[(family, values)] = integrated(acc, len(values) - 1)
    return jet, remainder
