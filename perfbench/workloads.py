"""Seeded inputs, operations and output checks for the benchmark workloads.

Each workload is a closed loop: one client in one thread runs one operation
("op") at a time, each a call into the public API of `lionsjet.expansion`,
`lionsjet.oracle` or `lionsjet.cli`. Ops come in cycles. A cycle is one pass
over the workload's op mix on one set of inputs; the inputs of every cycle
are generated from the workload seed before the first op runs, and a run
walks through that pool of cycles, starting again at the first cycle when it
reaches the end. Op number `i` of a run is therefore a pure function of
(workload, seed, i), which is what `run.py --replay` relies on.

Every op's output is checked. Ops whose outputs are exact rationals also
expose a canonical text of those outputs; for the default seed the first 32
hex digits of its SHA-256 are compared with the committed `reference.json`.
"""

from __future__ import annotations

import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from lionsjet import cli, expansion, oracle
from lionsjet.functional import PolyFunctional, PolyKernel
from lionsjet.measures import pair_coupling
from lionsjet.poly import MPoly
from lionsjet.tagged import Grading, TaggedSeq

DEFAULT_SEED = 1
BOX = (-4, 4)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Op:
    label: str  # the op's configuration; the same label recurs in every cycle
    run: object  # () -> output
    check: object  # output -> None, or a bound/remainder ratio; raises CheckFailed
    exact: object = None  # output -> canonical text of its exact outputs


@dataclass
class Workload:
    name: str
    pool: list  # list of cycles, each a list of Op
    sample_cycles: int  # cycles whose ops give the op_p50/op_tail sample
    trace_cycles: int  # cycles whose ops give the per-layer totals

    @property
    def cycle_len(self):
        return len(self.pool[0])

    def op(self, index):
        cycle, pos = divmod(index, self.cycle_len)
        return self.pool[cycle % len(self.pool)][pos]

    def pool_size(self):
        return self.cycle_len * len(self.pool)

    def pool_index(self, index):
        return index % self.pool_size()


# ---------------------------------------------------------------------------
# input generation


def _kernel(shape_rng, coef_rng, e, arity, spatial, degree, nterms):
    """Scalar polynomial kernel: `nterms` distinct monomials of degree at most
    `degree` drawn from `shape_rng`, small rational coefficients from
    `coef_rng`."""
    nvars = (arity + spatial) * e
    shapes = {}
    while len(shapes) < nterms:
        exps = [0] * nvars
        for _ in range(shape_rng.randint(0, degree)):
            exps[shape_rng.randrange(nvars)] += 1
        shapes[tuple(exps)] = None
    terms = {
        exps: Fraction(coef_rng.choice((-3, -2, -1, 1, 2, 3)), coef_rng.randint(1, 2))
        for exps in shapes
    }
    return PolyFunctional(PolyKernel(e, 1, arity, spatial, [MPoly(nvars, terms)]))


def _point(rng, e):
    """A point of {-2, -1, 1, 2}^e. On this lattice exact arithmetic costs
    about the same whichever point is drawn, and no gap is zero."""
    return tuple(Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(e))


def _moved(rng, p):
    return tuple(a + b for a, b in zip(p, _point(rng, len(p))))


def _coupling(rng, n, e):
    """n atom pairs; starts in [-2, 2]^e, targets in [-4, 4]^e."""
    x = [_point(rng, e) for _ in range(n)]
    return pair_coupling(x, [_moved(rng, p) for p in x])


# ---------------------------------------------------------------------------
# checks and canonical exact outputs


def _tensor_text(t):
    return ",".join(str(v) for v in t.data)


def _expansion_text(res):
    """Jet values, remainder terms and the target value, in a fixed order."""
    parts = [
        "jet " + ",".join(map(str, term.seq_values())) + " " + _tensor_text(term.value)
        for term in res.jet
    ]
    parts += [
        f"rem {fam} {','.join(map(str, values))} {_tensor_text(t)}"
        for (fam, values), t in sorted(res.remainder_terms.items())
    ]
    parts.append("actual " + _tensor_text(res.actual))
    return "\n".join(parts)


def _check_exact(res):
    gap = res.identity_gap()
    if gap != 0:
        raise CheckFailed(f"identity gap {gap}")


def _store_and_check(store, key):
    def check(res):
        store[key] = res
        _check_exact(res)

    return check


def _bound_check(store, key):
    """The bound must dominate the exact remainder norm of the expansion the
    previous op computed, with no slack. Returns bound / norm."""

    def check(bound):
        res = store.pop(key, None)
        if res is None:
            raise CheckFailed("the expansion op before this bound failed")
        norm = res.remainder_norm()
        if not bound >= norm:
            raise CheckFailed(f"bound {bound!r} below remainder norm {norm!r}")
        return bound / norm if norm > 0 else None

    return check


# ---------------------------------------------------------------------------
# jet-large-n

JET_POOL = 4
JET_T1 = dict(e=2, arity=3, spatial=False, degree=5, nterms=8)
JET_T2 = dict(e=1, arity=2, spatial=True, degree=4, nterms=8)
JET_GRADING = Grading(1, Fraction(1, 2), Fraction(9, 4))  # (gamma, alpha, beta) = (9/4, 1, 1/2)
# (op, order or None, N, inputs per cycle). A run has room for only two
# cycles of per-op samples, so the mix repeats the order-2 N=16 jet: both the
# median op and the tail op (the 11th slowest of 24) then fall inside that
# one size, and the per-op figures do not jump between sizes.
JET_MIX = [
    ("taylor1", 2, 4, 1),
    ("taylor1", 2, 8, 1),
    ("taylor1", 2, 16, 4),
    ("taylor1", 2, 32, 1),
    ("taylor1", 3, 4, 1),
    ("taylor1", 3, 8, 1),
    ("taylor2", None, 4, 1),
    ("taylor2", None, 8, 1),
    ("taylor2", None, 16, 1),
]


def jet_large_n(seed):
    """Large-N jets without a box: no bound, oracle or enumeration work.

    The two kernel shapes (which monomials appear) are fixed, so that every
    seed and cycle costs about the same; coefficients and points come from
    the seed."""
    rng = random.Random(f"jet-large-n:{seed}")
    pool = []
    for _ in range(JET_POOL):
        f1 = _kernel(random.Random("jet-large-n:taylor1-shape"), rng, **JET_T1)
        f2 = _kernel(random.Random("jet-large-n:taylor2-shape"), rng, **JET_T2)
        cycle = []
        for name, order, n, count in JET_MIX:
            for _ in range(count):
                if name == "taylor1":
                    c = _coupling(rng, n, JET_T1["e"])
                    run = lambda f=f1, c=c, order=order: expansion.taylor1(f, c.left(), c, order)
                    label = f"taylor1_o{order}_n{n}"
                else:
                    e = JET_T2["e"]
                    c = _coupling(rng, n, e)
                    x0 = _point(rng, e)
                    y0 = _moved(rng, x0)
                    run = lambda f=f2, c=c, x0=x0, y0=y0: expansion.taylor2(f, x0, y0, c, JET_GRADING)
                    label = f"taylor2_n{n}"
                cycle.append(Op(label, run, _check_exact, _expansion_text))
        pool.append(cycle)
    return Workload("jet-large-n", pool, sample_cycles=2, trace_cycles=1)


# ---------------------------------------------------------------------------
# certified-small-n

CERT_POOL = 32
CERT_N = 3
CERT_KERNEL = dict(e=2, arity=2, degree=4, nterms=8)
CERT_GRADINGS = [
    ("a<b", Grading(Fraction(1, 2), 1, Fraction(9, 4))),
    ("a=b", Grading(1, 1, Fraction(5, 2))),
    ("a>b", Grading(1, Fraction(1, 2), Fraction(9, 4))),
]
CERT_DERIVATIVES = [
    ((0,), Grading(Fraction(1, 2), 1, 3)),
    ((1,), Grading(1, Fraction(1, 2), 3)),
    ((1, 2), Grading(1, 1, Fraction(7, 2))),
]
CERT_H = [Fraction(1, 2**k) for k in range(1, 5)]


def _convergence_check(rows):
    if len(rows) != len(CERT_H):
        raise CheckFailed(f"{len(rows)} rows for {len(CERT_H)} scales")
    for row in rows:
        if not row["bound"] >= row["remainder"]:
            raise CheckFailed(f"bound {row['bound']!r} below remainder {row['remainder']!r} at h={row['h']}")


def certified_small_n(seed):
    """N <= 3 expansions on the box, each followed by its certified bound.

    Cycle j of every seed has the same two kernel shapes; coefficients and
    points come from the seed."""
    rng = random.Random(f"certified-small-n:{seed}")
    wl = Workload("certified-small-n", [], sample_cycles=12, trace_cycles=6)
    e = CERT_KERNEL["e"]
    for j in range(CERT_POOL):
        f1 = _kernel(random.Random(f"certified-small-n:shape1:{j}"), rng, spatial=False, **CERT_KERNEL)
        f2 = _kernel(random.Random(f"certified-small-n:shape2:{j}"), rng, spatial=True, **CERT_KERNEL)
        c = _coupling(rng, CERT_N, e)
        x0 = _point(rng, e)
        y0 = _moved(rng, x0)
        store = {}
        cycle = []
        for n in (1, 2, 3):
            cycle.append(
                Op(
                    f"taylor1_o{n}",
                    lambda f=f1, c=c, n=n: expansion.taylor1(f, c.left(), c, n),
                    _store_and_check(store, n),
                    _expansion_text,
                )
            )
            cycle.append(
                Op(
                    f"remainder_bound1_o{n}",
                    lambda f=f1, c=c, n=n: expansion.remainder_bound1(f, c, n, BOX),
                    _bound_check(store, n),
                )
            )
        for name, g in CERT_GRADINGS:
            cycle.append(
                Op(
                    f"taylor2_{name}",
                    lambda f=f2, c=c, g=g, x0=x0, y0=y0: expansion.taylor2(f, x0, y0, c, g),
                    _store_and_check(store, name),
                    _expansion_text,
                )
            )
            cycle.append(
                Op(
                    f"remainder_bound2_{name}",
                    lambda f=f2, c=c, g=g, x0=x0, y0=y0: expansion.remainder_bound2(f, x0, y0, c, g, BOX),
                    _bound_check(store, name),
                )
            )
        for values, g in CERT_DERIVATIVES:
            a = TaggedSeq(values)
            free_x = [_point(rng, e) for _ in range(a.m)]
            free_y = [_moved(rng, p) for p in free_x]
            cycle.append(
                Op(
                    "taylor_derivative_" + "".join(map(str, values)),
                    lambda f=f2, a=a, c=c, g=g, x0=x0, y0=y0, fx=free_x, fy=free_y: (
                        expansion.taylor_derivative(f, a, x0, y0, fx, fy, c, g)
                    ),
                    _check_exact,
                    _expansion_text,
                )
            )
        points = [x for x, _ in c.pairs]
        directions = [_point(rng, e) for _ in points]
        for n in (1, 2, 3):
            cycle.append(
                Op(
                    f"convergence_study_o{n}",
                    lambda f=f1, p=points, d=directions, n=n: oracle.convergence_study(
                        f, p, d, n, CERT_H, box=BOX
                    )[0],
                    _convergence_check,
                )
            )
        wl.pool.append(cycle)
    return wl


# ---------------------------------------------------------------------------
# oracle-verify

VERIFY_POOL = 200
VERIFY_BASE = 1000
VERIFY_IDENTITIES = ("empirical", "fullsystem", "expansion", "schwarz")
VERIFY_MODES = ("rational", "float")


def _report_check(rep):
    if not rep.passed:
        raise CheckFailed(f"{rep.identity} trial failed: max_abs_difference={rep.max_abs_difference!r}")


def _report_text(rep):
    return json.dumps(rep.to_json(), sort_keys=True)


def oracle_verify(seed):
    """`verify` trials, one per op: every identity in both modes per cycle.

    The trials are the fixed batches `verify IDENTITY --seed 1000 --trials 200
    --mode MODE` would run; the seed draws the order in which each batch is
    walked. The slowest trials (large rational `expansion` instances) have a
    long, thin tail: with trial seeds drawn from the workload seed, the 11th
    slowest of 1,600 ranged from 14 to 25 ms between workload seeds, which
    is input luck rather than a property of the code."""
    rng = random.Random(f"oracle-verify:{seed}")
    orders = {
        (mode, identity): rng.sample(range(VERIFY_POOL), VERIFY_POOL)
        for mode in VERIFY_MODES
        for identity in VERIFY_IDENTITIES
    }
    pool = []
    for k in range(VERIFY_POOL):
        cycle = []
        for (mode, identity), order in orders.items():
            trial = VERIFY_BASE + order[k]
            cycle.append(
                Op(
                    f"verify_{identity}_{mode}",
                    lambda i=identity, t=trial, m=mode: cli.run_instance(cli.make_instance(i, t, m)),
                    _report_check,
                    _report_text if mode == "rational" else None,
                )
            )
        pool.append(cycle)
    return Workload("oracle-verify", pool, sample_cycles=VERIFY_POOL, trace_cycles=25)


# ---------------------------------------------------------------------------
# enumerate

ENUM_POOL = 8
ENUM_KN = (2, 5)  # (zeros k, length n) for `enum n --kn k`
ENUM_GRADING = (Fraction(9, 2), Fraction(1), Fraction(1, 2))  # (gamma, alpha, beta)
ENUM_GRADED_COUNTS = {"core": 36810, "star": 1243, "plus": 5807, "cross": 28117}


def bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _cli(argv):
    def run():
        out = io.StringIO()
        code = cli.main(list(argv), out=out)
        return code, out.getvalue()

    return run


def _lines_check(expected, length):
    def check(output):
        code, text = output
        lines = text.splitlines()
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        if len(lines) != expected or len(set(lines)) != expected:
            raise CheckFailed(f"{len(lines)} lines ({len(set(lines))} distinct), expected {expected}")
        if any(line.count(",") != length - 1 for line in lines):
            raise CheckFailed(f"a sequence of length other than {length}")

    return check


def _json_check(expected, length):
    def check(output):
        code, text = output
        seqs = json.loads(text)
        if code != 0 or len(seqs) != expected or len({tuple(a) for a in seqs}) != expected:
            raise CheckFailed(f"exit code {code}, {len(seqs)} sequences, expected {expected} distinct")
        if any(len(a) != length for a in seqs):
            raise CheckFailed(f"a sequence of length other than {length}")

    return check


def _graded_check(output):
    code, text = output
    counts = Counter(line.split("\t", 1)[0] for line in text.splitlines())
    if code != 0 or counts != ENUM_GRADED_COUNTS:
        raise CheckFailed(f"exit code {code}, family sizes {dict(counts)}")


def _families(values, gamma, alpha, beta):
    """Family membership of one tagged sequence, from the definitions of the
    graded core and the plus/star/cross boundary families."""
    lo, hi = min(alpha, beta), max(alpha, beta)
    grades = [Fraction(0)]
    for v in values:
        grades.append(grades[-1] + (alpha if v == 0 else beta))
    total = grades[-1]
    if total > gamma:
        return total, []
    in_plus_band = lambda g: gamma - hi < g <= gamma - lo
    plus_prefix = any(in_plus_band(g) for g in grades[:-1])
    families = ["core"]
    if in_plus_band(total) and not plus_prefix:
        families.append("plus")
    if gamma - lo < total <= gamma:
        families.append("cross" if plus_prefix else "star")
    return total, families


def _grade_check(values):
    total, families = _families(values, *ENUM_GRADING)

    def check(output):
        code, text = output
        got = json.loads(text)
        want = {"grade": str(total), "families": families}
        if code != 0 or got != want:
            raise CheckFailed(f"exit code {code}, got {got}, expected {want}")

    return check


def _tagged_seq(rng, length):
    values, top = [], 0
    for _ in range(length):
        v = rng.randint(0, top + 1)
        values.append(v)
        top = max(top, v)
    return tuple(values)


def enumerate_cli(seed):
    """`lionsjet` CLI enumeration commands with output captured in memory.

    Besides the text listings, `enum 9` and `enum 8 --tagged` also run with
    JSON output; the extra cheap ops keep the median op among the cheap
    commands rather than on the edge between the cheap and the costly ones.
    The seed picks the sequence that `grade --families` classifies."""
    rng = random.Random(f"enumerate:{seed}")
    grading = [str(v) for v in ENUM_GRADING]
    k, n = ENUM_KN
    pool = []
    for _ in range(ENUM_POOL):
        seq = _tagged_seq(rng, rng.randint(3, 6))
        text = lambda o: o[1]
        cycle = [
            Op("enum_9", _cli(["enum", "9"]), _lines_check(bell(9), 9), text),
            Op("enum_9_json", _cli(["enum", "9", "--output", "json"]), _json_check(bell(9), 9), text),
            Op("enum_10", _cli(["enum", "10"]), _lines_check(bell(10), 10), text),
            Op("enum_8_tagged", _cli(["enum", "8", "--tagged"]), _lines_check(bell(9), 8), text),
            Op(
                "enum_8_tagged_json",
                _cli(["enum", "8", "--tagged", "--output", "json"]),
                _json_check(bell(9), 8),
                text,
            ),
            Op(
                "enum_kn",
                _cli(["enum", str(n), "--kn", str(k)]),
                _lines_check(math.comb(k + n, k) * bell(n), k + n),
                text,
            ),
            Op("enum_graded", _cli(["enum", "0", "--graded", *grading]), _graded_check, text),
            Op(
                "grade_families",
                _cli(["grade", "--seq", ",".join(map(str, seq)), "--grading", *grading, "--families"]),
                _grade_check(seq),
                text,
            ),
        ]
        pool.append(cycle)
    return Workload("enumerate", pool, sample_cycles=4, trace_cycles=2)


WORKLOADS = {
    "jet-large-n": jet_large_n,
    "certified-small-n": certified_small_n,
    "oracle-verify": oracle_verify,
    "enumerate": enumerate_cli,
}
