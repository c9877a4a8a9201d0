"""Tagged and partition sequences, gradings, and the remainder boundary
families.

A tagged sequence of length n interleaves 0 entries (derivatives in the
spatial variable) with a partition sequence (derivatives in the measure
variable): every entry satisfies

    a_k in {0, 1, ..., 1 + max(0, a_1, ..., a_{k-1})}.

Equivalently it is a shuffle of a block of zeros with a partition sequence.
There are Bell(n+1) tagged sequences of length n (they encode partitions of
{0, 1, ..., n} where 0 marks the spatial block, possibly empty). A partition
sequence (`partitions.PartitionSeq`) is the zero-free tagged sequence: its
spatial block is empty and its letters start at 1.

One level-by-level search enumerates partition, tagged and extended
sequences; they differ only in the first admissible letter and in the running
maximum the search starts from. It and the graded family search grow each
prefix by one entry of a letter table, so a prefix is its value tuple or, for
`enum` to write, its text. What a search built is valid by construction and
is not checked again; the public constructors always check.

The grading G[a] = alpha * #zeros + beta * #positives truncates mixed Taylor
jets at a level gamma; the three boundary families (star, plus, cross) list
the sequences whose integral terms make the truncation exact. The family
search scales alpha, beta and gamma by the lcm of their denominators once
and compares grades as integers, which is exact; `families_of` classifies one
sequence from its prefix grades without enumerating anything.

Extended sequences generalize the tagging: over a base sequence `a`, entries
in {0, ..., m[a]} act as tagged letters (they re-derive the base's arguments)
while entries above m[a] grow a fresh partition sequence. Concatenation onto
the base is a bijection with the tagged sequences extending `a` as a prefix.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import CompositionError, EnumerationLimitError, ValidationError
from .poly import format_rational, parse_rational

# Maximum sequence length enumerations accept. Bell numbers grow fast enough
# that this is a memory guard, not a tuning knob: Bell(12) is about 4.2
# million sequences and Bell(13) already 27.6 million.
ENUM_CAP = 12


def _length(n):
    """An enumeration length as an int; one that is not an integer is a
    ValidationError."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValidationError(f"length must be an integer, got {n!r}") from None


def check_length(n):
    """Reject a length that is not an integer, a negative one or one above
    the cap."""
    if _length(n) < 0:
        raise ValidationError(f"negative length {n}")
    if n > ENUM_CAP:
        raise EnumerationLimitError(f"length {n} exceeds enumeration cap {ENUM_CAP}")


@dataclass(frozen=True)
class TaggedSeq:
    """A tagged sequence; `values` is a tuple of non-negative integers.

    Letters must be integers (anything with `__index__`, `bool` included,
    stored as plain ints); a float, string or `Fraction` letter is rejected,
    never truncated.
    """

    values: tuple
    _first = 0  # smallest admissible letter; 1 when there is no spatial block

    def __post_init__(self):
        values = _letters(self.values)
        object.__setattr__(self, "values", values)
        if not _grows(values, self._first, 0):
            kind = "partition" if self._first else "tagged"
            raise ValidationError(f"not a {kind} sequence: {values}")

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @property
    def m(self):
        """Largest value; 0 for the all-zero (or empty) sequence."""
        return max(self.values, default=0)

    @property
    def zero_count(self):
        return self.values.count(0)

    def zero_block(self):
        """1-based positions carrying the tag 0."""
        return tuple(i for i, v in enumerate(self.values, start=1) if v == 0)

    def positive_blocks(self):
        """Preimages of 1..m as sorted 1-based position tuples."""
        out = [[] for _ in range(self.m)]
        for pos, v in enumerate(self.values, start=1):
            if v:
                out[v - 1].append(pos)
        return [tuple(b) for b in out]

    def to_json(self):
        return list(self.values)

    @classmethod
    def from_json(cls, data):
        return cls(tuple(data))

    def __repr__(self):
        return f"{type(self).__name__}({self.values})"


def _letters(values):
    """The letters as a tuple of ints; a non-integral letter is a
    ValidationError."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValidationError(f"sequence letters must be integers: {values!r}") from None


def _grows(values, first, running):
    """Whether every letter lies in {first, ..., 1 + the running maximum},
    the maximum starting at `running`: the growth rule of every sequence
    type here."""
    for v in values:
        if v < first or v > running + 1:
            return False
        if v > running:
            running = v
    return True


def as_tagged(seq):
    """Coerce a PartitionSeq (or raw tuple) to a plain TaggedSeq; a value
    that is not a sequence of letters is a ValidationError."""
    if type(seq) is TaggedSeq:
        return seq
    try:
        values = tuple(seq)
    except TypeError:
        raise ValidationError(f"a sequence is a tuple of letters, got {type(seq).__name__}") from None
    return TaggedSeq(values)


def _built(cls, values, base=None):
    """A `cls` holding the int tuple `values` that a search built, valid by
    construction and so not checked again; `base` is an ExtendedSeq's."""
    seq = object.__new__(cls)
    object.__setattr__(seq, "values", values)
    if base is not None:
        object.__setattr__(seq, "base", base)
    return seq


def _letter_table(top, sep):
    """The letters 0..top as 1-tuples, or given `sep` as texts followed by it."""
    return [(v,) if sep is None else f"{v}{sep}" for v in range(top + 1)]


def _sequences(n, first, running_max, sep=None):
    """Every sequence of length n whose letters run from `first` to one above
    the running maximum (which starts at `running_max`), in lexicographic
    order: value tuples, or with a separator `sep` the sequences' texts, the
    letters in decimal joined by `sep`.

    Builds the prefixes one length at a time, each with its running maximum;
    the last level keeps no maximum and appends its letter without `sep`."""
    check_length(n)
    inner = _letter_table(running_max + n, sep)
    last = inner if sep is None else _letter_table(running_max + n, "")
    empty = () if sep is None else ""
    if n == 0:
        return [empty]
    level = [(empty, running_max)]
    for _ in range(n - 1):
        level = [
            (prefix + inner[v], top if v <= top else v)
            for prefix, top in level
            for v in range(first, top + 2)
        ]
    return [prefix + last[v] for prefix, top in level for v in range(first, top + 2)]


@dataclass(frozen=True)
class Grading:
    """Weights (alpha, beta) and truncation level gamma, exact rationals.

    alpha prices a tagged (spatial) letter, beta a measure letter. The level
    gamma must exceed min(alpha, beta) so the expansion has at least one
    non-trivial term.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, parse_rational(getattr(self, name)))
        if self.alpha <= 0 or self.beta <= 0:
            raise ValidationError("grading weights must be positive")
        if self.gamma <= min(self.alpha, self.beta):
            raise ValidationError("gamma must exceed min(alpha, beta)")

    @property
    def lo(self):
        return min(self.alpha, self.beta)

    def to_json(self):
        return {
            "alpha": format_rational(self.alpha),
            "beta": format_rational(self.beta),
            "gamma": format_rational(self.gamma),
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["alpha"], data["beta"], data["gamma"])


@dataclass(frozen=True)
class RemainderFamilies:
    """The graded core plus the three boundary families.

    core:  all sequences with G[a] <= gamma (the jet index set).
    plus:  G[a] in (gamma - max(a,b), gamma - min(a,b)], no strict prefix
           (the empty prefix included) already in plus.
    star:  G[a] in (gamma - min(a,b), gamma], no strict prefix in plus.
    cross: G[a] in (gamma - min(a,b), gamma], some strict prefix in plus.

    star and cross partition the outer boundary band; plus occupies the inner
    band and is prefix-free. When alpha == beta the inner band is empty, so
    plus and cross vanish.
    """

    grading: Grading
    core: tuple
    star: tuple
    plus: tuple
    cross: tuple

    def to_json(self):
        return {
            "grading": self.grading.to_json(),
            "core": [list(a.values) for a in self.core],
            "star": [list(a.values) for a in self.star],
            "plus": [list(a.values) for a in self.plus],
            "cross": [list(a.values) for a in self.cross],
        }


def enum_A0(n):
    """All tagged sequences of length n; len(enum_A0(n)) == Bell(n+1)."""
    return [_built(TaggedSeq, values) for values in _sequences(n, 0, 0)]


def enum_Akn0(k, n):
    """Tagged sequences with exactly k zeros shuffled into a length-n
    partition sequence: all (k, n)-shuffles of a zero block with A_n."""
    if _length(k) < 0 or _length(n) < 0:
        raise ValidationError("negative length")
    check_length(k + n)
    partition_values = _sequences(n, 1, 0)
    out = []
    for zero_positions in itertools.combinations(range(k + n), k):
        zeros = set(zero_positions)
        for values in partition_values:
            it = iter(values)
            out.append(
                _built(TaggedSeq, tuple(0 if i in zeros else next(it) for i in range(k + n)))
            )
    return out


def equiv_class_tagged(labels, tag):
    """Canonical tagged sequence for a label sequence with one tagged label.

    Entries equal to `tag` become 0 (the tagged block may be empty); the
    remaining labels are relabelled 1, 2, ... by first occurrence. With a tag
    no label equals this is the plain level-set class (`equiv_class`).
    """
    labels = tuple(labels)
    if not labels:
        raise ValidationError("empty label sequence")
    seen = {}
    values = []
    for lab in labels:
        if lab == tag:
            values.append(0)
        else:
            if lab not in seen:
                seen[lab] = len(seen) + 1
            values.append(seen[lab])
    return TaggedSeq(tuple(values))


def refines_tagged(a, a2):
    """Tagged refinement: the zero block of `a` sits inside the zero block of
    `a2`, and every positive block of `a` sits inside some block of `a2`
    (the zero block included). For zero-free sequences this is plain
    refinement (`refines`)."""
    if len(a) != len(a2):
        raise ValidationError("length mismatch")
    for pos in a.zero_block():
        if a2.values[pos - 1] != 0:
            return False
    for block in a.positive_blocks():
        first = a2.values[block[0] - 1]
        if any(a2.values[pos - 1] != first for pos in block[1:]):
            return False
    return True


def compose_tagged(labels, a):
    """Common label on each positive block of `a` (zero block is dropped).

    Requires the labels to be constant on every positive block of `a`; for a
    zero-free `a` this is plain composition (`compose`)."""
    labels = tuple(labels)
    if len(labels) != len(a):
        raise ValidationError("length mismatch")
    out = []
    for block in a.positive_blocks():
        vals = {labels[pos - 1] for pos in block}
        if len(vals) != 1:
            raise CompositionError(f"labels not constant on block {block}")
        out.append(vals.pop())
    return tuple(out)


def _check_grading(g):
    """`g` must be a `Grading`."""
    if not isinstance(g, Grading):
        raise ValidationError(f"expected a Grading, got {type(g).__name__}")


def grade(a, g):
    """G[a] = alpha * #tagged entries + beta * #measure entries."""
    _check_grading(g)
    a = as_tagged(a)
    zeros = a.zero_count
    return g.alpha * zeros + g.beta * (len(a) - zeros)


def _graded_value_families(alpha, beta, gamma, tagged_below, first, sep=None):
    """DFS enumeration of the graded families over sequences whose letters
    start at `first`, whose letters in {first..tagged_below} are tagged
    (grade alpha) and whose letters above grow a 1-Lip partition pattern
    (grade beta). With first = 1 and tagged_below = 0 there are no tagged
    letters: the sequences are partition sequences.

    alpha, beta and gamma are multiplied once by the lcm of their
    denominators, so the search adds and compares grades as exact integers.

    Returns four lists in prefix order: core, star, plus, cross; of value
    tuples, or given `sep` of texts, each letter followed by `sep`.
    """
    alpha, beta, gamma = map(Fraction, (alpha, beta, gamma))
    lo = min(alpha, beta)
    if gamma / lo > ENUM_CAP:
        raise EnumerationLimitError(f"grading depth {gamma}/{lo} exceeds cap {ENUM_CAP}")
    scale = math.lcm(alpha.denominator, beta.denominator, gamma.denominator)
    alpha, beta, gamma = (int(x * scale) for x in (alpha, beta, gamma))
    lo, hi = min(alpha, beta), max(alpha, beta)
    plus_lo, plus_hi = gamma - hi, gamma - lo
    band_lo = gamma - lo
    core, star, plus, cross = [], [], [], []
    fresh = max(first, tagged_below + 1)  # the first letter graded beta
    # at most ENUM_CAP levels, each adding at most one fresh letter
    letters = _letter_table(tagged_below + ENUM_CAP, sep)

    def visit(values, total, running_max, plus_prefix):
        core.append(values)
        in_plus = not plus_prefix and plus_lo < total <= plus_hi
        if in_plus:
            plus.append(values)
        elif total > band_lo:
            (cross if plus_prefix else star).append(values)
        child_flag = plus_prefix or in_plus
        if total + alpha <= gamma:
            for v in range(first, tagged_below + 1):
                grown = v if v > running_max else running_max
                visit(values + letters[v], total + alpha, grown, child_flag)
        if total + beta <= gamma:
            for v in range(fresh, max(running_max, tagged_below) + 2):
                grown = v if v > running_max else running_max
                visit(values + letters[v], total + beta, grown, child_flag)

    visit(() if sep is None else "", 0, 0, False)
    return core, star, plus, cross


def _orbit_key(values, tagged_below):
    """The canonical representative of the symmetry orbit of `values`: its
    tagged letters (those at most `tagged_below`) sorted, then one contiguous
    block per fresh letter, the blocks in decreasing order of size and
    labelled tagged_below + 1, tagged_below + 2, ...

    Two sequences share the representative iff one is the other with its
    positions permuted and its fresh letters relabelled. Appended to a base
    whose largest letter is `tagged_below`, it is a valid sequence.
    """
    rep, sizes = [], {}
    for v in values:
        if v <= tagged_below:
            rep.append(v)
        else:
            sizes[v] = sizes.get(v, 0) + 1
    rep.sort()
    for letter, k in enumerate(sorted(sizes.values(), reverse=True), start=tagged_below + 1):
        rep += [letter] * k
    return tuple(rep)


def families_of(a, g):
    """The families of `enum_graded(g)` that list the tagged sequence `a`,
    in the order core, star, plus, cross; [] when G[a] > gamma.

    Walks the prefix grades of `a` once instead of enumerating the families,
    so it is not bound by the enumeration cap. By the definitions in
    `RemainderFamilies`, a strict prefix lies in plus exactly when it is the
    shortest prefix whose grade falls in the inner band, so `a` has a strict
    prefix in plus iff some strict prefix has its grade in that band.
    """
    _check_grading(g)
    a = as_tagged(a)
    inner = lambda total: g.gamma - max(g.alpha, g.beta) < total <= g.gamma - g.lo
    total = Fraction(0)
    plus_prefix = False
    for v in a:
        plus_prefix = plus_prefix or inner(total)
        total += g.alpha if v == 0 else g.beta
    if total > g.gamma:
        return []
    if not plus_prefix and inner(total):
        return ["core", "plus"]
    if total > g.gamma - g.lo:
        return ["core", "cross" if plus_prefix else "star"]
    return ["core"]


def enum_graded(g):
    """Graded core and remainder families over tagged sequences."""
    _check_grading(g)
    core, star, plus, cross = _graded_value_families(g.alpha, g.beta, g.gamma, 0, 0)
    # every boundary sequence is in the core too; build each one once
    seqs = {values: _built(TaggedSeq, values) for values in core}
    wrap = lambda family: tuple(map(seqs.__getitem__, family))
    return RemainderFamilies(g, tuple(seqs.values()), wrap(star), wrap(plus), wrap(cross))


@dataclass(frozen=True)
class ExtendedSeq:
    """A sequence over a base tagged sequence `base`.

    Entries in {0, ..., m[base]} are always admissible (they address the
    base's spatial slot and free variables); entries above m[base] follow the
    1-Lip growth rule. Concatenating onto the base gives a tagged sequence.
    Letters must be integers, as in `TaggedSeq`.
    """

    base: TaggedSeq
    values: tuple

    def __post_init__(self):
        values = _letters(self.values)
        object.__setattr__(self, "values", values)
        if not _grows(values, 0, self.base.m):
            raise ValidationError(
                f"not an extension of base {self.base.values}: {values}"
            )

    def __len__(self):
        return len(self.values)

    @property
    def m(self):
        """Number of new free variables (largest excess over m[base])."""
        return max(0, max(self.values, default=0) - self.base.m)

    def __repr__(self):
        return f"ExtendedSeq(base={self.base.values}, values={self.values})"


def enum_A_a(a, n):
    """All extensions of length n over the base sequence `a`."""
    a = as_tagged(a)
    return [_built(ExtendedSeq, values, a) for values in _sequences(n, 0, a.m)]


def iso_J(a, abar):
    """Concatenate an extension onto its base: a tagged sequence with
    prefix `a`. This is a bijection onto the tagged sequences of length
    len(a) + len(abar) extending `a`."""
    a = as_tagged(a)
    if abar.base != a:
        raise ValidationError("extension built over a different base")
    return TaggedSeq(a.values + abar.values)


def iso_J_inv(a, tagged):
    """Inverse of `iso_J`: strip the base prefix."""
    a = as_tagged(a)
    k = len(a)
    if tagged.values[:k] != a.values:
        raise ValidationError(f"{tagged.values} does not extend {a.values}")
    return ExtendedSeq(a, tagged.values[k:])


def grade_ext(abar, g):
    """Grading of an extension: entries addressing the base (<= m[base])
    count alpha, fresh entries count beta.

    Deliberately not additive with `grade` under concatenation: the base's
    free variables are re-priced as tagged letters here.
    """
    m0 = abar.base.m
    tagged = sum(1 for v in abar.values if v <= m0)
    return g.alpha * tagged + g.beta * (len(abar) - tagged)


def graded_families_ext(a, alpha, beta, eta):
    """Graded core and remainder families over extensions of base `a`,
    truncated at level eta. Requires eta >= min(alpha, beta)."""
    a = as_tagged(a)
    alpha, beta, eta = map(parse_rational, (alpha, beta, eta))
    if eta < min(alpha, beta):
        raise ValidationError("threshold below one derivative step")
    core, star, plus, cross = _graded_value_families(alpha, beta, eta, a.m, 0)
    wrap = lambda seqs: tuple(_built(ExtendedSeq, v, a) for v in seqs)
    return wrap(core), wrap(star), wrap(plus), wrap(cross)

