"""Partition sequences and set partitions of {1, ..., n}.

A partition sequence of length n is an integer sequence (a_1, ..., a_n) with
a_1 = 1 whose running maximum grows by at most one per step:

    a_k in {1, ..., 1 + max(a_1, ..., a_{k-1})}.

Reading off the preimages a^{-1}[k] gives a bijection with set partitions of
{1, ..., n}; there are Bell(n) such sequences. A sequence indexes one iterated
Lions derivative: a repeated value reuses an existing free variable, a new
value creates one.

Label sequences (arbitrary hashable labels, no invariants) are plain tuples;
`equiv_class` canonicalizes one to its partition sequence and `compose` reads
off the label of each block.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import CompositionError, EnumerationLimitError, ValidationError

DEFAULT_ENUM_CAP = 12


def enumeration_cap():
    """Maximum sequence length enumerations accept.

    Overridable via the LIONS_JET_CAP environment variable; Bell numbers grow
    fast enough that the default of 12 (Bell(12) is about 4.2 million) is a
    memory guard, not a tuning knob.
    """
    env = os.environ.get("LIONS_JET_CAP")
    if env:
        return int(env)
    return DEFAULT_ENUM_CAP


def check_length(n):
    """Reject a negative enumeration length or one above the cap."""
    if n < 0:
        raise ValidationError(f"negative length {n}")
    cap = enumeration_cap()
    if n > cap:
        raise EnumerationLimitError(f"length {n} exceeds enumeration cap {cap}")


@dataclass(frozen=True)
class PartitionSeq:
    """A partition sequence; `values` is the tuple (a_1, ..., a_n)."""

    values: tuple

    def __post_init__(self):
        values = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", values)
        running = 0
        for k, v in enumerate(values):
            if v < 1 or v > running + 1:
                raise ValidationError(f"not a partition sequence: {values}")
            running = max(running, v)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @property
    def m(self):
        """Number of distinct values (the maximum, by surjectivity)."""
        return max(self.values, default=0)

    def blocks(self):
        """Preimages a^{-1}[k] for k = 1..m, as sorted 1-based position lists."""
        out = [[] for _ in range(self.m)]
        for pos, v in enumerate(self.values, start=1):
            out[v - 1].append(pos)
        return [tuple(b) for b in out]

    def to_json(self):
        return list(self.values)

    @classmethod
    def from_json(cls, data):
        return cls(tuple(data))

    def __repr__(self):
        return f"PartitionSeq({self.values})"


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1, ..., n} into disjoint non-empty blocks.

    Blocks are canonicalized: each block sorted, blocks ordered by minimum.
    """

    blocks: tuple
    ground_size: int = field(default=-1)

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(x) for x in b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0] if b else -1))
        object.__setattr__(self, "blocks", blocks)
        seen = set()
        for b in blocks:
            if not b:
                raise ValidationError("empty block")
            for x in b:
                if x in seen:
                    raise ValidationError(f"element {x} appears in two blocks")
                seen.add(x)
        n = self.ground_size if self.ground_size >= 0 else len(seen)
        object.__setattr__(self, "ground_size", n)
        if seen != set(range(1, n + 1)):
            raise ValidationError(
                f"blocks do not cover {{1..{n}}}: {sorted(seen)}"
            )

    def to_json(self):
        return [list(b) for b in self.blocks]

    @classmethod
    def from_json(cls, data):
        return cls(tuple(tuple(b) for b in data))

    def __repr__(self):
        return f"SetPartition({[list(b) for b in self.blocks]})"


def enum_A(n):
    """All partition sequences of length n, in lexicographic order.

    enum_A(0) is [PartitionSeq(())]; len(enum_A(n)) == Bell(n).
    """
    check_length(n)
    out = []

    def extend(prefix, running_max):
        if len(prefix) == n:
            out.append(PartitionSeq(tuple(prefix)))
            return
        for v in range(1, running_max + 2):
            prefix.append(v)
            extend(prefix, max(running_max, v))
            prefix.pop()

    extend([], 0)
    return out


def to_partition(a):
    """The set partition whose blocks are the preimages of a."""
    return SetPartition(a.blocks(), ground_size=len(a))


def from_partition(partition):
    """Inverse of `to_partition`: label blocks by order of their minima."""
    n = partition.ground_size
    values = [0] * n
    for label, block in enumerate(partition.blocks, start=1):
        for pos in block:
            values[pos - 1] = label
    return PartitionSeq(tuple(values))


def equiv_class(labels):
    """Canonical representative of the level-set class of a label sequence.

    Labels are relabelled 1, 2, ... in order of first occurrence, which is the
    unique member of A_n with the same level sets.

    >>> equiv_class(("i", "i", "j")).values
    (1, 1, 2)
    """
    labels = tuple(labels)
    if not labels:
        raise ValidationError("empty label sequence")
    seen = {}
    values = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen) + 1
        values.append(seen[lab])
    return PartitionSeq(tuple(values))


def refines(a, a2):
    """True iff every block of `a` is contained in some block of `a2`."""
    if len(a) != len(a2):
        raise ValidationError("length mismatch")
    # a block of `a` sits inside a block of `a2` iff a2 is constant on it
    for block in a.blocks():
        first = a2.values[block[0] - 1]
        if any(a2.values[pos - 1] != first for pos in block[1:]):
            return False
    return True


def compose(labels, a):
    """The length-m[a] sequence of common labels on each block of `a`.

    Requires `a` to be finer than the level-set partition of `labels`, i.e.
    the labels must be constant on every block of `a`.
    """
    labels = tuple(labels)
    if len(labels) != len(a):
        raise ValidationError("length mismatch")
    out = []
    for block in a.blocks():
        vals = {labels[pos - 1] for pos in block}
        if len(vals) != 1:
            raise CompositionError(
                f"sequence is not constant on block {block}; "
                "composition requires a finer sequence"
            )
        out.append(vals.pop())
    return tuple(out)
