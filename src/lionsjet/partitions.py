"""Partition sequences and set partitions of {1, ..., n}.

A partition sequence of length n is an integer sequence (a_1, ..., a_n) with
a_1 = 1 whose running maximum grows by at most one per step:

    a_k in {1, ..., 1 + max(a_1, ..., a_{k-1})}.

Reading off the preimages a^{-1}[k] gives a bijection with set partitions of
{1, ..., n}; there are Bell(n) such sequences. A sequence indexes one iterated
Lions derivative: a repeated value reuses an existing free variable, a new
value creates one.

A partition sequence is the zero-free tagged sequence (`tagged.TaggedSeq`
with letters from 1 and an empty spatial block), so the sequence type, the
enumerating depth-first search and the label operations are the tagged ones
restricted to letters >= 1.

Label sequences (arbitrary hashable labels, no invariants) are plain tuples;
`equiv_class` canonicalizes one to its partition sequence and `compose` reads
off the label of each block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .tagged import (
    TaggedSeq,
    _built,
    _sequences,
    compose_tagged,
    equiv_class_tagged,
    refines_tagged,
)


class PartitionSeq(TaggedSeq):
    """A partition sequence; `values` is the tuple (a_1, ..., a_n)."""

    _first = 1

    # the preimages a^{-1}[k] for k = 1..m, as sorted 1-based position tuples
    blocks = TaggedSeq.positive_blocks


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
    return [_built(PartitionSeq, values) for values in _sequences(n, 1, 0)]


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
    # a fresh object equals no label, so nothing is tagged
    return PartitionSeq(equiv_class_tagged(labels, object()).values)


# On zero-free sequences the tagged operations are the plain ones.
refines = refines_tagged
compose = compose_tagged
