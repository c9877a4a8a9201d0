"""Tagged sequences, gradings, boundary families, extensions."""

import itertools
from fractions import Fraction

import pytest

from lionsjet.errors import EnumerationLimitError, ValidationError
from lionsjet.partitions import PartitionSeq, enum_A
from lionsjet.tagged import (
    ExtendedSeq,
    Grading,
    TaggedSeq,
    _orbit_key,
    enum_A0,
    enum_A_a,
    enum_Akn0,
    enum_graded,
    equiv_class_tagged,
    families_of,
    grade,
    grade_ext,
    graded_families_ext,
    iso_J,
    iso_J_inv,
    refines_tagged,
)
from test_partitions import bell_numbers

A3_TAGGED_LISTING = {
    (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1),
    (1, 1, 0), (0, 1, 2), (1, 0, 2), (1, 2, 0), (1, 1, 1), (1, 1, 2),
    (1, 2, 1), (1, 2, 2), (1, 2, 3),
}

A2_BASE_121_LISTING = {
    (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3),
    (2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3), (3, 4),
}


def test_enum_tagged_listings():
    assert {a.values for a in enum_A0(1)} == {(0,), (1,)}
    assert {a.values for a in enum_A0(2)} == {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)}
    assert {a.values for a in enum_A0(3)} == A3_TAGGED_LISTING


def test_enum_tagged_counts():
    bell = bell_numbers(9)
    for n in range(8):
        assert len(enum_A0(n)) == bell[n + 1]


def test_shuffle_family_listings():
    assert {a.values for a in enum_Akn0(1, 1)} == {(0, 1), (1, 0)}
    assert {a.values for a in enum_Akn0(2, 1)} == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}
    assert {a.values for a in enum_Akn0(1, 2)} == {
        (0, 1, 1), (0, 1, 2), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 2, 0)
    }


def test_shuffle_family_agrees_with_zero_count_filter():
    for total in range(6):
        by_filter = {}
        for a in enum_A0(total):
            by_filter.setdefault(a.zero_count, set()).add(a.values)
        for k in range(total + 1):
            built = {a.values for a in enum_Akn0(k, total - k)}
            assert built == by_filter.get(k, set())


def test_tagged_validation():
    with pytest.raises(ValidationError):
        TaggedSeq((2,))
    with pytest.raises(ValidationError):
        TaggedSeq((0, 2))
    with pytest.raises(ValidationError):
        TaggedSeq((1, 3))
    assert TaggedSeq((0, 1, 0, 2)).zero_count == 2
    assert TaggedSeq(()).m == 0
    assert TaggedSeq((0, 0)).m == 0


def test_equiv_class_tagged_examples():
    assert equiv_class_tagged(("i", "j", "i"), "i").values == (0, 1, 0)
    assert equiv_class_tagged(("j", "k"), "i").values == (1, 2)
    assert equiv_class_tagged((7, 7, 7), 7).values == (0, 0, 0)


def test_refinement_sets_match_second_order_display():
    # classes of two-entry multi-indices with distinct symbols i, j, k
    def finer(labels, tag):
        cls = equiv_class_tagged(labels, tag)
        return {a.values for a in enum_A0(2) if refines_tagged(a, cls)}

    i, j, k = "i", "j", "k"
    assert finer((i, i), i) == {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)}
    assert finer((i, j), i) == {(0, 1), (1, 2)}
    assert finer((j, i), i) == {(1, 0), (1, 2)}
    assert finer((j, j), i) == {(1, 1), (1, 2)}
    assert finer((j, k), i) == {(1, 2)}


def test_refines_tagged_reflexive():
    for a in enum_A0(3):
        assert refines_tagged(a, a)


def test_grade_examples():
    assert grade(TaggedSeq((0, 1, 1)), Grading(1, 2, 100)) == 5
    assert grade(TaggedSeq(()), Grading(1, 2, 100)) == 0
    third = Fraction(1, 3)
    assert grade(TaggedSeq((1, 2, 3)), Grading(third, third, 1)) == 1



def test_grade_coerces_a_raw_tuple_as_families_of_does():
    # grade((0, 1), g) used to end in an AttributeError
    g = Grading(1, 2, 100)
    assert grade((0, 1, 1), g) == grade(TaggedSeq((0, 1, 1)), g) == 5
    assert grade((), g) == 0
    assert families_of((0, 1), g) == families_of(TaggedSeq((0, 1)), g)
    with pytest.raises(ValidationError):
        grade((0, 2), g)

def test_an_enumeration_length_that_is_not_an_integer_is_refused_in_one_line():
    # enum_A("3") used to raise a TypeError in check_length
    calls = [
        lambda: enum_A("3"),
        lambda: enum_A(2.0),
        lambda: enum_A0("3"),
        lambda: enum_Akn0("1", 2),
        lambda: enum_Akn0(1, None),
        lambda: enum_A_a(TaggedSeq((1,)), "2"),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="length must be an integer") as err:
            call()
        assert "\n" not in str(err.value)


def test_grading_validation():
    with pytest.raises(ValidationError):
        Grading(1, 2, Fraction(1, 2))
    with pytest.raises(ValidationError):
        Grading(0, 1, 2)
    g = Grading("1/2", "1", "9/4")
    assert g.alpha == Fraction(1, 2)
    assert Grading.from_json(g.to_json()) == g


def _naive_families(g, max_len=12):
    """Brute-force the family predicates over all tagged sequences with
    grade at most gamma (independent of the DFS enumeration)."""
    lo, hi = min(g.alpha, g.beta), max(g.alpha, g.beta)
    pool = []
    n = 0
    while n * lo <= g.gamma:
        pool.extend(a for a in enum_A0(n) if grade(a, g) <= g.gamma)
        n += 1
        if n > max_len:
            break
    plus = set()
    for a in sorted(pool, key=len):
        value = grade(a, g)
        prefixes = [a.values[:k] for k in range(len(a))]
        if g.gamma - hi < value <= g.gamma - lo and not any(
            p in plus for p in prefixes
        ):
            plus.add(a.values)
    star, cross = set(), set()
    for a in pool:
        value = grade(a, g)
        if g.gamma - lo < value <= g.gamma:
            prefixes = [a.values[:k] for k in range(len(a))]
            if any(p in plus for p in prefixes):
                cross.add(a.values)
            else:
                star.add(a.values)
    return {a.values for a in pool}, star, plus, cross


GRADINGS = [
    (1, 1, Fraction(5, 2)),
    (1, 1, Fraction(3, 2)),
    (Fraction(1, 2), 1, Fraction(9, 4)),
    (1, Fraction(1, 2), Fraction(9, 4)),
    (1, 3, Fraction(3, 2)),
    (1, 2, 4),
    (Fraction(1, 3), 1, Fraction(5, 3)),
]


@pytest.mark.parametrize("alpha,beta,gamma", GRADINGS)
def test_graded_families_match_naive_predicates(alpha, beta, gamma):
    g = Grading(alpha, beta, gamma)
    fam = enum_graded(g)
    core, star, plus, cross = _naive_families(g)
    assert {a.values for a in fam.core} == core
    assert {a.values for a in fam.star} == star
    assert {a.values for a in fam.plus} == plus
    assert {a.values for a in fam.cross} == cross


@pytest.mark.parametrize("alpha,beta,gamma", GRADINGS)
def test_families_of_matches_naive_predicates(alpha, beta, gamma):
    g = Grading(alpha, beta, gamma)
    families = dict(zip(("core", "star", "plus", "cross"), _naive_families(g)))
    above = 0
    for n in range(7):
        for a in enum_A0(n):
            want = [name for name, fam in families.items() if a.values in fam]
            assert families_of(a, g) == want
            above += grade(a, g) > g.gamma
    assert above > 0  # sequences above gamma were classified too, as []


def test_families_alpha_equal_beta():
    # grade equals length: the core is every sequence of length <= n
    g = Grading(1, 1, Fraction(5, 2))
    fam = enum_graded(g)
    assert {a.values for a in fam.core} == {
        a.values for n in range(3) for a in enum_A0(n)
    }
    assert fam.plus == ()
    assert fam.cross == ()
    assert {a.values for a in fam.star} == {a.values for a in enum_A0(2)}


def test_families_pure_spatial_chain():
    # alpha * (n+1) <= gamma < alpha * n + beta: the plus family is the
    # length-n zero sequence and cross its one-step extension
    n = 2
    alpha, beta, gamma = Fraction(3, 4), Fraction(1), Fraction(9, 4)
    assert alpha * (n + 1) <= gamma < alpha * n + beta
    assert beta <= gamma
    fam = enum_graded(Grading(alpha, beta, gamma))
    assert {a.values for a in fam.plus} == {(0,) * n}
    assert {a.values for a in fam.cross} == {(0,) * (n + 1)}


def test_family_structural_invariants():
    for alpha, beta, gamma in [(1, 2, 4), (2, 1, 4), (1, 1, 3)]:
        g = Grading(alpha, beta, gamma)
        fam = enum_graded(g)
        star, plus, cross = (
            {a.values for a in fam.star},
            {a.values for a in fam.plus},
            {a.values for a in fam.cross},
        )
        assert not star & cross
        assert not plus & (star | cross)
        for v in cross:
            assert any(v[:k] in plus for k in range(len(v)))
        for v in star | plus:
            assert not any(v[:k] in plus for k in range(len(v)))
        # star and cross together cover the outer boundary band exactly
        band = {
            a.values for a in fam.core if g.gamma - g.lo < grade(a, g) <= g.gamma
        }
        assert star | cross == band


def test_grade_monotone_under_extension():
    g = Grading(Fraction(1, 2), Fraction(4, 3), 20)
    for a in enum_A0(3):
        for j in range(a.m + 2):
            ext = TaggedSeq(a.values + (j,))
            step = g.alpha if j == 0 else g.beta
            assert grade(ext, g) == grade(a, g) + step


def test_enum_graded_cap():
    # the depth gamma / min(alpha, beta) is checked before the search starts
    with pytest.raises(EnumerationLimitError):
        enum_graded(Grading(1, 1, 13))


def test_extension_listing_base_121():
    ext = enum_A_a(TaggedSeq((1, 2, 1)), 2)
    assert {x.values for x in ext} == A2_BASE_121_LISTING
    assert len(ext) == 17


def test_extension_over_empty_base_matches_tagged():
    for n in range(5):
        assert {x.values for x in enum_A_a(TaggedSeq(()), n)} == {
            a.values for a in enum_A0(n)
        }


def test_extension_over_zero_base():
    assert {x.values for x in enum_A_a(TaggedSeq((0,)), 1)} == {(0,), (1,)}


def test_extension_validation():
    base = TaggedSeq((1, 2, 1))
    ExtendedSeq(base, (3, 4))
    with pytest.raises(ValidationError):
        ExtendedSeq(base, (4,))
    with pytest.raises(ValidationError):
        ExtendedSeq(base, (3, 5))


@pytest.mark.parametrize(
    "letter", [1.9, 1.0, "1", Fraction(1), Fraction(3, 2), None], ids=repr
)
def test_non_integral_letters_are_rejected(letter):
    # int() used to truncate them: TaggedSeq((0, 1.9)) == TaggedSeq((0, 1))
    with pytest.raises(ValidationError):
        TaggedSeq((0, letter))
    with pytest.raises(ValidationError):
        PartitionSeq((1, letter))
    with pytest.raises(ValidationError):
        ExtendedSeq(TaggedSeq((1,)), (letter,))


def test_bool_letters_are_integers():
    a = TaggedSeq((False, True))
    assert a == TaggedSeq((0, 1))
    assert [type(v) for v in a.values] == [int, int]
    assert ExtendedSeq(TaggedSeq(()), (True,)).values == (1,)


def test_iso_concatenation():
    base = TaggedSeq((1, 2, 1))
    assert iso_J(base, ExtendedSeq(base, (3, 4))).values == (1, 2, 1, 3, 4)
    for ext in enum_A_a(base, 2):
        assert iso_J_inv(base, iso_J(base, ext)) == ext


def test_iso_image_is_prefix_filter():
    for base_values in [(1, 1), (1, 2), (0, 1), (0, 0)]:
        base = TaggedSeq(base_values)
        for n in range(3):
            image = {iso_J(base, ext).values for ext in enum_A_a(base, n)}
            expected = {
                a.values
                for a in enum_A0(n + len(base))
                if a.values[: len(base)] == base.values
            }
            assert image == expected


def test_grade_ext_examples():
    g = Grading(1, 2, 100)
    base = TaggedSeq((1, 2, 1))
    assert grade_ext(ExtendedSeq(base, (1, 3)), g) == 3
    empty = TaggedSeq(())
    for values in [(0, 1), (1, 2), ()]:
        assert grade_ext(ExtendedSeq(empty, values), g) == grade(
            TaggedSeq(values), g
        )


def test_grade_ext_not_additive_under_concatenation():
    g = Grading(1, 2, 100)
    base = TaggedSeq((1,))
    ext = ExtendedSeq(base, (1,))
    whole = iso_J(base, ext)
    assert grade(whole, g) != grade(base, g) + grade_ext(ext, g)


def test_graded_families_ext_reduce_to_tagged_for_empty_base():
    g = Grading(Fraction(1, 2), 1, Fraction(9, 4))
    fam = enum_graded(g)
    core, star, plus, cross = graded_families_ext(
        TaggedSeq(()), g.alpha, g.beta, g.gamma
    )
    assert {x.values for x in core} == {a.values for a in fam.core}
    assert {x.values for x in star} == {a.values for a in fam.star}
    assert {x.values for x in plus} == {a.values for a in fam.plus}
    assert {x.values for x in cross} == {a.values for a in fam.cross}


def test_families_json_shape():
    fam = enum_graded(Grading(1, 2, 4))
    data = fam.to_json()
    assert set(data) == {"grading", "core", "star", "plus", "cross"}
    assert data["grading"]["alpha"] == "1"


def _orbit(values, tagged_below):
    """Every sequence obtained from `values` by permuting positions and
    relabelling the fresh letters (those above `tagged_below`) by first
    occurrence."""
    out = set()
    for perm in itertools.permutations(values):
        fresh = {}
        out.add(tuple(
            v if v <= tagged_below else fresh.setdefault(v, tagged_below + 1 + len(fresh))
            for v in perm
        ))
    return out


@pytest.mark.parametrize("base", [(), (1,), (0, 1, 2)])
def test_orbit_key_is_the_canonical_orbit_representative(base):
    base = TaggedSeq(base)
    m = base.m
    for n in range(5):
        seqs = [x.values for x in enum_A_a(base, n)]
        keys = {values: _orbit_key(values, m) for values in seqs}
        for values, key in keys.items():
            assert _orbit_key(key, m) == key
            ExtendedSeq(base, key)  # a valid extension of the base
            TaggedSeq(base.values + key)
            orbit = _orbit(values, m)
            assert key in orbit
            assert {other for other in seqs if keys[other] == key} == orbit


def test_orbit_key_examples():
    assert _orbit_key((), 0) == ()
    assert _orbit_key((1, 2, 2), 0) == (1, 1, 2)
    assert _orbit_key((1, 0, 2, 0, 1, 3, 1), 0) == (0, 0, 1, 1, 1, 2, 3)
    assert _orbit_key((3, 1, 0, 3, 2, 1), 2) == (0, 1, 1, 2, 3, 3)


def test_public_constructors_check_letters_and_growth():
    # the enumerators skip these checks; the constructors must keep them
    base = TaggedSeq((1, 2, 1))
    bad = {
        TaggedSeq: [(-1,), (2,), (0, 2), (1, 3), (0, 1.0)],
        PartitionSeq: [(0,), (2,), (1, 0), (1, 3), (1, "2")],
        lambda values: ExtendedSeq(base, values): [(-1,), (4,), (3, 5), (Fraction(1),)],
    }
    for make, cases in bad.items():
        for values in cases:
            with pytest.raises(ValidationError):
                make(values)


def _generated(n):
    """Every sequence the enumerators build at length n (the graded
    families up to a depth of n + 1 or n + 2), with the public constructor that
    rebuilds each."""
    base = TaggedSeq((1, 0, 2))  # m = 2
    rebuild = lambda x: ExtendedSeq(x.base, x.values)
    yield from ((a, PartitionSeq) for a in enum_A(n))
    yield from ((a, TaggedSeq) for a in enum_A0(n))
    yield from ((x, rebuild) for x in enum_A_a(base, n))
    for k in range(n + 1):
        yield from ((a, TaggedSeq) for a in enum_Akn0(k, n - k))
    fam = enum_graded(Grading(Fraction(1, 2), 1, Fraction(n + 2, 2)))
    yield from ((a, TaggedSeq) for name in ("core", "star", "plus", "cross")
                for a in getattr(fam, name))
    for family in graded_families_ext(base, 1, Fraction(1, 2), Fraction(n + 1, 2)):
        yield from ((x, rebuild) for x in family)


@pytest.mark.parametrize("n", range(8))
def test_generated_sequences_pass_the_public_constructors(n):
    for seq, rebuild in _generated(n):
        assert rebuild(seq) == seq
        assert type(seq.values) is tuple
        assert all(type(v) is int for v in seq.values)
