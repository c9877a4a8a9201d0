"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Malformed input: broken invariants, length mismatches, bad files."""


class EnumerationLimitError(ValueError):
    """An enumeration request exceeded the enumeration cap."""


class CompositionError(ValueError):
    """Sequence composition requested outside its domain."""


class UnsupportedError(ValueError):
    """A case that is deliberately out of scope (e.g. unequal atom counts)."""
