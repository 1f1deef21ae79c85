"""Exception types shared across the package.

Every error raised by the library derives from TorusCseError so callers can
catch one base class at the CLI boundary.
"""


class TorusCseError(Exception):
    """Base class.  An error that `decompress` raises from a coded stream's
    walk or rank also carries where it broke: `size`, the (k, l) the walk
    was building or None past the walk, and `offset`, the bytes the range
    decoder had used; both are None on any other error."""

    size = None
    offset = None


# -- block construction / access ------------------------------------------

class RaggedRowsError(TorusCseError):
    pass


class SymbolOutOfRangeError(TorusCseError):
    pass


class AnchorOutOfRangeError(TorusCseError):
    pass


class EmptyBlockError(TorusCseError):
    pass


# -- window counts and the walk --------------------------------------------

class OversizeQueryError(TorusCseError):
    pass


class NotPrimitiveError(TorusCseError):
    pass


class UnderdeterminedCountsError(TorusCseError):
    """The disposition rules left a size with counts no sweep can resolve."""


class InconsistentCountsError(TorusCseError):
    """Resolved counts violate a sum identity or an interval bound."""


# -- codec -----------------------------------------------------------------

class NonPositiveError(TorusCseError):
    pass


class BadMagicError(TorusCseError):
    pass


class UnsupportedVersionError(TorusCseError):
    pass


class TruncatedStreamError(TorusCseError):
    pass


class TrailingDataError(TorusCseError):
    """Bits past the end of a container's payload: set padding or extra bytes."""


# -- oracle / baseline / cli ----------------------------------------------

class TooLargeError(TorusCseError):
    pass


class CapExceededError(TorusCseError):
    pass


class BadSpecError(TorusCseError):
    pass


class GridFormatError(TorusCseError):
    pass


class UnknownExtensionError(TorusCseError):
    pass
