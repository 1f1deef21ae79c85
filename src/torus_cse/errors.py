"""Exception types shared across the package.

Every error raised by the library derives from TorusCseError so callers can
catch one base class at the CLI boundary.
"""


class TorusCseError(Exception):
    pass


# -- block construction / access ------------------------------------------

class RaggedRowsError(TorusCseError):
    pass


class SymbolOutOfRangeError(TorusCseError):
    pass


class AnchorOutOfRangeError(TorusCseError):
    pass


class DimensionMismatchError(TorusCseError):
    pass


class EmptyBlockError(TorusCseError):
    pass


class RankOutOfRangeError(TorusCseError):
    pass


# -- counting --------------------------------------------------------------

class OversizeQueryError(TorusCseError):
    pass


class NotPrimitiveError(TorusCseError):
    pass


class LedgerIncompleteError(TorusCseError):
    pass


# -- inference -------------------------------------------------------------

class AxisUnavailableError(TorusCseError):
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
