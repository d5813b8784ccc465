"""Exception types raised across the package.

Everything derives from P2LError so callers can catch the whole family.
Every leaf sits under exactly one of three families, which the CLI maps onto
exit codes: InputError (2), StateError (3) and ReferentialError (4).
"""


class P2LError(Exception):
    """Base class for all domain errors."""


class InputError(P2LError):
    """An input or argument is malformed or cannot be used; CLI exit 2."""


class StateError(P2LError):
    """The operation conflicts with existing stored state; CLI exit 3."""


class ReferentialError(P2LError):
    """A name refers to something that does not exist; CLI exit 4."""


class LineNumbered:
    """Mixin: an error on input line line_no, if given, says "line <n>: " first."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


# -- validation / construction ------------------------------------------------

class EmptyMatrix(InputError):
    """Embedding matrix has no rows or no columns."""


class NonFiniteValue(LineNumbered, InputError):
    """A value that must be finite is NaN or infinite."""


class DimensionMismatch(InputError):
    """Vectors or profiles of different dimensionality were combined."""


# -- summarization ------------------------------------------------------------

class NegativeMass(InputError):
    """Summary mean has non-positive total mass and cannot be L1-normalized."""


class NegativeComponent(InputError):
    """Summary mean has a negative component; probability distances are undefined."""


# -- divergence ---------------------------------------------------------------

class NonPositiveComponent(InputError):
    """Distance applied to a candidate with a negative component."""


# -- estimation / selection ---------------------------------------------------

class DuplicateSourceName(InputError):
    """Candidate set contains two sources with the same name."""


class EmptyCandidates(InputError):
    """Selection requested over an empty candidate set."""


class MissingReference(ReferentialError):
    """Fixed-reference baseline was asked for without a valid reference source."""


class MissingSeed(InputError):
    """Random baseline was asked for without an explicit seed."""


class MixedSummarizers(InputError):
    """Profiles built with different summarizers cannot be merged."""


class MixedExtractors(InputError):
    """A candidate was embedded by another extractor than its target, or a
    merge member by another than the first member."""


# -- rank statistics / calibration ---------------------------------------------

class LengthMismatch(InputError):
    """Paired score lists have different or insufficient length."""


class DegenerateConstantInput(InputError):
    """Rank correlation of an all-constant list is undefined."""


class UnknownSource(ReferentialError):
    """A record or ranking references a source that is not in the pool."""


class TooFewSources(InputError):
    """A calibration task has fewer than three candidate sources."""


class InconsistentScratch(InputError):
    """One target's ground-truth records disagree on its from-scratch performance."""


class ZeroDenominator(InputError):
    """Relative gain against a method with zero performance."""


# -- file formats / registry ----------------------------------------------------

class BadHeader(InputError):
    """File header is missing or malformed."""


class RaggedRow(LineNumbered, InputError):
    """A data row does not match the declared dimensionality."""


class BadMagic(InputError):
    """Binary file does not start with the expected magic bytes."""


class TruncatedFile(InputError):
    """Binary file payload is shorter (or longer) than its header declares."""


class UnsupportedVersion(InputError):
    """File or registry format version is not supported."""


class NameCollision(StateError):
    """Saving a profile would overwrite an existing one without the overwrite flag."""


class NotFound(ReferentialError):
    """Requested profile or registry entry does not exist."""


class InvalidName(InputError):
    """Name is not filesystem-safe ([A-Za-z0-9_-]+)."""


# -- synthetic oracle -----------------------------------------------------------

class BadSpec(InputError):
    """World specification violates a structural requirement."""


class UnknownName(ReferentialError):
    """Domain name not present in the world."""
