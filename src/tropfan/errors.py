"""Exception types shared across the package."""


class TropfanError(Exception):
    """Base class for all package errors."""


class RankDeficient(TropfanError):
    """The matrix has rank zero."""


class HasLoops(TropfanError):
    """The matroid contains loops (zero columns)."""

    def __init__(self, indices):
        self.indices = tuple(indices)
        super().__init__(f"matroid has loops at columns {list(self.indices)}")


class HasColoops(TropfanError):
    """The matroid contains coloops (columns lying in every basis)."""

    def __init__(self, indices):
        self.indices = tuple(indices)
        super().__init__(f"matroid has coloops at columns {list(self.indices)}")


class NotABasis(TropfanError):
    """The given index set is not a basis of the matroid."""


class WrongSize(TropfanError):
    """An index set or vector has the wrong size, or an index lies outside 1..n."""


class InternalInvariant(TropfanError):
    """An internal consistency condition failed; indicates a bug or bad input."""


class ParseError(TropfanError):
    """Matrix file could not be parsed."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class RankError(TropfanError):
    """The input matrix does not have full row rank."""


class NoAllOnesRow(TropfanError):
    """The all-ones vector is not in the rowspace of the matrix."""


class DegenerateDual(TropfanError):
    """The Gale dual has rank at most one; the fan degenerates to its lineality space."""


class LatticeNotSpanned(TropfanError):
    """The columns of the matrix do not span the full integer lattice."""
