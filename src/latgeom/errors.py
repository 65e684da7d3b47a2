"""Exception hierarchy for the toolkit.

Capability errors signal that an input is valid but exceeds a resource limit
(a search budget, or the rank cap of the Voronoi computation, each a module
constant); invalid-input errors signal malformed or degenerate data.
"""


class LatgeomError(Exception):
    """Base class for all toolkit errors."""


class CertificateValidationError(LatgeomError):
    """A passage certificate failed its exact brute-force validation: some
    projected lattice point is closer to the deep hole than mu."""


class InvalidInputError(LatgeomError):
    """Malformed or degenerate input (CLI exit code 2)."""


class CapabilityError(LatgeomError):
    """Valid input beyond a search budget or the Voronoi rank cap, each a
    module constant (CLI exit code 1)."""


class InvalidLatticeError(InvalidInputError):
    """Basis vectors are linearly dependent (Gram determinant <= 0)."""


class UnsupportedRankError(InvalidInputError):
    """An operation that needs a basis (an ambient embedding) or a
    full-rank lattice got a lattice without it."""


class CatalogMissError(InvalidInputError):
    """Unknown catalog name / dimension pair."""


class PolarUndefinedError(InvalidInputError):
    """Polar requested for a body without 0 in its interior."""


class DimensionMismatchError(InvalidInputError):
    """Operands live in different dimensions."""


class UnboundedBodyError(InvalidInputError):
    """Volume or vertex enumeration requested for an unbounded body."""


class NotAPackingError(InvalidInputError):
    """Ball lattice is not a packing (lambda_1 < 2r)."""


class MissingConstantError(InvalidInputError):
    """A required packing/covering constant is not in the catalog."""
