"""Exception hierarchy for solver failures and invalid inputs."""


class CapflowError(Exception):
    """Base class for all capflow errors."""


class MeshTangled(CapflowError):
    """A mesh displacement produced a triangle with non-positive area."""


class WallViolation(CapflowError):
    """A wall node left the cylinder radius."""


class SurfaceFolded(CapflowError):
    """The free surface stopped being a graph over r (a normal with nu_3 <= 0)."""


class SingularMatrix(CapflowError):
    """Direct factorization failed; usually missing stabilization or a tangled mesh."""


class ResidualTooLarge(CapflowError):
    """Linear solve finished but the relative residual exceeded tolerance."""


class DimensionMismatch(CapflowError):
    """A field does not match the mesh it is used with."""


class DomainEmptied(CapflowError):
    """The contact line dropped below the empty-domain guard threshold."""


class ConfigError(CapflowError):
    """A run configuration could not be parsed or holds an invalid value."""
