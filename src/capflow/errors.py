"""Exception hierarchy for solver failures and invalid inputs."""


class CapflowError(Exception):
    """Base class for all capflow errors."""


class MeshTangled(CapflowError):
    """A mesh displacement produced a triangle with non-positive area."""


class WallViolation(CapflowError):
    """A wall node left the cylinder radius."""


class SurfaceFolded(CapflowError):
    """A topology's free surface is not a graph over r: its edges do not run from
    the axis to the contact node, r increasing.  Vertical mesh motion cannot fold it."""


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


class KernelBuildError(CapflowError):
    """The compiled kernels could not be built: the compiler is missing or
    failed, or their cache could not be made or written.  Carries the
    command (empty for the cache) and the compiler's or the OS's message."""

    def __init__(self, command: list[str], stderr: str):
        what = " ".join(command) if command else "writing the kernel cache"
        super().__init__(f"building the compiled kernels failed: {what}\n{stderr}")
        self.command = command
        self.stderr = stderr
