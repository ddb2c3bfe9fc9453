"""Exception types shared across the package."""


class GKHeatError(Exception):
    """Base class for all errors raised by gkheat."""


class NonPositiveCoefficient(GKHeatError):
    """A coefficient violates its sign constraint (first offender reported)."""

    def __init__(self, name: str, value=None):
        self.name = name
        self.value = value
        detail = "" if value is None else f" (got {value!r})"
        super().__init__(f"coefficient {name!r} violates its sign constraint{detail}")


class NonDivisibleMesh(GKHeatError):
    """Domain length or final time is not an integer multiple of the step."""


class MeshTooLarge(GKHeatError):
    """The mesh would have more time levels or nodes than
    discretization.MAX_MESH_POINTS, or a run on it would hold more than
    scheme.MAX_RUN_BYTES."""


class GridMismatch(GKHeatError):
    """State arrays do not match the grid (or each other) in size."""


class NonFiniteInput(GKHeatError, ValueError):
    """A state holds a non-finite value, initial data overflow their energy, or
    l is outside [1e-50, 1e50] m (build_grid; a config error, the CLI exits 1)."""


class NumericalFailure(GKHeatError):
    """A computation produced no usable number (the CLI exits 2)."""


class NonFiniteState(NumericalFailure):
    """A time step produced a non-finite temperature or flux."""


class ParseError(GKHeatError):
    """Malformed line in a key = value configuration file."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")

