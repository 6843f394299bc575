"""Exception types shared across the package."""


class HsoloError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateProjection(HsoloError):
    """A point maps to (or too close to) the line at infinity."""


class SingularMatrix(HsoloError):
    """A matrix operation requires invertibility and the input is (near) singular."""


class DegenerateConfiguration(HsoloError):
    """A point configuration cannot constrain a homography (collinear/coincident)."""


class IllConditioned(HsoloError):
    """A linear system is too poorly conditioned to trust its solution."""


class InvalidFeature(HsoloError):
    """A feature violates its invariants (e.g. non-positive detector scale)."""


class NoModelFound(HsoloError):
    """A robust estimator exhausted its budget without an acceptable model.

    ``iterations_run`` is the budget spent: seeds walked for hsolo, draws
    for RANSAC.
    """

    def __init__(self, message: str, iterations_run: int = 0):
        super().__init__(message)
        self.iterations_run = iterations_run


class InsufficientData(HsoloError):
    """Not enough samples to compute the requested statistic."""


class InfeasibleSpec(HsoloError):
    """A synthetic scene recipe cannot be realized within its image bounds."""


class FileFormatError(HsoloError):
    """A correspondence or result file is malformed.

    Carries the 1-based line number when the problem is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
