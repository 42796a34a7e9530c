"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when configuration values or operation inputs are out of contract."""


class FormatError(Exception):
    """Raised when an on-disk artifact is corrupt, truncated, or of the wrong kind."""


class SolverError(RuntimeError):
    """Raised when the power-control solver cannot certify a result."""


def refuse_overwrite(path, force: bool):
    """Raise ValidationError when path exists and force is not set."""
    if path.exists() and not force:
        raise ValidationError(f"{path} exists, pass force to overwrite")
