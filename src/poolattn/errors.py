"""Exception taxonomy shared across the package, and the CLI's exit codes.

Each class carries the exit code `poolattn` returns when it escapes a
subcommand: usage/format problems exit 2 (the base class), verification
failures exit 1 (`NonFiniteError`, `TrainingDivergenceError`, `OracleError`),
resource limits exit 3 (`ResourceLimitError`). The CLI prints the message as
one `error: ...` line; an OSError on an input or output path also exits 2.
"""

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class PoolAttnError(Exception):
    """Base class for all library errors: a usage or format problem unless a subclass
    says otherwise."""

    exit_code = EXIT_USAGE


class DimensionError(PoolAttnError, ValueError):
    """Operand shapes are incompatible; the message names both shapes."""


class PoolSizeError(PoolAttnError, ValueError):
    """A pool output size does not fit the spatial extent."""


class ConfigurationError(PoolAttnError, ValueError):
    """A module or run configuration is internally inconsistent."""


class LabelError(PoolAttnError, ValueError):
    """A class label is out of range; the message names the pixel."""


class NonFiniteError(PoolAttnError, ArithmeticError):
    """An operation produced NaN/Inf, which the library treats as an internal error."""

    exit_code = EXIT_VERIFY


class TrainingDivergenceError(PoolAttnError, RuntimeError):
    """Training loss became non-finite; the message reports the step."""

    exit_code = EXIT_VERIFY


class OracleError(PoolAttnError, RuntimeError):
    """A finite-difference probe evaluated the target to a non-finite value."""

    exit_code = EXIT_VERIFY


class ComparisonError(PoolAttnError, ValueError):
    """Two cost reports were compared at different shapes."""


class DptFormatError(PoolAttnError, ValueError):
    """A tensor file violates the DPT binary layout or the JSON tensor form."""


class ResourceLimitError(PoolAttnError, RuntimeError):
    """A run would exceed a user-supplied resource cap."""

    exit_code = EXIT_RESOURCE
