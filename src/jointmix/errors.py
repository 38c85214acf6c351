"""Exception hierarchy shared across the package.

Two branches matter for the CLI exit codes: ``InputError`` (bad files,
bad flags, broken gene/CpG mapping) and ``FitError`` (numerical or
convergence trouble while fitting). Every error survives pickling with
its type, message and attributes, so one raised in a worker process
reaches the parent intact.
"""


class JointmixError(Exception):
    """Base class for all package errors."""


class InputError(JointmixError):
    """Invalid input data or parameters."""


class FormatError(InputError):
    """Malformed table: wrong header, column count, or value type."""


class MappingError(InputError):
    """CpG row references a gene that does not exist or mismatches it.

    The message starts with the CpG's ``file:line`` when its table was read from a file.
    """


class DuplicateIdError(InputError):
    """Duplicate gene or CpG identifier within one table."""


class DataDomainError(InputError):
    """Value outside its legal domain (negative count, beta outside [0,1]).

    ``where``, when known, is the ``(condition, column)`` of the fault:
    condition ``"a"`` or ``"b"`` and a 0-based patient column.
    """

    def __init__(self, message, where=None):
        self.where = where  # pickled with the instance's __dict__
        super().__init__(message)


class ParameterError(InputError):
    """Out-of-range algorithm parameter."""


class FitError(JointmixError):
    """Numerical or convergence failure during model fitting."""


class DegenerateClusterError(FitError):
    """A mixture component lost all of its mass.

    ``layer`` is ``"gene"`` or ``"cpg"``; ``index`` is the 0-based
    component index.
    """

    def __init__(self, layer, index, message=None):
        self.layer = layer
        self.index = index
        super().__init__(
            message or f"degenerate {layer} cluster {index}: total responsibility below threshold"
        )

    def __reduce__(self):
        return type(self), (self.layer, self.index, str(self))


class NumericalError(FitError):
    """Non-finite quantity encountered; carries the offending entity id."""

    def __init__(self, entity, message=None):
        self.entity = entity
        super().__init__(message or f"non-finite responsibility for {entity}")

    def __reduce__(self):
        return type(self), (self.entity, str(self))


class UndefinedColumnError(FitError):
    """A CpG cluster has zero marginal mass, so inversion is undefined."""
