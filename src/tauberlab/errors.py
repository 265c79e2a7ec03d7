"""Exception taxonomy shared by every module.

Two families matter for the command line: contract-style failures (bad
arguments, violated preconditions, malformed inputs) map to exit code 1,
resource-style failures (prime table too small, precision targets that
cannot be met within the term budget) map to exit code 2. Only the two
family bases set `exit_code`; every other class inherits its family's.
"""

__all__ = [
    "TauberlabError",
    "DomainError",
    "ContractError",
    "ConfigError",
    "ResourceError",
    "PrecisionError",
    "TableExhaustedError",
]


class TauberlabError(Exception):
    """Base class; `code` is the short machine-readable tag used by the CLI."""

    code = "error"
    exit_code = 1


class DomainError(TauberlabError):
    """Argument outside the mathematical domain (e.g. Re s <= 1, x < 0)."""

    code = "domain"


class ContractError(TauberlabError):
    """Structural precondition violated (non-symmetric matrix, bad step data...)."""

    code = "contract"


class ConfigError(ContractError):
    """Malformed or invalid configuration input."""

    code = "config"


class ResourceError(TauberlabError):
    """A resource limit (table size, hard caps) blocks the computation."""

    code = "resource"
    exit_code = 2


class PrecisionError(ResourceError):
    """Requested tolerance unreachable within the term/panel budget.

    `achieved` carries the best bound that was certified before giving up.
    """

    code = "precision"

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class TableExhaustedError(ResourceError):
    """A query needs primes beyond the table's limit; `required` names it."""

    code = "table-exhausted"

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required
