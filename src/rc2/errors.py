"""Exception types shared across the package.

Callers tell apart only the kinds below; the message says which check
failed.  The CLI turns every one of them into exit 2.
"""


class Rc2Error(Exception):
    """Base class for all package errors."""


class InvalidInput(Rc2Error):
    """Malformed input from outside the program: an edge list, a JSON
    document, a coloring payload, or family and census parameters."""


class PreconditionViolated(Rc2Error):
    """Well-formed input that the operation does not apply to: a graph that
    is not 2-connected, not minimal, a cycle where ears are needed, a
    labeling or decomposition that does not fit the graph, a graph too large
    to index, and the like."""


class BudgetExceeded(Rc2Error):
    """The brute-force search ran out of its candidate budget.

    ``lower_bound`` is the largest value proved so far: every color count
    strictly below it was exhausted without finding a valid coloring.
    """

    def __init__(self, message: str, lower_bound: int):
        super().__init__(message)
        self.lower_bound = lower_bound
