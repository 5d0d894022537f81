"""Runtime error classification and rendering shared across the package.

Evaluation failures travel as `HybridError` exceptions inside a module and
are folded into outcome values at the semantics boundary; they never escape
the public evaluator interfaces.  `fail` builds every one of them.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .syntax import pretty


class ErrorKind(enum.Enum):
    DIVISION_BY_ZERO = "DivisionByZero"
    DOMAIN_ERROR = "DomainError"
    UNINITIALIZED_VARIABLE = "UninitializedVariable"
    NON_LINEAR_ODE = "NonLinearODE"
    NEGATIVE_DURATION = "NegativeDuration"
    ARITY_ERROR = "ArityError"
    SOLVER_FAILURE = "SolverFailure"


@dataclass(frozen=True)
class ErrorInfo:
    """What failed, where in the source, and the environment at that point."""

    kind: ErrorKind
    message: str
    src: str
    line: int = 0
    col: int = 0
    env: dict = field(default_factory=dict, compare=False)

    def render(self) -> str:
        return f"Error: {self.message} at {self.line}:{self.col}"


class HybridError(Exception):
    """Carrier for an ErrorInfo raised by evaluators and the linearizer."""

    def __init__(self, info: ErrorInfo):
        super().__init__(info.render())
        self.info = info


_MESSAGES = {
    ErrorKind.DIVISION_BY_ZERO: "the divisor of the division '{text}' is zero",
    ErrorKind.DOMAIN_ERROR: "the expression '{text}' is undefined",
    ErrorKind.UNINITIALIZED_VARIABLE: "the variable '{node.name}' is not initialised",
    ErrorKind.NON_LINEAR_ODE:
        "the ODEs contain non-linear expressions after de-sugaring: '{text}'",
    ErrorKind.NEGATIVE_DURATION: "the duration '{text}' is negative",
    ErrorKind.ARITY_ERROR:
        "the function '{node.fn}' expects {want} argument(s), got {got}",
    ErrorKind.SOLVER_FAILURE: "the solver failed on '{text}'",
}


def fail(kind: ErrorKind, node, env: dict, **detail) -> HybridError:
    """The error of `kind` blamed on `node` (an expression or a differential
    statement): its source text, the span its `loc` marks in the parsed
    text, and its position; a node with no `loc` is pretty-printed and
    placed at 0:0.  `detail` fills the rest of the message (`want` and
    `got` for an arity error).  This is the only reader of source text."""
    loc = node.loc
    if loc is None:
        text, line, col = pretty(node), 0, 0
    else:
        text, line, col = loc.text[loc.start:loc.end], loc.line, loc.col
    msg = _MESSAGES[kind].format(text=text, node=node, **detail)
    return HybridError(ErrorInfo(kind, msg, text, line, col, dict(env)))
