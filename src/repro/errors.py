"""Exception hierarchy for the repro simulator.

The paper (Sec. III-B) distinguishes *tooling* errors (assembler / compiler
syntax errors, reported with line/column so the editor can highlight them,
Figs. 6-7) from *simulation* exceptions (division by zero, unauthorized
memory access) which are generated during execution and checked when the
instruction is committed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigError(ReproError):
    """Invalid processor / memory / predictor configuration."""


class FleetError(ReproError):
    """A fleet sweep cannot run for an operator-reportable reason
    (typically: no registered workers to run on)."""


class SourceError(ReproError):
    """An error in user source code, carrying an editor-highlightable span.

    Parameters
    ----------
    message:
        Human readable description.
    line, column:
        1-based position of the offending token (0 when unknown).
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def to_json(self) -> dict:
        """Editor payload used by the web client to underline the error."""
        return {"message": self.message, "line": self.line, "column": self.column}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.line:
            return f"{self.line}:{self.column}: {self.message}"
        return self.message


class AsmSyntaxError(SourceError):
    """Syntax error in RISC-V assembly input (Fig. 7)."""


class CSyntaxError(SourceError):
    """Syntax error in C input (Fig. 6)."""


class CTypeError(SourceError):
    """Semantic / type error in C input."""


class SimulationException(ReproError):
    """Raised *architecturally* by an executing instruction.

    These are recorded on the in-flight instruction and only surface when the
    instruction commits (mis-speculated faulting instructions are squashed
    silently, matching Sec. III-B).
    """

    kind = "generic"

    def __init__(self, message: str, pc: int = -1):
        super().__init__(message)
        self.message = message
        self.pc = pc


class MemoryAccessError(SimulationException):
    """Access to an address outside the allocated memory array."""

    kind = "memory"


class DivisionByZeroError(SimulationException):
    """Integer division by zero (RISC-V defines a result; the simulator
    still reports it as a runtime diagnostic, as the paper does)."""

    kind = "div0"


class ExpressionError(ReproError):
    """Malformed ``interpretableAs`` expression in an instruction definition."""
