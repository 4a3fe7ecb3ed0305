"""Exception types shared across the library.

The split matters for scripting: spec-file problems, structural violations
and failed compactness hypotheses map to distinct CLI exit codes.
"""


class ModelError(ValueError):
    """A structural contract was violated (grid mismatch, bad exponent, misaligned shift)."""


class SpecFileError(ValueError):
    """A family/space spec document failed to parse."""


class HypothesisError(RuntimeError):
    """A compactness hypothesis could not be certified at the working resolution.

    ``criterion`` names the failing modulus: ``"equicontinuity"`` when no
    admissible mesh keeps the translation modulus below budget.  The tail
    never fails, because the ambient box truncates nothing and has zero tail.
    """

    def __init__(self, criterion: str, message: str):
        super().__init__(message)
        self.criterion = criterion
