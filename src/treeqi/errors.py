"""Exception types shared across the package."""


class TreeQIError(Exception):
    """Base class for every error raised by this package."""


class InvalidAddressError(TreeQIError):
    """An address is malformed or has a label out of range for the degree."""


class BudgetExceededError(TreeQIError):
    """An enumeration would exceed the configured vertex budget."""


class DepthLimitError(BudgetExceededError):
    """An address would exceed the supported maximum depth."""


class ShapeMismatchError(TreeQIError):
    """Maps over trees of different degrees were combined."""


class MapDomainError(TreeQIError):
    """A map was evaluated or composed outside its stored ball."""


class MapFormatError(TreeQIError):
    """A map or trace file failed to parse; carries the offending line."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class PreconditionError(TreeQIError):
    """An operation's stated precondition does not hold for the input."""


class PolicyError(TreeQIError):
    """A construction policy produced an infeasible or invalid choice."""

    def __init__(self, message, level=None, image=None):
        self.level = level
        self.image = image
        super().__init__(message)


class ValidationFailure(TreeQIError):
    """A structural validation failed; `kind` names the failed check.

    Kinds used by the approximation transform:
      subtree-boundary   image set is not the boundary of a finite subtree
      shared-parent      two children of different class members share an image
      fill-distance      an intermediate vertex's image is too far from the input
      final-bound        overall distance between input and output exceeded bound
      normalize-bound    normalization moved a point farther than its bound
    """

    def __init__(self, kind, message, level=None, image=None):
        self.kind = kind
        self.level = level
        self.image = image
        super().__init__(f"{kind}: {message}")
