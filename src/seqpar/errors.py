"""Exception types shared across the package.

A shape mismatch or a bad partition raises where it is found: it is a bug in
the caller and should never be papered over.  Non-finite values raise at
the boundaries they cannot slip past: every layer's output in the forward
pass and its input gradient in the backward pass, the loss and its logit
gradient, and each rank's step gradients before the optimizer applies them.
The kernels in between do not scan their outputs, since NaN and Inf
propagate through every op; a non-finite value still raises
:class:`NumericsError` before it reaches the parameters.
"""


class ShapeError(ValueError):
    """Operands have incompatible or unexpected dimensions."""


class PartitionError(ValueError):
    """A dimension is not evenly divisible by the worker count."""


class DegenerateRowError(ValueError):
    """A softmax row has every entry masked out."""


class NumericsError(ArithmeticError):
    """A kernel produced NaN or Inf."""


class CommTimeout(RuntimeError):
    """A collective did not complete before the communicator timeout."""


class CommAborted(RuntimeError):
    """The communicator was torn down while a worker was blocked in it."""
