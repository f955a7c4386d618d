"""Exceptions that several modules raise, kept apart so none imports another for them."""


class InvalidForm(ValueError):
    """Not a valid finite quadratic form, or not a positive-definite even binary form."""


class MathFailure(ValueError):
    """A well-posed question whose answer is a failure: no form, no match, no
    unique match.  The CLI exits 1 on it and 2 on any other ValueError."""
