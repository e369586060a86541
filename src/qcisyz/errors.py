"""Failures that the CLI maps to exit codes 2 and 3, shared by all layers."""


class InputError(ValueError):
    """Invalid analysis input (exit code 2 at the CLI)."""


class InvariantError(AssertionError):
    """An internal cross-check failed (exit code 3 at the CLI)."""
