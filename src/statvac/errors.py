"""Exceptions shared by the library, the oracles and the command line.

They live outside the ``oracles`` package so that the command line can
catch an oracle failure without importing the oracles on modes that run
none.
"""

__all__ = ["NumericalFailure"]


class NumericalFailure(RuntimeError):
    """An oracle integration failed to reach its accuracy target, or the
    surface it produced is degenerate."""
