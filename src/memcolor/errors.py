"""The base of every error the library raises on purpose."""

from contextlib import contextmanager


class MemcolorError(Exception):
    """Base of the library's errors.  Each subclass also keeps a builtin
    base (ValueError or RuntimeError), so code that catches those still
    works; the CLI maps the subclasses to its exit codes."""


class ConfigError(MemcolorError, ValueError):
    """An experiment configuration the simulator cannot run."""


@contextmanager
def fits_in_memory(error, what: str):
    """Raise `error` naming `what` for a MemoryError inside the block."""
    try:
        yield
    except MemoryError:
        raise error(f"{what} do not fit in memory") from None
