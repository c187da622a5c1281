"""The base of every error the library raises on purpose."""


class MemcolorError(Exception):
    """Base of the library's errors.  Each subclass also keeps a builtin
    base (ValueError or RuntimeError), so code that catches those still
    works; the CLI maps the subclasses to its exit codes."""


class ConfigError(MemcolorError, ValueError):
    """An experiment configuration the simulator cannot run."""
