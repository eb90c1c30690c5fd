"""Desk-scale workbench for finite categories, sheaves, and homological algebra."""

__version__ = "0.1.0"


class GroundworkError(Exception):
    """Base of every exception the package raises on purpose.  Each of its
    three kinds carries a `gw` exit code and report label; any other
    exception is a bug."""


class InputError(GroundworkError, ValueError):
    exit_code, label = 2, "input error"


class Failure(GroundworkError, ValueError):
    exit_code, label = 1, "failure"


class ResourceCap(GroundworkError, RuntimeError):
    exit_code, label = 3, "resource cap exceeded"


class ErrorList(Failure):
    """A validator's findings; .errors lists every violation found."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("; ".join("%s%r" % (e[0], e[1:])
                                   for e in self.errors))
