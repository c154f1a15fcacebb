"""In-process ``oi`` runs for the tests."""

import contextlib
import io
from typing import NamedTuple

from outerint.cli import main


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout, then stderr
    stdout_bytes: bytes


def run(*args) -> Result:
    """``oi`` on ``args`` (each turned into a string), its stdout and
    stderr captured; an exception ``main`` does not handle propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return Result(code, out.getvalue() + err.getvalue(), out.getvalue().encode())
