"""Run ``thcr.cli.main`` in-process with captured streams, as a shell would see it."""

import contextlib
import dataclasses
import io
import os
from unittest import mock

from thcr.cli import main


@dataclasses.dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(*args, env=None) -> Result:
    """Exit code and output of ``thcr ARGS``; any exception but SystemExit propagates."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return Result(code, out.getvalue(), err.getvalue())
