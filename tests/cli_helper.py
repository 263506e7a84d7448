"""Run the CLI two ways: ``invoke`` calls ``thcr.cli.main`` in-process with
captured streams, as a shell would see it, and ``fresh_python`` starts a new
interpreter, as a user's cold call does."""

import contextlib
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

from thcr.cli import main

ROOT = Path(__file__).resolve().parent.parent


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


def fresh_python(*args, text=True) -> subprocess.CompletedProcess:
    """``python ARGS`` in a new interpreter on the repository's ``src``,
    writing no bytecode."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=text, timeout=60)
