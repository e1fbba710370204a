"""Run the CLI in this process the way its console script does: main(args), with stdout and
stderr captured as UTF-8 bytes and the exit status turned into a code."""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace
from unittest import mock

from majorana_lab.cli import main


def invoke(args, env=None):
    """main(args) with each key of env set, or unset where it maps to None, for the call.

    The result has exit_code (a SystemExit's code, None as 0; any other exception is exit 1
    and kept in exception), stdout_bytes, stdout, stderr, and output: stdout then stderr.
    """
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    exit_code, exception = 0, None
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        for key, value in (env or {}).items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        try:
            main(list(args))
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
        except Exception as exc:
            exit_code, exception = 1, exc
    out.flush()
    err.flush()
    stdout_bytes = out.buffer.getvalue()
    stdout, stderr = stdout_bytes.decode("utf-8"), err.buffer.getvalue().decode("utf-8")
    return SimpleNamespace(exit_code=exit_code, exception=exception, stdout_bytes=stdout_bytes,
                           stdout=stdout, stderr=stderr, output=stdout + stderr)
