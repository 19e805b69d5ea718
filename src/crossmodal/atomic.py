"""Atomic file writes: every output file of the program is written through ``atomic_open``."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing, and move it to ``path``
    when the ``with`` block ends without an exception.

    ``mode`` is "w" (UTF-8 text) or "wb". A write that fails part way leaves
    the file at ``path`` as it was and removes the temporary file. (There is
    no fsync: this guards against the process failing, not the machine.)
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
