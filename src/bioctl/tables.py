"""Artifact output: the one format and the one failure policy of every file
a command leaves under --out.

Rows are ASCII lines built with a single ``%`` format, 17 significant
digits a float (``%.17g`` round-trips doubles).  A file is written whole
or not at all: if it cannot be opened, or a chunk cannot be produced or
written, the partial file is removed, and a failure of the file system,
a fork or a worker is raised as ``OutputWriteError`` (exit 1).
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor

import numpy as np

__all__ = ["OutputWriteError", "rows", "write"]


class OutputWriteError(RuntimeError):
    """An output file could not be written; no partial file is left (exit 1)."""


def rows(fmt: str, *columns) -> bytes:
    """The lines fmt % row, one per row of the equal-length columns, as
    ASCII bytes.  The columns are stacked as floats, so an integer field
    takes %d; one ``%`` over the whole block costs about 1 us a float."""
    block = np.column_stack(columns)
    return ((fmt * len(block)) % tuple(block.ravel().tolist())).encode()


def write(path, chunks) -> None:
    """Write the byte chunks to path in order, whole or not at all.

    chunks may be a generator that computes each chunk as it is written;
    if the write fails it is closed first, so a worker pool it holds is
    shut down before the partial file is removed.  Any exception removes
    the partial file; an OSError or a broken worker pool is raised as
    OutputWriteError, anything else unchanged.
    """
    try:
        fh = open(path, "wb")
    except OSError as e:
        raise OutputWriteError(f"cannot write {path}: {e.strerror or e}") from e
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
                del chunk   # not held while the next chunk is computed
    except BaseException as e:
        if hasattr(chunks, "close"):
            chunks.close()
        os.remove(path)
        if isinstance(e, (OSError, BrokenExecutor)):
            raise OutputWriteError(
                f"writing {path} failed ({type(e).__name__}: {e}); the partial "
                "file was removed") from e
        raise
