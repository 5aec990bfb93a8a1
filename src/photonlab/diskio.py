"""Atomic file-writing helpers.

Output files are written to a temporary sibling and renamed into place so a
reader never observes a half-written artifact and reruns replace files
atomically.  A failure raises an ``OSError`` that names the requested path,
never the temporary sibling.

``photonlab run`` calls these helpers from the export thread of
:mod:`photonlab.slabs`, one file at a time; they keep no state, so the
thread changes nothing here.  The temporary file is not pre-allocated with
``os.posix_fallocate``: that would skip the 3-4 ms that ext4 spends when a
rename replaces an existing file, but it drops the ordering ext4 gives such
a replacement, so a crash could leave a zero-filled file under the final
name.  On the export thread that stall is off the critical path anyway.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path: str, chunks) -> None:
    """Write the bytes-like ``chunks``, in order, to ``path`` via a temporary file.

    The temporary file is in the same directory.  A header and an array
    buffer are written as two chunks, so they are never joined into a copy.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, (text.encode("utf-8"),))
