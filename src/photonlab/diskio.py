"""Atomic file-writing helpers.

Output files are written to a temporary sibling and renamed into place so a
reader never observes a half-written artifact and reruns replace files
atomically.  A failure raises an ``OSError`` that names the requested path,
never the temporary sibling.

The helpers keep no state, so the export thread of ``photonlab run`` may
call them.  The temporary file is not pre-allocated with
``os.posix_fallocate``: that would skip the 3-4 ms that ext4 spends when a
rename replaces an existing file, but it drops the ordering ext4 gives such
a replacement, so a crash could leave a zero-filled file under the final
name.
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
