"""Atomic file writing: outputs appear fully written or not at all."""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path, text: str):
    """Write ``text`` to ``path`` via a temp file in the same directory plus rename.

    The file gets the mode ``open`` would give it, 0666 less the umask, rather
    than the temp file's 0600.  Reading the umask sets it for an instant, so
    other threads should not create files meanwhile.  An ``OSError`` is
    raised again, same type and errno, naming ``path`` rather than the temp
    file.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as handle:
            os.chmod(tmp_path, 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise
