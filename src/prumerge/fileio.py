"""Output files written all or nothing, and the error raised for a bad
token dump. Neither needs numpy, so the CLI's cost command, ``--help``
and usage errors run without importing it; ``tokendump`` re-exports
both.
"""

from __future__ import annotations

import contextlib
import errno
import os
import shutil
import stat

__all__ = ["TokenDumpError", "write_outputs"]


class TokenDumpError(ValueError):
    """Malformed or unreadable token dump."""


# errors from os.link that mean the file system cannot link the file
_NO_LINKS = {errno.EPERM, errno.EMLINK, errno.ENOSYS, errno.EOPNOTSUPP, errno.ENOTSUP}


def _back_up(path, backup, made) -> None:
    """Hard-link path to the new name backup, or copy it there where
    links are not supported; backup joins made once it exists."""
    try:
        os.link(path, backup)
        made.append(backup)
    except OSError as exc:
        if exc.errno not in _NO_LINKS:
            raise
        with open(path, "rb") as src, open(backup, "xb") as dst:
            made.append(backup)
            shutil.copyfileobj(src, dst)
        shutil.copystat(path, backup)  # a restored copy keeps its mode and times


def write_outputs(outputs) -> None:
    """Write (path, bytes) pairs all or nothing: each goes to a new
    temporary file beside its destination, and none is renamed into place
    until every one of them has been written. Before its rename, an
    existing destination other than the last is hard-linked (or, where
    links are not supported, copied) to a new backup beside it; if any
    exception stops the write, every destination already replaced is
    restored from its backup, or removed if it had none, and the exception
    propagates unchanged. Temporary and backup files are created
    exclusively, and only files this call created are removed; a backup
    that cannot be moved back or removed stays. An existing path that is
    not a regular file (a directory, FIFO, device or symlink) is refused
    before anything is staged, since the rename would replace it."""
    for path, _ in outputs:
        with contextlib.suppress(FileNotFoundError):
            if not stat.S_ISREG(os.lstat(path).st_mode):
                raise OSError(f"{path} exists and is not a regular file")
    pid = os.getpid()
    made, replaced = [], []  # files this call created; (output, backup or None)
    try:
        for i, (path, data) in enumerate(outputs):
            with open(f"{path}.{pid}-{i}.tmp", "xb") as fh:
                made.append(fh.name)
                fh.write(data)
        for i, (path, _) in enumerate(outputs):
            tmp, backup = f"{path}.{pid}-{i}.tmp", None
            # a backup is read only if a later rename fails
            if i < len(outputs) - 1 and os.path.exists(path):
                backup = f"{path}.{pid}-{i}.bak"
                _back_up(path, backup, made)
            os.replace(tmp, path)
            made.remove(tmp)
            replaced.append((path, backup))
    except BaseException:
        for path, backup in reversed(replaced):
            with contextlib.suppress(OSError):
                if backup:
                    made.remove(backup)  # one that cannot be moved back stays
                    os.replace(backup, path)
                else:
                    os.remove(path)
        for leftover in made:
            with contextlib.suppress(OSError):
                os.remove(leftover)
        raise
    for backup in made:
        with contextlib.suppress(OSError):
            os.remove(backup)
