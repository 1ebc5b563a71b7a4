"""Durable filesystem helpers: fsync'd atomic replace.

``os.replace`` alone gives *atomicity* (readers see the old file or the
new file, never a mix) but not *durability*: on many filesystems a crash
shortly after the rename can surface a zero-length or partial target,
because neither the temp file's data nor the directory entry had reached
the disk. The write protocol here closes that window:

1. write the payload to a temp file beside the target;
2. flush and ``fsync`` the temp file (data durable under its temp name);
3. ``os.replace`` onto the target (atomic swap);
4. ``fsync`` the parent directory (the rename itself durable).

:func:`fsync_file` exists for writers that stream through higher-level
handles (text wrappers, gzip) and can only sync after closing: re-opening
the closed file and fsyncing its descriptor flushes the same inode.

Directory fsync is not supported everywhere (and fails on some network
filesystems); :func:`fsync_dir` degrades to a no-op rather than turning a
successful write into an error.

A writer killed between steps 1 and 3 leaves its temp file behind, named
for its pid; :func:`reap_dead_temp_files` removes such files once that
process is provably gone.
"""

from __future__ import annotations

import os
import pathlib
import re
from typing import Union

__all__ = [
    "atomic_write_bytes",
    "fsync_dir",
    "fsync_file",
    "reap_dead_temp_files",
    "temp_path_for",
]

PathLike = Union[str, pathlib.Path]


def temp_path_for(path: PathLike) -> pathlib.Path:
    """The conventional temp-file name for an atomic write of ``path``."""
    path = pathlib.Path(path)
    return path.parent / f"{path.name}.tmp.{os.getpid()}"


_TEMP_NAME = re.compile(r"\.tmp\.(\d+)$")


def reap_dead_temp_files(directory: PathLike) -> None:
    """Remove every :func:`temp_path_for` file in ``directory`` whose
    writer is provably dead: ``os.kill(pid, 0)`` raises
    ``ProcessLookupError``. A live pid — this process, another writer, or
    a process that reuses a dead writer's pid — keeps its file, as does a
    pid this process may not signal (``PermissionError``: it exists)."""
    for name in os.listdir(directory):
        match = _TEMP_NAME.search(name)
        if match is None:
            continue
        try:
            os.kill(int(match.group(1)), 0)
        except ProcessLookupError:
            (pathlib.Path(directory) / name).unlink(missing_ok=True)
        except (PermissionError, OverflowError):
            pass


def fsync_file(path: PathLike) -> None:
    """Flush a *closed* file's data to disk (open read-only, fsync, close)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: PathLike) -> None:
    """Flush a directory entry table to disk; no-op where unsupported."""
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Durably replace ``path`` with ``data`` (temp + fsync + rename)."""
    path = pathlib.Path(path)
    tmp = temp_path_for(path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_dir(path.parent)
