"""All-or-nothing file writes: every artifact is written to a temporary file
next to its destination and renamed over it once complete, so a reader (or
a rerun after a crash) finds either the previous file or the whole new one,
never part of one."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file in `path`'s directory for writing (text as
    UTF-8, or binary with a "b" `mode`) and yield it. When the block
    completes, the file replaces `path`; when it raises, the temporary file
    is removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
