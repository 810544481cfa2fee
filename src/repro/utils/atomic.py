"""Crash-safe JSON persistence: a reader sees the old file or the new one."""

from __future__ import annotations

import json
import os
import threading
from typing import Any


def write_json_atomic(path: str, doc: Any) -> None:
    """Write *doc* to *path* as indented, key-sorted JSON, atomically.

    The document goes to a temporary file beside *path*, is flushed and
    ``fsync``-ed, then renamed over *path* with :func:`os.replace`.  A
    crash or an encoder error at any point leaves the previous file
    intact (a failed write also removes its temporary file).
    """
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
