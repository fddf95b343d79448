"""Writing an output file so that a failed write never leaves a partial one."""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write *data* to a new temp file beside *path*, then rename it over
    *path*, so a failed or interrupted write leaves any earlier file whole
    and no partial one.  There is no fsync: this guards against the process
    failing, not the host.  An OS error is raised again, of its class, naming
    *path* rather than the temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.strerror:
            raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
        raise
