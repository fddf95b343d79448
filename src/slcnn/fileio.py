"""Writing output files so that a failed write never leaves a partial one,
and the program's one binary container: an uncompressed npz, a zip of .npy
members that each carry a CRC-32, read and written only here."""

from __future__ import annotations

import io
import os
import secrets
from pathlib import Path

import numpy as np


class NpzError(Exception):
    """Raised by read_npz for a file that is not a valid npz."""


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


def write_npz(path: str | Path, members: dict[str, np.ndarray]) -> None:
    """Write *members*, in order, as an uncompressed npz through write_atomic.
    The zip entries carry a fixed timestamp, so equal members give equal bytes."""
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    write_atomic(path, buffer.getvalue())


def read_npz(path: str | Path) -> dict[str, np.ndarray]:
    """The members of the npz at *path*, in order, each read as far as its
    .npy header says, which checks its CRC-32 if that is to its end.  Any
    other file (a .npy, a pickle, a bad zip, CRC or header, a member that is
    not a .npy) raises NpzError."""
    with open(path, "rb") as handle:
        if handle.read(4) != b"PK\x03\x04":  # np.load would read a pickle or a .npy
            raise NpzError("not a zip file")
        handle.seek(0)
        try:  # zipfile and numpy raise many classes for a malformed file
            with np.load(handle, allow_pickle=False) as npz:
                members = {name: npz[name] for name in npz.files}
        except Exception as exc:
            raise NpzError(f"{type(exc).__name__}: {exc}") from None
    if not all(isinstance(value, np.ndarray) for value in members.values()):
        raise NpzError("a member that is not a .npy array")
    return members
