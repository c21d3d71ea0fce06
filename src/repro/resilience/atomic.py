"""The one durable write path for job state.

Every file the job system persists — store records, the store index,
claim owners, checkpoints, input spools, stream chunks, the ``eof``
marker — is written by :func:`atomic_write`.  A reader therefore sees
either the previous complete file or the new complete file, never a
torn one, and a file whose write returned survives a power loss, not
only a process crash:

1. the bytes go to a unique temporary name in the target's directory
   (dot-prefixed, so directory scans for job ids, queue markers and
   chunks never mistake it for real state, and unique, so two writers
   in one directory cannot clobber each other's temporary file);
2. the temporary file is ``fsync``-ed;
3. :func:`os.replace` swaps it in atomically;
4. the directory is ``fsync``-ed, making the rename itself durable.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable


def atomic_write(
    path: str | Path, data_or_writer: bytes | Callable[[BinaryIO], None]
) -> None:
    """Durably replace ``path`` with ``data_or_writer``'s bytes.

    ``data_or_writer`` is the bytes themselves, or a callback that
    writes them to the open binary handle (``np.save`` and
    ``np.savez_compressed`` stream straight into it).  On any failure
    before the rename the previous file is left intact and the
    temporary file is removed.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if callable(data_or_writer):
                data_or_writer(handle)
            else:
                handle.write(data_or_writer)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
