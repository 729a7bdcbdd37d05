"""Whole-or-nothing file writes: checkpoints, CLI artifacts and graph
sidecars are all written through `replacing`."""

import contextlib
import os


@contextlib.contextmanager
def replacing(path, mode: str = "wb", **open_kwargs):
    """Yield a new file `<path>.<pid>-<8 hex>.tmp`, opened in `mode` with
    exclusive create, so nothing already at that name is followed or
    removed; rename it over `path`, with the mode of a file already there,
    once the block completes, and remove it if anything fails, which leaves
    `path` as it was."""
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
