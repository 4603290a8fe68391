"""Small shared helpers: stable seeding, byte-stable number formatting, CSV
cells, and the one writer every output file goes through."""
from __future__ import annotations

import hashlib
import math
import os
import stat
from contextlib import contextmanager


def stable_seed(*parts: object) -> int:
    """Derive a 32-bit seed from the parts, independent of hash randomization."""
    payload = "::".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") % (2**32)


def fmt12(x: float) -> str:
    """Format with 12 significant digits; never emits a negative zero."""
    if x == 0.0:
        return "0"
    if not math.isfinite(x):
        return str(x)
    return f"{x:.12g}"


def parse_scalar(text: str) -> int | float | str:
    """A CSV cell as int, else float, else the text unchanged (no stripping)."""
    # Exact shortcuts: only inf, infinity and nan start with a letter that
    # int() or float() accepts, and int() never accepts a ".".
    if text[:1].isalpha() and text[0] not in "iInN":
        return text
    if "." not in text:
        try:
            return int(text)
        except ValueError:
            pass
    try:
        return float(text)
    except ValueError:
        return text


@contextmanager
def open_output(path):
    """Open ``path`` to write UTF-8 text over its old bytes, then cut it to length.

    The file is not emptied on open: on ext4 (``auto_da_alloc``), emptying a
    file whose old bytes are not yet on disk forces them out first, so each
    rewrite of an output would wait on the disk. Instead the new text is
    written over the old, and on leaving the block, exception or not, a
    regular file is truncated to what was written. Links, the inode and the
    mode of an existing file are kept; a new file gets ``open(path, "w")``'s
    mode. A process killed mid-write can leave the new text followed by the
    old file's tail.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fp:
        regular = stat.S_ISREG(os.fstat(fp.fileno()).st_mode)
        try:
            yield fp
        finally:
            if regular:
                fp.truncate()
