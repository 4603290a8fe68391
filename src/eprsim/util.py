"""Small shared helpers: stable seeding, byte-stable number formatting, CSV cells."""
from __future__ import annotations

import hashlib
import math


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


def scrub(obj):
    """Recursively replace -0.0 by 0.0 so serialized reports are byte-stable."""
    if isinstance(obj, float):
        return 0.0 if obj == 0.0 else obj
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [scrub(v) for v in obj]
    return obj


def parse_scalar(text: str) -> int | float | str:
    """A CSV cell as int, else float, else the text unchanged (no stripping)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text
