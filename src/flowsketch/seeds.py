"""Stable seed derivation for reproducible experiments.

Python's builtin hash() is salted per process, so every derived seed here
goes through SHA-256 instead. Seeds derived from the same (root, parts)
are identical across runs, platforms, and process counts.
"""

import hashlib


def stable_seed(root: int, *parts) -> int:
    """Derive a 64-bit seed from a root seed and a tag tuple.

    Parts may be ints or strings; the encoding is unambiguous so that
    ("a", 1) and ("a1",) cannot collide.
    """
    h = hashlib.sha256()
    h.update(str(int(root)).encode())
    for p in parts:
        h.update(b"\x1f")
        if isinstance(p, str):
            h.update(b"s" + p.encode())
        else:
            h.update(b"i" + str(int(p)).encode())
    return int.from_bytes(h.digest()[:8], "big")
