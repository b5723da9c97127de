"""Shared helpers: the configuration error, seed derivation, exact decimal
formatting and the BLAS thread variables; no numpy, so it loads before numpy."""

from __future__ import annotations

import hashlib
import struct

TOOL_VERSION = "0.1.0"
MAX_SEED = 2**64 - 1
# the variables that cap BLAS threads, set from SPARSE_LAB_THREADS before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ConfigError(ValueError):
    """A value that a configuration record or a command-line option rejects."""


def derive_seed(base: int, *parts: int | str) -> int:
    """Derive a 64-bit seed from a base seed and a sequence of context keys.

    Python's builtin ``hash`` is salted per process, so reproducible seed
    derivation goes through SHA-256 instead.  The result is stable across
    platforms and sessions for the same inputs.
    """
    if not 0 <= base <= MAX_SEED:
        raise ValueError(f"base seed {base} outside unsigned 64-bit range")
    h = hashlib.sha256()
    h.update(struct.pack("<Q", base))
    for part in parts:
        if isinstance(part, str):
            h.update(b"s")
            h.update(part.encode("utf-8"))
        else:
            h.update(b"i")
            h.update(struct.pack("<q", part))
    return int.from_bytes(h.digest()[:8], "little")


def fmt_num(value: float | int) -> str:
    """Render a number as minimal decimal text that round-trips exactly.

    Integral values print without a fractional part (0.0 -> "0"), everything
    else uses repr, which is the shortest digit string that parses back to
    the identical 64-bit float.
    """
    if isinstance(value, int):
        return str(value)
    f = float(value)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def fmt_sig17(value: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    f = float(value)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return f"{f:.17g}"
