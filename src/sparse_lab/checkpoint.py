"""Binary tensor serialization for checkpoints.

File layout: 4-byte magic ``SLTB``, one version byte, uint32 record count,
then one record per tensor: uint16 name length, UTF-8 name, uint8 rank,
uint32 per dimension, and the row-major float64 payload.  All integers and
floats are little-endian.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .nn import ParamSet
from .rundir import CheckpointError, write_atomic

MAGIC = b"SLTB"
VERSION = 1


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    parts = [MAGIC, struct.pack("<BI", VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    write_atomic(path, b"".join(parts))


def _read_tensors(path: str | Path, payloads: bool) -> dict[str, np.ndarray | None]:
    """Parse a checkpoint, reading each payload or seeking past it."""
    path = Path(path)
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    with f:
        size = os.fstat(f.fileno()).st_size

        def take(count: int, what: str, skip: bool = False) -> bytes:
            if f.tell() + count > size:
                raise CheckpointError(f"truncated checkpoint {path}: no room for {what}")
            if skip:
                f.seek(count, os.SEEK_CUR)
                return b""
            return f.read(count)

        if take(4, "magic") != MAGIC:
            raise CheckpointError(f"bad magic in checkpoint {path}")
        version, count = struct.unpack("<BI", take(5, "header"))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} in {path}")

        tensors: dict[str, np.ndarray | None] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2, "name length"))
            name = take(name_len, "name").decode("utf-8")
            (ndim,) = struct.unpack("<B", take(1, "rank"))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "shape"))
            numel = int(np.prod(shape, dtype=np.int64)) if ndim else 1
            payload = take(8 * numel, f"payload of {name!r}", skip=not payloads)
            tensors[name] = (
                np.frombuffer(payload, dtype="<f8").reshape(shape).copy() if payloads else None
            )
        if f.tell() != size:
            raise CheckpointError(f"trailing bytes in checkpoint {path}")
    return tensors


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    return _read_tensors(path, payloads=True)


def verify_tensors(path: str | Path) -> None:
    """Raise CheckpointError unless the file parses as a checkpoint; payloads are not read."""
    _read_tensors(path, payloads=False)


def save_params(path: str | Path, params: ParamSet) -> None:
    save_tensors(path, {n: params[n] for n in params.names()})


def load_params(path: str | Path) -> ParamSet:
    """Rebuild a ParamSet; prunability is recovered from the name suffix
    (the record format carries names, shapes, and payloads only)."""
    params = ParamSet()
    for name, arr in load_tensors(path).items():
        params.add(name, arr, prunable=name.endswith(".weight"))
    return params
