"""Binary tensor serialization for checkpoints.

File layout: 4-byte magic ``SLTB``, one version byte, uint32 record count,
then one record per tensor: uint16 name length, UTF-8 name, uint8 rank,
uint32 per dimension, a uint8 encoding, a uint64 count, and the payload.
All integers and floats are little-endian.  With n entries in the tensor:

- ``DENSE`` (0): count = n, then the n row-major float64 values.
- ``SPARSE`` (1): count = the number of entries ``!= 0.0``, then a bitmap of
  those entries (``np.packbits`` of the flat tensor, little bit order,
  ``ceil(n/8)`` bytes, padding bits 0), then their count float64 values in
  flat order.
- ``BINARY`` (2): as ``SPARSE`` without the values; every set entry is 1.0.

``save_tensors`` picks the encoding per tensor: ``BINARY`` when every
nonzero entry is 1.0 (masks, all-zero biases), else ``SPARSE`` when
``8*count + ceil(n/8) < 8*n``, else ``DENSE``.  A round trip keeps every
nonzero, NaN and infinite entry bit for bit; in ``SPARSE`` and ``BINARY``
records a zero of either sign reads back as +0.0.  Version-1 files, whose
records carry no encoding byte or count and are all dense, still load.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .nn import ParamSet
from .rundir import CheckpointError, write_atomic

MAGIC = b"SLTB"
VERSION = 2
DENSE, SPARSE, BINARY = 0, 1, 2


def _encode(arr: np.ndarray) -> tuple[int, int, list[bytes | np.ndarray]]:
    """(encoding, count, payload parts) of a C-contiguous little-endian float64 tensor.

    Arrays go into the parts as they are: ``save_tensors`` joins them into one
    buffer, and a ``tobytes`` copy of each would only add to the peak memory.
    """
    flat = arr.reshape(-1)
    nonzero = flat != 0.0
    count = int(np.count_nonzero(nonzero))
    binary = count == np.count_nonzero(flat == 1.0)  # every nonzero entry is 1.0
    if not binary and 8 * count + -(-flat.size // 8) >= 8 * flat.size:
        return DENSE, flat.size, [arr]
    bitmap = np.packbits(nonzero, bitorder="little")
    if binary:
        return BINARY, count, [bitmap]
    return SPARSE, count, [bitmap, np.compress(nonzero, flat)]  # faster than flat[nonzero]


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    parts = [MAGIC, struct.pack("<BI", VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.require(arr, dtype="<f8", requirements="C")  # keeps rank 0
        encoded = name.encode("utf-8")
        encoding, count, payload = _encode(arr)
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(struct.pack("<BQ", encoding, count))
        parts.extend(payload)
    write_atomic(path, b"".join(parts))


def _set_entries(path: Path, name: str, packed: bytes, numel: int, count: int) -> np.ndarray:
    """The flat bool array a record's bitmap sets, checked against its count."""
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    if bits[numel:].any():
        raise CheckpointError(f"nonzero padding bits in bitmap of {name!r} in {path}")
    popcount = int(np.count_nonzero(bits))
    if popcount != count:
        raise CheckpointError(
            f"bitmap of {name!r} in {path} sets {popcount} entries, its record says {count}"
        )
    return bits[:numel].view(bool)


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
        if version not in (1, VERSION):
            raise CheckpointError(f"unsupported checkpoint version {version} in {path}")

        tensors: dict[str, np.ndarray | None] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2, "name length"))
            name = take(name_len, "name").decode("utf-8")
            (ndim,) = struct.unpack("<B", take(1, "rank"))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "shape"))
            numel = int(np.prod(shape, dtype=np.int64)) if ndim else 1
            if version == 1:  # every version-1 record is dense
                encoding, stored = DENSE, numel
            else:
                encoding, stored = struct.unpack("<BQ", take(9, f"encoding of {name!r}"))
            if encoding not in (DENSE, SPARSE, BINARY):
                raise CheckpointError(f"unknown encoding {encoding} of {name!r} in {path}")
            if stored > numel or (encoding == DENSE and stored != numel):
                raise CheckpointError(
                    f"{name!r} in {path} stores {stored} values for {numel} entries"
                )
            skip = not payloads
            if encoding == DENSE:
                values = take(8 * numel, f"payload of {name!r}", skip)
            else:
                packed = take(-(-numel // 8), f"bitmap of {name!r}", skip)
                if encoding == SPARSE:
                    values = take(8 * stored, f"values of {name!r}", skip)
            if not payloads:
                tensors[name] = None
            elif encoding == DENSE:
                tensors[name] = np.frombuffer(values, dtype="<f8").reshape(shape).copy()
            else:
                nonzero = _set_entries(path, name, packed, numel, stored)
                if encoding == BINARY:
                    out = nonzero.astype(np.float64)
                else:
                    out = np.zeros(numel)
                    out[np.flatnonzero(nonzero)] = np.frombuffer(values, dtype="<f8")
                tensors[name] = out.reshape(shape)
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
    """Rebuild a ParamSet from its names, shapes and values.

    Every nonzero, NaN and infinite value comes back bit for bit.  A zero
    stored in a sparse record, such as a pruned weight, comes back as +0.0
    whatever its sign was when saved.
    """
    params = ParamSet()
    for name, arr in load_tensors(path).items():
        params.add(name, arr)
    return params
