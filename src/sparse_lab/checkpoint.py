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

A read parses every header first, seeking past the payloads (all that
``verify_tensors`` reads), then ``load_params`` lays out one ParamSet, or
takes an existing one of the same layout, and decodes each payload once,
into its entry's view of the buffer.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Mapping

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


def save_tensors(path: str | Path, tensors: Mapping[str, np.ndarray] | ParamSet) -> None:
    """Write named tensors, a mapping or a ParamSet such as a Mask, in their order."""
    names = list(tensors)
    parts = [MAGIC, struct.pack("<BI", VERSION, len(names))]
    for name in names:
        arr = np.require(tensors[name], dtype="<f8", requirements="C")  # keeps rank 0
        encoded = name.encode("utf-8")
        encoding, count, payload = _encode(arr)
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(struct.pack("<BQ", encoding, count))
        parts.extend(payload)
    write_atomic(path, b"".join(parts))


def _read(
    path: str | Path, decode: bool, out: ParamSet | None = None
) -> ParamSet | list[tuple[str, tuple[int, ...]]]:
    """Parse a checkpoint's headers, seeking past every payload, and with
    ``decode`` decode each payload into its view of ``out``, or of a new
    ParamSet laid out as the file is; without it, return that layout."""
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

        records = {}  # name: (shape, encoding, count, payload offset), in file order
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2, "name length"))
            name = take(name_len, "name").decode("utf-8")
            if name in records:
                raise CheckpointError(f"duplicate tensor name {name!r} in {path}")
            (ndim,) = struct.unpack("<B", take(1, "rank"))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "shape"))
            numel = math.prod(shape)
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
            records[name] = (shape, encoding, stored, f.tell())
            if encoding == DENSE:
                take(8 * numel, f"payload of {name!r}", skip=True)
            else:
                take(-(-numel // 8), f"bitmap of {name!r}", skip=True)
                if encoding == SPARSE:
                    take(8 * stored, f"values of {name!r}", skip=True)
        if f.tell() != size:
            raise CheckpointError(f"trailing bytes in checkpoint {path}")
        shapes = [(name, shape) for name, (shape, *_) in records.items()]
        if not decode:
            return shapes
        if out is None:
            params = ParamSet.on_buffer(np.empty(sum(math.prod(s) for _, s in shapes)), shapes)
        elif out.shapes() != shapes:
            raise CheckpointError(f"{path} holds tensors {shapes}, not the layout "
                                  f"{out.shapes()} it is loaded into")
        else:
            params = out
        for name, (_, encoding, stored, offset) in records.items():
            _decode(f, path, name, encoding, stored, offset, params[name].reshape(-1))
    if out is not None:
        try:
            out.check()
        except ValueError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
    return params


def _decode(f, path: Path, name: str, encoding: int, stored: int, offset: int, out: np.ndarray) -> None:
    """Decode record ``name``'s payload, at ``offset`` in the file, into its
    flat float64 view ``out``: a dense one by ``readinto``, a bitmap checked
    against the record's count, then unpacked with its values block by block."""
    f.seek(offset)
    if encoding == DENSE:
        if f.readinto(out) != out.nbytes:
            raise CheckpointError(f"truncated checkpoint {path}: payload of {name!r}")
        if not np.little_endian:  # the file holds <f8
            out.byteswap(inplace=True)
        return
    packed = np.frombuffer(f.read(-(-out.size // 8)), dtype=np.uint8)
    if out.size % 8 and packed[-1] >> out.size % 8:
        raise CheckpointError(f"nonzero padding bits in bitmap of {name!r} in {path}")
    popcount = int(np.bitwise_count(packed).sum())
    if popcount != stored:
        raise CheckpointError(
            f"bitmap of {name!r} in {path} sets {popcount} entries, its record says {stored}"
        )
    block = 1 << 16  # entries per unpack, to bound the temporaries; a whole number of bitmap bytes
    for start in range(0, out.size, block):
        part = out[start : start + block]
        bits = np.unpackbits(packed[start // 8 : (start + block) // 8], count=part.size,
                             bitorder="little").view(bool)
        part[...] = bits
        if encoding == SPARSE:
            part[bits] = np.frombuffer(f.read(8 * int(np.count_nonzero(bits))), dtype="<f8")


def load_params(path: str | Path, out: ParamSet | None = None) -> ParamSet:
    """Rebuild a ParamSet from its names, shapes and values, in one read.

    Given ``out``, the values are decoded straight into its buffer, which
    must be laid out as the file is (the same names and shapes in the same
    order), and ``out`` is checked (a ``Mask`` stays binary) and returned;
    either failure is a CheckpointError naming the file.  Every nonzero,
    NaN and infinite value comes back bit for bit.  A zero stored in a
    sparse record, such as a pruned weight, comes back as +0.0 whatever its
    sign was when saved.
    """
    return _read(path, decode=True, out=out)


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """The tensors of ``load_params``, by name in file order."""
    params = load_params(path)
    return {name: params[name] for name in params}


def verify_tensors(path: str | Path) -> list[tuple[str, tuple[int, ...]]]:
    """Raise CheckpointError unless the file parses as a checkpoint, else
    return its layout, the (name, shape) of each tensor in file order; payloads
    are not read."""
    return _read(path, decode=False)


def save_params(path: str | Path, params: ParamSet) -> None:
    save_tensors(path, params)
