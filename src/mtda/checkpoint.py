"""Self-describing binary container for named parameter tensors.

Layout (all integers little-endian):

    magic "MTDA" | format version u16 | tensor count u32
    per tensor: name length u16 | UTF-8 name | dtype code u8 (0=f32, 1=f64, 2=u8)
                | rank u8 | dims u32[rank] | row-major payload

Feature files hold one ``features`` tensor and go only through `save_features`
and `load_features`, which store and load FEATURE_DTYPE (float32): this module
alone decides the precision of features, so a float64 file written before
loads as its float32 rounding. `models.forward` decides the compute precision.
Checkpoints hold the float parameters by name plus ``meta/model``, a u8 vector
of the UTF-8 JSON record of `ModelConfig`.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from mtda.errors import ContractError

MAGIC = b"MTDA"
FORMAT_VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.uint8): 2}
_CODE_DTYPES = {code: dtype.newbyteorder("<") for dtype, code in _DTYPE_CODES.items()}
MAX_RANK = 64  # numpy's own limit on array dimensions
FEATURE_DTYPE = np.dtype(np.float32)


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write `tensors` to `path`. The bytes go to a sibling temporary file that then replaces
    `path`, so a write cut short (an error, a full disk, a kill) never leaves a truncated file
    under the final name, which `ingest` would keep as up to date."""
    chunks = [MAGIC, struct.pack("<HI", FORMAT_VERSION, len(tensors))]
    for name, arr in tensors.items():
        # ascontiguousarray promotes 0-d to 1-d; restore the original shape
        arr = np.ascontiguousarray(arr).reshape(np.shape(arr))
        if arr.dtype not in _DTYPE_CODES:
            raise ContractError(f"unsupported dtype {arr.dtype} for tensor {name!r}")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        partial.write_bytes(b"".join(chunks))
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_tensors(path) -> dict[str, np.ndarray]:
    """Parse a container; any malformed byte ends in a ContractError that
    names the path and the byte offset where parsing stopped. Fields are read
    through a view of the file's bytes, so the only copy made is each tensor's."""
    data = memoryview(Path(path).read_bytes())
    if data[:4] != MAGIC:
        raise ContractError(f"{path}: not a tensor container (bad magic at byte 0)")
    offset = 4

    def take(n, what):
        nonlocal offset
        if len(data) - offset < n:
            raise ContractError(
                f"{path}: truncated {what} at byte {offset} (need {n} bytes, {len(data) - offset} left)"
            )
        offset += n
        return data[offset - n : offset]

    version, count = struct.unpack("<HI", take(6, "header"))
    if version != FORMAT_VERSION:
        raise ContractError(f"{path}: unsupported container version {version} at byte 4")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = str(take(name_len, "name"), "utf-8")
        except UnicodeDecodeError:
            raise ContractError(f"{path}: tensor name is not UTF-8 at byte {offset - name_len}") from None
        code, rank = take(2, "dtype/rank")
        if code not in _CODE_DTYPES:
            raise ContractError(f"{path}: unknown dtype code {code} at byte {offset - 2}")
        if rank > MAX_RANK:
            raise ContractError(f"{path}: rank {rank} exceeds {MAX_RANK} at byte {offset - 1}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        dtype = _CODE_DTYPES[code]
        payload = take(math.prod(dims) * dtype.itemsize, f"payload of {name!r}")
        out[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    if offset != len(data):
        raise ContractError(f"{path}: {len(data) - offset} trailing bytes at byte {offset}")
    return out


def save_features(path, frames) -> None:
    """Write one clip's (time, bands) frames as a float32 feature file."""
    save_tensors(path, {"features": np.asarray(frames, dtype=FEATURE_DTYPE)})


def load_features(paths, reduce=np.asarray) -> np.ndarray:
    """The frames of each feature file in `paths` as FEATURE_DTYPE, one row per
    file, in one array; each row is `reduce` of the file's cast frames, by
    default the frames themselves (`compute_index_table` takes their float64
    time average).

    The files are read one at a time into an array allocated on the first, so
    the result and one file are all that is held at once. All files must share
    one shape and be finite once cast. A file with no `features` tensor is
    reported first, then every distinct shape, then the first file holding
    NaN, inf or a value beyond FEATURE_DTYPE's range.
    """
    if not paths:
        raise ContractError("no feature files to load")
    out, shapes, non_finite = None, set(), None
    for row, path in enumerate(paths):
        frames = load_tensors(path).get("features")
        if frames is None:
            raise ContractError(f"{path}: not a feature file (no 'features' tensor)")
        shapes.add(frames.shape)
        if len(shapes) == 1 and non_finite is None:
            with np.errstate(over="ignore"):  # out of range casts to inf, reported as non-finite
                frames = frames.astype(FEATURE_DTYPE, copy=False)
            if not np.isfinite(frames).all():
                non_finite = path
                continue
            frames = reduce(frames)
            if out is None:
                out = np.empty((len(paths), *frames.shape), frames.dtype)
            out[row] = frames
    if len(shapes) != 1:
        raise ContractError(f"inconsistent feature shapes: {sorted(shapes)}")
    if non_finite is not None:
        raise ContractError(f"{non_finite}: non-finite feature values")
    return out
