"""Bit-exact file formats: the ".cks" container, PGM/PBM images, metric CSVs.

Container layout::

    bytes 0..7    magic  b"CKS1\\x00\\x00\\x00\\x00"
    bytes 8..11   u32 little-endian: length of the JSON header
    header        UTF-8 JSON: {"kind", "version", "meta", "arrays": [{name, shape, dtype}]}
    arrays        raw little-endian float32 / complex64 bytes, header order; a
                  model's float64 parameters are float64 bytes
    trailer       u32 little-endian CRC32 over header bytes + array bytes

Every failure mode is a distinct exception so callers can tell a truncated
download from a corrupted one from a foreign file.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Literal

import numpy as np

from .mri import SamplingMask
from .phantom import DatasetRecord
from .schema import read_fields, read_value, shown

MAGIC = b"CKS1\x00\x00\x00\x00"
VERSION = 1
Precision = Literal["float32", "float64"]       # a model's parameters, trained and stored


class ContainerError(Exception):
    """Base class for container failures."""


class FormatError(ContainerError):
    """Not a well-formed container (bad magic, an unparseable header or one
    with a missing, unknown or malformed field, a repeated array name, or bytes
    after the CRC trailer), or one its typed reader cannot use."""


class VersionError(ContainerError):
    """Container version not supported."""


class TruncationError(ContainerError):
    """File ends before the declared payload does."""

    def __init__(self, msg: str, offset: int):
        super().__init__(f"{msg} (at byte offset {offset})")
        self.offset = offset


class ChecksumError(ContainerError):
    """Payload CRC32 does not match the trailer."""


class CheckpointMismatchError(ContainerError):
    """Checkpoint parameters do not match the model its config builds."""


@dataclass
class _Entry:
    """One array of the header's manifest."""

    name: str
    shape: list[int]
    dtype: Literal["float32", "float64", "complex64"]      # stored little-endian

    def __post_init__(self):
        if not (len(self.shape) <= 32 and min(self.shape, default=0) >= 0
                and math.prod(filter(None, self.shape)) < 2 ** 60):   # numpy's size limit
            raise FormatError(f"shape must be at most 32 non-negative integers whose nonzero "
                              f"product is below 2**60, got {shown(self.shape)}")


@dataclass
class _Header:
    """The JSON header; `write_container` writes exactly these fields."""

    kind: str
    version: int
    arrays: list[_Entry]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        names = set()
        for i, entry in enumerate(self.arrays):
            if entry.name in names:
                raise FormatError(f"arrays[{i}].name {entry.name!r} is an earlier array's name")
            names.add(entry.name)


def _canonical(arr: np.ndarray, kind: str) -> tuple[np.ndarray, str]:
    """The stored form of an array: a model keeps float64 parameters, all else is single."""
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return arr.astype("<c8"), "complex64"
    if kind == "model" and arr.dtype == np.float64:
        return arr.astype("<f8"), "float64"
    return arr.astype("<f4"), "float32"


def write_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    blobs = []
    for name, arr in arrays.items():
        canon, dtype = _canonical(arr, kind)
        entries.append({"name": name, "shape": list(canon.shape), "dtype": dtype})
        blobs.append(np.ascontiguousarray(canon).tobytes())
    header = json.dumps(
        {"kind": kind, "version": VERSION, "meta": meta, "arrays": entries},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    payload = header + b"".join(blobs)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(payload)
        f.write(struct.pack("<I", crc))


def read_container(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 4:
        raise TruncationError("file shorter than the fixed preamble", len(blob))
    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic bytes in {path}")
    (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    off = len(MAGIC) + 4
    if len(blob) < off + hlen:
        raise TruncationError("header truncated", len(blob))
    header_bytes = blob[off: off + hlen]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # bad UTF-8 or JSON, too deep, too many digits
        raise FormatError(f"unparseable header: {exc}") from None
    if isinstance(header, dict) and header.get("version") != VERSION:
        raise VersionError(f"unsupported container version {shown(header.get('version'))}")
    header = read_fields(_Header, header, FormatError, "header.")

    arrays: dict[str, np.ndarray] = {}
    pos = off + hlen
    for entry in header.arrays:
        dt = np.dtype(entry.dtype).newbyteorder("<")
        count = math.prod(entry.shape)
        nbytes = count * dt.itemsize
        if len(blob) < pos + nbytes:
            raise TruncationError(f"array {entry.name!r} truncated", len(blob))
        arr = np.frombuffer(blob, dtype=dt, count=count, offset=pos).reshape(entry.shape)
        arrays[entry.name] = arr.copy()
        pos += nbytes
    if len(blob) < pos + 4:
        raise TruncationError("missing CRC trailer", len(blob))
    (crc_stored,) = struct.unpack_from("<I", blob, pos)
    crc_actual = zlib.crc32(blob[off: pos]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise ChecksumError(f"CRC mismatch: stored {crc_stored:#010x}, computed {crc_actual:#010x}")
    if len(blob) > pos + 4:
        raise FormatError(f"{len(blob) - pos - 4} bytes after the CRC trailer")
    return header.kind, header.meta, arrays


# ---------------------------------------------------------------------------
# typed wrappers
# ---------------------------------------------------------------------------

def _read_typed(path, kind: str, arrays: tuple[str, ...] = ()) -> tuple[dict, dict]:
    """The meta and arrays of a container of `kind`; a FormatError names the wrong kind or
    the first of `arrays` that is missing."""
    found, meta, data = read_container(path)
    if found != kind:
        raise FormatError(f"expected a {kind} container, got kind {found!r}")
    for name in arrays:
        if name not in data:
            raise FormatError(f"{kind} container has no array {name!r}")
    return meta, data


def _mask_meta(mask: SamplingMask) -> dict:
    return {f.name: getattr(mask, f.name) for f in fields(SamplingMask) if f.name != "keep"}


def _mask_from(keep: np.ndarray, meta: dict, where: str, name: str) -> SamplingMask:
    """The mask of array `name` and its meta, whose fields `where` prefixes."""
    if np.iscomplexobj(keep):
        raise FormatError(f"array {name!r} must be real, got {keep.dtype}")
    try:
        return read_fields(SamplingMask, meta, FormatError, where, keep=keep.astype(np.float64))
    except ValueError as exc:   # not 2D, not binary, or keeps no sample
        raise FormatError(f"array {name!r}: {exc}") from None


def _real(arrays: dict, name: str, kind: str) -> np.ndarray:
    """The stored array `name`; a complex one is a FormatError, since a cast would drop its
    imaginary parts and `> 0.5` would compare it in lexicographic order."""
    if np.iscomplexobj(arrays[name]):
        raise FormatError(f"{kind} array {name} must be real, got {arrays[name].dtype}")
    return arrays[name]


# a record's arrays: its DatasetRecord fields of these names, with its mask's keep as mask_keep
_RECORD_ARRAYS = ("reference", "maps", "mask_keep", "kspace", "lesion_mask", "wm_mask")


def write_record(path, record: DatasetRecord) -> None:
    meta = dict(record.meta)
    meta["mask"] = _mask_meta(record.mask)
    arrays = {name: record.mask.keep if name == "mask_keep" else getattr(record, name)
              for name in _RECORD_ARRAYS}
    write_container(path, "record", meta, arrays)


def read_record(path) -> DatasetRecord:
    meta, arrays = _read_typed(path, "record", _RECORD_ARRAYS)
    mask = _mask_from(arrays["mask_keep"], meta.pop("mask", {}), "meta.mask.", "mask_keep")
    try:
        return DatasetRecord(
            reference=arrays["reference"].astype(np.complex128),
            maps=arrays["maps"].astype(np.complex128),
            mask=mask,
            kspace=arrays["kspace"].astype(np.complex128),
            lesion_mask=_real(arrays, "lesion_mask", "record") > 0.5,
            wm_mask=_real(arrays, "wm_mask", "record") > 0.5,
            meta=meta,
        )
    except ValueError as exc:   # an array that does not fit the others, or is not finite
        raise FormatError(f"record array {exc}") from None


def write_mask(path, mask: SamplingMask) -> None:
    write_container(path, "mask", _mask_meta(mask), {"keep": mask.keep})


def read_mask(path) -> SamplingMask:
    meta, arrays = _read_typed(path, "mask", ("keep",))
    return _mask_from(arrays["keep"], meta, "meta.", "keep")


def write_phantom(path, image: np.ndarray, lesion_mask: np.ndarray, wm_mask: np.ndarray,
                  meta: dict | None = None) -> None:
    write_container(path, "phantom", meta or {}, {
        "image": image, "lesion_mask": lesion_mask, "wm_mask": wm_mask,
    })


def read_phantom(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Image, lesion mask, white-matter mask and meta; a FormatError names an image that
    is not 2-D or not finite, or a mask that is complex or not of its shape."""
    meta, arrays = _read_typed(path, "phantom", ("image", "lesion_mask", "wm_mask"))
    image = arrays["image"]
    if image.ndim != 2:
        raise FormatError(f"phantom array image must be 2-D, got shape {image.shape}")
    if not np.isfinite(image).all():
        raise FormatError("phantom array image must be finite")
    for name in ("lesion_mask", "wm_mask"):
        if arrays[name].shape != image.shape:
            raise FormatError(f"phantom array {name} must be {image.shape} like the image, "
                              f"got shape {arrays[name].shape}")
    return (image.astype(np.complex128), _real(arrays, "lesion_mask", "phantom") > 0.5,
            _real(arrays, "wm_mask", "phantom") > 0.5, meta)


def save_checkpoint(path, config: dict, values: dict[str, np.ndarray],
                    meta: dict | None = None) -> None:
    full_meta = {"config": config}
    if meta:
        full_meta.update(meta)
    write_container(path, "model", full_meta, values)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    """The config echo, the real parameters and the other meta, whose `dtype` is always
    given: a checkpoint from before the field holds float64 parameters."""
    meta, arrays = _read_typed(path, "model")
    config = read_value(dict, meta.pop("config", {}), "meta.config", FormatError)
    meta["dtype"] = read_value(Precision, meta.get("dtype", "float64"), "meta.dtype", FormatError)
    for name in arrays:
        if not np.isfinite(_real(arrays, name, "model")).all():
            raise FormatError(f"model array {name} must be finite")
    return config, arrays, meta


# ---------------------------------------------------------------------------
# images and masks for eyeballing
# ---------------------------------------------------------------------------

def export_image(img: np.ndarray, path) -> None:
    """Magnitude as binary 16-bit PGM (P5), big-endian samples."""
    mag = np.abs(np.asarray(img))
    peak = mag.max()
    scaled = np.zeros_like(mag) if peak == 0 else mag / peak
    pixels = np.round(scaled * 65535.0).astype(">u2")
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(pixels.tobytes())


def import_pgm(path) -> np.ndarray:
    """Read back a 16-bit binary PGM written by :func:`export_image`."""
    blob = Path(path).read_bytes()
    parts = blob.split(b"\n", 3)
    if parts[0] != b"P5":
        raise FormatError("not a binary PGM file")
    w, h = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    if maxval != 65535:
        raise FormatError(f"expected 16-bit PGM, got maxval {maxval}")
    return np.frombuffer(parts[3], dtype=">u2", count=h * w).reshape(h, w).astype(np.uint16)


def export_mask_pbm(mask: SamplingMask, path) -> None:
    """Sampling pattern as 1-bit PBM (P4); kept samples are black (1)."""
    keep = mask.keep.astype(bool)
    h, w = keep.shape
    with open(path, "wb") as f:
        f.write(f"P4\n{w} {h}\n".encode("ascii"))
        f.write(np.packbits(keep, axis=1).tobytes())


# ---------------------------------------------------------------------------
# metrics CSV (RFC 4180)
# ---------------------------------------------------------------------------

METRICS_HEADER = ("id", "method", "dataset", "acc", "ssim", "psnr_db",
                  "cr", "wmn", "bgn", "wa", "snr", "wall_ms")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if np.isinf(f):
        return "inf"
    if np.isnan(f):
        return ""
    return f"{f:.6f}"


def metrics_csv_bytes(rows: list[dict]) -> bytes:
    lines = [",".join(METRICS_HEADER)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in METRICS_HEADER))
    return ("\r\n".join(lines) + "\r\n").encode("utf-8")


def write_metrics_csv(path, rows: list[dict]) -> None:
    Path(path).write_bytes(metrics_csv_bytes(rows))
