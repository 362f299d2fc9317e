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
import typing
import zlib
from pathlib import Path

import numpy as np

from .mri import SamplingMask
from .phantom import DatasetRecord
from .schema import read_value

MAGIC = b"CKS1\x00\x00\x00\x00"
VERSION = 1

_DTYPES = {"float32": "<f4", "float64": "<f8", "complex64": "<c8"}


class ContainerError(Exception):
    """Base class for container failures."""


class FormatError(ContainerError):
    """Not a well-formed container (bad magic, an unparseable header or one
    with a missing or malformed field, a repeated array name, or bytes after
    the CRC trailer)."""


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


def _check_header(header: dict) -> None:
    """Raise FormatError naming the first header field that is missing or malformed."""
    if not isinstance(header.get("kind"), str):
        raise FormatError("header field 'kind' must be a string")
    if not isinstance(header.get("meta", {}), dict):
        raise FormatError("header field 'meta' must be an object")
    entries = header.get("arrays")
    if not isinstance(entries, list):
        raise FormatError("header field 'arrays' must be a list")
    names = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FormatError(f"header arrays[{i}] must be an object")
        name, dtype, shape = entry.get("name"), entry.get("dtype"), entry.get("shape")
        if not isinstance(name, str):
            raise FormatError(f"header arrays[{i}].name must be a string")
        if name in names:
            raise FormatError(f"array name {name!r} appears twice in the header")
        names.add(name)
        if not (isinstance(dtype, str) and dtype in _DTYPES):
            raise FormatError(f"header arrays[{i}].dtype must be one of {sorted(_DTYPES)}, "
                              f"got {dtype!r}")
        if not (isinstance(shape, list) and len(shape) <= 32
                and all(type(n) is int and n >= 0 for n in shape)
                and math.prod(n for n in shape if n) < 2 ** 60):   # numpy's size limit
            raise FormatError(f"header arrays[{i}].shape must be a list of at most 32 "
                              f"non-negative integers whose nonzero product is below 2**60, "
                              f"got {shape!r}")


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
    if not isinstance(header, dict):
        raise FormatError(f"header must be a JSON object, got {type(header).__name__}")
    if header.get("version") != VERSION:
        raise VersionError(f"unsupported container version {header.get('version')!r}")
    _check_header(header)

    arrays: dict[str, np.ndarray] = {}
    pos = off + hlen
    for entry in header["arrays"]:
        dt = np.dtype(_DTYPES[entry["dtype"]])
        count = math.prod(entry["shape"])
        nbytes = count * dt.itemsize
        if len(blob) < pos + nbytes:
            raise TruncationError(f"array {entry['name']!r} truncated", len(blob))
        arr = np.frombuffer(blob, dtype=dt, count=count, offset=pos).reshape(entry["shape"])
        arrays[entry["name"]] = arr.copy()
        pos += nbytes
    if len(blob) < pos + 4:
        raise TruncationError("missing CRC trailer", len(blob))
    (crc_stored,) = struct.unpack_from("<I", blob, pos)
    crc_actual = zlib.crc32(blob[off: pos]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise ChecksumError(f"CRC mismatch: stored {crc_stored:#010x}, computed {crc_actual:#010x}")
    if len(blob) > pos + 4:
        raise FormatError(f"{len(blob) - pos - 4} bytes after the CRC trailer")
    return header["kind"], header.get("meta", {}), arrays


# ---------------------------------------------------------------------------
# typed wrappers
# ---------------------------------------------------------------------------

# a mask's meta fields are typed by SamplingMask's hints, resolved once (~90 us a call)
_MASK_HINTS = typing.get_type_hints(SamplingMask)


def _check_fields(where: str, meta: dict, hints: dict) -> None:
    """Raise FormatError naming the first field of `meta` that its hint in `hints` rejects."""
    for name, hint in hints.items():
        if name in meta:
            read_value(hint, meta[name], f"{where} field {name!r}", FormatError)


def _read_typed(path, kind: str, arrays: tuple[str, ...] = (),
                fields: dict | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta and arrays of a container of `kind`, checked for what its reader uses.

    Raises FormatError naming the wrong kind, the first required array that
    is missing, or the first meta field in `fields` of the wrong type.
    """
    found, meta, data = read_container(path)
    if found != kind:
        raise FormatError(f"expected a {kind} container, got kind {found!r}")
    for name in arrays:
        if name not in data:
            raise FormatError(f"{kind} container has no array {name!r}")
    _check_fields(f"{kind} meta", meta, fields or {})
    return meta, data


def _mask_meta(mask: SamplingMask) -> dict:
    return {
        "kind": mask.kind,
        "requested_acceleration": mask.requested_acceleration,
        "seed": mask.seed,
        "extra": mask.extra,
    }


def _mask_from(keep: np.ndarray, meta: dict, where: str, name: str) -> SamplingMask:
    _check_fields(where, meta, _MASK_HINTS)
    try:
        return SamplingMask(
            keep.astype(np.float64),
            kind=meta.get("kind", "full"),
            requested_acceleration=float(meta.get("requested_acceleration", 1.0)),
            seed=meta.get("seed", 0),
            extra=meta.get("extra", {}),
        )
    except ValueError as exc:   # not 2D, not binary, or keeps no sample
        raise FormatError(f"array {name!r}: {exc}") from None


# a record's arrays: its DatasetRecord fields of these names, with its mask's keep as mask_keep
_RECORD_ARRAYS = ("reference", "maps", "mask_keep", "kspace", "lesion_mask", "wm_mask")


def write_record(path, record: DatasetRecord) -> None:
    meta = dict(record.meta)
    meta["mask"] = _mask_meta(record.mask)
    arrays = {name: record.mask.keep if name == "mask_keep" else getattr(record, name)
              for name in _RECORD_ARRAYS}
    write_container(path, "record", meta, arrays)


def read_record(path) -> DatasetRecord:
    meta, arrays = _read_typed(path, "record", _RECORD_ARRAYS, {"mask": dict})
    mask = _mask_from(arrays["mask_keep"], meta.pop("mask", {}), "record meta 'mask'",
                      "mask_keep")
    try:
        return DatasetRecord(
            reference=arrays["reference"].astype(np.complex128),
            maps=arrays["maps"].astype(np.complex128),
            mask=mask,
            kspace=arrays["kspace"].astype(np.complex128),
            lesion_mask=arrays["lesion_mask"] > 0.5,
            wm_mask=arrays["wm_mask"] > 0.5,
            meta=meta,
        )
    except ValueError as exc:   # an array that does not fit the others, or is not finite
        raise FormatError(f"record array {exc}") from None


def write_mask(path, mask: SamplingMask) -> None:
    write_container(path, "mask", _mask_meta(mask), {"keep": mask.keep})


def read_mask(path) -> SamplingMask:
    meta, arrays = _read_typed(path, "mask", ("keep",))
    return _mask_from(arrays["keep"], meta, "mask meta", "keep")


def write_phantom(path, image: np.ndarray, lesion_mask: np.ndarray, wm_mask: np.ndarray,
                  meta: dict | None = None) -> None:
    write_container(path, "phantom", meta or {}, {
        "image": image, "lesion_mask": lesion_mask, "wm_mask": wm_mask,
    })


def read_phantom(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    meta, arrays = _read_typed(path, "phantom", ("image", "lesion_mask", "wm_mask"))
    return (arrays["image"].astype(np.complex128),
            arrays["lesion_mask"] > 0.5, arrays["wm_mask"] > 0.5, meta)


def save_checkpoint(path, config: dict, values: dict[str, np.ndarray],
                    meta: dict | None = None) -> None:
    full_meta = {"config": config}
    if meta:
        full_meta.update(meta)
    write_container(path, "model", full_meta, values)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    meta, arrays = _read_typed(path, "model", fields={"config": dict})
    if meta.get("dtype", "float64") not in ("float32", "float64"):
        raise FormatError(f"model meta field 'dtype' must be \"float32\" or \"float64\", "
                          f"got {meta['dtype']!r}")
    config = meta.get("config", {})
    extra = {k: v for k, v in meta.items() if k != "config"}
    return config, arrays, extra


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
