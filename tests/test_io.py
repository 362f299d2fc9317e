"""Container format round trips, fault injection, PGM/PBM/CSV output."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reconkit import containers, sampling, schema, training
from reconkit.containers import (ChecksumError, FormatError, TruncationError,
                                 VersionError)

from conftest import (BAD_TYPED_FILES, set_container_header, write_bad_typed_file,
                      write_container_bytes)


@pytest.fixture
def record(small_record):
    return small_record


def _patch_header(path, old: bytes, new: bytes) -> None:
    """Replace bytes inside a container's JSON header and fix the CRC."""
    blob = path.read_bytes()
    hlen = struct.unpack_from("<I", blob, 8)[0]
    write_container_bytes(path, blob[12:12 + hlen].replace(old, new), blob[12 + hlen:-4])


def _mask_header() -> dict:
    return {"arrays": [{"dtype": "float32", "name": "keep", "shape": [2, 2]}],
            "kind": "mask", "meta": {}, "version": 1}


def _drop(d, key):
    return {k: v for k, v in d.items() if k != key}


def _with_entry(header, entry):
    return {**header, "arrays": [entry]}


_ENTRY = _mask_header()["arrays"][0]
# each header has a valid CRC; before the schema check they raised the error in the comment
_MALFORMED_HEADERS = {
    "json_list": ([_mask_header()], "header must be an object"),             # AttributeError
    "no_arrays": (_drop(_mask_header(), "arrays"), r"header\.arrays is missing"),  # KeyError
    "dtype_int8": (_with_entry(_mask_header(), {**_ENTRY, "dtype": "int8"}),  # KeyError
                   r"header\.arrays\[0\]\.dtype must be one of \['float32', 'float64', "
                   r"'complex64'\], got 'int8'"),
    "entry_without_name": (_with_entry(_mask_header(), _drop(_ENTRY, "name")),  # KeyError
                           r"header\.arrays\[0\]\.name is missing"),
    "negative_shape": (_with_entry(_mask_header(), {**_ENTRY, "shape": [-2, 2]}),  # ValueError
                       r"header\.arrays\[0\]\.shape must be at most 32 non-negative integers"),
    "shape_ab": (_with_entry(_mask_header(), {**_ENTRY, "shape": "ab"}),  # ValueError
                 r"header\.arrays\[0\]\.shape must be a list, got 'ab'"),
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8)
_DELETE = object()
_VALUE = _JSON | st.just(_DELETE)


def _mutated(where, key, index, value) -> object:
    """The mask header with one field, shape entry or the whole header replaced or deleted."""
    header = _mask_header()
    target = {"root": None, "top": header, "entry": header["arrays"][0],
              "shape": header["arrays"][0]["shape"]}[where]
    if target is None:
        return None if value is _DELETE else value
    if isinstance(target, list):
        key = index
        if value is _DELETE:
            del target[key]
        else:
            target[key] = value
    elif value is _DELETE:
        target.pop(key, None)
    else:
        target[key] = value
    return header


class TestContainer:
    def test_roundtrip_byte_identical_arrays(self, tmp_path):
        arrays = {
            "a": np.arange(12, dtype=np.float32).reshape(3, 4),
            "z": (np.arange(6) + 1j * np.arange(6)).astype(np.complex64).reshape(2, 3),
        }
        path = tmp_path / "t.cks"
        containers.write_container(path, "record", {"k": 1}, arrays)
        kind, meta, back = containers.read_container(path)
        assert kind == "record" and meta == {"k": 1}
        for name in arrays:
            assert back[name].dtype == arrays[name].dtype
            assert np.array_equal(back[name], arrays[name])

    def test_bad_magic_is_format_error(self, tmp_path):
        path = tmp_path / "t.cks"
        containers.write_container(path, "mask", {}, {"keep": np.ones((2, 2))})
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            containers.read_container(path)

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "t.cks"
        containers.write_container(path, "mask", {}, {"keep": np.ones((8, 8))})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncationError) as err:
            containers.read_container(path)
        assert err.value.offset == len(blob) // 2

    def test_checksum_error_on_payload_corruption(self, tmp_path):
        path = tmp_path / "t.cks"
        containers.write_container(path, "mask", {}, {"keep": np.ones((4, 4))})
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0x01          # flip a bit inside the last array
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            containers.read_container(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "t.cks"
        containers.write_container(path, "mask", {}, {"keep": np.ones((2, 2))})
        _patch_header(path, b'"version":1', b'"version":9')
        with pytest.raises(VersionError):
            containers.read_container(path)

    def test_duplicate_array_name_is_format_error(self, tmp_path):
        path = tmp_path / "t.cks"
        containers.write_container(path, "mask", {}, {"a": np.ones(2), "b": np.zeros(2)})
        _patch_header(path, b'"name":"b"', b'"name":"a"')
        with pytest.raises(FormatError, match="'a'"):
            containers.read_container(path)

    @pytest.mark.parametrize("case", list(_MALFORMED_HEADERS))
    def test_malformed_header_is_format_error_naming_the_field(self, tmp_path, case):
        header, field = _MALFORMED_HEADERS[case]
        path = tmp_path / "t.cks"
        containers.write_container(path, "mask", {}, {"keep": np.ones((2, 2))})
        set_container_header(path, header)
        with pytest.raises(FormatError, match=field):
            containers.read_container(path)

    @pytest.mark.parametrize("header, start", [
        (list(range(10_000)), "header must be an object, got [0, 1, "),
        (_with_entry(_mask_header(), {**_ENTRY, "shape": [1] * 10_000}),
         "header.arrays[0].shape must be at most 32 non-negative integers"),
    ], ids=["json_list_10k", "shape_10k"])
    def test_a_long_value_shows_in_one_short_line(self, tmp_path, header, start):
        # before: the whole value, some 30-50k characters, after "got"
        path = tmp_path / "t.cks"
        containers.write_container(path, "mask", {}, {"keep": np.ones((2, 2))})
        set_container_header(path, header)
        with pytest.raises(FormatError) as err:
            containers.read_container(path)
        message = str(err.value)
        assert message.startswith(start) and len(message) < 2 * schema.SHOWN_MAX

    @pytest.mark.parametrize("raw", [b'{"version": ' + b"1" * 5000 + b"}",   # ValueError before
                                     b"[" * 100_000 + b"]" * 100_000],       # RecursionError before
                             ids=["too_many_digits", "too_deep"])
    def test_unparseable_header_is_format_error(self, tmp_path, raw):
        path = tmp_path / "t.cks"
        write_container_bytes(path, raw, b"")
        with pytest.raises(FormatError, match="unparseable header"):
            containers.read_container(path)

    @settings(max_examples=300, deadline=None)
    @given(where=st.sampled_from(["root", "top", "entry", "shape"]),
           key=st.sampled_from(["arrays", "kind", "meta", "version", "name", "dtype", "shape",
                                "x"]),
           index=st.integers(0, 1), value=_VALUE, flip=st.none() | st.integers(0, 200),
           cut=st.none() | st.integers(0, 200))
    def test_only_container_errors_escape(self, tmp_path_factory, where, key, index, value,
                                          flip, cut):
        header = _mutated(where, key, index, value)
        raw = b"" if header is None else json.dumps(header).encode()
        path = tmp_path_factory.mktemp("h") / "t.cks"
        write_container_bytes(path, raw, np.ones((2, 2), dtype="<f4").tobytes())
        blob = bytearray(path.read_bytes())
        if flip is not None and flip < len(blob):
            blob[flip] ^= 0xFF
        path.write_bytes(bytes(blob[:cut]))
        try:
            containers.read_container(path)
        except containers.ContainerError:
            pass

    def test_bytes_after_crc_are_format_error(self, tmp_path):
        path = tmp_path / "t.cks"
        containers.write_container(path, "mask", {}, {"keep": np.ones((2, 2))})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="after the CRC"):
            containers.read_container(path)

    def test_record_roundtrip(self, tmp_path, record):
        path = tmp_path / "rec.cks"
        containers.write_record(path, record)
        back = containers.read_record(path)
        # stored as float32/complex64: compare against the quantized original
        assert np.array_equal(back.reference, record.reference.astype(np.complex64).astype(np.complex128))
        assert np.array_equal(back.kspace, record.kspace.astype(np.complex64).astype(np.complex128))
        assert np.array_equal(back.mask.keep, record.mask.keep)
        assert np.array_equal(back.lesion_mask, record.lesion_mask)
        assert back.mask.kind == record.mask.kind
        assert back.meta["sigma"] == record.meta["sigma"]

    def test_written_records_roundtrip_exactly(self, tmp_path, record):
        # a second write/read of the already-quantized record is the identity
        p1, p2 = tmp_path / "a.cks", tmp_path / "b.cks"
        containers.write_record(p1, record)
        once = containers.read_record(p1)
        containers.write_record(p2, once)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mask_roundtrip(self, tmp_path):
        mask = sampling.gaussian2d_mask(16, 16, 2.0, seed=3)
        path = tmp_path / "m.cks"
        containers.write_mask(path, mask)
        back = containers.read_mask(path)
        assert np.array_equal(back.keep, mask.keep)
        assert back.kind == "gaussian2d"
        assert back.requested_acceleration == 2.0

    def test_wrong_kind_rejected(self, tmp_path):
        mask = sampling.full_mask(4, 4)
        path = tmp_path / "m.cks"
        containers.write_mask(path, mask)
        with pytest.raises(FormatError):
            containers.read_record(path)

    @pytest.mark.parametrize("row", sorted(BAD_TYPED_FILES))
    def test_typed_reader_names_what_it_cannot_use(self, tmp_path, record, row):
        # before the typed checks: a KeyError, a ValueError or no error at all
        path = tmp_path / "bad.cks"
        write_bad_typed_file(row, path, record)
        reader = {"record": containers.read_record, "mask": containers.read_mask,
                  "model": containers.load_checkpoint,
                  "phantom": containers.read_phantom}[row.split("_")[0]]
        with pytest.raises(FormatError, match=BAD_TYPED_FILES[row]):
            reader(path)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(containers._RECORD_ARRAYS),
           change=st.sampled_from(["shape", "dtype", "value"]), data=st.data())
    def test_a_replaced_record_array_is_named_or_scored(self, tmp_path_factory, small_record,
                                                        name, change, data):
        path = tmp_path_factory.mktemp("r") / "rec.cks"
        containers.write_record(path, small_record)
        kind, meta, arrays = containers.read_container(path)
        arr = arrays[name]
        if change == "shape":       # one axis resized, or any shape
            shape = list(arr.shape)
            if data.draw(st.booleans()):
                shape[data.draw(st.integers(0, arr.ndim - 1))] = data.draw(st.integers(0, 20))
            else:
                shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=4, min_side=0,
                                                   max_side=20))
            arr = np.resize(arr, shape)
        elif change == "dtype":
            arr = arr.real if np.iscomplexobj(arr) else arr * (1 + data.draw(st.complex_numbers(
                max_magnitude=1e3, allow_nan=False)))
        else:
            arr = arr.copy()
            arr.flat[data.draw(st.integers(0, arr.size - 1))] = data.draw(
                st.floats(width=32) if np.isrealobj(arr) else st.complex_numbers(width=64))
        arrays[name] = arr
        containers.write_container(path, kind, meta, arrays)
        try:
            rec = containers.read_record(path)
        except containers.ContainerError as exc:
            # the mask's grid frames the record: another mask shape names the array that
            # no longer fits it, "like the mask"
            assert name in str(exc) or name == "mask_keep" and "like the mask" in str(exc)
        else:
            training.evaluate([training.method_zero_filled()], [rec], timing=False)

    def test_checkpoint_roundtrip(self, tmp_path):
        values = {"cascade0.conv1.weight": np.random.default_rng(0).standard_normal((2, 2, 3, 3)).astype(np.float32)}
        config = {"kind": "rim", "cell": {"channels": 2}}
        path = tmp_path / "ckpt.cks"
        containers.save_checkpoint(path, config, values, meta={"steps": 5})
        back_cfg, back_vals, extra = containers.load_checkpoint(path)
        assert back_cfg == config
        assert extra["steps"] == 5
        assert np.array_equal(back_vals["cascade0.conv1.weight"], values["cascade0.conv1.weight"])

    def test_only_a_models_float64_arrays_stay_float64(self, tmp_path):
        # a float64 parameter is stored as it is; a float64 mask is stored as float32
        rng = np.random.default_rng(1)
        weight = rng.standard_normal((2, 3))
        containers.save_checkpoint(tmp_path / "ckpt.cks", {"kind": "rim"},
                                   {"w": weight, "b": weight[0].astype(np.float32)})
        _config, back, _extra = containers.load_checkpoint(tmp_path / "ckpt.cks")
        assert back["w"].dtype == np.float64 and back["w"].tobytes() == weight.tobytes()
        assert back["b"].dtype == np.float32
        containers.write_container(tmp_path / "m.cks", "mask", {}, {"keep": weight})
        assert containers.read_container(tmp_path / "m.cks")[2]["keep"].dtype == np.float32


class TestImages:
    def test_zero_image_all_zero_pgm(self, tmp_path):
        path = tmp_path / "z.pgm"
        containers.export_image(np.zeros((4, 6), dtype=complex), path)
        pixels = containers.import_pgm(path)
        assert pixels.shape == (4, 6)
        assert not pixels.any()

    def test_peak_maps_to_65535(self, tmp_path):
        img = np.zeros((5, 5))
        img[2, 3] = 2.5
        path = tmp_path / "p.pgm"
        containers.export_image(img, path)
        assert containers.import_pgm(path)[2, 3] == 65535

    def test_reimport_matches_quantization(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.standard_normal((9, 11)) + 1j * rng.standard_normal((9, 11))
        path = tmp_path / "q.pgm"
        containers.export_image(img, path)
        mag = np.abs(img)
        expected = np.round(mag / mag.max() * 65535).astype(np.uint16)
        assert np.array_equal(containers.import_pgm(path), expected)

    def test_pbm_packing(self, tmp_path):
        mask = sampling.equidistant1d_mask(4, 16, acceleration=4, center_frac=0.0, seed=0)
        path = tmp_path / "m.pbm"
        containers.export_mask_pbm(mask, path)
        blob = path.read_bytes()
        header, _, rest = blob.partition(b"\n4 16\n".replace(b"4 16", b"16 4"))
        assert blob.startswith(b"P4\n16 4\n")
        bits = np.unpackbits(np.frombuffer(blob.split(b"\n", 2)[2], dtype=np.uint8).reshape(4, 2), axis=1)
        assert np.array_equal(bits[:, :16], mask.keep.astype(np.uint8))


class TestMetricsCsv:
    def test_header_and_formatting(self):
        rows = [{"id": "0000", "method": "zerofill", "dataset": "d", "acc": 4.0,
                 "ssim": 0.5, "psnr_db": float("inf"), "cr": None, "wmn": 0.1,
                 "bgn": 0.2, "wa": None, "snr": 3.0, "wall_ms": 1.25}]
        blob = containers.metrics_csv_bytes(rows)
        lines = blob.decode().split("\r\n")
        assert lines[0] == "id,method,dataset,acc,ssim,psnr_db,cr,wmn,bgn,wa,snr,wall_ms"
        assert lines[1] == "0000,zerofill,d,4.000000,0.500000,inf,,0.100000,0.200000,,3.000000,1.250000"
        assert lines[-1] == ""

    def test_deterministic_bytes(self, tmp_path):
        rows = [{"id": "0000", "method": "cs", "dataset": "d", "acc": 2,
                 "ssim": 1 / 3, "psnr_db": 20.0, "cr": 0.1, "wmn": 0.2,
                 "bgn": 0.3, "wa": 0.4, "snr": 5.0, "wall_ms": 0.0}]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        containers.write_metrics_csv(p1, rows)
        containers.write_metrics_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()
