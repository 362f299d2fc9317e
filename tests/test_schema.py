"""The one JSON reader: every config a file carries reads back as it was written."""

import dataclasses
import json
import struct
import typing

import numpy as np

from reconkit import containers, networks, phantom, sampling
from reconkit.containers import FormatError
from reconkit.mri import SamplingMask
from reconkit.schema import read_fields


def test_every_config_the_reader_serves_reads_back_through_json():
    # a field whose hint the reader cannot handle fails here, not in a user's checkpoint load
    for kind in networks.MODEL_KINDS:
        echo = networks.build_model(kind).config_dict()
        assert networks.model_from_config(json.loads(json.dumps(echo))).config_dict() == echo
    spec = phantom.default_brain_spec(size=16, seed=3).to_dict()
    assert phantom.PhantomSpec.from_dict(json.loads(json.dumps(spec))).to_dict() == spec


def test_a_written_header_and_each_masks_meta_read_back_as_written(tmp_path, small_record):
    path = tmp_path / "rec.cks"
    containers.write_record(path, small_record)
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 8)
    raw = json.loads(blob[12:12 + hlen])
    header = read_fields(containers._Header, raw, FormatError)
    assert dataclasses.asdict(header) == raw
    masks = [sampling.full_mask(16, 16), sampling.gaussian2d_mask(16, 16, 2.0, seed=1),
             sampling.equidistant1d_mask(16, 16, 4.0, seed=2),
             sampling.poisson2d_mask(16, 16, 2.0, seed=3)]
    for mask in masks:
        meta = json.loads(json.dumps(containers._mask_meta(mask)))
        back = read_fields(SamplingMask, meta, FormatError, keep=mask.keep)
        assert containers._mask_meta(back) == meta


def test_a_warm_record_read_resolves_no_type_hints(tmp_path, monkeypatch, desk_record):
    path = tmp_path / "rec.cks"
    containers.write_record(path, desk_record)
    containers.read_record(path)
    calls = []
    resolve = typing.get_type_hints

    def counted(*args, **kwargs):
        calls.append(args)
        return resolve(*args, **kwargs)
    monkeypatch.setattr(typing, "get_type_hints", counted)
    back = containers.read_record(path)
    assert calls == [] and np.array_equal(back.mask.keep, desk_record.mask.keep)
