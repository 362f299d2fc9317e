"""The one JSON reader and the one field check: every config a file carries reads back as
it was written, and a config holds its hints' rules however it is built."""

import dataclasses
import importlib
import json
import pkgutil
import struct
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reconkit
from reconkit import containers, mri, networks, phantom, sampling, training
from reconkit.autodiff import ParameterStore
from reconkit.containers import FormatError
from reconkit.experiments import DeskConfig
from reconkit.mri import SamplingMask
from reconkit.networks import CascadeConfig, ConfigError, RimCellConfig, UnetConfig
from reconkit.phantom import Ellipse, PhantomSpec, PhantomSpecError
from reconkit.schema import read_fields
from reconkit.training import MethodSpec, TrainConfig, TrainingError


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


# each checked dataclass: its error class and the fields it cannot be built without
BUILDS = {
    RimCellConfig: (ConfigError, {}),
    CascadeConfig: (ConfigError, {}),
    UnetConfig: (ConfigError, {}),
    TrainConfig: (TrainingError, {}),
    PhantomSpec: (PhantomSpecError, {"size": 16}),
    Ellipse: (PhantomSpecError, {"cy": 0.0, "cx": 0.0, "ay": 0.5, "ax": 0.5}),
    DeskConfig: (ConfigError, {}),
    MethodSpec: (TrainingError, {"name": "zerofill", "recon": abs}),
}

# (class, the path a fault names, the field's value, the fault): for each field of the seven
# configs a wrongly typed value and, where the hint bounds it, an out-of-range one
BAD_FIELDS = [
    (RimCellConfig, "channels", "8", "must be an integer, got '8'"),
    (RimCellConfig, "channels", 0, "must be at least 1, got 0"),
    (RimCellConfig, "kernel_sizes", "535", "must be a list of 3 items, got '535'"),
    (RimCellConfig, "kernel_sizes[1]", [3, 3.0, 3], "must be an integer, got 3.0"),
    (RimCellConfig, "kernel_sizes[1]", [3, 0, 3], "must be at least 1, got 0"),
    (RimCellConfig, "unit", 1, "must be one of ['gru', 'indrnn'], got 1"),
    (RimCellConfig, "unit", "lstm", "must be one of ['gru', 'indrnn'], got 'lstm'"),
    (RimCellConfig, "iterations", True, "must be an integer, got True"),
    (RimCellConfig, "iterations", 0, "must be at least 1, got 0"),
    (CascadeConfig, "n_cascades", 2.5, "must be an integer, got 2.5"),
    (CascadeConfig, "n_cascades", 0, "must be at least 1, got 0"),
    (CascadeConfig, "explicit_dc", "no", "must be true or false, got 'no'"),
    (CascadeConfig, "dc_weight_init", True, "must be a finite number, got True"),
    (CascadeConfig, "dc_weight_init", float("nan"), "must be a finite number, got nan"),
    (CascadeConfig, "share_params", "no", "must be true or false, got 'no'"),
    (UnetConfig, "pools", True, "must be an integer, got True"),
    (UnetConfig, "pools", 0, "must be at least 1, got 0"),
    (UnetConfig, "channels", "18", "must be an integer, got '18'"),
    (UnetConfig, "channels", -2, "must be at least 1, got -2"),
    (TrainConfig, "lr", True, "must be a finite number, got True"),
    (TrainConfig, "lr", 0.0, "must be above 0, got 0.0"),
    (TrainConfig, "loss", 1, "must be one of ['l1', 'cirim', 'ssim'], got 1"),
    (TrainConfig, "loss", "l2", "must be one of ['l1', 'cirim', 'ssim'], got 'l2'"),
    (TrainConfig, "weight_orientation", None, "must be one of ['late', 'early'], got None"),
    (TrainConfig, "weight_orientation", "middle",
     "must be one of ['late', 'early'], got 'middle'"),
    (TrainConfig, "dtype", 32, "must be one of ['float32', 'float64'], got 32"),
    (TrainConfig, "dtype", "float16", "must be one of ['float32', 'float64'], got 'float16'"),
    (TrainConfig, "max_steps", 1.5, "must be an integer, got 1.5"),
    (TrainConfig, "max_steps", 0, "must be at least 1, got 0"),
    (PhantomSpec, "size", "big", "must be an integer, got 'big'"),
    (PhantomSpec, "size", 0, "must be at least 1, got 0"),
    (PhantomSpec, "ellipses", {}, "must be a list, got {}"),
    (PhantomSpec, "ellipses[0]", [1], "must be an object, got 1"),
    (PhantomSpec, "lesions", "x", "must be a list, got 'x'"),
    (PhantomSpec, "wm_index", 0.5, "must be an integer, got 0.5"),
    (PhantomSpec, "phase_coeffs", "x", "must be an array of finite numbers, got 'x'"),
    (PhantomSpec, "phase_coeffs", [[float("inf")]],
     "must be an array of finite numbers, got [[inf]]"),
    (PhantomSpec, "seed", "1", "must be an integer, got '1'"),
    (PhantomSpec, "seed", -1, "must be at least 0, got -1"),
    (Ellipse, "cy", "a", "must be a finite number, got 'a'"),
    (Ellipse, "cy", float("inf"), "must be a finite number, got inf"),
    (Ellipse, "cx", None, "must be a finite number, got None"),
    (Ellipse, "ay", "0.5", "must be a finite number, got '0.5'"),
    (Ellipse, "ay", 0, "must be above 0, got 0"),
    (Ellipse, "ax", -0.1, "must be above 0, got -0.1"),
    (Ellipse, "angle", True, "must be a finite number, got True"),
    (Ellipse, "intensity", float("nan"), "must be a finite number, got nan"),
    (DeskConfig, "steps", 1.5, "must be an integer, got 1.5"),
    (DeskConfig, "steps", 0, "must be at least 1, got 0"),
    (DeskConfig, "channels", "16", "must be an integer, got '16'"),
    (DeskConfig, "channels", 0, "must be at least 1, got 0"),
    (DeskConfig, "cascades", None, "must be an integer, got None"),
    (DeskConfig, "cascades", 0, "must be at least 1, got 0"),
    (DeskConfig, "iterations", 4.0, "must be an integer, got 4.0"),
    (DeskConfig, "iterations", -1, "must be at least 1, got -1"),
    (DeskConfig, "data_seed", "1", "must be an integer, got '1'"),
    (DeskConfig, "data_seed", -1, "must be at least 0, got -1"),
    (DeskConfig, "train_seed", 7.0, "must be an integer, got 7.0"),
    (DeskConfig, "train_seed", -3, "must be at least 0, got -3"),
]


@pytest.mark.parametrize("cls, path, value, fault", BAD_FIELDS,
                         ids=[f"{c.__name__}.{p}={v!r}" for c, p, v, _ in BAD_FIELDS])
def test_a_bad_field_is_one_fault_built_or_read(cls, path, value, fault):
    error, base = BUILDS[cls]
    given = {**base, path.split("[")[0]: value}
    with pytest.raises(error) as built:
        cls(**given)
    assert str(built.value) == f"{path} {fault}"
    with pytest.raises(error) as read:
        read_fields(cls, given, error, "section.")
    assert str(read.value) == f"section.{path} {fault}"


def test_the_bad_fields_cover_every_field_of_the_seven_configs():
    covered = {(cls, path.split("[")[0]) for cls, path, _value, _fault in BAD_FIELDS}
    assert covered == {(cls, f.name) for cls in BUILDS if cls is not MethodSpec
                       for f in dataclasses.fields(cls)}


# each library function that seeds a generator, called with seed -1
NEGATIVE_SEEDS = {
    "default_brain_spec": lambda: phantom.default_brain_spec(16, seed=-1),
    "gaussian2d_mask": lambda: sampling.gaussian2d_mask(16, 16, 2.0, seed=-1),
    "poisson2d_mask": lambda: sampling.poisson2d_mask(16, 16, 4.0, seed=-1),
    "equidistant1d_mask": lambda: sampling.equidistant1d_mask(16, 16, 4, offset_policy="random",
                                                              seed=-1),
    "add_noise": lambda: mri.add_noise(np.zeros((1, 4, 4), np.complex64), 0.1, np.ones((4, 4)),
                                       seed=-1),
    "init_params": lambda: networks.build_model("rim").init_params(ParameterStore(), seed=-1),
}


@pytest.mark.parametrize("call", NEGATIVE_SEEDS.values(), ids=NEGATIVE_SEEDS.keys())
def test_a_negative_seed_is_named(call):
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        call()


def _checked_dataclasses() -> set[type]:
    """Every dataclass of the package named like a config or a spec, and `Ellipse`."""
    found = set()
    for info in pkgutil.iter_modules(reconkit.__path__):
        module = importlib.import_module(f"reconkit.{info.name}")
        for name, obj in vars(module).items():
            if (dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
                    and (name.endswith(("Config", "Spec")) or name == "Ellipse")):
                found.add(obj)
    return found


def test_every_config_checks_each_field_when_built():
    # a new config must appear in BUILDS, and then each of its fields is held to its hint
    assert _checked_dataclasses() == set(BUILDS)
    for cls, (error, base) in BUILDS.items():
        for f in dataclasses.fields(cls):
            with pytest.raises(error, match=f"^{f.name} must be "):
                cls(**{**base, f.name: object()})


def test_a_built_config_holds_what_the_reader_gives():
    assert RimCellConfig(kernel_sizes=[3, 5, 1]).kernel_sizes == (3, 5, 1)
    spec = PhantomSpec(size=8, phase_coeffs=[[0, 1], [2, 0]])
    assert spec.phase_coeffs.dtype == np.float64
    coeffs = np.zeros((3, 3))
    assert PhantomSpec(size=8, phase_coeffs=coeffs).phase_coeffs is coeffs
    disc = Ellipse(0.0, 0.0, 0.5, 0.5)
    assert PhantomSpec(size=8, ellipses=[disc]).ellipses[0] is disc
    with pytest.raises(dataclasses.FrozenInstanceError):     # so its rules hold for its life
        spec.size = 0


# a value of the wrong type for some field, or one out of its range
_WILD = st.sampled_from(["no", 1.5, True, 0, -1, None, [3], float("nan")])
_NETWORK_FIELDS = {
    "cell": {"channels": st.integers(1, 3), "iterations": st.integers(1, 2),
             "kernel_sizes": st.tuples(*[st.sampled_from([1, 3])] * 3),
             "unit": st.sampled_from([None, "gru", "indrnn"])},
    "unet": {"pools": st.integers(1, 2), "channels": st.integers(1, 3)},
    "cascade": {"n_cascades": st.none() | st.integers(1, 2),
                "explicit_dc": st.none() | st.booleans(),
                "dc_weight_init": st.floats(-2, 2), "share_params": st.booleans()},
}
_SECTION_CLASSES = {"cell": RimCellConfig, "unet": UnetConfig, "cascade": CascadeConfig}


@st.composite
def _network_configs(draw):
    """A model kind and the fields of its sections, each valid, wild or left out; the hidden
    width is always given, so that no model is the library default's 64 channels wide."""
    kind = draw(st.sampled_from(sorted(networks.MODEL_KINDS)))
    sections = {}
    for section in ("cascade", "unet" if kind == "varnet" else "cell"):
        fields = {name: valid | _WILD for name, valid in _NETWORK_FIELDS[section].items()}
        width = {"channels": fields.pop("channels")} if "channels" in fields else {}
        if width or draw(st.booleans()):
            sections[section] = draw(st.fixed_dictionaries(width, optional=fields))
    return kind, sections


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_network_configs())
@example(("cirim", {"cascade": {"share_params": "no"}, "cell": {"channels": 2}}))
@example(("varnet", {"unet": {"pools": True, "channels": 2}}))
def test_any_network_config_that_builds_survives_its_checkpoint(config):
    kind, raw = config
    try:
        model = networks.build_model(kind, **{name: _SECTION_CLASSES[name](**fields)
                                              for name, fields in raw.items()})
    except ConfigError:
        return
    store = ParameterStore()
    model.init_params(store, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.cks"
        training.save_trained(path, model, store.copy_values())
        training.method_checkpoint(path)
        echo, _values, _meta = containers.load_checkpoint(path)
    assert networks.model_from_config(echo).config_dict() == model.config_dict()
