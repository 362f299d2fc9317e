import json
import struct
import zlib

import numpy as np
import pytest

from reconkit import containers, phantom, sampling, training


def finite_diff(f, arrays, eps=1e-6):
    """Central-difference gradients of a scalar function of real arrays."""
    grads = []
    for pos, arr in enumerate(arrays):
        g = np.zeros_like(arr, dtype=np.float64)
        for idx in np.ndindex(arr.shape):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[pos][idx] += eps
            minus[pos][idx] -= eps
            g[idx] = (f(*plus) - f(*minus)) / (2.0 * eps)
        grads.append(g)
    return grads


def poison_adam_step(monkeypatch, step, value=np.inf):
    """Make training's optimizer leave one weight at `value` after step `step`."""
    inner = training.adam_step

    def poisoned(store, **kwargs):
        inner(store, **kwargs)
        if store.step_count == step:
            store["cascade0.conv1.weight"].value[0] = value

    monkeypatch.setattr(training, "adam_step", poisoned)


def write_container_bytes(path, header: bytes, arrays: bytes) -> None:
    """A container with these header and array bytes and a matching CRC trailer."""
    payload = header + arrays
    path.write_bytes(containers.MAGIC + struct.pack("<I", len(header)) + payload
                     + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def set_container_header(path, header) -> None:
    """Replace a container's header with `header` as JSON and fix the CRC."""
    blob = path.read_bytes()
    hlen = struct.unpack_from("<I", blob, 8)[0]
    write_container_bytes(path, json.dumps(header).encode(), blob[12 + hlen:-4])


# well-formed containers with a valid CRC that their typed reader cannot use, each
# with the name its FormatError must give; a row's first word is its container kind
BAD_TYPED_FILES = {
    "record_without_mask_keep": "'mask_keep'",
    "record_mask_seed_x": "'seed'",
    "record_mask_keep_two": "'mask_keep'",
    "mask_seed_x": "'seed'",
    "mask_seed_true": "'seed'",
    "mask_keep_nan": "'keep'",
    "model_config_list": "'config'",
    "model_dtype_float16": "'dtype'",
    "model_dtype_32": "'dtype'",
}


# well-formed checkpoint config echoes that describe no model, each with the
# field its ConfigError must name
BAD_MODEL_CONFIGS = {
    "cell_field_misspelt": ({"kind": "cirim", "cell": {"chanels": 4}}, "'cell.chanels'"),
    "cell_not_an_object": ({"kind": "cirim", "cell": []}, "'cell'"),
    "n_cascades_a_string": ({"kind": "cirim", "cascade": {"n_cascades": "2"}},
                            "'cascade.n_cascades'"),
    "cell_on_a_varnet": ({"kind": "varnet", "cell": {"channels": 4}}, "'cell'"),
}


def write_bad_typed_file(row, path, record) -> None:
    """Write the container of BAD_TYPED_FILES row `row` at `path`."""
    if row.startswith("mask_seed_"):
        seed = {"mask_seed_x": "x", "mask_seed_true": True}[row]
        containers.write_container(path, "mask", {"seed": seed}, {"keep": record.mask.keep})
    elif row == "mask_keep_nan":
        keep = record.mask.keep.copy()
        keep[0, 0] = np.nan
        containers.write_container(path, "mask", {}, {"keep": keep})
    elif row == "model_config_list":
        containers.save_checkpoint(path, ["cirim"], {})
    elif row.startswith("model_dtype_"):
        dtype = {"model_dtype_float16": "float16", "model_dtype_32": 32}[row]
        containers.save_checkpoint(path, {"kind": "cirim"}, {}, meta={"dtype": dtype})
    else:
        containers.write_record(path, record)
        kind, meta, arrays = containers.read_container(path)
        if row == "record_without_mask_keep":
            del arrays["mask_keep"]
        elif row == "record_mask_keep_two":
            arrays["mask_keep"] = 2 * arrays["mask_keep"]
        else:
            meta["mask"]["seed"] = "x"
        containers.write_container(path, kind, meta, arrays)


def rel_error(a, b):
    denom = np.linalg.norm(np.asarray(b).ravel())
    if denom == 0:
        return np.linalg.norm(np.asarray(a).ravel())
    return np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()) / denom


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="session")
def small_record():
    """16x16, 3-coil, 2x-undersampled noisy acquisition with ground truth."""
    spec = phantom.default_brain_spec(size=16, seed=11)
    img, lesion, wm = phantom.make_phantom(spec)
    maps = phantom.make_coils(3, 16, 16)
    mask = sampling.gaussian2d_mask(16, 16, 2.0, seed=5)
    return phantom.simulate_acquisition(img, maps, mask, sigma=0.01, seed=7,
                                        lesion_mask=lesion, wm_mask=wm)


@pytest.fixture(scope="session")
def desk_record():
    """64x64, 4-coil record matching the desk-scale experiment settings."""
    spec = phantom.default_brain_spec(size=64, seed=3)
    img, lesion, wm = phantom.make_phantom(spec)
    maps = phantom.make_coils(4, 64, 64)
    mask = sampling.gaussian2d_mask(64, 64, 4.0, seed=9)
    return phantom.simulate_acquisition(img, maps, mask, sigma=0.02, seed=13,
                                        lesion_mask=lesion, wm_mask=wm)
