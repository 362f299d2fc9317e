import json
import struct
import zlib

import numpy as np
import pytest

from reconkit import containers, phantom, sampling, training
from reconkit.autodiff import ParameterStore
from reconkit.networks import CascadeConfig, RimCellConfig, build_model


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
    "record_mask_seed_x": "meta.mask.seed must be an integer, got 'x'",
    "record_mask_keep_two": "'mask_keep'",
    "mask_seed_x": "meta.seed must be an integer, got 'x'",
    "mask_seed_true": "meta.seed must be an integer, got True",
    "mask_keep_nan": "'keep'",
    "mask_keep_complex": "'keep' must be real",
    "model_config_list": "meta.config must be an object",
    "model_dtype_float16": "meta.dtype must be one of",
    "model_dtype_32": "meta.dtype must be one of",
    "model_weight_complex": "model array cascade0.conv3.weight must be real",
    "model_weight_nan": "model array cascade1.conv3.bias must be finite",
    "record_reference_8x8": "record array reference",
    "record_no_coils": "record array maps",
    "record_lesion_mask_8x8": "record array lesion_mask",
    "record_kspace_nan": "record array kspace",
    "record_maps_nan": "record array maps",
    "record_reference_inf": "record array reference",
    "record_kspace_two_coils": "record array kspace must have as many coils as maps",
    "record_lesion_mask_complex": "record array lesion_mask must be real",
    "phantom_image_1d": "phantom array image must be 2-D",
    "phantom_image_3d": "phantom array image must be 2-D",
    "phantom_image_nan": "phantom array image must be finite",
    "phantom_lesion_mask_4x4": "phantom array lesion_mask must be",
    "phantom_wm_mask_4x4": "phantom array wm_mask must be",
    "phantom_wm_mask_complex": "phantom array wm_mask must be real",
}


# well-formed checkpoint config echoes that describe no model, each with the
# field its ConfigError must name
BAD_MODEL_CONFIGS = {
    "cell_field_misspelt": ({"kind": "cirim", "cell": {"chanels": 4}},
                            "cell.chanels is not a field"),
    "cell_not_an_object": ({"kind": "cirim", "cell": []}, "cell must be an object"),
    "n_cascades_a_string": ({"kind": "cirim", "cascade": {"n_cascades": "2"}},
                            "cascade.n_cascades must be an integer"),
    "dc_weight_init_nan": ({"kind": "cirim", "cascade": {"dc_weight_init": float("nan")}},
                           "cascade.dc_weight_init must be a finite number"),
    "kernel_sizes_two": ({"kind": "cirim", "cell": {"kernel_sizes": [3, 3]}},
                         "cell.kernel_sizes must be a list of 3 items"),
    "cell_channels_0": ({"kind": "cirim", "cell": {"channels": 0}},
                        "cell.channels must be at least 1, got 0"),
    "n_cascades_0": ({"kind": "cirim", "cascade": {"n_cascades": 0}},
                     "cascade.n_cascades must be at least 1, got 0"),
    "cell_on_a_varnet": ({"kind": "varnet", "cell": {"channels": 4}}, "'cell'"),
    "varnet_without_dc": ({"kind": "varnet", "cascade": {"explicit_dc": False}},
                          "'cascade.explicit_dc'"),
}


def _with_first(arr, value):
    arr = arr.copy()
    arr.flat[0] = value
    return arr


# each record row's arrays that do not fit the mask's grid or the maps' coils, or hold a
# non-finite number
_RECORD_EDITS = {
    "record_reference_8x8": lambda a: {"reference": a["reference"][:8, :8]},
    "record_no_coils": lambda a: {"maps": a["maps"][:0], "kspace": a["kspace"][:0]},
    "record_lesion_mask_8x8": lambda a: {"lesion_mask": a["lesion_mask"][:8, :8]},
    "record_kspace_nan": lambda a: {"kspace": _with_first(a["kspace"], np.nan)},
    "record_maps_nan": lambda a: {"maps": _with_first(a["maps"], np.nan)},
    "record_reference_inf": lambda a: {"reference": _with_first(a["reference"], np.inf)},
    "record_kspace_two_coils": lambda a: {"kspace": a["kspace"][:2]},
    # 0.4+5j would read as outside and 0.6-5j as inside: `>` orders complex numbers
    "record_lesion_mask_complex": lambda a: {"lesion_mask": a["lesion_mask"] + 5j},
}

# each phantom row's arrays that are not a finite 2-D image with masks of its shape
_PHANTOM_EDITS = {
    "phantom_image_1d": lambda a: {"image": a["image"][0]},
    "phantom_image_3d": lambda a: {"image": a["image"][None]},
    "phantom_image_nan": lambda a: {"image": _with_first(a["image"], np.nan)},
    "phantom_lesion_mask_4x4": lambda a: {"lesion_mask": a["lesion_mask"][:4, :4]},
    "phantom_wm_mask_4x4": lambda a: {"wm_mask": a["wm_mask"][:4, :4]},
    "phantom_wm_mask_complex": lambda a: {"wm_mask": a["wm_mask"] - 5j},
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
    elif row == "mask_keep_complex":
        containers.write_container(path, "mask", {}, {"keep": record.mask.keep + 0.5j})
    elif row == "model_config_list":
        containers.save_checkpoint(path, ["cirim"], {})
    elif row.startswith("model_dtype_"):
        dtype = {"model_dtype_float16": "float16", "model_dtype_32": 32}[row]
        containers.save_checkpoint(path, {"kind": "cirim"}, {}, meta={"dtype": dtype})
    elif row.startswith("model_weight_"):
        # a model that fits its values, but one of them would be cast to its real part, or
        # is not finite, which training never saves
        model = build_model("cirim", cell=RimCellConfig(channels=2, iterations=1),
                            cascade=CascadeConfig(n_cascades=2))
        store = ParameterStore()
        model.init_params(store, 0)
        values = store.copy_values()
        if row == "model_weight_complex":
            values["cascade0.conv3.weight"] = values["cascade0.conv3.weight"] + 1j
        else:
            values["cascade1.conv3.bias"][0] = np.nan
        containers.save_checkpoint(path, model.config_dict(), values)
    elif row.startswith("phantom_"):
        arrays = {"image": record.reference, "lesion_mask": record.lesion_mask,
                  "wm_mask": record.wm_mask}
        containers.write_phantom(path, **{**arrays, **_PHANTOM_EDITS[row](arrays)})
    else:
        containers.write_record(path, record)
        kind, meta, arrays = containers.read_container(path)
        if row == "record_without_mask_keep":
            del arrays["mask_keep"]
        elif row == "record_mask_keep_two":
            arrays["mask_keep"] = 2 * arrays["mask_keep"]
        elif row == "record_mask_seed_x":
            meta["mask"]["seed"] = "x"
        else:
            arrays.update(_RECORD_EDITS[row](arrays))
        containers.write_container(path, kind, meta, arrays)


_DISC = {"cy": 0, "cx": 0, "ay": 0.5, "ax": 0.5}

# malformed phantom spec files, each with the start of the PhantomSpecError that
# PhantomSpec.from_dict or make_phantom must raise for it
BAD_PHANTOM_SPECS = {
    "not_an_object": ([16], "PhantomSpec must be an object"),
    "no_size": ({"ellipses": []}, "size is missing"),
    "size_text": ({"size": "big"}, "size must be an integer"),
    "size_fraction": ({"size": 16.5}, "size must be an integer"),
    "unknown_field": ({"size": 16, "elipses": []}, "elipses is not a field"),
    "ellipses_not_a_list": ({"size": 16, "ellipses": _DISC}, "ellipses must be a list"),
    "ellipse_not_an_object": ({"size": 16, "ellipses": [1]}, "ellipses[0] must be an object"),
    "ellipse_without_ax": ({"size": 16, "ellipses": [{"cy": 0, "cx": 0, "ay": 0.5}]},
                           "ellipses[0].ax is missing"),
    "ellipse_unknown_field": ({"size": 16, "ellipses": [{**_DISC, "r": 1}]},
                              "ellipses[0].r is not a field"),
    "ellipse_cy_text": ({"size": 16, "ellipses": [{**_DISC, "cy": "0"}]},
                        "ellipses[0].cy must be a finite number"),
    "ellipse_cy_huge": ({"size": 16, "ellipses": [{**_DISC, "cy": 10 ** 400}]},
                        "ellipses[0].cy must be a finite number"),
    "ellipse_ay_0": ({"size": 16, "ellipses": [{**_DISC, "ay": 0}]},
                     "ellipses[0].ay must be above 0, got 0"),
    "lesion_ax_negative": ({"size": 16, "lesions": [{**_DISC, "ax": -0.1}]},
                           "lesions[0].ax must be above 0, got -0.1"),
    "phase_coeffs_1d": ({"size": 16, "phase_coeffs": [1, 2]}, "phase_coeffs must be"),
    "phase_coeffs_ragged": ({"size": 16, "phase_coeffs": [[1, 2], [3]]}, "phase_coeffs must be"),
    "phase_coeffs_cubic": ({"size": 16, "phase_coeffs": [[0, 0, 0, 5]]},
                           "phase_coeffs[0][3] weighs a term of degree 3"),
    "phase_coeffs_xy2": ({"size": 16, "phase_coeffs": [[0, 0, 0], [0, 1, 1]]},
                         "phase_coeffs[1][2] weighs a term of degree 3"),
    "wm_index_outside": ({"size": 16, "ellipses": [_DISC], "wm_index": 7},
                         "wm_index must index"),
    "wm_index_fraction": ({"size": 16, "ellipses": [_DISC], "wm_index": 0.5},
                          "wm_index must be an integer"),
    "seed_text": ({"size": 16, "seed": "1"}, "seed must be an integer"),
}


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
