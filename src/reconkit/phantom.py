"""Synthetic complex-valued phantoms, analytic coil maps and acquisitions.

Phantoms are superpositions of ellipses (magnitude) with a smooth low-order
polynomial phase, plus optional small "lesion" ellipses whose ground-truth
masks are recorded so that contrast metrics can be computed without any
segmentation step.  Coil maps are Gaussian profiles placed on a ring around
the field of view with a mild per-coil linear phase, normalized pixelwise so
that sum_i |S_i|^2 == 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import mri
from .mri import SamplingMask
from .schema import Count, Positive, Seed, check, read_fields, read_value

COIL_PROFILE_WIDTH = 0.9    # a coil's Gaussian width, per unit of the grid's shorter side


class PhantomSpecError(ValueError):
    """Invalid phantom geometry (e.g. an ellipse leaves the field of view)."""


@dataclass(frozen=True)
class Ellipse:
    """Axis coordinates are fractions of the half field of view, in [-1, 1]."""

    cy: float
    cx: float
    ay: Positive
    ax: Positive
    angle: float = 0.0      # radians, counter-clockwise
    intensity: float = 1.0

    def __post_init__(self):
        check(self, PhantomSpecError)


@dataclass(frozen=True)
class PhantomSpec:
    size: Count
    ellipses: list[Ellipse] = field(default_factory=list)
    lesions: list[Ellipse] = field(default_factory=list)   # intensity = added delta
    wm_index: int | None = None                            # ellipse hosting "white matter"
    phase_coeffs: np.ndarray | None = None                 # (3, 3) poly coeffs, degree <= 2
    seed: Seed = 0

    def __post_init__(self):
        check(self, PhantomSpecError)

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.phase_coeffs is not None:
            d["phase_coeffs"] = np.asarray(self.phase_coeffs).tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PhantomSpec":
        """The spec a JSON object describes, as `to_dict` writes it; anything else is a
        PhantomSpecError that names the field."""
        return read_fields(cls, d, PhantomSpecError)


@lru_cache(maxsize=16)
def _grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The normalized coordinates (yy, xx) in [-1, 1) of a size x size image.

    Read-only, because every caller shares the cached arrays.
    """
    coords = (np.arange(size) - size / 2.0) / (size / 2.0)
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    yy.setflags(write=False)
    xx.setflags(write=False)
    return yy, xx


def _ellipse_mask(e: Ellipse, size: int) -> np.ndarray:
    yy, xx = _grid(size)
    dy, dx = yy - e.cy, xx - e.cx
    c, s = np.cos(e.angle), np.sin(e.angle)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return (u / e.ax) ** 2 + (v / e.ay) ** 2 <= 1.0


def make_phantom(spec: PhantomSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (complex image, lesion mask, white-matter mask) from a spec.

    The ellipses and the phase polynomial are evaluated on one normalized
    grid per size (`_grid`), built once and shared by every phantom of that
    size.
    """
    n = spec.size
    if spec.wm_index is not None and not 0 <= spec.wm_index < len(spec.ellipses):
        raise PhantomSpecError(f"wm_index must index one of the {len(spec.ellipses)} ellipses, "
                               f"got {spec.wm_index}")
    mag = np.zeros((n, n), dtype=np.float64)
    wm_mask = np.zeros((n, n), dtype=bool)
    lesion_mask = np.zeros((n, n), dtype=bool)

    for group in ("ellipses", "lesions"):
        for i, e in enumerate(getattr(spec, group)):
            if max(abs(e.cy), abs(e.cx)) + max(e.ay, e.ax) > 1.0 + 1e-9:
                raise PhantomSpecError(f"{group}[{i}] extends outside the field of view: {e}")
            inside = _ellipse_mask(e, n)
            mag[inside] += e.intensity
            if group == "lesions":
                lesion_mask |= inside
            elif i == spec.wm_index:
                wm_mask = inside
    wm_mask = wm_mask & ~lesion_mask

    if spec.phase_coeffs is None:
        phase = np.zeros((n, n))
    else:
        c = np.asarray(spec.phase_coeffs, dtype=float)
        if c.ndim != 2:
            raise PhantomSpecError(f"phase_coeffs must be a 2-D array (row i, column j weighs "
                                   f"y**i * x**j), got shape {c.shape}")
        # the nonzero terms row by row, as (i, j) for c[i, j] * y**i * x**j
        terms = [(int(i), int(j)) for i, j in zip(*np.nonzero(c))]
        high = [(i, j) for i, j in terms if i + j > 2]
        if high:
            i, j = high[0]
            raise PhantomSpecError(f"phase_coeffs[{i}][{j}] weighs a term of degree {i + j}; "
                                   f"the phase is a polynomial of degree 2 at most")
        yy, xx = _grid(n)
        phase = np.zeros((n, n))
        for i, j in terms:
            phase += c[i, j] * yy ** i * xx ** j

    image = mag * np.exp(1j * phase)
    return image, lesion_mask, wm_mask


def make_coils(n_coils: int, h: int, w: int) -> np.ndarray:
    """Analytic sensitivity maps, normalized so sum_i |S_i|^2 == 1 pixelwise.

    Coils are Gaussian profiles (width = COIL_PROFILE_WIDTH * min(h, w) pixels)
    centered at equal angles on a ring just outside the grid, each with a
    smooth linear phase ramp pointing at its center.
    """
    if n_coils < 1:
        raise ValueError(f"need at least one coil, got {n_coils}")
    if n_coils == 1:
        # normalization leaves only phase; a single coil is the trivial map
        return np.ones((1, h, w), dtype=np.complex128)
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ring = 0.6 * max(h, w)
    width = COIL_PROFILE_WIDTH * min(h, w)

    maps = np.empty((n_coils, h, w), dtype=np.complex128)
    for i in range(n_coils):
        theta = 2.0 * np.pi * i / n_coils
        oy, ox = cy + ring * np.sin(theta), cx + ring * np.cos(theta)
        r2 = (yy - oy) ** 2 + (xx - ox) ** 2
        profile = np.exp(-r2 / (2.0 * width ** 2))
        # half a phase cycle across the FOV, oriented toward the coil
        ramp = np.pi * (np.cos(theta) * (xx - cx) / w + np.sin(theta) * (yy - cy) / h)
        maps[i] = profile * np.exp(1j * ramp)

    rss = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return maps / rss[None, :, :]


@dataclass
class DatasetRecord:
    """One simulated acquisition with its ground truth."""

    reference: np.ndarray          # complex (h, w), unit max magnitude
    maps: np.ndarray               # complex (coils, h, w)
    mask: SamplingMask
    kspace: np.ndarray             # complex (coils, h, w), zeros off-mask
    lesion_mask: np.ndarray        # bool (h, w)
    wm_mask: np.ndarray            # bool (h, w)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        """A ValueError names the first array, by its name in a record container, that does
        not fit the mask's (h, w) grid or the maps' coils, or holds a non-finite number."""
        h, w = self.mask.keep.shape      # 2-D, as SamplingMask checks
        for name in ("reference", "lesion_mask", "wm_mask"):
            shape = np.shape(getattr(self, name))
            if shape != (h, w):
                raise ValueError(f"{name} must be ({h}, {w}) like the mask, got shape {shape}")
        for name in ("maps", "kspace"):
            shape = np.shape(getattr(self, name))
            if len(shape) != 3 or shape[0] < 1 or shape[1:] != (h, w):
                raise ValueError(f"{name} must be (c, {h}, {w}) with c >= 1, got shape {shape}")
        if len(self.kspace) != len(self.maps):
            raise ValueError(f"kspace must have as many coils as maps ({len(self.maps)}), "
                             f"got {len(self.kspace)}")
        for name in ("reference", "maps", "kspace"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

    @property
    def shape(self):
        return self.reference.shape


def simulate_acquisition(image: np.ndarray, maps: np.ndarray, mask: SamplingMask,
                         sigma: float, seed: int,
                         lesion_mask: np.ndarray | None = None,
                         wm_mask: np.ndarray | None = None) -> DatasetRecord:
    """Normalize the reference, run the forward model and add measurement noise."""
    image = np.asarray(image, dtype=np.complex128)
    peak = np.abs(image).max()
    if peak > 0:
        image = image / peak
    y = mri.forward_op(image, maps, mask)
    y = mri.add_noise(y, sigma, mask, seed)
    h, w = image.shape
    if lesion_mask is None:
        lesion_mask = np.zeros((h, w), dtype=bool)
    if wm_mask is None:
        wm_mask = np.zeros((h, w), dtype=bool)
    meta = {
        "seed": int(seed),
        "sigma": float(sigma),
        "acceleration": float(mask.achieved_acceleration),
        "mask_kind": mask.kind,
    }
    return DatasetRecord(image, np.asarray(maps), mask, y, lesion_mask, wm_mask, meta)


def default_brain_spec(size: int = 64, seed: int = 0, n_lesions: int = 2,
                       jitter: float = 0.03) -> PhantomSpec:
    """A brain-like phantom family with seed-controlled variation.

    Head ellipse at 0.25, a white-matter host ellipse adding 0.15 (so the WM
    level is 0.40), two deep structures, and small lesions adding 0.20 on top
    of the WM level.  Lesions sit on a mid-radius ring inside the host, away
    from the deep structures.
    """
    read_value(Seed, seed, "seed", PhantomSpecError)
    if n_lesions < 0:
        raise PhantomSpecError(f"n_lesions must be at least 0, got {n_lesions}")
    if not 0 <= jitter < np.inf:
        raise PhantomSpecError(f"jitter must be finite and non-negative, got {jitter}")
    rng = np.random.default_rng(seed)

    def j(scale=1.0):
        return float(rng.uniform(-jitter, jitter)) * scale

    head = Ellipse(cy=j(0.5), cx=j(0.5), ay=0.88 + j(), ax=0.72 + j(), angle=j(2.0), intensity=0.25)
    wm = Ellipse(cy=head.cy + j(0.5), cx=head.cx + j(0.5), ay=0.60 + j(), ax=0.46 + j(),
                 angle=head.angle + j(2.0), intensity=0.15)
    deep1 = Ellipse(cy=wm.cy - 0.10 + j(0.5), cx=wm.cx - 0.06 + j(0.5), ay=0.10 + j(0.3),
                    ax=0.05 + j(0.2), angle=0.3 + j(), intensity=0.25)
    deep2 = Ellipse(cy=wm.cy - 0.10 + j(0.5), cx=wm.cx + 0.06 + j(0.5), ay=0.10 + j(0.3),
                    ax=0.05 + j(0.2), angle=-0.3 + j(), intensity=0.25)

    lesions = []
    for _ in range(n_lesions):
        theta = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.55, 0.8)
        ly = wm.cy + rad * wm.ay * np.sin(theta) * 0.8
        lx = wm.cx + rad * wm.ax * np.cos(theta) * 0.8
        lesions.append(Ellipse(cy=float(ly), cx=float(lx),
                               ay=0.045 + j(0.2), ax=0.045 + j(0.2),
                               angle=j(2.0), intensity=0.20))

    phase = np.zeros((3, 3))
    phase[0, 1] = rng.uniform(-0.8, 0.8)    # linear ramps
    phase[1, 0] = rng.uniform(-0.8, 0.8)
    phase[0, 2] = rng.uniform(-0.5, 0.5)    # gentle quadratic terms
    phase[2, 0] = rng.uniform(-0.5, 0.5)
    phase[1, 1] = rng.uniform(-0.4, 0.4)

    return PhantomSpec(size=size, ellipses=[head, wm, deep1, deep2],
                       lesions=lesions, wm_index=1, phase_coeffs=phase, seed=seed)
