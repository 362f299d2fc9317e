"""Undersampling mask generators.

Three families:

* ``gaussian2d_mask`` draws k-space points without replacement from a centered
  2D Gaussian density (per-axis sigma derived from a FWHM given relative to
  the grid dimensions), always keeping a small fully sampled central ellipse.
  The sample budget is hit exactly via Gumbel-top-k selection.
* ``equidistant1d_mask`` keeps full phase-encode columns on a regular grid
  plus a fully kept central band.
* ``poisson2d_mask`` performs variable-density Poisson-disc selection with the
  local exclusion radius growing linearly with distance from the k-space
  center; the radius scale is calibrated, one greedy selection per step,
  until the achieved acceleration is within tolerance. A packing law that
  counts the points a radius below one pixel saturates sets the first
  scale, refitted after a miss, and log-log secant steps over the scales
  at which the conflict graph changes follow once the target is bracketed.

All generators are pure functions of their arguments (seed included), so the
same call always produces the same mask. Each grid's geometry (the centre
offsets, the normalized distance d, the ACS ellipse and the packing law's tail
sums) is built once, cached for at most 16 grids and shared read-only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .mri import SamplingMask
from .schema import Seed, read_value

_FWHM_TO_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))
# candidate-offset pairs one Poisson-disc window tests at once, which bounds
# its memory; larger windows test more candidates an earlier window would
# have rejected, smaller ones take more Python steps
_PAIRS_PER_WINDOW = 1 << 15
POISSON_RADIUS_OFFSET = 0.05   # the Poisson-disc radius at the centre, per unit scale
POISSON_TOL = 0.05             # the relative miss of the target count calibration accepts
POISSON_PACKING = 1.6          # grid pixels a kept point takes per squared radius, fitted 32-224 px
POISSON_MAX_PASSES = 50        # greedy selections calibration may run


class MaskBudgetError(ValueError):
    """Requested acceleration cannot be met (e.g. ACS alone exceeds budget)."""


class MaskCalibrationError(RuntimeError):
    """Poisson-disc radius calibration failed to reach the target density."""


def _check_grid(h: int, w: int) -> None:
    if h < 1 or w < 1:
        raise ValueError(f"h and w must be at least 1, got size {h}x{w}")


@lru_cache(maxsize=16)
def _center_offsets(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Each grid point's row and column offset from the k-space centre (h // 2, w // 2).

    Read-only, because every caller shares the cached arrays.
    """
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy, dx = yy - h // 2, xx - w // 2
    dy.setflags(write=False)
    dx.setflags(write=False)
    return dy, dx


@lru_cache(maxsize=16)
def _center_distance(h: int, w: int) -> np.ndarray:
    """d(p): each grid point's distance to the k-space centre over half the grid's diagonal.

    The Poisson-disc radius is scale * (offset + d). Read-only, because every
    caller shares the cached array.
    """
    dy, dx = _center_offsets(h, w)
    d = np.hypot(dy, dx) / (0.5 * np.hypot(h, w))
    d.setflags(write=False)
    return d


@lru_cache(maxsize=16)
def _acs(h: int, w: int, acs_frac: float) -> np.ndarray:
    """The ellipse of `acs_ellipse`, cached per grid and fraction; read-only."""
    if acs_frac <= 0:
        acs = np.zeros((h, w), dtype=bool)
    else:
        dy, dx = _center_offsets(h, w)
        acs = (2.0 * dy / h) ** 2 + (2.0 * dx / w) ** 2 <= acs_frac ** 2
    acs.setflags(write=False)
    return acs


def acs_ellipse(h: int, w: int, acs_frac: float) -> np.ndarray:
    """Central ellipse with half-axes acs_frac * dim / 2 per axis, as a fresh array."""
    return _acs(h, w, acs_frac).copy()


def full_mask(h: int, w: int) -> SamplingMask:
    _check_grid(h, w)
    return SamplingMask(np.ones((h, w)), kind="full", requested_acceleration=1.0, seed=0)


def gaussian2d_mask(h: int, w: int, acceleration: float = 4.0, fwhm_rel: float = 0.7,
                    acs_frac: float = 0.02, seed: int = 0) -> SamplingMask:
    """Random 2D Gaussian-density mask with an exact sample budget."""
    _check_grid(h, w)
    read_value(Seed, seed, "seed", ValueError)
    if not 1 < acceleration < np.inf:
        raise ValueError(f"acceleration must be finite and exceed 1, got {acceleration}")
    if not 0 < fwhm_rel <= 2:
        raise ValueError(f"fwhm_rel must be in (0, 2], got {fwhm_rel}")
    if not 0 <= acs_frac < 1:
        raise ValueError(f"acs_frac must be in [0, 1), got {acs_frac}")

    n_keep = int(round(h * w / acceleration))
    acs = _acs(h, w, acs_frac)
    n_acs = int(acs.sum())
    if n_acs > n_keep:
        raise MaskBudgetError(
            f"ACS ellipse holds {n_acs} samples but the budget at {acceleration}x is {n_keep}"
        )

    sigma_y = fwhm_rel * h / _FWHM_TO_SIGMA
    sigma_x = fwhm_rel * w / _FWHM_TO_SIGMA
    dy, dx = _center_offsets(h, w)
    log_density = -(dy ** 2 / (2.0 * sigma_y ** 2) + dx ** 2 / (2.0 * sigma_x ** 2))

    keep = acs.copy()
    n_rest = n_keep - n_acs
    if n_rest > 0:
        candidates = np.flatnonzero(~acs.ravel())
        rng = np.random.default_rng(seed)
        # Gumbel-top-k == weighted sampling without replacement, exact budget
        keys = log_density.ravel()[candidates] + rng.gumbel(size=candidates.size)
        order = np.argsort(keys, kind="stable")
        chosen = candidates[order[-n_rest:]]
        flat = keep.ravel()
        flat[chosen] = True
        keep = flat.reshape(h, w)

    return SamplingMask(
        keep.astype(np.float64), kind="gaussian2d",
        requested_acceleration=float(acceleration), seed=seed,
        extra={"fwhm_rel": fwhm_rel, "acs_frac": acs_frac},
    )


def equidistant1d_mask(h: int, w: int, acceleration: int = 4, center_frac: float = 0.08,
                       offset_policy: str = "fixed", seed: int = 0) -> SamplingMask:
    """Regularly spaced full phase-encode columns plus a central band."""
    _check_grid(h, w)
    read_value(Seed, seed, "seed", ValueError)
    if not 2 <= acceleration < np.inf or int(acceleration) != acceleration:
        raise ValueError(f"acceleration must be a finite integer >= 2, got {acceleration}")
    if not 0 <= center_frac < 1:
        raise ValueError(f"center_frac must be in [0, 1), got {center_frac}")
    acceleration = int(acceleration)

    n_center = int(round(center_frac * w))
    c0 = w // 2 - n_center // 2
    cols = np.zeros(w, dtype=bool)
    if n_center > 0:
        cols[c0:c0 + n_center] = True

    if offset_policy == "fixed":
        offset = 0
    elif offset_policy == "random":
        offset = int(np.random.default_rng(seed).integers(acceleration))
    else:
        raise ValueError(f"unknown offset policy: {offset_policy!r}")
    cols[offset::acceleration] = True

    keep = np.broadcast_to(cols, (h, w)).astype(np.float64).copy()
    return SamplingMask(
        keep, kind="equidistant1d", requested_acceleration=float(acceleration), seed=seed,
        extra={"center_frac": center_frac, "n_center_lines": n_center, "offset": offset},
    )


def _poisson_disc_select(h: int, w: int, scale: float, radius_offset: float,
                         acs: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Greedy dart throwing over a fixed candidate order, decided in rounds.

    Points p and q outside the ACS conflict when their squared distance is
    below min(r(p), r(q))**2, with r(p) = scale*(offset + d(p)) and d the
    distance to the k-space center normalized by half the diagonal
    (`_center_distance`). Dart throwing visits the candidates in ``order``
    and keeps p unless an earlier kept point conflicts with it, so its result
    is the lexicographically first maximal independent set of this fixed,
    symmetric conflict graph.

    The same set is computed here without a step per candidate. The order is
    cut into windows of consecutive candidates. Within a window, every open
    (not yet rejected) candidate tests all grid offsets at once for
    conflicts with earlier open candidates, which all lie in that window.
    Then, in rounds, an undecided candidate with no undecided or kept
    earlier neighbour is kept, and a candidate with a kept earlier
    neighbour is rejected. Decisions are final and match the greedy ones:
    a point is kept exactly when all its earlier neighbours were rejected.
    Last, the window's kept points reject their neighbours in later windows.
    Small windows bound the memory, and in a sparse mask most candidates are
    rejected before their window tests them.

    Radii must be non-negative: a conflict then implies |dy|, |dx| < r, so
    offsets up to int(max r) per axis find every one, as the greedy
    window of int(r(p)) + 1 around p does.
    """
    radius = scale * (radius_offset + _center_distance(h, w))
    rmax = radius[~acs].max(initial=0.0)

    # the offsets a conflict can span, as index shifts on a grid padded by
    # as much; padding has radius 0 and so conflicts with nothing
    my, mx = min(int(rmax), h - 1), min(int(rmax), w - 1)
    oy, ox = np.mgrid[-my:my + 1, -mx:mx + 1]
    d2 = oy * oy + ox * ox
    near = (d2 > 0) & (d2 < rmax * rmax)
    wp = w + 2 * mx
    shift, d2 = (oy * wp + ox)[near], d2[near]
    inner = np.s_[my:my + h, mx:mx + w]
    rad = np.zeros((h + 2 * my, wp))
    rad[inner] = radius
    at = np.arange(rad.size).reshape(rad.shape)[inner].ravel()[order]    # by rank
    # rank of each open candidate; h*w, above every rank, once decided
    closed = h * w
    open_rank = np.full(rad.size, closed)
    open_rank[at] = np.arange(h * w)
    open_rank[at[acs.ravel()[order]]] = closed
    rad = rad.ravel()

    def conflicts(p):
        q = p[:, None] + shift
        rmin = np.minimum(rad[p][:, None], rad[q])
        return q, d2 < rmin * rmin

    kept = np.zeros(h * w, dtype=bool)        # by rank
    step = max(1, _PAIRS_PER_WINDOW // max(1, shift.size))
    for lo in range(0, h * w, step):
        p = at[lo:lo + step]
        decided = open_rank[p] == closed
        if decided.all():
            continue
        cand = np.flatnonzero(~decided)
        q, hit = conflicts(p[cand])
        rq = open_rank[q]
        hit &= rq < (lo + cand)[:, None]          # q open and earlier than p
        # edges from earlier to later open candidate, as window positions
        src, dst = rq[hit] - lo, np.repeat(cand, hit.sum(axis=1))
        keep = np.zeros(p.size, dtype=bool)
        while src.size:
            blocked = np.zeros(p.size, dtype=bool)
            blocked[dst] = True
            new = ~decided & ~blocked
            keep |= new
            decided |= new
            decided[dst[new[src]]] = True
            live = ~(decided[src] | decided[dst])
            src, dst = src[live], dst[live]
        keep |= ~decided
        kept[lo:lo + step] = keep
        open_rank[p] = closed
        q, hit = conflicts(p[keep])
        open_rank[q[hit]] = closed

    out = np.zeros(h * w, dtype=bool)
    out[order] = kept
    return out.reshape(h, w) | acs


def _packing_tails(h: int, w: int, radius_offset: float, acs: np.ndarray) -> np.ndarray:
    """Tail sums of the capacities b = 1/(offset + d)**2 outside the ACS, largest first.

    ``tails[k]`` sums every capacity but the k largest. It is all the
    packing law needs of the grid.
    """
    d = _center_distance(h, w)[~acs]
    return np.cumsum(np.sort(1.0 / (radius_offset + d) ** 2))[::-1]


@lru_cache(maxsize=16)
def _poisson_tails(h: int, w: int, acs_frac: float) -> np.ndarray:
    """`_packing_tails` at POISSON_RADIUS_OFFSET outside the ACS of acs_frac, cached per
    grid and fraction; read-only."""
    tails = _packing_tails(h, w, POISSON_RADIUS_OFFSET, _acs(h, w, acs_frac))
    tails.setflags(write=False)
    return tails


def _packing_inverse(tails: np.ndarray, m: float) -> float:
    """The t at which sum(min(1, b * t)) over the capacities b reaches m.

    The sum is concave and piecewise linear in t, and each line
    k + t * tails[k] (the k largest capacities saturated) lies on or above
    it, touching it where exactly k are saturated. So the root is the
    largest of the lines' roots, one per k below m. With no capacities
    (the ACS holds the grid) every t keeps the same count, and 1 is taken.
    """
    k = np.arange(min(tails.size, int(np.ceil(m))))
    return float(np.max((m - k) / tails[k], initial=1.0 if tails.size == 0 else 0.0))


def _poisson_scale_estimate(tails: np.ndarray, want: float) -> float:
    """The scale at which the packing law keeps `want` points outside the ACS.

    A point p whose radius is r_p = scale * (offset + d_p) takes about
    POISSON_PACKING * r_p**2 pixels of the grid, but never less than its
    own: the law counts sum(min(1, 1 / (POISSON_PACKING * r_p**2))) points
    outside the ACS. With t = 1 / (POISSON_PACKING * scale**2) that is
    sum(min(1, b_p * t)), solved in closed form by `_packing_inverse`.
    """
    return 1.0 / np.sqrt(POISSON_PACKING * _packing_inverse(tails, want))


def _critical_scales(h: int, w: int, radius_offset: float, acs: np.ndarray,
                     lo: float, hi: float) -> np.ndarray:
    """The scales strictly between lo and hi at which two points outside the ACS
    start to conflict, sorted, with values within a relative 1e-12 merged.

    Points p and q conflict once scale * (offset + min(d_p, d_q)) exceeds their
    distance, so the conflict graph, and with it the greedy selection, is the
    same at every scale between two adjacent values returned here.
    """
    base = radius_offset + _center_distance(h, w)
    reach = hi * base[~acs].max(initial=0.0)
    my, mx = min(int(reach), h - 1), min(int(reach), w - 1)
    found = []
    for oy in range(my + 1):
        for ox in range(-mx if oy else 1, mx + 1):      # one of each pair of offsets
            dist = np.hypot(oy, ox)
            if dist >= reach:
                continue
            p = np.s_[:h - oy, max(0, -ox):w - max(0, ox)]
            q = np.s_[oy:, max(0, ox):w - max(0, -ox)]
            c = dist / np.minimum(base[p], base[q])[~(acs[p] | acs[q])]
            found.append(c[(lo < c) & (c < hi)])
    c = np.sort(np.concatenate(found or [np.zeros(0)]))
    return c[np.r_[True, np.diff(c) > 1e-12 * c[1:]]] if c.size else c


def poisson2d_mask(h: int, w: int, acceleration: float = 7.5, acs_frac: float = 0.02,
                   seed: int = 0) -> SamplingMask:
    """Variable-density Poisson-disc mask calibrated to the target density."""
    _check_grid(h, w)
    read_value(Seed, seed, "seed", ValueError)
    if not 1 < acceleration < np.inf:
        raise ValueError(f"acceleration must be finite and exceed 1, got {acceleration}")
    if not 0 <= acs_frac < 1:
        raise ValueError(f"acs_frac must be in [0, 1), got {acs_frac}")

    acs = _acs(h, w, acs_frac)
    target = h * w / acceleration
    lo, hi = target * (1 - POISSON_TOL), target * (1 + POISSON_TOL)
    n_acs = int(acs.sum())
    if n_acs > hi:
        raise MaskBudgetError(
            f"ACS ellipse holds {n_acs} samples, above the {acceleration}x budget"
        )
    if abs(round(target) - target) / target > POISSON_TOL:   # the nearest count misses
        raise MaskCalibrationError(
            f"no sample count on a {h}x{w} grid is within {POISSON_TOL:.0%} of the "
            f"{acceleration}x target {target:.2f}: [{lo:.2f}, {hi:.2f}] holds no integer"
        )
    order = np.random.default_rng(seed).permutation(h * w)

    # the packing law sets the first scale. After a miss the law, refitted to
    # the count that pass kept, sets the next, until the target is bracketed;
    # then the log-log secant between the latest counts either side of it,
    # moved to the middle of the interval between critical scales that holds
    # it. When no whole interval is left inside the bracket, no scale between
    # its ends keeps another count. The first candidate outside the ACS is
    # always kept.
    tails = _poisson_tails(h, w, acs_frac)
    want = max(target - n_acs, 1.0)
    scale = _poisson_scale_estimate(tails, want)
    above = below = None        # the latest (scale, count outside the ACS) either side
    critical = None             # the critical scales inside the first bracket
    best = np.inf
    for _ in range(POISSON_MAX_PASSES):
        keep = _poisson_disc_select(h, w, scale, POISSON_RADIUS_OFFSET, acs, order)
        n = int(keep.sum())
        miss = abs(n - target) / target
        if miss <= POISSON_TOL:
            break
        best = min(best, miss)
        if n > target:
            above = (scale, n - n_acs)
        else:
            below = (scale, n - n_acs)
        if above is None or below is None:
            ratio = _packing_inverse(tails, max(n - n_acs, 1)) / _packing_inverse(tails, want)
            scale *= np.clip(np.sqrt(ratio), 0.5, 2.0)
            continue
        (s0, n0), (s1, n1) = above, below
        s_lo, s_hi = min(s0, s1), max(s0, s1)
        if critical is None:
            critical = _critical_scales(h, w, POISSON_RADIUS_OFFSET, acs, s_lo, s_hi)
        inside = critical[(s_lo < critical) & (critical < s_hi)]
        if inside.size < 2:
            raise MaskCalibrationError(
                f"no scale on a {h}x{w} grid keeps a count in [{lo:.2f}, {hi:.2f}] for "
                f"the {acceleration}x target {target:.2f}: the count jumps from "
                f"{n0 + n_acs} to {n1 + n_acs} at one scale"
            )
        secant = s0 * (s1 / s0) ** (np.log(want / n0) / np.log(n1 / n0))
        i = np.clip(np.searchsorted(inside, secant), 1, inside.size - 1)
        scale = np.sqrt(inside[i - 1] * inside[i])
    else:
        raise MaskCalibrationError(
            f"calibration missed the {acceleration}x target by {best:.1%} "
            f"after {POISSON_MAX_PASSES} passes"
        )

    return SamplingMask(
        keep.astype(np.float64), kind="poisson2d",
        requested_acceleration=float(acceleration), seed=seed,
        extra={"acs_frac": acs_frac, "radius_offset": POISSON_RADIUS_OFFSET,
               "tolerance": POISSON_TOL, "scale": scale},
    )


class MaskReport:
    """Audit summary of a sampling mask."""

    def __init__(self, mask: SamplingMask):
        keep = mask.keep.astype(bool)
        h, w = keep.shape
        self.kind = mask.kind
        self.height = h
        self.width = w
        self.seed = mask.seed
        self.requested_acceleration = mask.requested_acceleration
        self.n_kept = mask.n_kept
        self.achieved_acceleration = mask.achieved_acceleration
        # ACS extent: longest fully sampled run through the center, per axis
        self.acs_extent_y = _center_run(keep[:, w // 2])
        self.acs_extent_x = _center_run(keep[h // 2, :])

    CSV_HEADER = ("kind", "height", "width", "seed", "requested_acc",
                  "achieved_acc", "n_kept", "acs_extent_y", "acs_extent_x")

    def csv_row(self) -> str:
        vals = (self.kind, self.height, self.width, self.seed,
                f"{self.requested_acceleration:.6f}", f"{self.achieved_acceleration:.6f}",
                self.n_kept, self.acs_extent_y, self.acs_extent_x)
        return ",".join(str(v) for v in vals)


def _center_run(line: np.ndarray) -> int:
    n = line.size
    mid = n // 2
    if not line[mid]:
        return 0
    lo = mid
    while lo > 0 and line[lo - 1]:
        lo -= 1
    hi = mid
    while hi < n - 1 and line[hi + 1]:
        hi += 1
    return hi - lo + 1
