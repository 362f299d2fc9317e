"""Mask generators: budgets, ACS coverage, determinism, Poisson-disc spacing."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconkit import sampling


class TestGaussian2d:
    def test_exact_budget_at_10x_320(self):
        mask = sampling.gaussian2d_mask(320, 320, 10.0, seed=0)
        assert mask.n_kept == round(320 * 320 / 10.0) == 10240
        assert abs(mask.achieved_acceleration - 10.0) / 10.0 < 0.01

    def test_acs_ellipse_fully_kept(self):
        h = w = 320
        mask = sampling.gaussian2d_mask(h, w, 10.0, acs_frac=0.02, seed=1)
        dy = np.arange(h)[:, None] - h // 2
        dx = np.arange(w)[None, :] - w // 2
        inside = (2 * dy / h) ** 2 + (2 * dx / w) ** 2 <= 0.02 ** 2
        assert mask.keep[inside].all()

    def test_acceleration_just_above_one(self):
        mask = sampling.gaussian2d_mask(64, 64, 1.02, seed=2)
        assert mask.n_kept == round(64 * 64 / 1.02)
        assert mask.keep[32, 32] == 1.0
        assert mask.n_kept / mask.keep.size > 0.97

    def test_acs_exceeding_budget_rejected(self):
        with pytest.raises(sampling.MaskBudgetError):
            sampling.gaussian2d_mask(64, 64, 50.0, acs_frac=0.5, seed=3)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            sampling.gaussian2d_mask(32, 32, 1.0, seed=0)
        with pytest.raises(ValueError):
            sampling.gaussian2d_mask(32, 32, 4.0, fwhm_rel=0.0, seed=0)
        with pytest.raises(ValueError):
            sampling.gaussian2d_mask(32, 32, 4.0, acs_frac=1.0, seed=0)

    @pytest.mark.parametrize("make", [sampling.gaussian2d_mask, sampling.poisson2d_mask,
                                      sampling.equidistant1d_mask])
    @pytest.mark.parametrize("acceleration", [float("nan"), float("inf")])
    def test_non_finite_acceleration_named(self, make, acceleration):
        with pytest.raises(ValueError, match="acceleration"):
            make(32, 32, acceleration=acceleration)

    def test_density_concentrates_at_center(self):
        mask = sampling.gaussian2d_mask(128, 128, 6.0, seed=4)
        center = mask.keep[32:96, 32:96].mean()
        border = np.concatenate([mask.keep[:16].ravel(), mask.keep[-16:].ravel()]).mean()
        assert center > 2 * border

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_seed_determinism(self, seed):
        a = sampling.gaussian2d_mask(32, 48, 4.0, seed=seed)
        b = sampling.gaussian2d_mask(32, 48, 4.0, seed=seed)
        assert np.array_equal(a.keep, b.keep)


class TestEquidistant1d:
    def test_central_band_and_step(self):
        mask = sampling.equidistant1d_mask(16, 32, acceleration=4, center_frac=0.08, seed=0)
        cols = mask.keep[0]
        n_center = int(round(0.08 * 32))
        assert n_center == 3
        c0 = 32 // 2 - n_center // 2
        assert cols[c0:c0 + n_center].all()
        outside = np.ones(32, dtype=bool)
        outside[c0:c0 + n_center] = False
        kept_outside = np.flatnonzero(cols.astype(bool) & outside)
        assert all(c % 4 == 0 for c in kept_outside)

    def test_acceleration_one_rejected(self):
        with pytest.raises(ValueError):
            sampling.equidistant1d_mask(16, 32, acceleration=1)

    def test_non_integer_acceleration_rejected(self):
        with pytest.raises(ValueError):
            sampling.equidistant1d_mask(16, 32, acceleration=2.5)

    def test_constant_along_ky(self):
        mask = sampling.equidistant1d_mask(24, 32, acceleration=4, seed=1)
        assert (mask.keep == mask.keep[0][None, :]).all()

    def test_random_offset_policy(self):
        offs = {sampling.equidistant1d_mask(8, 64, 8, offset_policy="random", seed=s).extra["offset"]
                for s in range(32)}
        assert len(offs) > 1
        assert all(0 <= o < 8 for o in offs)

    def test_center_frac_bound(self):
        for frac in (1.0, float("nan"), -0.5, -float("inf")):
            with pytest.raises(ValueError, match="^center_frac"):
                sampling.equidistant1d_mask(8, 16, center_frac=frac)


def _reference_select(h, w, scale, radius_offset, acs, order):
    """Per-candidate dart throwing: the plain loop `_poisson_disc_select` must match."""
    dy, dx = sampling._center_offsets(h, w)
    half_diag = 0.5 * np.hypot(h, w)
    dist_norm = np.hypot(dy, dx) / half_diag
    radius = scale * (radius_offset + dist_norm)

    placed = np.zeros((h, w), dtype=bool)       # kept points outside the ACS
    kept_r = np.zeros((h, w))
    ys, xs = np.divmod(order, w)
    acs_flat = acs.ravel()
    rad_flat = radius.ravel()
    for idx, py, px in zip(order, ys, xs):
        if acs_flat[idx]:
            continue
        rp = rad_flat[idx]
        win = int(rp) + 1
        y0, y1 = max(0, py - win), min(h, py + win + 1)
        x0, x1 = max(0, px - win), min(w, px + win + 1)
        sub = placed[y0:y1, x0:x1]
        if sub.any():
            qy, qx = np.nonzero(sub)
            d2 = (qy + y0 - py) ** 2 + (qx + x0 - px) ** 2
            rq = kept_r[y0:y1, x0:x1][qy, qx]
            rmin = np.minimum(rp, rq)
            if np.any(d2 < rmin * rmin):
                continue
        placed[py, px] = True
        kept_r[py, px] = rp
    return placed | acs


def _packing_scale(h, w, target):
    """The radius scale of an earlier packing rule, sqrt(sum(1/(0.05 + d)**2) / (1.8 * target)):
    the select tests run at multiples of it, so they keep covering the same scales."""
    dy, dx = sampling._center_offsets(h, w)
    d = np.hypot(dy, dx) / (0.5 * np.hypot(h, w))
    return np.sqrt(np.sum(1.0 / (0.05 + d) ** 2) / (1.8 * target))


def _counting_passes(monkeypatch):
    """Patch `_poisson_disc_select` to record each pass's scale; returns the record."""
    scales = []
    select = sampling._poisson_disc_select

    def counted(h, w, scale, *args):
        scales.append(scale)
        return select(h, w, scale, *args)
    monkeypatch.setattr(sampling, "_poisson_disc_select", counted)
    return scales


@pytest.fixture(scope="module")
def mask224():
    return sampling.poisson2d_mask(224, 224, acceleration=7.5, seed=0)


class TestPoisson2d:

    def test_achieved_acceleration_within_tolerance(self, mask224):
        assert abs(mask224.achieved_acceleration - 7.5) / 7.5 <= 0.05

    def test_min_distance_property(self, mask224):
        # no two kept points outside the ACS sit closer than the smaller of
        # their local exclusion radii
        from scipy.spatial import cKDTree

        keep = mask224.keep.astype(bool)
        h, w = keep.shape
        acs = sampling.acs_ellipse(h, w, mask224.extra["acs_frac"])
        pts = np.argwhere(keep & ~acs)
        half_diag = 0.5 * np.hypot(h, w)
        dist_norm = np.hypot(pts[:, 0] - h // 2, pts[:, 1] - w // 2) / half_diag
        radius = mask224.extra["scale"] * (mask224.extra["radius_offset"] + dist_norm)

        tree = cKDTree(pts)
        max_r = radius.max()
        pairs = tree.query_pairs(max_r, output_type="ndarray")
        if len(pairs):
            d = np.hypot(pts[pairs[:, 0], 0] - pts[pairs[:, 1], 0],
                         pts[pairs[:, 0], 1] - pts[pairs[:, 1], 1])
            min_r = np.minimum(radius[pairs[:, 0]], radius[pairs[:, 1]])
            assert (d >= min_r - 1e-9).all()

    def test_acs_fully_kept(self, mask224):
        acs = sampling.acs_ellipse(224, 224, 0.02)
        assert mask224.keep[acs].all()

    def test_seed_determinism(self):
        a = sampling.poisson2d_mask(64, 64, acceleration=4.0, seed=9)
        b = sampling.poisson2d_mask(64, 64, acceleration=4.0, seed=9)
        assert np.array_equal(a.keep, b.keep)

    def test_different_seeds_differ(self):
        a = sampling.poisson2d_mask(64, 64, acceleration=4.0, seed=1)
        b = sampling.poisson2d_mask(64, 64, acceleration=4.0, seed=2)
        assert not np.array_equal(a.keep, b.keep)

    def test_invalid_acceleration(self):
        with pytest.raises(ValueError):
            sampling.poisson2d_mask(32, 32, acceleration=1.0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"h": 0}, "h and w"),
        ({"w": 0}, "h and w"),
        ({"h": -3}, "h and w"),
        ({"acs_frac": -0.5}, "acs_frac"),
        ({"acs_frac": 1.0}, "acs_frac"),
    ])
    def test_invalid_arguments_named(self, kwargs, name):
        args = {"h": 32, "w": 32, "acceleration": 4.0, **kwargs}
        with pytest.raises(ValueError, match=name) as err:
            sampling.poisson2d_mask(**args)
        assert not isinstance(err.value, sampling.MaskBudgetError)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scale", [0.25, 0.5, 1.0, 2.0, "beyond_grid"])
    @pytest.mark.parametrize("acs_frac", [0.0, 0.02])
    @pytest.mark.parametrize("h, w", [(64, 64), (48, 80), (31, 17)])
    def test_select_matches_reference_loop(self, h, w, acs_frac, scale, seed):
        # scales relative to the packing estimate at 4x, and one whose radius
        # exceeds the grid, so every offset the grid can hold is in reach
        est = _packing_scale(h, w, h * w / 4.0)
        s = 2.0 * max(h, w) if scale == "beyond_grid" else scale * est
        acs = sampling.acs_ellipse(h, w, acs_frac)
        order = np.random.default_rng(seed).permutation(h * w)
        got = sampling._poisson_disc_select(h, w, s, 0.05, acs, order)
        want = _reference_select(h, w, s, 0.05, acs, order)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("pairs", [1, 50, 2**40])
    def test_select_independent_of_window_size(self, pairs, monkeypatch):
        # one candidate per window, a few, and the whole order in one window
        h, w = 48, 80
        acs = sampling.acs_ellipse(h, w, 0.02)
        order = np.random.default_rng(4).permutation(h * w)
        s = _packing_scale(h, w, h * w / 4.0)
        want = _reference_select(h, w, s, 0.05, acs, order)
        monkeypatch.setattr(sampling, "_PAIRS_PER_WINDOW", pairs)
        assert np.array_equal(sampling._poisson_disc_select(h, w, s, 0.05, acs, order), want)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mask_matches_reference_loop(self, seed, monkeypatch):
        got = sampling.poisson2d_mask(64, 64, 4.0, seed=seed)
        monkeypatch.setattr(sampling, "_poisson_disc_select", _reference_select)
        want = sampling.poisson2d_mask(64, 64, 4.0, seed=seed)
        assert np.array_equal(got.keep, want.keep)
        assert got.extra == want.extra

    def test_64x64_4x_calibrates_in_one_pass(self, monkeypatch):
        passes = _counting_passes(monkeypatch)
        for seed in range(20):
            passes.clear()
            mask = sampling.poisson2d_mask(64, 64, 4.0, seed=seed)
            assert abs(mask.n_kept - 1024) / 1024 <= sampling.POISSON_TOL
            assert len(passes) == 1

    def test_calibration_sweep_takes_few_passes(self, monkeypatch):
        # every case calibrates or names why no scale can, none runs out of passes,
        # and the mean is two passes (3.6 before the packing law and the jump check)
        passes = _counting_passes(monkeypatch)
        counts = []
        for h, w in [(10, 10), (12, 12), (16, 16), (31, 17), (32, 32), (48, 80), (64, 64),
                     (96, 96)]:
            for acceleration in (2.0, 3.0, 4.0, 6.0, 8.0, 12.0):
                for seed in range(5):
                    passes.clear()
                    target = h * w / acceleration
                    try:
                        mask = sampling.poisson2d_mask(h, w, acceleration, seed=seed)
                    except sampling.MaskCalibrationError as err:
                        assert re.search("holds no integer|the count jumps from", str(err))
                    else:
                        assert abs(mask.n_kept - target) / target <= sampling.POISSON_TOL
                    counts.append(len(passes))
        assert max(counts) < sampling.POISSON_MAX_PASSES
        assert np.mean(counts) <= 2.1

    @pytest.mark.parametrize("h, w, acceleration", [
        (16, 16, 4.0), (32, 32, 4.0), (64, 64, 8.0), (48, 80, 12.0), (96, 96, 6.0),
    ])
    def test_packing_law_first_scale_is_near_the_target(self, h, w, acceleration):
        # the first pass keeps within 10% of the target count at every size
        acs = sampling.acs_ellipse(h, w, 0.02)
        tails = sampling._packing_tails(h, w, sampling.POISSON_RADIUS_OFFSET, acs)
        target = h * w / acceleration
        scale = sampling._poisson_scale_estimate(tails, target - acs.sum())
        order = np.random.default_rng(0).permutation(h * w)
        keep = sampling._poisson_disc_select(h, w, scale, sampling.POISSON_RADIUS_OFFSET,
                                             acs, order)
        assert abs(keep.sum() - target) / target <= 0.1

    @pytest.mark.parametrize("m", [1.0, 7.5, 100.0, 1500.0, 4000.0, 4085.0])
    def test_packing_inverse_solves_the_law(self, m):
        acs = sampling.acs_ellipse(64, 64, 0.02)
        tails = sampling._packing_tails(64, 64, 0.05, acs)
        dy, dx = sampling._center_offsets(64, 64)
        b = 1.0 / (0.05 + np.hypot(dy, dx)[~acs] / (0.5 * np.hypot(64, 64))) ** 2
        assert tails[0] == pytest.approx(b.sum())
        t = sampling._packing_inverse(tails, m)
        assert np.minimum(1.0, b * t).sum() == pytest.approx(m, rel=1e-12)

    def test_a_count_that_jumps_over_the_window_raises_naming_the_jump(self, monkeypatch):
        # on 10x10 at 4x the kept count jumps from 28 to 23 at one scale, over [23.75, 26.25]
        passes = _counting_passes(monkeypatch)
        with pytest.raises(sampling.MaskCalibrationError,
                           match=r"10x10 grid keeps a count in \[23\.75, 26\.25\] for the "
                                 r"4\.0x target 25\.00: the count jumps from 28 to 23"):
            sampling.poisson2d_mask(10, 10, 4.0, seed=0)
        assert len(passes) <= 10

    def test_critical_scales_bound_intervals_of_one_selection(self):
        # between two adjacent critical scales the selection does not change
        h, w = 12, 12
        acs = sampling.acs_ellipse(h, w, 0.02)
        order = np.random.default_rng(3).permutation(h * w)
        crit = sampling._critical_scales(h, w, 0.05, acs, 2.0, 4.0)
        assert crit.size > 2 and np.all(np.diff(crit) > 0)
        assert 2.0 < crit[0] and crit[-1] < 4.0
        for a, b in zip(crit[:-1], crit[1:]):
            lo, hi = a + (b - a) * 1e-6, b - (b - a) * 1e-6
            assert np.array_equal(sampling._poisson_disc_select(h, w, lo, 0.05, acs, order),
                                  sampling._poisson_disc_select(h, w, hi, 0.05, acs, order))

    @pytest.mark.parametrize("h, w", [(16, 16), (31, 17), (48, 80), (64, 64)])
    def test_calibration_meets_the_tolerance_or_the_budget_error(self, h, w):
        # a large ACS takes a share of the count that no radius scale changes
        for acceleration in (1.5, 3.0, 6.0, 12.0):
            for acs_frac in (0.02, 0.4):
                target = h * w / acceleration
                try:
                    mask = sampling.poisson2d_mask(h, w, acceleration, acs_frac=acs_frac)
                except sampling.MaskBudgetError:
                    acs = sampling.acs_ellipse(h, w, acs_frac)
                    assert acs.sum() > target * (1 + sampling.POISSON_TOL)
                else:
                    assert abs(mask.n_kept - target) / target <= sampling.POISSON_TOL

    @pytest.mark.parametrize("acceleration, window", [
        (10.0, r"10\.0x target 6\.40: \[6\.08, 6\.72\]"),
        (15.0, r"15\.0x target 4\.27: \[4\.05, 4\.48\]"),
        (20.0, r"20\.0x target 3\.20: \[3\.04, 3\.36\]"),
    ], ids=["10x", "15x", "20x"])
    def test_a_window_without_a_count_raises_before_any_pass(self, monkeypatch,
                                                              acceleration, window):
        # 8x8 holds 64 points; no integer is within POISSON_TOL of 64 / acceleration
        passes = []
        select = sampling._poisson_disc_select

        def counted(*args):
            passes.append(args)
            return select(*args)
        monkeypatch.setattr(sampling, "_poisson_disc_select", counted)
        for seed in range(4):
            with pytest.raises(sampling.MaskCalibrationError,
                               match=window + " holds no integer"):
                sampling.poisson2d_mask(8, 8, acceleration, seed=seed)
        assert passes == []

    def test_a_count_no_scale_moves_raises_naming_the_miss(self, monkeypatch):
        # every pass keeps the same 512 of 4096 points, half the 4x target
        fixed = np.zeros((64, 64), dtype=bool)
        fixed[::2, ::4] = True
        monkeypatch.setattr(sampling, "_poisson_disc_select", lambda *args: fixed.copy())
        with pytest.raises(sampling.MaskCalibrationError,
                           match=r"4\.0x target by 50\.0% after 50 passes"):
            sampling.poisson2d_mask(64, 64, 4.0, acs_frac=0.0)


GRIDS = [(16, 16), (15, 15), (12, 20), (64, 64)]
GRID_CACHES = (sampling._center_offsets, sampling._center_distance, sampling._acs,
               sampling._poisson_tails)


def _packing_tails_before(h, w, radius_offset, acs):
    """`_packing_tails` as it was before the one distance helper, kept as the reference."""
    dy, dx = sampling._center_offsets(h, w)
    d = np.hypot(dy, dx)[~acs] / (0.5 * np.hypot(h, w))
    return np.cumsum(np.sort(1.0 / (radius_offset + d) ** 2))[::-1]


def _critical_scales_before(h, w, radius_offset, acs, lo, hi):
    """`_critical_scales` as it was before the one distance helper, kept as the reference."""
    dy, dx = sampling._center_offsets(h, w)
    base = radius_offset + np.hypot(dy, dx) / (0.5 * np.hypot(h, w))
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


class TestGridCaches:
    @pytest.mark.parametrize("make", [sampling.gaussian2d_mask, sampling.poisson2d_mask])
    @pytest.mark.parametrize("i", range(len(GRIDS)))
    def test_a_cold_call_and_a_warm_call_give_the_same_bytes(self, make, i):
        # the warm call comes after another grid has been built
        (h, w), (other_h, other_w) = GRIDS[i], GRIDS[i - 1]
        for cache in GRID_CACHES:
            cache.cache_clear()
        cold = make(h, w, 4.0, seed=1)
        make(other_h, other_w, 4.0, seed=1)
        warm = make(h, w, 4.0, seed=1)
        assert warm.keep.tobytes() == cold.keep.tobytes() and warm.extra == cold.extra
        assert sampling.acs_ellipse(h, w, 0.02).tobytes() == sampling._acs(h, w, 0.02).tobytes()

    def test_cached_arrays_are_read_only(self):
        sampling.poisson2d_mask(16, 16, 4.0, seed=0)
        arrays = [*sampling._center_offsets(16, 16), sampling._center_distance(16, 16),
                  sampling._acs(16, 16, 0.02), sampling._acs(16, 16, 0.0),
                  sampling._poisson_tails(16, 16, 0.02)]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_changing_the_acs_ellipse_leaves_the_next_mask(self):
        before = [make(64, 64, 4.0, seed=2) for make in (sampling.gaussian2d_mask,
                                                         sampling.poisson2d_mask)]
        acs = sampling.acs_ellipse(64, 64, 0.02)
        assert acs.flags.writeable
        acs[...] = ~acs
        after = [make(64, 64, 4.0, seed=2) for make in (sampling.gaussian2d_mask,
                                                        sampling.poisson2d_mask)]
        for a, b in zip(before, after):
            assert a.keep.tobytes() == b.keep.tobytes()
        assert not np.array_equal(acs, sampling.acs_ellipse(64, 64, 0.02))

    @pytest.mark.parametrize("h, w", GRIDS)
    def test_the_one_distance_keeps_the_bits_of_its_copies(self, h, w):
        for acs_frac in (0.0, 0.02, 0.3):
            acs = sampling.acs_ellipse(h, w, acs_frac)
            for offset in (sampling.POISSON_RADIUS_OFFSET, 0.2):
                assert (sampling._packing_tails(h, w, offset, acs).tobytes()
                        == _packing_tails_before(h, w, offset, acs).tobytes())
            crit = sampling._critical_scales(h, w, 0.05, acs, 2.0, 4.0)
            assert crit.size > 2
            assert crit.tobytes() == _critical_scales_before(h, w, 0.05, acs, 2.0, 4.0).tobytes()
        assert (sampling._poisson_tails(h, w, 0.02).tobytes()
                == _packing_tails_before(h, w, 0.05, sampling.acs_ellipse(h, w, 0.02)).tobytes())


class TestMaskReport:
    def test_full_mask_acceleration_one(self):
        report = sampling.MaskReport(sampling.full_mask(16, 16))
        assert report.achieved_acceleration == 1.0

    def test_gaussian_10x(self):
        mask = sampling.gaussian2d_mask(320, 320, 10.0, seed=5)
        report = sampling.MaskReport(mask)
        assert abs(report.achieved_acceleration - 10.0) <= 0.1

    def test_equidistant_density_constant_along_ky(self):
        mask = sampling.equidistant1d_mask(24, 32, acceleration=4, seed=0)
        density_y = mask.keep.mean(axis=1)
        assert np.allclose(density_y, density_y[0])

    def test_csv_row_shape(self):
        report = sampling.MaskReport(sampling.gaussian2d_mask(32, 32, 4.0, seed=0))
        row = report.csv_row()
        assert len(row.split(",")) == len(report.CSV_HEADER)
        assert row.startswith("gaussian2d,32,32,")
