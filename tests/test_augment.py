import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankadapt.augment import STRONG, WEAK, augment_view
from bankadapt.config import RunConfig
from bankadapt.seeding import derive_seed_sequence


class TestConfig:
    def test_weak_sigma_must_not_exceed_strong(self):
        with pytest.raises(ValueError, match="sigma_weak"):
            RunConfig(sigma_weak=0.6, sigma_strong=0.5)

    def test_mask_frac_range(self):
        with pytest.raises(ValueError, match="mask_frac"):
            RunConfig(mask_frac=1.0)
        with pytest.raises(ValueError, match="mask_frac"):
            RunConfig(mask_frac=-0.1)


class TestViews:
    def test_zero_sigma_weak_is_identity(self):
        cfg = RunConfig(sigma_weak=0.0, sigma_strong=0.5, mask_frac=0.25)
        x = np.linspace(-1, 1, 16)[None, :]
        out = augment_view(x, [0], WEAK, cfg, epoch=0)
        np.testing.assert_array_equal(out, x)

    def test_strong_view_masks_exactly_floor_frac_coordinates(self):
        cfg = RunConfig(seed=1, sigma_weak=0.1, sigma_strong=0.4, mask_frac=0.25)
        d = 10  # floor(0.25 * 10) = 2 zeroed coordinates
        x = np.full((1, d), 5.0)
        out = augment_view(x, [3], STRONG, cfg, epoch=0)
        assert int(np.sum(out == 0.0)) == 2

    def test_same_key_same_view(self):
        cfg = RunConfig(seed=5)
        x = np.arange(8.0)[None, :]
        a = augment_view(x, [7], STRONG, cfg, epoch=2)
        b = augment_view(x, [7], STRONG, cfg, epoch=2)
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(epoch=st.integers(0, 50), sample_id=st.integers(0, 10_000),
           view=st.sampled_from([WEAK, STRONG]))
    def test_determinism_property(self, epoch, sample_id, view):
        cfg = RunConfig(seed=9, sigma_weak=0.2, sigma_strong=0.6, mask_frac=0.2)
        x = np.ones((1, 12))
        a = augment_view(x, [sample_id], view, cfg, epoch=epoch)
        b = augment_view(x, [sample_id], view, cfg, epoch=epoch)
        np.testing.assert_array_equal(a, b)

    def test_distinct_sample_ids_give_distinct_noise(self):
        cfg = RunConfig(sigma_weak=0.2, sigma_strong=0.6)
        views = augment_view(np.zeros((1000, 6)), np.arange(1000), WEAK, cfg,
                             epoch=0)
        assert len({tuple(row) for row in views}) == 1000

    def test_views_differ_between_weak_and_strong_streams(self):
        cfg = RunConfig(sigma_weak=0.3, sigma_strong=0.3, mask_frac=0.0)
        x = np.zeros((1, 6))
        w = augment_view(x, [0], WEAK, cfg, epoch=0)
        s = augment_view(x, [0], STRONG, cfg, epoch=0)
        assert not np.array_equal(w, s)

    def test_weak_noise_magnitude_matches_sigma(self):
        # mean squared noise over many draws approaches sigma^2 within 5%
        sigma = 0.7
        cfg = RunConfig(seed=42, sigma_weak=sigma, sigma_strong=sigma)
        n = 10_000
        noise = augment_view(np.zeros((n, 10)), np.arange(n), WEAK, cfg,
                             epoch=0)
        mean_sq = float(np.sum(noise ** 2)) / (n * 10)
        assert abs(mean_sq - sigma ** 2) / sigma ** 2 < 0.05

    def test_unknown_view_rejected(self):
        with pytest.raises(ValueError, match="view"):
            augment_view(np.zeros((1, 4)), [0], "medium", RunConfig(), 0)


MASK64 = (1 << 64) - 1


def _fmix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_view(x, sample_id, view, cfg, epoch):
    """One row written out with Python ints, from the layout in augment.py."""
    key = int(derive_seed_sequence(cfg.seed, "augment", epoch,
                                   view).generate_state(1, np.uint64)[0])
    row_seed = _fmix64(key ^ _fmix64(sample_id))
    d = len(x)
    u = [((_fmix64((row_seed + (c + 1) * 0x9E3779B97F4A7C15) & MASK64) >> 11)
          + 0.5) / 2.0 ** 53 for c in range(3 * d)]
    sigma = cfg.sigma_weak if view == WEAK else cfg.sigma_strong
    out = [x[j] + sigma * math.sqrt(-2.0 * math.log(u[j]))
           * math.cos(2.0 * math.pi * u[d + j]) for j in range(d)]
    masked = set()
    if view == STRONG:
        ranked = sorted(range(d), key=lambda j: (u[2 * d + j], j))
        masked = set(ranked[:int(cfg.mask_frac * d)])
    return np.array(out), masked


class TestCounterStreams:
    @pytest.mark.parametrize("view", [WEAK, STRONG])
    def test_matches_the_python_int_reference(self, view):
        cfg = RunConfig(seed=11, sigma_weak=0.3, sigma_strong=0.6, mask_frac=0.3)
        ids = np.array([0, 1, 77, 2**32 - 1, 2**32, 2**40 + 5, 2**63 - 1])
        x = np.random.default_rng(0).normal(size=(ids.size, 10))
        got = augment_view(x, ids, view, cfg, epoch=4)
        for r, sid in enumerate(ids):
            noisy, masked = reference_view(x[r], int(sid), view, cfg, 4)
            zeroed = {j for j in range(10) if got[r, j] == 0.0}
            assert zeroed == masked
            keep = [j for j in range(10) if j not in masked]
            # numpy's vector log/cos may differ from libm's in the last bits
            np.testing.assert_allclose(got[r, keep], noisy[keep], rtol=1e-12,
                                       atol=1e-12)

    @pytest.mark.parametrize("view", [WEAK, STRONG])
    def test_row_view_does_not_depend_on_its_batch(self, view):
        cfg = RunConfig(seed=3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 32))
        ids = rng.choice(10**6, size=40, replace=False)
        batch = augment_view(x, ids, view, cfg, epoch=1)
        perm = rng.permutation(40)
        np.testing.assert_array_equal(
            augment_view(x[perm], ids[perm], view, cfg, epoch=1), batch[perm])
        for r in (0, 17, 39):
            np.testing.assert_array_equal(
                augment_view(x[r:r + 1], ids[r:r + 1], view, cfg, epoch=1),
                batch[r:r + 1])

    @pytest.mark.parametrize("d,mask_frac", [(1, 0.5), (7, 0.25), (32, 0.1),
                                             (33, 0.5), (16, 0.99)])
    def test_strong_rows_zero_exactly_floor_frac_distinct_coordinates(
            self, d, mask_frac):
        cfg = RunConfig(sigma_weak=0.1, sigma_strong=0.4, mask_frac=mask_frac)
        x = np.full((500, d), 5.0)
        ids = np.arange(500)
        strong = augment_view(x, ids, STRONG, cfg, epoch=0)
        zeros = strong == 0.0
        np.testing.assert_array_equal(zeros.sum(axis=1), int(mask_frac * d))
        # the mask draws come after the noise draws, so the coordinates left
        # standing carry the same noise as an unmasked strong view
        unmasked = augment_view(x, ids, STRONG, replace(cfg, mask_frac=0.0),
                                epoch=0)
        np.testing.assert_array_equal(strong[~zeros], unmasked[~zeros])

    def test_normals_match_a_standard_normal(self):
        cfg = RunConfig(seed=2, sigma_weak=1.0, sigma_strong=1.0)
        z = augment_view(np.zeros((4000, 50)), np.arange(4000), WEAK, cfg,
                         epoch=0).ravel()
        n = z.size  # 2 * 10**5 draws
        # five standard errors: sd(mean) = 1/sqrt(n), sd(std) ~ 1/sqrt(2n)
        assert abs(z.mean()) < 5.0 / math.sqrt(n)
        assert abs(z.std() - 1.0) < 5.0 / math.sqrt(2 * n)

    def test_seed_epoch_and_view_each_change_the_stream(self):
        cfg = RunConfig(seed=0, sigma_weak=0.5, sigma_strong=0.5, mask_frac=0.0)
        x = np.zeros((50, 8))
        ids = np.arange(50)
        base = augment_view(x, ids, WEAK, cfg, epoch=0)
        others = [augment_view(x, ids, WEAK, replace(cfg, seed=1), epoch=0),
                  augment_view(x, ids, WEAK, cfg, epoch=1),
                  augment_view(x, ids, STRONG, cfg, epoch=0)]
        for other in others:
            assert not np.any(other == base)

    def test_sample_ids_past_32_bits(self):
        cfg = RunConfig()
        ids = np.array([0, 1, 2**32, 2**32 + 1, 2**62, 2**63 - 1])
        views = augment_view(np.zeros((ids.size, 8)), ids, STRONG, cfg, epoch=0)
        assert np.all(np.isfinite(views))
        assert len({tuple(row) for row in views}) == ids.size
        np.testing.assert_array_equal(
            augment_view(np.zeros((1, 8)), ids[2:3], STRONG, cfg, epoch=0),
            views[2:3])

    def test_negative_sample_id_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            augment_view(np.zeros((2, 4)), [3, -1], WEAK, RunConfig(), 0)
