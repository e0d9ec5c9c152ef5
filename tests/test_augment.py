import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankadapt.augment import STRONG, WEAK, augment_view
from bankadapt.config import RunConfig


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
        x = np.linspace(-1, 1, 16)
        out = augment_view(x, WEAK, cfg, seed=0, epoch=0, sample_id=0)
        np.testing.assert_array_equal(out, x)

    def test_strong_view_masks_exactly_floor_frac_coordinates(self):
        cfg = RunConfig(sigma_weak=0.1, sigma_strong=0.4, mask_frac=0.25)
        d = 10  # floor(0.25 * 10) = 2 zeroed coordinates
        x = np.full(d, 5.0)
        out = augment_view(x, STRONG, cfg, seed=1, epoch=0, sample_id=3)
        assert int(np.sum(out == 0.0)) == 2

    def test_same_key_same_view(self):
        cfg = RunConfig()
        x = np.arange(8.0)
        a = augment_view(x, STRONG, cfg, seed=5, epoch=2, sample_id=7)
        b = augment_view(x, STRONG, cfg, seed=5, epoch=2, sample_id=7)
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=30, deadline=None)
    @given(epoch=st.integers(0, 50), sample_id=st.integers(0, 10_000),
           view=st.sampled_from([WEAK, STRONG]))
    def test_determinism_property(self, epoch, sample_id, view):
        cfg = RunConfig(sigma_weak=0.2, sigma_strong=0.6, mask_frac=0.2)
        x = np.ones(12)
        a = augment_view(x, view, cfg, seed=9, epoch=epoch, sample_id=sample_id)
        b = augment_view(x, view, cfg, seed=9, epoch=epoch, sample_id=sample_id)
        np.testing.assert_array_equal(a, b)

    def test_distinct_sample_ids_give_distinct_noise(self):
        cfg = RunConfig(sigma_weak=0.2, sigma_strong=0.6)
        x = np.zeros(6)
        views = [tuple(augment_view(x, WEAK, cfg, seed=0, epoch=0, sample_id=i))
                 for i in range(1000)]
        assert len(set(views)) == 1000

    def test_views_differ_between_weak_and_strong_streams(self):
        cfg = RunConfig(sigma_weak=0.3, sigma_strong=0.3, mask_frac=0.0)
        x = np.zeros(6)
        w = augment_view(x, WEAK, cfg, seed=0, epoch=0, sample_id=0)
        s = augment_view(x, STRONG, cfg, seed=0, epoch=0, sample_id=0)
        assert not np.array_equal(w, s)

    def test_weak_noise_magnitude_matches_sigma(self):
        # mean squared noise over many draws approaches sigma^2 within 5%
        sigma = 0.7
        cfg = RunConfig(sigma_weak=sigma, sigma_strong=sigma)
        x = np.zeros(10)
        total = 0.0
        n = 10_000
        for i in range(n):
            noise = augment_view(x, WEAK, cfg, seed=42, epoch=0, sample_id=i)
            total += float(np.sum(noise ** 2))
        mean_sq = total / (n * 10)
        assert abs(mean_sq - sigma ** 2) / sigma ** 2 < 0.05

    def test_unknown_view_rejected(self):
        with pytest.raises(ValueError, match="view"):
            augment_view(np.zeros(4), "medium", RunConfig(), 0, 0, 0)
