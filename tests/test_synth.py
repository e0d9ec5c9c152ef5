import dataclasses

import numpy as np
import pytest

from bankadapt import synth
from bankadapt.cli import main
from bankadapt.config import RunConfig
from bankadapt.encoder import FrozenEmbedder
from bankadapt.embank import (
    DATB,
    DATD,
    EmbeddingBank,
    StringTable,
    decode_bank_file,
    encode_bank_file,
    validate,
)
from bankadapt.seeding import derive_rng
from bankadapt.synth import (
    generate_downstream,
    generate_pretrain_bank,
    n_distractors,
    prototypes,
    weak_pair_mask,
)

from conftest import decoded, embed_one


def lstsq_one_vs_rest_accuracy(images, labels, n_classes):
    """Independent linear-probe oracle: least squares onto one-hot targets."""
    x = np.hstack([images.astype(np.float64), np.ones((images.shape[0], 1))])
    targets = np.zeros((images.shape[0], n_classes))
    targets[np.arange(labels.size), labels] = 1.0
    w, *_ = np.linalg.lstsq(x, targets, rcond=None)
    pred = np.argmax(x @ w, axis=1)
    return float(np.mean(pred == labels))


class TestPrototypes:
    def test_orthogonal_block_has_expected_pairwise_distance(self):
        spec = RunConfig(seed=0, n_classes=4, image_dim=32, class_sep=4.0)
        protos, _ = prototypes(spec)
        for i in range(4):
            for j in range(i + 1, 4):
                dist = np.linalg.norm(protos[i] - protos[j])
                np.testing.assert_allclose(dist, 4.0, atol=1e-9)

    def test_at_least_as_many_distractors_as_classes(self):
        for c in (2, 8, 12):
            spec = RunConfig(seed=0, n_classes=c)
            _, distractors = prototypes(spec)
            assert distractors.shape[0] == n_distractors(spec) >= c
            # distinct directions
            unit = distractors / np.linalg.norm(distractors, axis=1, keepdims=True)
            gram = unit @ unit.T
            off_diag = gram[~np.eye(gram.shape[0], dtype=bool)]
            assert np.abs(off_diag).max() < 0.999

    def test_more_prototypes_than_dimensions_still_works(self):
        spec = RunConfig(seed=1, n_classes=6, image_dim=4, feat_dim=3)
        protos, distractors = prototypes(spec)
        assert protos.shape == (6, 4)
        assert np.isfinite(distractors).all()


class TestDownstream:
    def test_generation_is_deterministic(self):
        spec = RunConfig(seed=3, n_classes=3, n_per_class=5, bank_size=0)
        a = generate_downstream(spec)
        b = generate_downstream(spec)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.class_text_feats, b.class_text_feats)

    def test_linear_probe_separability(self):
        spec = RunConfig(seed=0, n_classes=3, n_per_class=50, image_dim=32,
                         class_sep=4.0, noise_sigma=0.5, bank_size=0)
        ds = generate_downstream(spec)
        assert lstsq_one_vs_rest_accuracy(ds.images, ds.labels, 3) >= 0.95

    def test_dataset_passes_validation(self):
        ds = generate_downstream(RunConfig(seed=1, n_classes=4, n_per_class=6))
        assert validate(DATD, ds) == []

    def test_splits_share_text_feats_but_not_images(self):
        spec = RunConfig(seed=2, n_classes=3, n_per_class=8)
        train = generate_downstream(spec, split="train")
        test = generate_downstream(spec, split="test")
        np.testing.assert_array_equal(train.class_text_feats, test.class_text_feats)
        assert not np.array_equal(train.images, test.images)

    def test_split_size_override(self):
        spec = RunConfig(seed=2, n_classes=3, n_per_class=8)
        big = generate_downstream(spec, split="test", n_per_class=20)
        assert big.size == 60

    def test_class_text_feats_are_frozen_prototype_embeddings(self):
        spec = RunConfig(seed=5, n_classes=3, n_per_class=4)
        ds = generate_downstream(spec)
        protos, _ = prototypes(spec)
        emb = FrozenEmbedder.from_seed("text", spec.seed, spec.feat_dim,
                                       spec.image_dim)
        for c in range(3):
            np.testing.assert_allclose(ds.class_text_feats[c], embed_one(emb, protos[c]),
                                       atol=2e-7)

    def test_template_averaging_renormalizes(self):
        one = RunConfig(seed=6, n_classes=3, n_per_class=4, n_templates=1)
        many = RunConfig(seed=6, n_classes=3, n_per_class=4, n_templates=5)
        a = generate_downstream(one)
        b = generate_downstream(many)
        np.testing.assert_allclose(
            np.linalg.norm(b.class_text_feats.astype(np.float64), axis=1),
            1.0, atol=1e-6)
        assert not np.array_equal(a.class_text_feats, b.class_text_feats)
        # jittered templates stay close to the clean class feature
        cos = np.sum(a.class_text_feats.astype(np.float64)
                     * b.class_text_feats.astype(np.float64), axis=1)
        assert cos.min() > 0.5


class TestBank:
    def test_composition_counts(self):
        spec = RunConfig(seed=0, n_classes=4, n_per_class=5, bank_size=1000,
                         in_dist_fraction=0.3)
        ds = generate_downstream(spec)
        bank = generate_pretrain_bank(spec, ds)
        n_in = int(np.sum(bank.latent_class >= 0))
        assert n_in == int(0.3 * 1000)
        assert bank.size == 1000
        assert validate(DATB, bank) == []

    def test_generation_is_deterministic(self):
        spec = RunConfig(seed=4, n_classes=3, n_per_class=4, bank_size=200)
        ds = generate_downstream(spec)
        a = generate_pretrain_bank(spec, ds)
        b = generate_pretrain_bank(spec, ds)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.feats, b.feats)
        np.testing.assert_array_equal(a.caption_feats, b.caption_feats)
        np.testing.assert_array_equal(a.latent_class, b.latent_class)
        assert decoded(a.captions) == decoded(b.captions)

    def test_all_in_distribution_clean_captions_match_class_feats(self):
        spec = RunConfig(seed=7, n_classes=3, n_per_class=4, bank_size=60,
                         in_dist_fraction=1.0, weak_pair_rate=0.0)
        ds = generate_downstream(spec)
        bank = generate_pretrain_bank(spec, ds)
        assert (bank.latent_class >= 0).all()
        for i in range(bank.size):
            np.testing.assert_allclose(
                bank.caption_feats[i].astype(np.float64),
                ds.class_text_feats[bank.latent_class[i]].astype(np.float64),
                atol=3e-7)

    def test_weak_pair_mask_size_is_binomial(self):
        spec = RunConfig(seed=8, n_classes=3, n_per_class=4, bank_size=10_000,
                         weak_pair_rate=0.3)
        mask = weak_pair_mask(spec)
        expected = 0.3 * 10_000
        sigma = np.sqrt(10_000 * 0.3 * 0.7)
        assert abs(int(mask.sum()) - expected) <= 4 * sigma

    def test_weak_pairing_swaps_caption_but_keeps_latent_class(self):
        spec = RunConfig(seed=9, n_classes=3, n_per_class=4, bank_size=400,
                         in_dist_fraction=1.0, weak_pair_rate=0.5)
        ds = generate_downstream(spec)
        bank = generate_pretrain_bank(spec, ds)
        mask = weak_pair_mask(spec)
        captions = decoded(bank.captions)
        assert (bank.latent_class >= 0).all()  # images all stay in-distribution
        swapped = np.flatnonzero(mask)
        assert swapped.size > 0
        for i in swapped[:20]:
            clean = ds.class_text_feats[bank.latent_class[i]].astype(np.float64)
            assert not np.allclose(bank.caption_feats[i].astype(np.float64),
                                   clean, atol=1e-3)
            assert captions[i].startswith("a photo of distractor-")

    def test_clean_records_keep_their_own_caption(self):
        spec = RunConfig(seed=10, n_classes=3, n_per_class=4, bank_size=300,
                         in_dist_fraction=1.0, weak_pair_rate=0.2)
        ds = generate_downstream(spec)
        bank = generate_pretrain_bank(spec, ds)
        mask = weak_pair_mask(spec)
        clean = np.flatnonzero(~mask)
        captions = decoded(bank.captions)
        for i in clean[:20]:
            name = ds.class_names[bank.latent_class[i]]
            assert captions[i] == f"a photo of {name}."

    def test_dimension_mismatch_is_an_error(self):
        spec_a = RunConfig(seed=0, n_classes=3, n_per_class=4, image_dim=16)
        spec_b = RunConfig(seed=0, n_classes=3, n_per_class=4, image_dim=32)
        ds = generate_downstream(spec_a)
        with pytest.raises(ValueError, match="dims"):
            generate_pretrain_bank(spec_b, ds)
        # the caption vocabulary puts the distractor names after C class names
        spec_c = RunConfig(seed=0, n_classes=4, n_per_class=4, image_dim=16)
        with pytest.raises(ValueError, match="classes"):
            generate_pretrain_bank(spec_c, ds)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="in_dist_fraction"):
            RunConfig(in_dist_fraction=1.5)
        with pytest.raises(ValueError, match="n_templates"):
            RunConfig(n_templates=0)


def reference_pretrain_bank(cfg: RunConfig, ds) -> EmbeddingBank:
    """Per-record oracle for generate_pretrain_bank: the same random draws,
    with each record's source and subject vectors copied out in float64 and
    each caption made as its own string."""
    protos, distractors = prototypes(cfg)
    m = cfg.bank_size
    n_in = int(cfg.in_dist_fraction * m)

    rng_cls = derive_rng(cfg.seed, "bank-classes")
    latent = np.full(m, -1, dtype=np.int32)
    latent[:n_in] = rng_cls.integers(0, cfg.n_classes, size=n_in)
    distractor_of = rng_cls.integers(0, distractors.shape[0], size=m)

    sources = np.where(latent[:, None] >= 0,
                       protos[np.clip(latent, 0, None)],
                       distractors[distractor_of])
    rng_img = derive_rng(cfg.seed, "bank-images")
    images = sources + rng_img.normal(0.0, cfg.noise_sigma, size=sources.shape)

    image_emb = FrozenEmbedder.from_seed("image", cfg.seed, cfg.feat_dim,
                                         cfg.image_dim)
    text_emb = FrozenEmbedder.from_seed("text", cfg.seed, cfg.feat_dim,
                                        cfg.image_dim)
    feats = image_emb.embed_rows(images)

    swapped = synth._raw_weak_mask(cfg)
    rng_swap = derive_rng(cfg.seed, "weak-pair-targets")
    swap_to = rng_swap.integers(0, distractors.shape[0], size=m)
    subj_vectors = sources.copy()
    subj_vectors[swapped] = distractors[swap_to[swapped]]

    names = [f"distractor-{k:02d}" for k in range(distractors.shape[0])]
    subj_names = [ds.class_names[c] if c >= 0 else names[k]
                  for c, k in zip(latent, distractor_of)]
    for i in np.flatnonzero(swapped):
        subj_names[i] = names[swap_to[i]]
    captions = [f"a photo of {n}." for n in subj_names]
    caption_feats = text_emb.embed_rows(subj_vectors)

    order = synth._bank_order(cfg)
    return EmbeddingBank(
        images=images[order].astype(np.float32),
        feats=feats[order].astype(np.float32),
        caption_feats=caption_feats[order].astype(np.float32),
        captions=[captions[i] for i in order],
        latent_class=latent[order],
    )


def _oracle_case(tmp_path, cfg, ds):
    ours, ref = tmp_path / "ours.datb", tmp_path / "ref.datb"
    bank = generate_pretrain_bank(cfg, ds)
    assert isinstance(bank.captions, StringTable)
    encode_bank_file(bank, ours)
    encode_bank_file(reference_pretrain_bank(cfg, ds), ref)
    assert ours.read_bytes() == ref.read_bytes()
    assert decoded(decode_bank_file(ours).captions) == decoded(bank.captions)


# n_classes 12 makes the K = max(C, 8) distractors as many as the classes
@pytest.mark.parametrize("weak_pair_rate", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("in_dist_fraction", [0.0, 0.5, 1.0])
def test_bank_bytes_match_the_per_record_oracle(tmp_path, weak_pair_rate,
                                                in_dist_fraction):
    cfg = RunConfig(seed=3, n_classes=12, n_per_class=2, bank_size=500, image_dim=16,
                    feat_dim=8, weak_pair_rate=weak_pair_rate,
                    in_dist_fraction=in_dist_fraction)
    _oracle_case(tmp_path, cfg, generate_downstream(cfg))


# 500 = 7 * 64 + 52 and 449 = 7 * 64 + 1 records, in blocks of 64: the
# rows left over join the last block
@pytest.mark.parametrize("bank_size", [500, 449])
def test_a_bank_made_in_blocks_matches_the_one_draw_oracle(tmp_path, monkeypatch,
                                                           bank_size):
    monkeypatch.setattr(synth, "_BLOCK_ROWS", 64)
    cfg = RunConfig(seed=3, n_classes=12, n_per_class=2, bank_size=bank_size,
                    image_dim=16, feat_dim=8, weak_pair_rate=0.3, in_dist_fraction=0.5)
    _oracle_case(tmp_path, cfg, generate_downstream(cfg))


@pytest.mark.parametrize("bank_size", [0, 1])
def test_synth_gen_writes_banks_of_no_and_one_record(tmp_path, bank_size):
    cfg = RunConfig(seed=5, n_classes=12, n_per_class=2, bank_size=bank_size)
    assert main(["synth-gen", "--seed", "5", "--n_classes", "12", "--n_per_class", "2",
                 "--bank_size", str(bank_size), "--out_dir", str(tmp_path)]) == 0
    encode_bank_file(reference_pretrain_bank(cfg, generate_downstream(cfg)),
                     tmp_path / "ref.datb")
    written = tmp_path / "bank.datb"
    assert written.read_bytes() == (tmp_path / "ref.datb").read_bytes()
    bank = decode_bank_file(written)
    assert bank.size == len(bank.captions) == bank_size


def test_multi_byte_class_names_take_their_byte_lengths(tmp_path):
    cfg = RunConfig(seed=6, n_classes=4, n_per_class=2, bank_size=400,
                    in_dist_fraction=0.75, weak_pair_rate=0.3)
    names = ["café", "日本語", "🙂 smile", ""]
    ds = dataclasses.replace(generate_downstream(cfg), class_names=names)
    _oracle_case(tmp_path, cfg, ds)
    captions = decoded(generate_pretrain_bank(cfg, ds).captions)
    assert {f"a photo of {n}." for n in names} <= set(captions)
