"""Closed config schema: parsing, echo round-trip, and object mapping."""

import dataclasses

import pytest

from bankadapt.config import (
    ConfigError,
    RunConfig,
    apply_updates,
    augment_config,
    config_keys,
    load_config,
    parse_config,
    synth_spec,
    train_config,
    write_config,
)


def test_defaults_round_trip(tmp_path):
    cfg = RunConfig()
    path = tmp_path / "run.cfg"
    write_config(cfg, path)
    assert load_config(path) == cfg


def test_every_key_round_trips(tmp_path):
    cfg = RunConfig(seed=7, n_classes=4, lambda_=0.25, lr=0.0125,
                    warm_start=True, memory_budget_bytes=123456,
                    bank="data/bank.datb", anchor_reduction="mean",
                    t_thresh=0.7, out_dir="runs/x")
    path = tmp_path / "run.cfg"
    write_config(cfg, path)
    reloaded = load_config(path)
    assert reloaded == cfg
    for field in dataclasses.fields(RunConfig):
        assert getattr(reloaded, field.name) == getattr(cfg, field.name)


def test_lambda_key_spelling(tmp_path):
    cfg = parse_config("lambda = 0.5\n")
    assert cfg.lambda_ == 0.5
    assert "lambda" in config_keys()
    assert "lambda_" not in config_keys()
    path = tmp_path / "run.cfg"
    write_config(cfg, path)
    assert "lambda = 0.5" in path.read_text().splitlines()


def test_comments_and_blanks_ignored():
    cfg = parse_config("# a comment\n\nseed = 9\n  # indented comment\n")
    assert cfg.seed == 9


def test_unknown_key_refused():
    with pytest.raises(ConfigError, match="unknown config key 'learning_rate'"):
        parse_config("learning_rate = 0.1\n")


def test_duplicate_key_refused():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")


def test_malformed_line_refused():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("seed 5\n")


def test_bad_value_refused():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("epochs = twelve\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("warm_start = maybe\n")


def test_memory_budget_must_be_a_positive_int():
    assert RunConfig().memory_budget_bytes == 4 * 1024 * 1024
    assert parse_config("memory_budget_bytes = 1\n").memory_budget_bytes == 1
    for raw in ("", "none"):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(f"memory_budget_bytes = {raw}\n")
    for raw in ("0", "-4096"):
        with pytest.raises(ConfigError, match="'memory_budget_bytes': must be at least 1"):
            parse_config(f"memory_budget_bytes = {raw}\n")


def test_bool_spellings():
    for raw, want in (("true", True), ("1", True), ("yes", True),
                      ("false", False), ("0", False), ("no", False)):
        assert parse_config(f"warm_start = {raw}\n").warm_start is want


def test_float_repr_survives_round_trip(tmp_path):
    cfg = RunConfig(lr=0.1, tau=0.07, noise_sigma=1.0 / 3.0)
    path = tmp_path / "run.cfg"
    write_config(cfg, path)
    reloaded = load_config(path)
    assert reloaded.lr == cfg.lr
    assert reloaded.noise_sigma == cfg.noise_sigma


def test_apply_updates_overrides_base():
    base = parse_config("seed = 3\nepochs = 2\n")
    cfg = apply_updates(base, {"epochs": "5", "lambda": "0.0"})
    assert cfg.seed == 3
    assert cfg.epochs == 5
    assert cfg.lambda_ == 0.0
    with pytest.raises(ConfigError, match="unknown"):
        apply_updates(base, {"lambda_": "0.0"})


def test_object_mapping():
    cfg = RunConfig(seed=4, n_classes=5, sigma_weak=0.2, tau=0.1, mu=3,
                    anchor_reduction="mean", warm_start=True)
    spec = synth_spec(cfg)
    assert spec.seed == 4 and spec.n_classes == 5
    aug = augment_config(cfg)
    assert aug.sigma_weak == 0.2
    tc = train_config(cfg)
    assert tc.mu == 3 and tc.tau == 0.1
    assert tc.anchor_reduction == "mean"
    assert tc.warm_start is True
    assert tc.augment == aug


def test_chunk_rows_key_is_gone():
    # rows per chunk follow from memory_budget_bytes and the shape
    assert len(config_keys()) == 36
    with pytest.raises(ConfigError, match="unknown config key 'chunk_rows'"):
        parse_config("chunk_rows = 8192\n")
