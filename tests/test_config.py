"""Closed config schema: parsing, echo round-trip, and the value rules."""

import ast
import dataclasses
from pathlib import Path

import pytest

from bankadapt.benchmark import BENCH
from bankadapt.config import (
    ConfigError,
    RunConfig,
    apply_updates,
    config_keys,
    write_config,
)

from conftest import load_config, parse_config

PERFBENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# one value per checked key that its rule refuses
BAD_VALUES = {
    "n_classes": "0", "n_per_class": "0", "eval_n_per_class": "0",
    "bank_size": "-1", "image_dim": "0", "feat_dim": "0", "class_sep": "0.0",
    "in_dist_fraction": "1.5", "weak_pair_rate": "-0.1", "noise_sigma": "-1.0",
    "n_templates": "0", "sigma_weak": "-0.1", "sigma_strong": "-0.1",
    "mask_frac": "1.0", "tau": "0.0", "eta": "-1.0", "lambda": "-1.0",
    "anchor_reduction": "median", "batch_size": "0", "mu": "-1",
    "t_thresh": "0.0", "epochs": "-1", "lr": "0.0", "momentum": "1.0",
    "hidden_dim": "0", "stage1_multiplier": "-3", "stage2_keep": "-1",
    "memory_budget_bytes": "0", "mu_list": "2,-1", "t_list": "0.5,1.5",
}


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


@pytest.mark.parametrize("key", sorted(BAD_VALUES))
def test_every_rule_names_its_key(key):
    with pytest.raises(ConfigError, match=f"^key '{key}': "):
        parse_config(f"{key} = {BAD_VALUES[key]}\n")


PATH_KEYS = ("bank", "dataset", "eval_dataset", "samples", "checkpoint", "out_dir")


@pytest.mark.parametrize("raw", ["w\nx", "w\rx", "w\x85x", "w\u2028x", "v\udc85u"])
def test_a_path_the_echo_cannot_replay_is_refused(raw):
    # A line break would split the echoed line, and a lone surrogate (a
    # non-UTF-8 byte of argv) cannot be written as UTF-8 at all.
    for key in PATH_KEYS:
        with pytest.raises(ConfigError,
                           match=f"^key '{key}': must be one line of UTF-8 text"):
            apply_updates(RunConfig(), {key: raw})
    assert apply_updates(RunConfig(), {"out_dir": "w x/caf\u00e9"}).out_dir == \
        "w x/caf\u00e9"


@pytest.mark.parametrize("raw", [" w\r", " w", "w ", "w\t", "\u3000w"])
def test_a_text_value_keeps_its_characters(raw):
    # whitespace at either end is refused, naming the key, never stripped:
    # the path given would not be the path used
    for key in PATH_KEYS:
        with pytest.raises(ConfigError, match=f"^key '{key}': must be one line of "
                           "UTF-8 text with no whitespace at either end"):
            apply_updates(RunConfig(), {key: raw})
    # only the file form strips, around its '='
    assert parse_config("out_dir =  w x \t\n").out_dir == "w x"


def test_sampler_and_eval_sizes_must_be_positive():
    for key in ("stage1_multiplier", "stage2_keep"):
        with pytest.raises(ConfigError, match=f"'{key}': must be positive"):
            parse_config(f"{key} = 0.0\n")
    cfg = parse_config("eval_n_per_class = 1\nstage1_multiplier = 0.01\n"
                       "stage2_keep = 0.01\n")
    assert (cfg.eval_n_per_class, cfg.stage1_multiplier, cfg.stage2_keep) == (
        1, 0.01, 0.01)


def test_nan_is_refused():
    for key in ("lr", "tau", "eta", "noise_sigma", "t_thresh", "stage2_keep"):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(f"{key} = nan\n")


def test_cross_key_rule_sees_every_update_at_once():
    # sigma_weak = 0.6 is valid only once sigma_strong rises to match it
    with pytest.raises(ConfigError, match="'sigma_weak': must not exceed"):
        parse_config("sigma_weak = 0.6\n")
    cfg = parse_config("sigma_weak = 0.6\nsigma_strong = 0.8\n")
    assert (cfg.sigma_weak, cfg.sigma_strong) == (0.6, 0.8)


def test_bench_matches_the_perfbench_recipe():
    # perfbench/run.py keeps its own copy of the frozen recipe as flag values
    recipe = {}
    for node in ast.parse(PERFBENCH_RUN.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", "") in ("RECIPE_WORLD",
                                                           "RECIPE_TRAIN")):
            recipe.update(ast.literal_eval(node.value))
    assert "noise_sigma" in recipe and "lr" in recipe
    updates = {key: str(value) for key, value in recipe.items()}
    assert apply_updates(RunConfig(), updates) == BENCH


def test_chunk_rows_key_is_gone():
    # rows per chunk follow from memory_budget_bytes and the shape
    assert len(config_keys()) == 38
    with pytest.raises(ConfigError, match="unknown config key 'chunk_rows'"):
        parse_config("chunk_rows = 8192\n")


def test_sweep_grid_is_part_of_the_config(tmp_path):
    assert RunConfig().mu_list == (2, 3, 4, 5, 6, 7)
    assert RunConfig().t_list == (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
    cfg = parse_config("mu_list = 0, 4,,9\nt_list = 0.25,1.0\n")
    assert (cfg.mu_list, cfg.t_list) == ((0, 4, 9), (0.25, 1.0))
    path = tmp_path / "run.cfg"
    write_config(cfg, path)
    assert "mu_list = 0,4,9" in path.read_text().splitlines()
    assert load_config(path) == cfg
    with pytest.raises(ConfigError, match="'mu_list': cannot parse"):
        parse_config("mu_list = 2.5\n")
    for key in ("mu_list", "t_list"):
        with pytest.raises(ConfigError, match=f"'{key}': must list at least one"):
            parse_config(f"{key} = ,\n")
    with pytest.raises(ConfigError, match="'t_list'"):
        parse_config("t_list = nan\n")
