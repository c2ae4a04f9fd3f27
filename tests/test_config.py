import json
import re
import typing

import pytest

from relformer.config import _SECTIONS, ModelConfig, RunConfig, load_config
from relformer.errors import ConfigError


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestModelConfig:
    def test_defaults_are_the_reference_config(self):
        cfg = ModelConfig()
        assert (cfg.d, cfg.L_e, cfg.L_d, cfg.m_c * cfg.m_d, cfg.heads) == (512, 6, 4, 192, 8)

    def test_odd_width_is_rejected(self):
        with pytest.raises(ConfigError, match="model.d must be even"):
            ModelConfig(d=7, heads=1)

    def test_width_indivisible_by_heads_is_rejected(self):
        with pytest.raises(ConfigError, match="model.d=12 not divisible by model.heads=8"):
            ModelConfig(d=12, d_q=16, heads=8)

    def test_query_width_indivisible_by_heads_is_rejected(self):
        with pytest.raises(ConfigError, match="model.d_q=12 not divisible by model.heads=8"):
            ModelConfig(d=16, d_q=12, heads=8)

    @pytest.mark.parametrize("field", ["d", "heads", "L_d", "m_c", "l_roi"])
    def test_non_positive_sizes_are_rejected(self, field):
        with pytest.raises(ConfigError, match=f"model.{field} must be positive"):
            ModelConfig(**{field: 0})


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [("batch_size", 2.5), ("epochs", 1.5),
                                             ("save_interval", True)])
    def test_non_integer_counts_are_rejected(self, tmp_path, field, value):
        path = write_config(tmp_path, {"train": {field: value}})
        with pytest.raises(ConfigError, match=f"train.{field} must be an integer"):
            load_config(path)


class TestIntegerFields:
    @pytest.mark.parametrize("section,field,value", [
        ("model", "d", 64.0), ("model", "heads", True), ("model", "L_e", "2"),
        ("synth", "videos", 2.0), ("synth", "frame_count", False),
        ("eval", "top_k_per_query", 2.5)])
    def test_non_integer_is_a_config_error(self, tmp_path, section, field, value):
        path = write_config(tmp_path, {section: {field: value}})
        with pytest.raises(ConfigError, match=f"{section}.{field} must be an integer"):
            load_config(path)

    @pytest.mark.parametrize("value", [[50.7, 100], [True], 50, [50, "100"]])
    def test_non_integer_ks_are_a_config_error(self, tmp_path, value):
        """The message echoes the value as written, e.g. [50.7, 100]."""
        path = write_config(tmp_path, {"eval": {"recall_ks": value}})
        with pytest.raises(ConfigError, match=re.escape(
                f"eval.recall_ks must be a list of integers, got {json.dumps(value)}") + "$"):
            load_config(path)

    def test_integer_fields_keep_their_values(self, tmp_path):
        path = write_config(tmp_path, {"model": {"d": 64, "heads": 4},
                                       "eval": {"recall_ks": [20, 50], "top_k_per_query": 3},
                                       "train": {"max_grad_norm": 1}})
        cfg = load_config(path)
        assert (cfg.model.d, cfg.model.heads) == (64, 4)
        assert (cfg.eval.recall_ks, cfg.eval.top_k_per_query) == ((20, 50), 3)
        assert cfg.train.max_grad_norm == 1


class TestSynthRules:
    @pytest.mark.parametrize("value", [[["above"]], ["above", 3], "above"])
    def test_non_string_rules_are_a_config_error(self, tmp_path, value):
        """The message echoes the value as written, e.g. [["above"]]."""
        path = write_config(tmp_path, {"synth": {"rules": value}})
        with pytest.raises(ConfigError, match=re.escape(
                f"synth.rules must be a list of strings, got {json.dumps(value)}") + "$"):
            load_config(path)

    def test_repeated_rule_is_a_config_error(self, tmp_path):
        path = write_config(tmp_path, {"synth": {"rules": ["above", "bigger", "above"]}})
        with pytest.raises(ConfigError, match=r"synth.rules: repeated rule names \['above'\]"):
            load_config(path)


# Every float field of the four sections; ``max_grad_norm`` may also be null.
FLOAT_FIELDS = [("train", "lambda_cls"), ("train", "lambda_att"), ("train", "lr"),
                ("train", "max_grad_norm"), ("synth", "box_jitter"), ("synth", "prob_noise"),
                ("synth", "feature_noise"), ("eval", "viou_threshold")]


class TestFloatFields:
    def test_the_list_names_every_float_field(self):
        hinted = {(section, name) for section, cls in _SECTIONS.items()
                  for name, hint in typing.get_type_hints(cls).items()
                  if hint in (float, float | None)}
        assert hinted == set(FLOAT_FIELDS)

    @pytest.mark.parametrize("section,field", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [True, False, "1e-3", [0.5]])
    def test_non_number_is_a_config_error(self, tmp_path, section, field, value):
        path = write_config(tmp_path, {section: {field: value}})
        with pytest.raises(ConfigError, match=f"{section}.{field} must be a number"):
            load_config(path)

    @pytest.mark.parametrize("section,field", [f for f in FLOAT_FIELDS
                                               if f != ("train", "max_grad_norm")])
    def test_null_is_a_config_error(self, tmp_path, section, field):
        path = write_config(tmp_path, {section: {field: None}})
        with pytest.raises(ConfigError, match=f"{section}.{field} must be a number, got None"):
            load_config(path)

    @pytest.mark.parametrize("section,field", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_is_a_config_error(self, tmp_path, section, field, value):
        """JSON's NaN and Infinity parse as floats; every float field asks
        for a finite value, so NaN does not slip past a comparison."""
        path = write_config(tmp_path, {section: {field: value}})
        with pytest.raises(ConfigError, match=f"{section}.{field} must"):
            load_config(path)
        with pytest.raises(ConfigError, match=f"{section}.{field} must"):
            _SECTIONS[section](**{field: value})

    @pytest.mark.parametrize("field", ["box_jitter", "prob_noise", "feature_noise"])
    def test_negative_noise_is_a_config_error(self, tmp_path, field):
        path = write_config(tmp_path, {"synth": {field: -0.01}})
        with pytest.raises(ConfigError,
                           match=f"synth.{field} must be a finite number >= 0, got -0.01"):
            load_config(path)

    def test_zero_noise_and_positive_bounds_are_accepted(self, tmp_path):
        path = write_config(tmp_path, {"synth": {"box_jitter": 0, "prob_noise": 0.0,
                                                 "feature_noise": 0},
                                       "train": {"lr": 0, "max_grad_norm": 1e-3}})
        cfg = load_config(path)
        assert (cfg.synth.box_jitter, cfg.train.lr, cfg.train.max_grad_norm) == (0, 0, 1e-3)

    def test_numbers_keep_their_values(self, tmp_path):
        path = write_config(tmp_path, {"train": {"lr": 1, "max_grad_norm": None},
                                       "synth": {"box_jitter": 0.25}})
        cfg = load_config(path)
        assert (cfg.train.lr, cfg.train.max_grad_norm, cfg.synth.box_jitter) == (1, None, 0.25)


class TestLoadConfig:
    def test_no_file_gives_defaults(self):
        assert load_config() == RunConfig()

    def test_file_then_overrides(self, tmp_path):
        path = write_config(tmp_path, {"seed": 3, "model": {"d": 64, "heads": 4},
                                       "train": {"lr": 0.1, "epochs": 2}})
        cfg = load_config(path, {"train.lr": 0.5, "train.batch_size": None})
        assert (cfg.seed, cfg.model.d, cfg.model.heads) == (3, 64, 4)
        assert (cfg.train.lr, cfg.train.epochs, cfg.train.batch_size) == (0.5, 2, 4)

    def test_unknown_section_is_rejected(self, tmp_path):
        path = write_config(tmp_path, {"decoder": {"d": 64}})
        with pytest.raises(ConfigError, match="decoder: unknown config section"):
            load_config(path)

    # train.seed is no field: the top-level seed is the one seed of synth and train.
    @pytest.mark.parametrize("section,field", [
        ("model", "slot_offsets"), ("train", "slot_offsets"), ("synth", "slot_offsets"),
        ("eval", "slot_offsets"), ("train", "seed")],
        ids=["model", "train", "synth", "eval", "train.seed"])
    def test_unknown_field_is_rejected(self, tmp_path, section, field):
        path = write_config(tmp_path, {section: {field: 1}})
        with pytest.raises(ConfigError, match=f"{section}.{field}: unknown field"):
            load_config(path)

    def test_unknown_override_is_rejected(self):
        with pytest.raises(ConfigError, match="decoder.d: unknown override"):
            load_config(None, {"decoder.d": 64})

    @pytest.mark.parametrize("value", [[1, 2], "d=64", 3])
    def test_section_must_be_an_object(self, tmp_path, value):
        path = write_config(tmp_path, {"model": value})
        with pytest.raises(ConfigError, match="model: section must be an object"):
            load_config(path)

    def test_invalid_json_is_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))

    def test_file_values_are_validated(self, tmp_path):
        path = write_config(tmp_path, {"model": {"d": 12, "d_q": 16, "heads": 8}})
        with pytest.raises(ConfigError, match="not divisible"):
            load_config(path)
