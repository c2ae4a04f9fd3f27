import json

import pytest

from relformer.cli import main


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestSeedValidation:
    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_flag_seed_exits_2(self, tmp_path, capsys, command):
        extra = ["--data", str(tmp_path / "data")] if command == "train" else []
        code = main([command, "--seed", "-1", "--out", str(tmp_path / "out")] + extra)
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,field", [
        ({"seed": -3}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"train": {"seed": -4}}, "train.seed"),
        ({"train": {"seed": False}}, "train.seed"),
    ])
    def test_bad_config_seed_exits_2(self, tmp_path, capsys, payload, field):
        cfg = write_config(tmp_path, payload)
        code = main(["train", "--config", cfg, "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{field}: must be a non-negative integer" in capsys.readouterr().err

    def test_zero_seed_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 0, "train": {"seed": 0},
                                      "synth": {"videos": 1, "frame_count": 12,
                                                "d_a": 4, "objects_min": 2,
                                                "objects_max": 2, "distractors": 0}})
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "data")]) == 0
