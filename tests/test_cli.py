import json

import numpy as np
import pytest

from relformer.checkpoint import load_checkpoint, save_checkpoint
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


TINY = {"seed": 5,
        "synth": {"videos": 4, "frame_count": 12, "d_a": 4, "object_categories": 3,
                  "objects_min": 2, "objects_max": 3, "distractors": 1,
                  "max_relations": 4},
        "model": {"d": 8, "d_q": 8, "d_v": 8, "d_a": 4, "d_w": 4, "l": 2, "l_roi": 3,
                  "L_e": 1, "L_d": 1, "m_c": 4, "m_d": 2, "heads": 2, "mlp_hidden": 8},
        "train": {"epochs": 2, "batch_size": 2, "lr": 1e-3}}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A synthesized tiny dataset, its config, and one trained checkpoint."""
    root = tmp_path_factory.mktemp("tiny")
    cfg = write_config(root, TINY)
    data = str(root / "data")
    assert main(["synth", "--config", cfg, "--out", data]) == 0
    assert main(["train", "--config", cfg, "--data", data, "--out", str(root / "run1"),
                 "--quiet"]) == 0
    return root, cfg, data


class TestDeterminism:
    def test_train_twice_writes_identical_bytes(self, tiny_run):
        root, cfg, data = tiny_run
        assert main(["train", "--config", cfg, "--data", data, "--out", str(root / "run2"),
                     "--quiet"]) == 0
        for name in ("model.ckpt", "loss_trace.csv"):
            assert (root / "run1" / name).read_bytes() == (root / "run2" / name).read_bytes()

    def test_eval_report_is_independent_of_threads(self, tiny_run):
        root, cfg, data = tiny_run
        ckpt = str(root / "run1" / "model.ckpt")
        reports = []
        for threads in ("1", "2"):
            out = root / f"report{threads}.json"
            assert main(["eval", "--config", cfg, "--data", data, "--ckpt", ckpt,
                         "--threads", threads, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert b"reldet_map" in reports[0]


class TestCheckpointCompatibility:
    def test_checkpoint_with_slot_offset_tensors_exits_3(self, tiny_run, capsys):
        """Checkpoints written while the decoder still had slot-offset MLPs
        carry tensors the model no longer has; eval names them and exits 3."""
        root, cfg, data = tiny_run
        store, manifest = load_checkpoint(str(root / "run1" / "model.ckpt"))
        hidden, d_q = TINY["model"]["mlp_hidden"], TINY["model"]["d_q"]
        for name, shape in (("w1", (d_q, hidden)), ("b1", (hidden,)),
                            ("w2", (hidden, 2)), ("b2", (2,))):
            store.add(f"decoder.layer0.offset.{name}", np.zeros(shape))
        old = str(root / "old.ckpt")
        save_checkpoint(old, store, manifest["model"])
        capsys.readouterr()
        code = main(["eval", "--config", cfg, "--data", data, "--ckpt", old,
                     "--out", str(root / "old_report.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "unexpected" in err
        assert "decoder.layer0.offset.b1" in err
        assert not (root / "old_report.json").exists()

    def test_checkpoint_with_attention_key_bias_exits_3(self, tiny_run, capsys):
        """Checkpoints written while attention still had a key bias carry
        ``*.attn.bk`` tensors; eval names them and exits 3."""
        root, cfg, data = tiny_run
        store, manifest = load_checkpoint(str(root / "run1" / "model.ckpt"))
        store.add("encoder.layer0.attn.bk", np.zeros(TINY["model"]["d"]))
        old = str(root / "old_bk.ckpt")
        save_checkpoint(old, store, manifest["model"])
        capsys.readouterr()
        code = main(["eval", "--config", cfg, "--data", data, "--ckpt", old,
                     "--out", str(root / "old_bk_report.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "unexpected" in err
        assert "encoder.layer0.attn.bk" in err
        assert not (root / "old_bk_report.json").exists()
