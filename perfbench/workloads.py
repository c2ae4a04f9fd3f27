"""Benchmark workloads: what each one generates, how it trains, and why.

Each workload is a full user pipeline: ``relformer train`` on a generated
train set, then ``relformer eval`` and ``relformer infer`` on a held-out set
with the checkpoint train just wrote. The program sees only the two dataset
directories and a config JSON; everything here is benchmark-side.

Every workload stresses a different layer, so a change to one layer has a
workload where it should move a number and workloads where it should not.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train_videos: int
    test_videos: int
    synth: dict            # SynthConfig fields shared by the train and test sets
    model: dict            # ModelConfig overrides (empty = the reference config)
    train: dict            # TrainConfig overrides
    setup_reps: int        # `train --epochs 0` runs per iteration
    eval_reps: int         # `eval` and `infer` runs per iteration
    train_seed: int | None = None  # fixed train-set seed; None derives it from the run seed
    toy: dict = field(default_factory=dict)  # self-test shrink: section -> overrides


# Toy shrink shared by every workload's self-test shape: widths and video counts
# drop, while layer counts, query grids, scene density and track length stay.
_TOY_MODEL = {"d": 16, "d_q": 16, "d_v": 16, "d_a": 16, "d_w": 8, "mlp_hidden": 16,
              "heads": 2}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ref_train",
            why=("the reference config (d=512, 6+4 layers, 192 queries): decoder "
                 "value matrix, backward and Adam dominate train; checkpoint is 277 MiB"),
            train_videos=4, test_videos=2,
            # Default-sized scenes (~7 tracklets, ~10 GT relations). The default
            # 4-6 objects give ~33 relations a scene, so only ~2% of draws fit
            # the generator's 12-relation cap and a few seeds in a hundred
            # exhaust its 200 attempts; 3-4 objects fit ~45% of draws.
            synth={"objects_min": 3, "objects_max": 4, "distractors": 4},
            model={},
            train={"epochs": 1, "batch_size": 4, "lr": 5e-5},
            setup_reps=7, eval_reps=3,
            toy={"model": {**_TOY_MODEL, "L_e": 6, "L_d": 4},
                 "train_videos": 2, "test_videos": 1},
        ),
        Workload(
            name="dense_eval",
            why=("d=64 with 192 queries on dense scenes (~15 tracklets, ~105 GT "
                 "relations): metric matching takes a large share of eval"),
            train_videos=16, test_videos=36,
            synth={"objects_min": 9, "objects_max": 10, "distractors": 6,
                   "max_relations": 120},
            model={"d": 64, "d_q": 64, "d_v": 64, "mlp_hidden": 64,
                   "L_e": 2, "L_d": 2},
            train={"epochs": 4, "batch_size": 4, "lr": 1e-3},
            setup_reps=7, eval_reps=2,
            # A short training run spreads the links, but how far swings 3-8x
            # with the train set (27 to 224 predictions per video measured),
            # which would make eval cost depend on the training outcome. So
            # every seed trains the same model and only the held-out set varies.
            train_seed=0,
            toy={"model": {**_TOY_MODEL, "L_e": 2, "L_d": 2},
                 "train_videos": 2, "test_videos": 2},
        ),
        Workload(
            name="long_tracks",
            why=("d=128, 32 queries, 240-frame videos (sum of track lengths ~2300 "
                 "frames): per-frame feature MLP and TRKF loading dominate"),
            train_videos=4, test_videos=4,
            synth={"frame_count": 240, "objects_min": 4, "objects_max": 5,
                   "distractors": 8},
            model={"d": 128, "d_q": 128, "d_v": 128, "mlp_hidden": 128,
                   "L_e": 2, "L_d": 2, "m_c": 8, "m_d": 4},
            train={"epochs": 1, "batch_size": 4, "lr": 5e-4},
            setup_reps=5, eval_reps=3,
            toy={"model": {**_TOY_MODEL, "L_e": 2, "L_d": 2},
                 "train_videos": 2, "test_videos": 1},
        ),
    )
}
