import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from relformer.config import ModelConfig
from relformer.nn import ParamStore
from relformer.synth import SynthConfig, synth_generate


def widened(store: ParamStore) -> ParamStore:
    """A float64 copy of ``store``: the same names, values and trainable flags.

    A model computes in its store's dtype, so a model over this copy runs
    every op in float64. Oracle and finite-difference tests run on it, so
    their tolerances measure the arithmetic, not float32 rounding.
    """
    out = ParamStore()
    for name, t in store.items():
        out.add(name, t.data.astype(np.float64), trainable=t.requires_grad)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def toy_model_config():
    """Small everything; divisible dims; quick forwards."""
    return ModelConfig(d=32, d_q=32, d_v=32, d_a=16, d_w=16, l=4, l_roi=7,
                       L_e=1, L_d=2, m_c=3, m_d=2, heads=4, mlp_hidden=32)


@pytest.fixture(scope="session")
def toy_dataset():
    """Five small noisy videos matched to toy_model_config (d_a=16)."""
    cfg = SynthConfig(videos=5, frame_count=24, object_categories=5, d_a=16,
                      objects_min=3, objects_max=4, distractors=1,
                      max_relations=6)
    return synth_generate(cfg, seed=404)


@pytest.fixture(scope="session")
def clean_dataset():
    """Noiseless, distractor-free twin of toy_dataset."""
    cfg = SynthConfig(videos=3, frame_count=24, object_categories=5, d_a=16,
                      objects_min=3, objects_max=4, distractors=0,
                      box_jitter=0.0, slot_trim_frames=0, prob_noise=0.0,
                      feature_noise=0.0, max_relations=6)
    return synth_generate(cfg, seed=404)
