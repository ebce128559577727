"""Shared fixtures: a micro corpus and a micro checkpoint for pipeline tests."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from speechsr.config import TrainConfig
from speechsr.data import synth_corpus
from speechsr.diffusion import NoiseSchedule
from speechsr.networks import tiny_arcn_config, tiny_dparn_config
from speechsr.train import fit


def micro_arch():
    """Smallest sensible two-stage architecture for pipeline-level tests."""
    arcn = tiny_arcn_config(
        base_channels=4,
        encoder_blocks=2,
        norm_groups=2,
        attention_embed=2,
        frame_ms=8.0,
        temb_dim=16,
        temb_out=24,
    )
    dparn = tiny_dparn_config(frame_size=128, feature_dim=8, chunk_len=8, attention_embed=4)
    return arcn, dparn


def micro_train_config(**overrides):
    defaults = dict(
        epochs=1, batch_size=2, crop_seconds=0.25, learning_rate=1e-3,
        ema_decay=0.9, seed=5, ratio=2, filter_kind="chebyshev",
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="session")
def micro_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("micro_corpus")
    return synth_corpus(out, n_utts=2, duration_s=0.5, seed=3)


@pytest.fixture(scope="session")
def micro_run(tmp_path_factory, micro_corpus):
    """A one-epoch training run; returns (FitResult, out_dir)."""
    out = tmp_path_factory.mktemp("micro_run")
    arcn, dparn = micro_arch()
    result = fit(micro_train_config(), arcn, dparn, NoiseSchedule(),
                 micro_corpus, micro_corpus, out)
    return result, out
