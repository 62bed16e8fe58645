"""The benchmark's tracer (bench/tracer.py) replaces gcmr module attributes
by name. Every (module, attribute) it targets must resolve, so that a rename
fails here by name rather than as a failed job inside a traced benchmark run,
and the per-call amounts it records must keep their meaning (rows encoded,
rows per base step)."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gcmr import data_io, trainer
from gcmr.losses import LossConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def tracer_targets():
    return [(module, attribute) for module, attribute, *_ in load_tracer().TARGETS]


@pytest.mark.parametrize("module, attribute", tracer_targets())
def test_tracer_target_resolves(module, attribute):
    owner = importlib.import_module(f"gcmr.{module}")
    assert callable(getattr(owner, attribute, None)), f"gcmr.{module}.{attribute}"


def test_per_layer_amounts_count_rows(monkeypatch):
    tracer = load_tracer()
    recorder = tracer.Tracer("test")
    for module_name, attribute, name, amount in tracer.TARGETS:
        module = importlib.import_module(f"gcmr.{module_name}")
        monkeypatch.setattr(module, attribute,
                            recorder.wrap(getattr(module, attribute), name, amount))
    spec = data_io.SyntheticSpec(d=8, g=4, n_classes=6, class_mean_norm=4.0,
                                 within_class_sigma=1.0, examples_per_class=12, seed=1)
    ds = data_io.generate_synthetic(spec)
    proto = data_io.ProtocolSpec(total_classes=6, base_classes=4, n_way=1, k_shot=3,
                                 seed=1, test_per_class=4)
    split = data_io.fscil_split(proto, ds.labels)
    cfg = trainer.TrainConfig(base_epochs=3, incr_epochs=2, batch_size=8, hidden_dim=8,
                              loss=LossConfig(c=0.3, beta=0.7))
    trainer.run_protocol(data_io.materialize_sessions(ds, split), cfg)

    amounts = {}
    for _, name, _, _, _, _, qty in recorder.spans:
        amounts[name] = amounts.get(name, 0) + qty
    rows = sum(len(part.train_indices) + len(part.test_indices) for part in split)
    assert amounts["encoder.normalized_features"] == rows
    assert amounts["losses.base_loss_backward"] == len(split[0].train_indices) * 3
