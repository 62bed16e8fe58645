#!/usr/bin/env python3
"""Ablate the co-memory regularizer and sweep its balance weight.

Two questions: how much forgetting does the regularizer prevent compared to
plain cross-entropy finetuning, and how does beta (distance regularization
versus memory/example classification) shift the balance between retaining
old classes and absorbing new ones?
"""

import dataclasses

import numpy as np

from gcmr import (LossConfig, ProtocolSpec, SyntheticSpec, TrainConfig,
                  aggregate, fscil_split, generate_synthetic,
                  materialize_sessions, run_protocol)

spec = SyntheticSpec(d=32, g=8, n_classes=20, class_mean_norm=float(np.sqrt(32)),
                     within_class_sigma=3.5, examples_per_class=40, seed=19)
dataset = generate_synthetic(spec)
protocol = ProtocolSpec(total_classes=20, base_classes=12, n_way=2, k_shot=5,
                        seed=19, test_per_class=15)
sessions = materialize_sessions(dataset, fscil_split(protocol, dataset.labels))

base_cfg = TrainConfig(base_epochs=15, incr_epochs=40, base_lr=0.05,
                       incr_lr=0.02, batch_size=32, seed=23, hidden_dim=16,
                       loss=LossConfig(c=0.3, beta=0.7))

print("run                 acc per session                      avg    base drop")
rows = []
for label, cfg in [
    ("memory-reg on", base_cfg),
    ("memory-reg off", dataclasses.replace(base_cfg, memory_regularization=False)),
]:
    reports, _ = run_protocol(sessions, cfg)
    summary = aggregate(reports)
    cells = " ".join(f"{r.acc_all:.3f}" for r in reports)
    print(f"{label:<18}  {cells}  {summary['avg_acc']:.3f}  "
          f"{summary['base_acc_drop']:.3f}")
    rows.append((label, summary))

print("\nbeta sweep (regularization on):")
print("beta   avg acc  final  base drop")
for beta in (0.0, 0.3, 0.7, 1.0):
    cfg = dataclasses.replace(base_cfg, loss=dataclasses.replace(base_cfg.loss, beta=beta))
    reports, _ = run_protocol(sessions, cfg)
    summary = aggregate(reports)
    print(f"{beta:.1f}    {summary['avg_acc']:.3f}    {summary['final_acc']:.3f}"
          f"  {summary['base_acc_drop']:.3f}")
