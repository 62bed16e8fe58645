#!/usr/bin/env python3
"""Train the base session on synthetic clusters and inspect what it built.

The base session optimizes the blended reconstruction/classification
objective through encoder, decoder and head, then freezes the encoder and
initializes both memories from the trained model.
"""

import numpy as np

from gcmr import (LossConfig, ProtocolSpec, SyntheticSpec, TrainConfig,
                  evaluate_session, fscil_split, generate_synthetic,
                  materialize_sessions, memory_budget_bytes,
                  normalized_features, train_base)

spec = SyntheticSpec(d=32, g=8, n_classes=12, class_mean_norm=float(np.sqrt(32)),
                     within_class_sigma=3.5, examples_per_class=40, seed=1)
dataset = generate_synthetic(spec)
protocol = ProtocolSpec(total_classes=12, base_classes=12, n_way=1, k_shot=1,
                        seed=1, test_per_class=15)
sessions = materialize_sessions(dataset, fscil_split(protocol, dataset.labels))
base = sessions[0]
print(f"base session: {len(base.class_ids)} classes, "
      f"{len(base.train)} train / {len(base.test)} test examples")

cfg = TrainConfig(base_epochs=15, base_lr=0.05, batch_size=32, seed=2,
                  hidden_dim=16, loss=LossConfig(c=0.3, beta=0.7))
log = []
state = train_base(base, cfg, log.append)

print("\nepoch  lr       alpha    recon    classification")
for record in log[::3]:
    b = record["loss_breakdown"]
    print(f"{record['epoch']:>5}  {record['lr']:.5f}  {record['alpha']:.5f}"
          f"  {b['reconstruction']:.4f}   {b['classification']:.4f}")

report = evaluate_session(state, normalized_features(base.test.features, state.encoder),
                          base.test.labels)
print(f"\nbase test accuracy: {report.acc_all:.3f}")
print(f"encoder frozen: {state.encoder.frozen}")
print(f"representation memory: {state.mem.rows.shape}")
budget = memory_budget_bytes(state.mem, state.wmem, 4)
print(f"memory budget at float32: {budget['total']} bytes total "
      f"({budget['representation']} representation, "
      f"{budget['classifier']} classifier snapshot)")
