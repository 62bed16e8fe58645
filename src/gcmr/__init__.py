"""Co-memory regularized few-shot class-incremental learning, desk scale.

A numpy-only implementation of a two-phase learner: base-session finetuning
that blends masked feature reconstruction with classification, and
incremental sessions that train only the classifier head under
representation-memory and weight-memory regularization. Includes a
synthetic-data protocol runner, bit-reproducible serialization, evaluation
reports, and a CLI (``gcmr``).
"""

from .classifier import (ClassifierParams, eval_logits_batch,
                         expand_with_imprinting, incremental_terms,
                         init_classifier, project_batch)
from .data_io import (ProtocolSpec, SessionData, SyntheticSpec, TokenDataset,
                      fscil_split, generate_synthetic, load_checkpoint,
                      load_features, materialize_sessions, save_checkpoint,
                      save_dataset)
from .encoder import (DecoderParams, EncoderParams, encode_batch, init_decoder,
                      init_encoder, mask_features, normalize_rows,
                      normalized_features, reconstruct)
from .eval_report import (SessionReport, aggregate, evaluate_session,
                          write_report)
from .losses import (DistanceDictionary, LossConfig, alpha_schedule,
                     base_loss, base_loss_backward, build_distance_dictionary,
                     incremental_loss)
from .memory import (RepresentationMemory, WeightMemory, build_weight_memory,
                     column_labels, init_representation_memory,
                     memory_budget_bytes, update_representation_memory)
from .nn_core import (NumericalError, cosine_lr, cross_entropy_rows,
                      sgd_momentum_step, softmax_rows)
from .trainer import (SessionState, TrainConfig, run_protocol, train_base,
                      train_incremental)

__all__ = [name for name in dir() if not name.startswith("_")]
