"""Composite training objectives and their analytic gradients.

Two objectives drive the whole pipeline:

* the base objective: an epoch-scheduled blend of masked feature
  reconstruction and feature classification, trained jointly through the
  encoder, decoder and head in the base session;
* the incremental objective: a beta-weighted blend of a distance
  regularizer against the projected memory dictionary, a memory
  classification term that keeps stored class means correctly classified,
  and plain example classification.

Classes are indexed by classifier column everywhere: labels are columns,
and row k of memory and of the distance dictionary belongs to column k.

Both are plain functions of (inputs, parameters, seed); the seed determines
masking and dropout noise, so values and gradients are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import classifier, encoder, rng
from .nn_core import check_labels

# Sub-stream tag for the mask selection of one base-objective step.
MASK_TAG = 0

RECON_SCOPES = ("all", "masked")
RECON_REDUCTIONS = ("mean", "sum")


@dataclass
class LossConfig:
    """Knobs of both objectives.

    c is the epoch-0 reconstruction weight (the weight decays as
    c * exp(-epoch/2)); beta balances the distance regularizer against the
    memory and classification terms. recon_scope selects whether the
    reconstruction error is averaged over all token positions or the masked
    ones only; recon_reduction picks per-element averaging or a raw sum per
    example.
    """

    c: float = 0.3
    beta: float = 0.7
    mask_ratio: float = 0.75
    recon_scope: str = "all"
    recon_reduction: str = "mean"

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise ValueError("c must lie in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must lie in [0, 1)")
        if self.recon_scope not in RECON_SCOPES:
            raise ValueError(f"recon_scope must be one of {RECON_SCOPES}")
        if self.recon_reduction not in RECON_REDUCTIONS:
            raise ValueError(f"recon_reduction must be one of {RECON_REDUCTIONS}")


@dataclass(frozen=True)
class DistanceDictionary:
    """Hidden-space rows the distance regularizer measures against, one
    per classifier column: row k is the distance target of label k.
    sq_norms holds each row's squared norm, computed once per build for
    every step that measures against the rows; both are read-only."""

    projected_rows: np.ndarray
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.asarray(self.projected_rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("dictionary needs at least one row")
        rows.setflags(write=False)
        sq_norms = (rows * rows).sum(axis=1)
        sq_norms.setflags(write=False)
        object.__setattr__(self, "projected_rows", rows)
        object.__setattr__(self, "sq_norms", sq_norms)


def alpha_schedule(cfg: LossConfig, epoch: int) -> float:
    """Reconstruction weight c * exp(-epoch / 2), strictly decreasing."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    return cfg.c * math.exp(-epoch / 2.0)


def build_distance_dictionary(mem, params, novel_means):
    """Project the memory rows, then the running session's novel support
    means, through the live first layer: one row per classifier column.
    Rebuilt whenever the first-layer weights have moved."""
    return DistanceDictionary(np.concatenate(
        [classifier.project_batch(mem.rows, params),
         classifier.project_batch(np.stack(novel_means), params)], axis=0))


def incremental_loss(features, labels, memory_rows, dictionary, params,
                     cfg: LossConfig, seed: int):
    """Scalar incremental objective and its unweighted per-term breakdown.

    Value: beta * mean_j CE(-d_j, y_j) + (1-beta) * mean_k CE(head(M_k), k)
    + (1-beta) * mean_j CE(head(f_j), y_j).
    """
    total, breakdown, _ = classifier.incremental_terms(
        features, labels, memory_rows, dictionary, params, cfg, seed,
        compute_grads=False)
    return total, breakdown


def base_loss(raw_tokens, labels, enc, dec, params, cfg: LossConfig,
              epoch: int, seed: int):
    """Scalar base objective alpha * reconstruction + (1-alpha) * classification
    over one batch, plus the two unweighted terms."""
    total, breakdown, _ = _base_core(raw_tokens, labels, enc, dec, params,
                                     cfg, epoch, seed, compute_grads=False)
    return total, breakdown


def base_arrays(enc_w, enc_b, dec_w, dec_b, mask_token, head) -> dict[str, np.ndarray]:
    """The arrays of the base objective by name: enc_w, enc_b, dec_w, dec_b,
    mask_token, then head_<name> for each entry of head (a dict keyed like
    ClassifierParams.arrays()). The one place these names are spelled: the
    trainer's parameters, the gradcheck's and base_loss_backward's gradients
    all come from here. The arrays are taken as they are, not copied."""
    return {"enc_w": enc_w, "enc_b": enc_b, "dec_w": dec_w, "dec_b": dec_b,
            "mask_token": mask_token,
            **{f"head_{name}": arr for name, arr in head.items()}}


def base_loss_backward(raw_tokens, labels, enc, dec, params, cfg: LossConfig,
                       epoch: int, seed: int):
    """Base objective value, breakdown, and analytic gradients for encoder,
    decoder (including the mask token) and head parameters, as one dict
    keyed by base_arrays."""
    return _base_core(raw_tokens, labels, enc, dec, params, cfg, epoch, seed,
                      compute_grads=True)


def _base_core(raw_tokens, labels, enc, dec, params, cfg, epoch, seed, compute_grads):
    raw = np.asarray(raw_tokens, dtype=np.float64)
    if raw.ndim != 3 or raw.shape[0] == 0:
        raise ValueError("expected a non-empty (n, tokens, raw_dim) batch")
    y = np.asarray(labels, dtype=np.int64)
    n, n_tokens, _ = raw.shape
    if y.shape != (n,):
        raise ValueError("labels must align with the batch")
    check_labels(y, params.n_classes)
    alpha = alpha_schedule(cfg, epoch)

    feats = encoder.encode_batch(raw, enc)                 # (n, tokens, dim)
    dim = feats.shape[2]

    # reconstruction path: one mask draw and one decode for the whole batch
    masked = encoder.mask_features(feats, cfg.mask_ratio, rng.stream_id(seed, MASK_TAG))
    diff = encoder.reconstruct(feats, masked, dec)
    diff -= feats
    # per-example weight 1/norm; an example with an empty scope contributes 0
    if cfg.recon_scope == "masked":
        n_scope = masked.sum(axis=1)
        norm = n_scope * dim if cfg.recon_reduction == "mean" else 1.0
        weight = np.where(n_scope > 0, 1.0 / np.maximum(norm, 1), 0.0)
        diff *= masked[:, :, None]
    else:
        # every position is in scope, and a group has >= 2 tokens
        norm = n_tokens * dim if cfg.recon_reduction == "mean" else 1.0
        weight = np.full(n, 1.0 / norm)
    recon_term = float(((diff * diff).sum(axis=(1, 2)) * weight).sum()) / n

    # classification path: the head term of the incremental objective
    pooled = feats.mean(axis=1)
    fbar = encoder.normalize_rows(pooled, enc.feature_norm)
    ce_term, head_grads, dz1 = classifier._mean_ce_with_grads(
        fbar, y, params, rng.stream_id(seed, classifier.CLASSIFICATION_TAG),
        compute_grads)

    total = alpha * recon_term + (1.0 - alpha) * ce_term
    breakdown = {"reconstruction": recon_term, "classification": ce_term}
    if not compute_grads:
        return total, breakdown, None

    # classification backward, from the head's first-layer pre-activation
    dfbar = dz1 @ params.w1.T
    dpooled = encoder.normalize_rows_backward(dfbar, pooled, enc.feature_norm)
    # scaled per (n, dim) row, then broadcast over the tokens
    d_feats_ce = (1.0 - alpha) * (dpooled / n_tokens)

    # reconstruction backward; the target side of diff also reaches feats
    delta = (2.0 * weight)[:, None, None] * diff
    filled = np.where(masked[:, :, None], dec.mask_token, feats)
    dfilled = delta @ dec.w.T
    d_feats = np.where(masked[:, :, None], 0.0, dfilled) - delta

    # combine both paths through the encoder
    d_feats *= alpha / n
    d_feats += d_feats_ce[:, None, :]
    dz_enc = d_feats * encoder.activation_grad(feats, enc.activation)
    grads = base_arrays(
        raw.reshape(-1, raw.shape[2]).T @ dz_enc.reshape(-1, dim),
        dz_enc.sum(axis=(0, 1)),
        (alpha / n) * (filled.reshape(-1, dim).T @ delta.reshape(-1, dim)),
        (alpha / n) * delta.sum(axis=(0, 1)),
        (alpha / n) * dfilled[masked].sum(axis=0),
        {name: (1.0 - alpha) * grad for name, grad in head_grads.items()})
    return total, breakdown, grads
