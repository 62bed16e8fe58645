"""Independent scalar oracles for the numeric tests.

Everything here recomputes results with plain Python loops and math.*
functions, deliberately avoiding the vectorized code paths under test. The
only shared machinery is the RNG plumbing: token masks and dropout masks
are drawn through the package's own accessors (mask_features, dropout_scale)
with the stream ids the objectives use; they are pinned by seeds and are
not part of the arithmetic being checked. reencoded_reports is a
protocol-level reference: it re-encodes the cumulative raw test set after
every session, the way evaluation worked before test features were cached.
fscil_split_per_class is the reference split: one pass over the labels and
one new generator per class. base_core_reference is the base objective's
vectorized core as first written, for byte-level comparison.
"""

import math

import numpy as np

from gcmr import classifier, data_io, encoder, losses, rng, trainer
from gcmr.classifier import dropout_scale
from gcmr.encoder import mask_features, normalized_features
from gcmr.eval_report import evaluate_session


def dropout_rows(n_rows, params, seed, tag):
    """The dropout multipliers of one loss term of one step, as nested lists."""
    gen = rng.stream(rng.stream_id(seed, tag), classifier.DROPOUT_STREAM)
    return dropout_scale(gen, n_rows, params.hidden, params.dropout_rate).tolist()


def softmax_scalar(logits):
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    total = sum(exps)
    return [v / total for v in exps]


def cross_entropy_scalar(logits, label):
    probs = softmax_scalar(list(logits))
    if probs[label] >= 1e-12:
        return -math.log(probs[label])
    # below the floor: log of the exp-sum minus the max-shifted target logit
    m = max(logits)
    return math.log(sum(math.exp(v - m) for v in logits)) - (logits[label] - m)


def layer_normalize_scalar(vector):
    values = [float(v) for v in vector]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    scale = math.sqrt(var + 1e-5)
    return [(v - mean) / scale for v in values]


def matvec(matrix, vector):
    """matrix is (rows, cols) nested; returns matrix^T @ vector per column."""
    rows = len(matrix)
    cols = len(matrix[0])
    return [sum(matrix[r][c] * vector[r] for r in range(rows)) for c in range(cols)]


def head_forward_scalar(fbar, params, scale=None):
    """hidden (after optional dropout scaling) and logits, scalar arithmetic."""
    hidden = []
    for h in range(params.hidden):
        z = sum(fbar[d] * params.w1[d][h] for d in range(params.dim)) + params.b1[h]
        value = max(z, 0.0)
        if scale is not None:
            value *= scale[h]
        hidden.append(value)
    logits = []
    for c in range(params.n_classes):
        logits.append(sum(hidden[h] * params.w2[h][c] for h in range(params.hidden))
                      + params.b2[c])
    return hidden, logits


def project_scalar(fbar, params):
    return [max(sum(fbar[d] * params.w1[d][h] for d in range(params.dim))
                + params.b1[h], 0.0)
            for h in range(params.hidden)]


def distance_vector_scalar(point, rows):
    return [sum((p - r) ** 2 for p, r in zip(point, row)) for row in rows]


def incremental_loss_scalar(features, labels, memory_rows, dictionary, params, cfg, seed):
    """Scalar recomputation of the incremental objective and its terms."""
    n = len(features)

    dist_losses = []
    rows = dictionary.projected_rows.tolist()   # row k belongs to label k
    for j in range(n):
        point = project_scalar([float(v) for v in features[j]], params)
        d2 = distance_vector_scalar(point, rows)
        dist_losses.append(cross_entropy_scalar([-v for v in d2], int(labels[j])))
    distance = sum(dist_losses) / n

    mem_losses = []
    mem_scales = dropout_rows(len(memory_rows), params, seed, classifier.MEMORY_TAG)
    for k in range(len(memory_rows)):
        _, logits = head_forward_scalar([float(v) for v in memory_rows[k]], params,
                                        mem_scales[k])
        mem_losses.append(cross_entropy_scalar(logits, k))
    memory = sum(mem_losses) / len(memory_rows)

    cls_losses = []
    cls_scales = dropout_rows(n, params, seed, classifier.CLASSIFICATION_TAG)
    for j in range(n):
        _, logits = head_forward_scalar([float(v) for v in features[j]], params,
                                        cls_scales[j])
        cls_losses.append(cross_entropy_scalar(logits, int(labels[j])))
    classification = sum(cls_losses) / n

    total = cfg.beta * distance + (1.0 - cfg.beta) * (memory + classification)
    return total, {"distance": distance, "memory": memory,
                   "classification": classification}


def encode_scalar(raw_group, enc):
    """Per-row affine map plus tanh, scalar arithmetic."""
    out = []
    for row in raw_group:
        encoded = []
        for o in range(enc.dim):
            z = sum(float(row[i]) * enc.w[i][o] for i in range(enc.raw_dim)) + enc.b[o]
            encoded.append(math.tanh(z))
        out.append(encoded)
    return out


def base_loss_scalar(raw_tokens, labels, enc, dec, params, cfg, epoch, seed):
    """Scalar recomputation of the base objective and its terms."""
    n = len(raw_tokens)
    alpha = cfg.c * math.exp(-epoch / 2.0)
    dim = enc.dim

    # reuse the pinned masks and dropout; the arithmetic below is scalar
    masks = mask_features(np.asarray(raw_tokens), cfg.mask_ratio,
                          rng.stream_id(seed, losses.MASK_TAG))
    scales = dropout_rows(n, params, seed, classifier.CLASSIFICATION_TAG)
    recon_losses = []
    ce_losses = []
    for j in range(n):
        group = encode_scalar(raw_tokens[j], enc)
        n_tokens = len(group)
        masked = {i for i in range(n_tokens) if masks[j][i]}
        recon = []
        for i in range(n_tokens):
            source = dec.mask_token.tolist() if i in masked else group[i]
            recon.append([sum(source[a] * dec.w[a][b] for a in range(dim)) + dec.b[b]
                          for b in range(dim)])
        sq = sum((recon[i][b] - group[i][b]) ** 2 for i in range(n_tokens) for b in range(dim))
        recon_losses.append(sq / (n_tokens * dim))

        pooled = [sum(group[i][b] for i in range(n_tokens)) / n_tokens for b in range(dim)]
        fbar = layer_normalize_scalar(pooled)
        _, logits = head_forward_scalar(fbar, params, scales[j])
        ce_losses.append(cross_entropy_scalar(logits, int(labels[j])))

    recon = sum(recon_losses) / n
    ce = sum(ce_losses) / n
    total = alpha * recon + (1.0 - alpha) * ce
    return total, {"reconstruction": recon, "classification": ce}


def finite_difference(value_fn, array, h=1e-5):
    """Central finite differences of a scalar function over one ndarray."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        up = value_fn()
        flat[i] = original - h
        down = value_fn()
        flat[i] = original
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_err(analytic, numeric):
    return float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)))


def reencoded_reports(stream, cfg):
    """The session reports of a protocol run whose evaluation encodes the
    whole cumulative raw test set again after every session."""
    reports, raws, labels, state = [], [], [], None
    for t, session in enumerate(stream):
        if t == 0:
            state = trainer.train_base(session, cfg)
        else:
            state = trainer.train_incremental(state, session, cfg)
        test = session.assignment.test_indices
        raws.append(session.dataset.features[test])
        labels.append(session.dataset.labels[test])
        features = normalized_features(np.concatenate(raws), state.encoder)
        reports.append(evaluate_session(state, features, np.concatenate(labels),
                                        [r.acc_all for r in reports]))
    return reports


def fscil_split_per_class(spec, labels):
    """data_io.fscil_split, class by class: the sorted distinct labels, a
    `labels == cid` pass and a new (seed, SPLIT_TAG, pos + 1) generator for
    each class in shuffle order."""
    labels = np.asarray(labels, dtype=np.int64)
    classes = sorted(int(c) for c in np.unique(labels))
    if len(classes) != spec.total_classes:
        raise ValueError(f"dataset has {len(classes)} classes, spec expects {spec.total_classes}")
    order = rng.generator(spec.seed, data_io.SPLIT_TAG).permutation(len(classes))
    shuffled = [classes[i] for i in order]

    per_class_indices = {}
    for pos, cid in enumerate(shuffled):
        idx = np.flatnonzero(labels == cid)
        if idx.size < spec.k_shot + spec.test_per_class:
            raise ValueError(
                f"class {cid} has {idx.size} examples, needs at least "
                f"{spec.k_shot + spec.test_per_class}")
        perm = rng.generator(spec.seed, data_io.SPLIT_TAG, pos + 1).permutation(idx.size)
        per_class_indices[cid] = idx[perm]

    sessions = []
    base_ids = shuffled[:spec.base_classes]
    train_parts = [per_class_indices[cid][spec.test_per_class:] for cid in base_ids]
    test_parts = [per_class_indices[cid][:spec.test_per_class] for cid in base_ids]
    sessions.append(data_io.SessionAssignment(0, tuple(base_ids),
                                              np.concatenate(train_parts),
                                              np.concatenate(test_parts)))
    for t in range(spec.n_sessions):
        ids = shuffled[spec.base_classes + t * spec.n_way:
                       spec.base_classes + (t + 1) * spec.n_way]
        train_parts = [per_class_indices[cid][spec.test_per_class:
                                              spec.test_per_class + spec.k_shot]
                       for cid in ids]
        test_parts = [per_class_indices[cid][:spec.test_per_class] for cid in ids]
        sessions.append(data_io.SessionAssignment(t + 1, tuple(ids),
                                                  np.concatenate(train_parts),
                                                  np.concatenate(test_parts)))
    return sessions


def base_core_reference(raw_tokens, labels, enc, dec, params, cfg, epoch, seed,
                        compute_grads):
    """losses._base_core as it was written before its per-step cuts (a
    multiply by an all-ones scope, the classification gradient scaled after
    its broadcast over the tokens): the byte-level reference for the value,
    the breakdown and every gradient."""
    raw = np.asarray(raw_tokens, dtype=np.float64)
    if raw.ndim != 3 or raw.shape[0] == 0:
        raise ValueError("expected a non-empty (n, tokens, raw_dim) batch")
    y = np.asarray(labels, dtype=np.int64)
    n, n_tokens, _ = raw.shape
    if y.shape != (n,):
        raise ValueError("labels must align with the batch")
    alpha = losses.alpha_schedule(cfg, epoch)

    feats = encoder.encode_batch(raw, enc)                 # (n, tokens, dim)
    dim = feats.shape[2]

    # reconstruction path: one mask draw and one decode for the whole batch
    masked = encoder.mask_features(feats, cfg.mask_ratio,
                                   rng.stream_id(seed, losses.MASK_TAG))
    recon = encoder.reconstruct(feats, masked, dec)
    # every position is in scope: per-example weights 1/(positions * dim)
    scope = np.ones_like(masked)
    weight = 1.0 / (scope.sum(axis=1) * dim)
    diff = (recon - feats) * scope[:, :, None]
    recon_term = float(((diff * diff).sum(axis=(1, 2)) * weight).sum()) / n

    # classification path: the head term of the incremental objective
    pooled = feats.mean(axis=1)
    fbar = encoder.normalize_rows(pooled)
    ce_term, head_grads, dz1 = classifier._mean_ce_with_grads(
        fbar, y, params, rng.stream_id(seed, classifier.CLASSIFICATION_TAG),
        compute_grads, keep_dz1=True)

    total = alpha * recon_term + (1.0 - alpha) * ce_term
    breakdown = {"reconstruction": recon_term, "classification": ce_term}
    if not compute_grads:
        return total, breakdown, None

    # classification backward, from the head's first-layer pre-activation
    dfbar = dz1 @ params.w1.T
    dpooled = encoder.normalize_rows_backward(dfbar, pooled)
    d_feats_ce = np.broadcast_to(dpooled[:, None, :] / n_tokens, feats.shape)

    # reconstruction backward; the target side of diff also reaches feats
    delta = (2.0 * weight)[:, None, None] * diff
    filled = np.where(masked[:, :, None], dec.mask_token, feats)
    dfilled = delta @ dec.w.T
    d_feats = np.where(masked[:, :, None], 0.0, dfilled) - delta

    # combine both paths through the encoder; tanh' is 1 - feats**2
    d_feats_total = (alpha / n) * d_feats + (1.0 - alpha) * d_feats_ce
    dz_enc = d_feats_total * (1.0 - feats * feats)
    grads = losses.base_arrays(
        raw.reshape(-1, raw.shape[2]).T @ dz_enc.reshape(-1, dim),
        dz_enc.sum(axis=(0, 1)),
        (alpha / n) * (filled.reshape(-1, dim).T @ delta.reshape(-1, dim)),
        (alpha / n) * delta.sum(axis=(0, 1)),
        (alpha / n) * dfilled[masked].sum(axis=0),
        {name: (1.0 - alpha) * grad for name, grad in head_grads.items()})
    return total, breakdown, grads
