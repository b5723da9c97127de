"""Minimal feed-forward network engine on float64 numpy arrays.

Dense MLPs with ReLU hidden activations and identity output, exact
reverse-mode gradients for mean softmax cross-entropy, SGD with momentum,
milestone learning-rate decay, and decoupled-from-the-loss L2 weight decay.
The public forward, gradient and evaluation functions take a binary mask and
apply it, so pruned weights contribute exactly zero and receive exactly zero
gradient whatever the stored values are.

``train`` pays for masking once per call instead of once per step.  It zeroes
the off-mask weights and velocities, after which they stay exactly 0: the
forward and backward passes run unmasked (``w * mask`` would equal ``w`` bit
for bit), and the update touches only surviving positions of tensors with
at least ``SURVIVOR_UPDATE_MIN_SIZE`` positions and a density below
``SURVIVOR_UPDATE_BELOW``.  Surviving positions come out bitwise
equal to a loop of the masked ``loss_and_grad`` + ``sgd_step``, and off-mask
positions are 0 in both.

All tensors are C-contiguous float64; all randomness flows through
numpy PCG64 generators seeded explicitly, so identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .util import MAX_SEED, ConfigError, derive_seed

if TYPE_CHECKING:
    from .data import LabeledDataset
    from .pruning import Mask


class ParamSet:
    """Ordered, named collection of parameter tensors.

    Entries keep insertion order.  Prunability is the name: a ``*.weight``
    entry is a prunable weight matrix, anything else (a bias vector) is not.
    Shapes are fixed at construction.
    """

    def __init__(self) -> None:
        self._tensors: dict[str, np.ndarray] = {}

    def add(self, name: str, tensor: np.ndarray) -> None:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._tensors[name] = np.ascontiguousarray(tensor, dtype=np.float64)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        old = self._tensors[name]
        arr = np.ascontiguousarray(value, dtype=np.float64)
        if arr.shape != old.shape:
            raise ValueError(
                f"shape of {name!r} is immutable: {old.shape} -> {arr.shape}"
            )
        self._tensors[name] = arr

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __iter__(self) -> Iterator[str]:
        return iter(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def prunable_names(self) -> list[str]:
        return [n for n in self._tensors if self.is_prunable(n)]

    @staticmethod
    def is_prunable(name: str) -> bool:
        return name.endswith(".weight")

    def shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """(name, shape) of every entry, in order: the network's layout."""
        return [(n, t.shape) for n, t in self._tensors.items()]

    def total_count(self) -> int:
        return sum(t.size for t in self._tensors.values())

    def copy(self) -> "ParamSet":
        out = ParamSet()
        for name, tensor in self._tensors.items():
            out.add(name, tensor.copy())
        return out

    def congruent_zeros(self) -> dict[str, np.ndarray]:
        """Fresh zero tensors matching each entry's shape."""
        return {n: np.zeros_like(t) for n, t in self._tensors.items()}

    def equals_bitwise(self, other: "ParamSet") -> bool:
        if self.names() != other.names():
            return False
        return all(
            np.array_equal(self._tensors[n], other._tensors[n], equal_nan=True)
            for n in self._tensors
        )


@dataclass(frozen=True)
class MlpArchitecture:
    """Dense MLP layout: ReLU between hidden layers, identity at the output."""

    layer_sizes: tuple[int, ...]

    def __init__(self, layer_sizes) -> None:
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2:
            raise ConfigError("architecture needs at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ConfigError(f"all layer sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """(name, shape) of every tensor ``init_params`` makes, in order.

        Layer i (1-based) contributes ``fc{i}.weight`` with shape
        (fan_out, fan_in) and ``fc{i}.bias`` with shape (fan_out,).
        """
        shapes = []
        for i, (fan_in, fan_out) in enumerate(zip(self.layer_sizes, self.layer_sizes[1:])):
            shapes += [(f"fc{i + 1}.weight", (fan_out, fan_in)), (f"fc{i + 1}.bias", (fan_out,))]
        return shapes

    def param_count(self) -> int:
        return sum(int(np.prod(shape)) for _, shape in self.param_shapes())


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for one training phase.

    ``weight_decay`` is the L2 coefficient applied as an additive gradient
    term on weight matrices only (never biases); the reported loss excludes
    the penalty.  The effective learning rate at epoch e is
    ``lr * lr_gamma ** |{m in lr_milestones : m <= e}|``.
    """

    epochs: int
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 128
    lr_milestones: tuple[int, ...] = ()
    lr_gamma: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be non-negative and finite, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 < self.lr_gamma < np.inf:
            raise ConfigError(f"lr_gamma must be positive and finite, got {self.lr_gamma}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError("seed must fit in unsigned 64 bits")
        ms = tuple(int(m) for m in self.lr_milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError("lr_milestones must be strictly increasing")
        if ms and self.epochs and ms[-1] >= self.epochs:
            raise ConfigError("lr_milestones must be < epochs")
        object.__setattr__(self, "lr_milestones", ms)


class OptimizerState:
    """Momentum buffers congruent to a ParamSet, plus a step counter."""

    def __init__(self, params: ParamSet) -> None:
        self.velocity: dict[str, np.ndarray] = params.congruent_zeros()
        self.step_count: int = 0

    def reset(self) -> None:
        for v in self.velocity.values():
            v[...] = 0.0
        self.step_count = 0


def init_params(arch: MlpArchitecture, seed: int) -> ParamSet:
    """Initialize an MLP laid out as ``arch.param_shapes()``: weights uniform
    in [-b, b] with b = sqrt(1/fan_in), biases zero.  Bit-reproducible for a
    fixed seed.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    params = ParamSet()
    for name, shape in arch.param_shapes():
        if ParamSet.is_prunable(name):
            bound = np.sqrt(1.0 / shape[1])
            params.add(name, rng.uniform(-bound, bound, size=shape))
        else:
            params.add(name, np.zeros(shape))
    return params


def _layer_names(params: ParamSet) -> list[tuple[str, str]]:
    """(weight, bias) name pairs in layer order: ``<layer>.weight`` with ``<layer>.bias``."""
    pairs = []
    for w in params.prunable_names():
        b = w.rpartition(".")[0] + ".bias"
        if b not in params:
            raise ValueError(f"missing bias for layer {w!r}")
        pairs.append((w, b))
    return pairs


def effective_weights(
    params: ParamSet, mask: "Mask | None", pairs: list[tuple[str, str]] | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight, bias) with the mask absorbed into the weights.

    ``pairs`` is ``_layer_names(params)``, passed by callers that loop over
    one ParamSet so the names are worked out once.
    """
    out = []
    for wname, bname in _layer_names(params) if pairs is None else pairs:
        w = params[wname]
        if mask is not None and wname in mask:
            w = w * mask[wname]
        out.append((w, params[bname]))
    return out


def forward_trace(
    params: ParamSet, mask: "Mask | None", batch: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Forward pass keeping intermediates.

    Returns (logits, pre_activations, activations) where activations[0] is
    the input batch and activations[l] is the post-ReLU output of layer l
    (the logits for the final layer).  The masked weights are built once, by
    ``effective_weights``, before the layers run.
    """
    return _forward_layers(effective_weights(params, mask), batch)


def _forward_layers(
    layers: list[tuple[np.ndarray, np.ndarray]], batch: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """``forward_trace`` on the (weight, bias) list of ``effective_weights``."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(f"batch must be 2-D [B, D], got shape {batch.shape}")
    pre: list[np.ndarray] = []
    acts: list[np.ndarray] = [batch]
    h = batch
    for idx, (w, b) in enumerate(layers):
        if h.shape[1] != w.shape[1]:
            raise ValueError(
                f"layer {idx + 1} (fc{idx + 1}) expects input dim {w.shape[1]}, "
                f"got {h.shape[1]}"
            )
        z = h @ w.T + b
        pre.append(z)
        h = np.maximum(z, 0.0) if idx < len(layers) - 1 else z
        acts.append(h)
    return h, pre, acts


def forward(params: ParamSet, mask: "Mask | None", batch: np.ndarray) -> np.ndarray:
    """Compute logits [B, num_classes]; masked weights contribute exactly 0."""
    logits, _, _ = forward_trace(params, mask, batch)
    return logits


def _softmax_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits."""
    n, c = logits.shape
    if n == 0:
        raise ValueError("batch must contain at least one sample")
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        bad = labels[(labels < 0) | (labels >= c)][0]
        raise ValueError(f"label {bad} out of range [0, {c})")
    zmax = logits.max(axis=1, keepdims=True)
    expz = np.exp(logits - zmax)
    sumexp = expz.sum(axis=1, keepdims=True)
    lse = np.log(sumexp[:, 0]) + zmax[:, 0]
    rows = np.arange(n)
    loss = float(np.mean(lse - logits[rows, labels]))
    dlogits = expz / sumexp
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def _loss_grad_logits(
    params: ParamSet,
    mask: "Mask | None",
    batch: np.ndarray,
    labels: np.ndarray,
    pairs: list[tuple[str, str]] | None = None,
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    if pairs is None:
        pairs = _layer_names(params)
    labels = np.asarray(labels, dtype=np.int64)
    layers = effective_weights(params, mask, pairs)
    logits, pre, acts = _forward_layers(layers, batch)
    loss, delta = _softmax_ce(logits, labels)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss}")

    grads: dict[str, np.ndarray] = {}
    for idx in range(len(pairs) - 1, -1, -1):
        wname, bname = pairs[idx]
        gw = delta.T @ acts[idx]
        if mask is not None and wname in mask:
            gw *= mask[wname]
        grads[wname] = gw
        grads[bname] = delta.sum(axis=0)
        if idx > 0:
            delta = (delta @ layers[idx][0]) * (pre[idx - 1] > 0.0)
    # restore parameter order
    ordered = {n: grads[n] for n in params.names()}
    return loss, ordered, logits


def loss_and_grad(
    params: ParamSet,
    mask: "Mask | None",
    batch: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean softmax cross-entropy (excluding any L2 penalty) and exact
    reverse-mode gradients.  Gradients at masked-out positions are exactly 0.
    """
    loss, grads, _ = _loss_grad_logits(params, mask, batch, labels)
    return loss, grads


def effective_lr(cfg: TrainConfig, epoch: int) -> float:
    """lr * gamma^(number of milestones <= epoch)."""
    drops = sum(1 for m in cfg.lr_milestones if m <= epoch)
    return cfg.lr * cfg.lr_gamma**drops


# Surviving share of a weight tensor below which ``train`` updates only the
# surviving positions.  A gathered, updated and scattered survivor costs about
# seven times a position of the dense in-place update; on 784-300-100-10 the
# two paths cost the same near density 0.2 with no weight decay and near 0.3
# with weight decay 1e-4 (measurement in CHANGES.md).
SURVIVOR_UPDATE_BELOW = 0.2
# Smaller tensors always take the dense update: its five numpy calls cost
# less than the gathers and scatters, which break even with it at 64 x 128
# positions and 5% density.
SURVIVOR_UPDATE_MIN_SIZE = 8192


class StepPlan:
    """Per-tensor set-up that ``train`` builds once and every ``sgd_step`` reuses.

    A masked weight tensor of at least ``SURVIVOR_UPDATE_MIN_SIZE`` positions
    and below ``SURVIVOR_UPDATE_BELOW`` density gets its flat survivor indices
    and compact buffers for the gathered gradient, weight, velocity and decay
    term; any other one with pruned positions keeps its mask, applied to the
    gradient.  The dense update's weight-decay buffer is made on first use.
    """

    def __init__(self, mask: "Mask | None") -> None:
        self.survivors: dict[str, np.ndarray] = {}
        self.compact: dict[str, np.ndarray] = {}
        self.masks: dict[str, np.ndarray] = {}
        self._decay: dict[str, np.ndarray] = {}
        for name in mask.names() if mask is not None else ():
            m = mask[name]
            alive = np.flatnonzero(m)
            large = m.size >= SURVIVOR_UPDATE_MIN_SIZE
            if large and alive.size < SURVIVOR_UPDATE_BELOW * m.size:
                self.survivors[name] = alive
                self.compact[name] = np.empty((4, alive.size))
            elif alive.size < m.size:
                self.masks[name] = m

    def decay_buffer(self, name: str, like: np.ndarray) -> np.ndarray:
        if name not in self._decay:
            self._decay[name] = np.empty_like(like)
        return self._decay[name]


def _momentum_update(
    w: np.ndarray, g: np.ndarray, v: np.ndarray,
    momentum: float, lr: float, decay: float, decay_buf: np.ndarray | None,
) -> None:
    """``v = momentum * v + (g + decay * w); w -= lr * v`` in place, with g as scratch."""
    if decay != 0.0:
        np.multiply(w, decay, out=decay_buf)
        g += decay_buf
    v *= momentum
    v += g
    np.multiply(v, lr, out=g)
    w -= g


def sgd_step(
    params: ParamSet,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    mask: "Mask | None",
    cfg: TrainConfig,
    epoch: int,
    plan: StepPlan | None = None,
) -> None:
    """One SGD-with-momentum update, in place.

    The L2 term enters as an additive gradient ``grad + weight_decay * w``
    on prunable tensors only.  Without a plan, every masked-out position is
    re-zeroed in both the parameter and its velocity after the update.

    With a ``StepPlan`` built for ``mask`` (as ``train`` does), the off-mask
    weights and velocities must already be exactly 0.  The update then runs
    in place without temporaries and overwrites ``grads``: tensors below the
    crossover update only their survivors, the others mask the gradient, and
    the off-mask entries stay 0 with no re-zeroing.  Every surviving position
    gets bitwise the same result as without a plan.
    """
    lr = effective_lr(cfg, epoch)
    if plan is not None:
        for name in params.names():
            w, g, v = params[name], grads[name], state.velocity[name]
            decay = cfg.weight_decay if params.is_prunable(name) else 0.0
            alive = plan.survivors.get(name)
            if alive is None:
                if name in plan.masks:
                    g *= plan.masks[name]
                buf = plan.decay_buffer(name, w) if decay != 0.0 else None
                _momentum_update(w, g, v, cfg.momentum, lr, decay, buf)
                continue
            gs, ws, vs, buf = plan.compact[name]
            w_flat, v_flat = w.reshape(-1), v.reshape(-1)
            g.reshape(-1).take(alive, out=gs, mode="clip")
            w_flat.take(alive, out=ws, mode="clip")
            v_flat.take(alive, out=vs, mode="clip")
            _momentum_update(ws, gs, vs, cfg.momentum, lr, decay, buf)
            w_flat[alive] = ws
            v_flat[alive] = vs
        state.step_count += 1
        return
    for name in params.names():
        g = grads[name]
        w = params[name]
        if cfg.weight_decay != 0.0 and params.is_prunable(name):
            g = g + cfg.weight_decay * w
        v = state.velocity[name]
        v *= cfg.momentum
        v += g
        w -= lr * v
        if mask is not None and name in mask:
            m = mask[name]
            w *= m
            v *= m
    state.step_count += 1


def evaluate(
    params: ParamSet,
    mask: "Mask | None",
    dataset: "LabeledDataset",
    chunk_size: int = 1024,
) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy over a dataset, deterministically.

    Argmax ties resolve to the lowest class index.  No shuffling; samples are
    visited in storage order in fixed-size chunks.  The masked weights are
    built once per call and shared by every chunk.
    """
    n = dataset.features.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    total_loss = 0.0
    correct = 0
    layers = effective_weights(params, mask)
    for start in range(0, n, chunk_size):
        feats = dataset.features[start : start + chunk_size]
        labels = dataset.labels[start : start + chunk_size]
        logits, _, _ = _forward_layers(layers, feats)
        loss, _ = _softmax_ce(logits, labels)
        total_loss += loss * feats.shape[0]
        correct += int(np.sum(np.argmax(logits, axis=1) == labels))
    loss = total_loss / n
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite evaluation loss {loss}")
    return loss, correct / n


@dataclass
class EpochMetrics:
    """Running training metrics for one epoch (pre-update minibatch averages)."""

    train_loss: float
    train_acc: float


def train(
    params: ParamSet,
    mask: "Mask | None",
    state: OptimizerState,
    train_set: "LabeledDataset",
    cfg: TrainConfig,
) -> list[EpochMetrics]:
    """Run ``cfg.epochs`` epochs of mini-batch SGD with seeded reshuffling.

    The shuffle order for epoch e comes from a generator seeded with a value
    derived deterministically from (cfg.seed, e), so runs are reproducible
    across sessions and platforms.  Returns per-epoch mean minibatch loss and
    accuracy, measured on the logits computed before each update.

    The off-mask weights and velocities are zeroed first and stay exactly 0,
    so each step runs the forward and backward passes unmasked and hands a
    ``StepPlan`` to ``sgd_step``: large tensors below ``SURVIVOR_UPDATE_BELOW``
    density update only their survivors.  Surviving params and velocities
    come out bitwise equal to a loop of masked ``loss_and_grad`` + ``sgd_step``.
    """
    features = train_set.features
    labels = train_set.labels
    n = features.shape[0]
    history: list[EpochMetrics] = []
    if mask is not None:  # the invariant the unmasked passes and the plan rely on
        for name in mask.names():
            params[name] *= mask[name]
            state.velocity[name] *= mask[name]
    plan = StepPlan(mask)
    pairs = _layer_names(params)
    for epoch in range(cfg.epochs):
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, "shuffle", epoch)))
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = features[idx]
            batch_labels = labels[idx]
            loss, grads, logits = _loss_grad_logits(params, None, batch, batch_labels, pairs)
            sgd_step(params, grads, state, mask, cfg, epoch, plan)
            loss_sum += loss * idx.shape[0]
            correct += int(np.sum(np.argmax(logits, axis=1) == batch_labels))
        for name in params.names():
            if not np.all(np.isfinite(params[name])):
                raise FloatingPointError(f"non-finite values in {name!r} after epoch {epoch}")
        history.append(EpochMetrics(train_loss=loss_sum / n, train_acc=correct / n))
    return history
