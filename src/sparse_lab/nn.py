"""Minimal feed-forward network engine on float64 numpy arrays.

Dense MLPs with ReLU hidden activations and identity output, exact
reverse-mode gradients for mean softmax cross-entropy, SGD with momentum,
milestone learning-rate decay, and an L2 term added to the gradient before
momentum and left out of the reported loss.
The public forward, gradient and evaluation functions take a binary mask and
apply it, so pruned weights contribute exactly zero and receive exactly zero
gradient whatever the stored values are.

``ParamSet`` is the one container for named tensors: every entry is a view
of one flat float64 array, laid out when the set is built.  A network's
parameters, its ``OptimizerState``'s velocities and gradient scratch (two
more sets of the same layout, made once per run), the gradients of
``loss_and_grad`` and a ``pruning.Mask`` are all ParamSets.
Every pass runs through a ``Step``: the layer pairs, the masked weights, the
pass buffers, the gradient views and the update plan in one object.  The
run's step lives on its ``OptimizerState``, so its rounds and evaluations
reuse one set of buffers.

``train`` pays for masking once per call instead of once per step.  It zeroes
the off-mask weights and velocities, after which they stay exactly 0: the
passes run unmasked (``w * mask`` would equal ``w`` bit for bit) and write
the gradients straight into the scratch.  The update covers the network in
one in-place pass per stretch of consecutive tensors updated at all
positions, plus one gather and scatter of the survivors of the large sparse
weights (see ``Step``).  Surviving positions come out bitwise equal to a loop
of the masked ``loss_and_grad`` + ``sgd_step``, and off-mask positions are 0
in both.

All tensors are C-contiguous float64; all randomness flows through
numpy PCG64 generators seeded explicitly, so identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from .util import MAX_SEED, ConfigError, derive_seed

if TYPE_CHECKING:
    from .data import LabeledDataset
    from .pruning import Mask


class ParamSet:
    """Ordered, named collection of parameter tensors, all views of one buffer.

    The layout is fixed at construction.  ``ParamSet(entries)`` copies
    (name, tensor) pairs, given as a mapping or an iterable, into one new
    float64 buffer; ``on_buffer`` lays a set out on a given buffer without
    copying it.  Entries keep the order given, and so does the buffer: each
    entry's positions follow the previous entry's, row-major.  Assigning to
    an entry copies into its view, so views stay valid.  Prunability is the
    name: a ``*.weight`` entry is a prunable weight matrix, anything else (a
    bias vector) is not.
    """

    def __init__(
        self, entries: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]] = ()
    ) -> None:
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        arrays = [(name, np.asarray(tensor, dtype=np.float64)) for name, tensor in pairs]
        buffer = np.concatenate([np.empty(0), *(a.reshape(-1) for _, a in arrays)])
        self._lay_out(buffer, [(n, a.shape) for n, a in arrays])

    @classmethod
    def on_buffer(cls, buffer: np.ndarray, shapes: list[tuple[str, tuple[int, ...]]]) -> "ParamSet":
        """A ParamSet laid out as ``shapes`` whose entries are views of the flat
        float64 ``buffer``, which it takes over without copying."""
        out = cls.__new__(cls)
        out._lay_out(buffer, shapes)
        return out

    def _lay_out(self, buffer: np.ndarray, shapes: list[tuple[str, tuple[int, ...]]]) -> None:
        self._tensors: dict[str, np.ndarray] = {}
        start = 0
        for name, shape in shapes:
            if name in self._tensors:
                raise ValueError(f"duplicate parameter name {name!r}")
            stop = start + math.prod(shape)
            self._tensors[name] = buffer[start:stop].reshape(shape)
            start = stop
        if buffer.shape != (start,) or buffer.dtype != np.float64 or not buffer.flags.c_contiguous:
            raise ValueError(f"need a contiguous float64 buffer of {start} entries, "
                             f"got {buffer.dtype} of shape {buffer.shape}")
        self.buffer = buffer  # the flat float64 buffer that every entry is a view of
        self.check()

    def check(self) -> None:
        """Raise ValueError unless every value suits this kind of set.

        Any float64 suits a ParamSet; a subclass such as ``pruning.Mask``
        narrows it.  Run whenever a set is laid out, and by ``load_params``
        after it decodes a file into an existing set.
        """

    def offsets(self) -> list[tuple[str, int, int]]:
        """(name, start, stop) of every entry's positions in the buffer, in order."""
        out, start = [], 0
        for name, tensor in self._tensors.items():
            out.append((name, start, start + tensor.size))
            start += tensor.size
        return out

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        view = self[name]
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != view.shape:
            raise ValueError(
                f"shape of {name!r} is immutable: {view.shape} -> {arr.shape}"
            )
        view[...] = arr

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
        return self.buffer.size

    def copy(self) -> "ParamSet":
        return type(self).on_buffer(self.buffer.copy(), self.shapes())


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
    """Momentum, a gradient scratch, a step counter and the run's ``Step``.

    ``velocity`` and ``grads`` are ParamSets laid out like ``params``, each on
    its own buffer, allocated here, once per run.  ``train`` writes each
    step's gradients into ``grads``, and ``sgd_step`` updates from there, so a
    step allocates no parameter-sized array.  ``evaluate`` given the state
    builds its masked weights in ``grads`` too, since every step overwrites
    them before reading.  The run's ``Step`` is kept here too (``step_for``),
    so that the rounds of a run and their evaluations reuse its buffers
    instead of allocating and freeing them per call.
    """

    def __init__(self, params: ParamSet) -> None:
        self.velocity = ParamSet.on_buffer(np.zeros(params.total_count()), params.shapes())
        self.grads = ParamSet.on_buffer(np.zeros(params.total_count()), params.shapes())
        self.step_count: int = 0
        self._step: Step | None = None

    def step_for(self, params: ParamSet, mask: "Mask | None", cfg: TrainConfig | None = None) -> "Step":
        """The run's ``Step``, aimed at ``mask`` and ``cfg``: made at the first
        call, then kept with its buffers while ``params`` is the same set."""
        if self.grads.buffer.shape != params.buffer.shape:
            raise ValueError("the optimizer state was not built for these parameters")
        if self._step is None or self._step.params is not params:
            self._step = Step(params, None, None, self.grads)
        return self._step.aim(mask, cfg)

    def reset(self) -> None:
        self.velocity.buffer[...] = 0.0
        self.step_count = 0


def init_params(arch: MlpArchitecture, seed: int) -> ParamSet:
    """Initialize an MLP laid out as ``arch.param_shapes()``: weights uniform
    in [-b, b] with b = sqrt(1/fan_in), biases zero.  Bit-reproducible for a
    fixed seed.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    params = ParamSet.on_buffer(np.zeros(arch.param_count()), arch.param_shapes())
    for name, shape in arch.param_shapes():
        if ParamSet.is_prunable(name):
            bound = np.sqrt(1.0 / shape[1])
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def forward_trace(
    params: ParamSet, mask: "Mask | None", batch: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Forward pass keeping intermediates.

    Returns (logits, pre_activations, activations) where activations[0] is
    the input batch and activations[l] is the post-ReLU output of layer l
    (the logits for the final layer).  The masked weights are built once, by
    ``Step.layers``, before the layers run.
    """
    return Step(params, mask).trace(batch)


def _as_batch(batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(f"batch must be 2-D [B, D], got shape {batch.shape}")
    return batch


# Surviving share of a weight tensor below which ``train`` updates only the
# surviving positions.  A gathered, updated and scattered survivor costs about
# seven times a position of the dense in-place update; on 784-300-100-10 the
# two paths cost the same near density 0.2 with no weight decay and near 0.3
# with weight decay 1e-4 (measurement in CHANGES.md).
SURVIVOR_UPDATE_BELOW = 0.2
# Smaller tensors always take the in-place update: its five numpy calls cost
# less than the gathers and scatters, which break even with it at 64 x 128
# positions and 5% density.
SURVIVOR_UPDATE_MIN_SIZE = 8192


class Step:
    """A network's forward and backward passes, their buffers and its update plan.

    Built from ``(params, mask, cfg)``, with the (weight, bias) name
    ``pairs`` worked out once.  Every array it keeps lives at the start of a
    buffer in ``buffers``, which only grows, so the step ``OptimizerState``
    keeps for a run serves all its rounds.  The passes compute in place with
    the operations, in the order, of the plain expressions ``w * mask``,
    ``h @ w.T + b``, ``np.maximum(z, 0.0)``, ``delta.T @ h``,
    ``delta.sum(axis=0)`` and ``(delta @ w) * (z > 0.0)``, so every result is
    bitwise theirs.  The gradients go to ``grads``; the gradient w.r.t. a
    hidden activation overwrites that activation once used.

    Given ``cfg``, ``aim`` plans every ``update`` of a ``train`` call.  A
    masked weight tensor of at least ``SURVIVOR_UPDATE_MIN_SIZE``
    positions and below ``SURVIVOR_UPDATE_BELOW`` density is updated at its
    survivors only: ``gather`` holds their buffer positions, gathered into
    the rows of ``compact``, updated there and scattered back.  Every other
    tensor is updated in place at all its positions, with its mask applied to
    the gradient if it has pruned ones.  Consecutive such tensors form one
    stretch of the flat buffers: ``stretches`` holds each stretch's slice,
    its (part, mask) pairs and its decayed ``*.weight`` parts, the parts
    relative to the slice.  ``lr`` holds the learning rate of every epoch.
    """

    def __init__(self, params: ParamSet, mask: "Mask | None", cfg: TrainConfig | None = None,
                 grads: ParamSet | None = None) -> None:
        self.params = params
        self.pairs = [(w, w.rpartition(".")[0] + ".bias") for w in params.prunable_names()]
        for w, b in self.pairs:
            if b not in params:
                raise ValueError(f"missing bias for layer {w!r}")
        self.widths = [params[w].shape[0] for w, _ in self.pairs]
        self.grads = None if grads is None else [(grads[w], grads[b]) for w, b in self.pairs]
        self.buffers: dict[str, np.ndarray] = {}
        self.aim(mask, cfg)

    def _kept(self, name: str, shape: tuple[int, ...], dtype: type = np.float64) -> np.ndarray:
        """An array of ``shape`` at the start of buffer ``name``, remade larger when too small."""
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def aim(self, mask: "Mask | None", cfg: TrainConfig | None = None) -> "Step":
        """Point the step at ``mask`` and, given ``cfg``, plan its updates."""
        self.mask, self.cfg = mask, cfg
        if cfg is None:
            return self
        self.lr = [effective_lr(cfg, epoch) for epoch in range(cfg.epochs)]
        runs: list[list] = []  # [start, stop, masks, decayed] of each in-place stretch
        survivors = []
        for name, start, stop in self.params.offsets():
            prunable = self.params.is_prunable(name)
            m = mask[name].reshape(-1) if mask is not None and name in mask else None
            alive = None if m is None else np.flatnonzero(m)
            if alive is None or alive.size == m.size:
                m = None
            elif (prunable and m.size >= SURVIVOR_UPDATE_MIN_SIZE
                  and alive.size < SURVIVOR_UPDATE_BELOW * m.size):
                survivors.append(alive + start)
                continue
            if not runs or runs[-1][1] != start:
                runs.append([start, start, [], []])
            run = runs[-1]
            part = slice(start - run[0], stop - run[0])
            run[1] = stop
            if m is not None:
                run[2].append((part, m))
            if prunable:
                run[3].append(part)
        self.stretches = [(slice(a, b), masks, decayed) for a, b, masks, decayed in runs]
        self.gather = np.concatenate(survivors) if survivors else np.empty(0, np.intp)
        self.compact = self._kept("compact", (4, self.gather.size))
        self.scratch = self._kept("decay", self.params.buffer.shape) if cfg.weight_decay else None
        return self

    def layers(self, into: ParamSet | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias), each masked weight ``w * mask`` in its
        entry of ``into`` (laid out like the params), or else in a kept buffer."""
        out = []
        for wname, bname in self.pairs:
            w = self.params[wname]
            if self.mask is not None and wname in self.mask:
                dest = self._kept(wname, w.shape) if into is None else into[wname]
                w = np.multiply(w, self.mask[wname], out=dest)
            out.append((w, self.params[bname]))
        return out

    def lay_out(self, rows: int, keep_pre: bool = True) -> None:
        """Place the pass buffers for up to ``rows`` samples: each layer's
        pre-activation, each hidden layer's activation and ReLU gate, and the
        logits' gradient.  Without ``keep_pre`` each activation overwrites its
        pre-activation, for callers that want only the logits."""
        hidden = list(enumerate(self.widths[:-1]))
        self.pre = [self._kept(f"pre{i}", (rows, k)) for i, k in enumerate(self.widths)]
        self.post = [self._kept(f"post{i}", (rows, k)) for i, k in hidden] if keep_pre else self.pre[:-1]
        self.gate = [self._kept(f"gate{i}", (rows, k), bool) for i, k in hidden] if keep_pre else []
        self.dlogits = self._kept("dlogits", (rows, self.widths[-1]))

    def trace(
        self, batch: np.ndarray, keep_pre: bool = True
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """``forward_trace`` of ``batch`` through this step's params and mask,
        in its kept buffers, which the next pass overwrites (see ``lay_out``
        for ``keep_pre``)."""
        batch = _as_batch(batch)
        self.lay_out(batch.shape[0], keep_pre)
        return self.forward(self.layers(), batch)

    def check_labels(self, labels: np.ndarray, n: int) -> None:
        """Raise ValueError unless ``labels`` are n >= 1 indices of the network's classes."""
        if n == 0:
            raise ValueError("batch must contain at least one sample")
        if labels.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
        if labels.min() < 0 or labels.max() >= self.widths[-1]:
            bad = labels[(labels < 0) | (labels >= self.widths[-1])][0]
            raise ValueError(f"label {bad} out of range [0, {self.widths[-1]})")

    def forward(
        self, layers: list[tuple[np.ndarray, np.ndarray]], batch: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """``forward_trace`` of a float64 [B, D] batch, into the laid-out buffers."""
        n = batch.shape[0]
        pre: list[np.ndarray] = []
        acts: list[np.ndarray] = [batch]
        h = batch
        for idx, (w, b) in enumerate(layers):
            if h.shape[1] != w.shape[1]:
                raise ValueError(
                    f"layer {idx + 1} (fc{idx + 1}) expects input dim {w.shape[1]}, "
                    f"got {h.shape[1]}"
                )
            z = np.matmul(h, w.T, out=self.pre[idx][:n])
            z += b
            pre.append(z)
            h = np.maximum(z, 0.0, out=self.post[idx][:n]) if idx < len(layers) - 1 else z
            acts.append(h)
        return h, pre, acts

    def backprop(
        self, layers: list[tuple[np.ndarray, np.ndarray]], batch: np.ndarray, picks: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Loss and logits of ``batch``, whose label entries sit at the flat
        indices ``picks`` of its logits (labels already checked), with every
        layer's (weight, bias) gradient written into ``grads``."""
        n = batch.shape[0]
        logits, pre, acts = self.forward(layers, batch)
        delta = self.dlogits[:n]
        loss = _cross_entropy(logits, picks, delta)
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite loss {loss}")
        for idx in range(len(layers) - 1, -1, -1):
            gw, gb = self.grads[idx]
            np.matmul(delta.T, acts[idx], out=gw)
            np.add.reduce(delta, axis=0, out=gb)
            if idx > 0:
                below = np.matmul(delta, layers[idx][0], out=acts[idx])
                below *= np.greater(pre[idx - 1], 0.0, out=self.gate[idx - 1][:n])
                delta = below
        return loss, logits

    def update(self, state: OptimizerState, epoch: int) -> None:
        """The planned ``sgd_step`` of ``state`` at ``epoch`` (see there)."""
        cfg, lr, scratch = self.cfg, self.lr[epoch], self.scratch
        w, g, v = self.params.buffer, state.grads.buffer, state.velocity.buffer
        for part, masks, decayed in self.stretches:
            _update(w[part], g[part], v[part], masks, decayed, cfg.weight_decay,
                    None if scratch is None else scratch[part], cfg.momentum, lr)
        if self.gather.size:
            idx = self.gather
            gs, ws, vs, buf = self.compact
            g.take(idx, out=gs, mode="clip")
            w.take(idx, out=ws, mode="clip")
            v.take(idx, out=vs, mode="clip")
            _update(ws, gs, vs, [], [slice(None)], cfg.weight_decay, buf, cfg.momentum, lr)
            w[idx] = ws
            v[idx] = vs


def forward(params: ParamSet, mask: "Mask | None", batch: np.ndarray) -> np.ndarray:
    """Compute logits [B, num_classes]; masked weights contribute exactly 0."""
    logits, _, _ = forward_trace(params, mask, batch)
    return logits


def _cross_entropy_loss(
    logits: np.ndarray, picks: np.ndarray, scratch: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of C-contiguous ``logits``, and the row sums
    of ``exp(logits - row max)``, which it leaves in ``scratch``.  ``picks``
    holds the flat index of each row's label entry, ``row * num_classes +
    label``, for labels already checked.  The reductions are the ufunc calls
    behind ``logits.max``, ``.sum`` and ``np.mean``, so the results are
    bitwise theirs."""
    zmax = np.maximum.reduce(logits, axis=1, keepdims=True)
    np.subtract(logits, zmax, out=scratch)
    np.exp(scratch, out=scratch)
    sumexp = np.add.reduce(scratch, axis=1, keepdims=True)
    lse = np.log(sumexp[:, 0])
    lse += zmax[:, 0]
    lse -= logits.reshape(-1).take(picks)
    return float(np.add.reduce(lse) / logits.shape[0]), sumexp


def _cross_entropy(logits: np.ndarray, picks: np.ndarray, dlogits: np.ndarray) -> float:
    """``_cross_entropy_loss``, with the loss's gradient w.r.t. ``logits``
    written to ``dlogits``."""
    loss, sumexp = _cross_entropy_loss(logits, picks, dlogits)
    dlogits /= sumexp
    dlogits.reshape(-1)[picks] -= 1.0
    dlogits /= logits.shape[0]
    return loss


def loss_and_grad(
    params: ParamSet,
    mask: "Mask | None",
    batch: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, ParamSet]:
    """Mean softmax cross-entropy (excluding any L2 penalty) and exact
    reverse-mode gradients, a ParamSet laid out like ``params``.  Gradients
    at masked-out positions are exactly 0.
    """
    batch = np.ascontiguousarray(_as_batch(batch))
    labels = np.asarray(labels, dtype=np.int64)
    grads = ParamSet.on_buffer(np.empty(params.total_count()), params.shapes())
    step = Step(params, mask, grads=grads)
    n = batch.shape[0]
    step.check_labels(labels, n)
    step.lay_out(n)
    loss, _ = step.backprop(step.layers(), batch, np.arange(n) * step.widths[-1] + labels)
    for wname, _ in step.pairs:
        if mask is not None and wname in mask:
            grads[wname] *= mask[wname]
    return loss, grads


def effective_lr(cfg: TrainConfig, epoch: int) -> float:
    """lr * gamma^(number of milestones <= epoch)."""
    drops = sum(1 for m in cfg.lr_milestones if m <= epoch)
    return cfg.lr * cfg.lr_gamma**drops


def _update(w: np.ndarray, g: np.ndarray, v: np.ndarray, masks: list, decayed: list,
            decay: float, scratch: np.ndarray | None, momentum: float, lr: float) -> None:
    """``g *= m; g += decay * w; v = momentum * v + g; w -= lr * v`` in place,
    the mask multiply on each (part, m) of ``masks``, the decay term (built in
    ``scratch``) on each part in ``decayed``, and g as scratch at the end."""
    for part, m in masks:
        masked = g[part]
        masked *= m
    if decay != 0.0:
        for part in decayed:
            term = g[part]
            term += np.multiply(w[part], decay, out=scratch[part])
    v *= momentum
    v += g
    np.multiply(v, lr, out=g)
    w -= g


def sgd_step(
    params: ParamSet,
    grads: ParamSet,
    state: OptimizerState,
    mask: "Mask | None",
    cfg: TrainConfig,
    epoch: int,
    step: Step | None = None,
) -> None:
    """One SGD-with-momentum update, in place.

    The L2 term enters as an additive gradient ``grad + weight_decay * w``
    on prunable tensors only.  Without a step, every masked-out position is
    re-zeroed in both the parameter and its velocity after the update.

    With a ``Step`` aimed at ``mask`` and ``cfg`` for ``params`` (as
    ``train``'s is), ``grads`` must be ``state.grads``, which the update
    overwrites, and the off-mask weights and velocities must already be
    exactly 0.  The in-place passes multiply each masked gradient by its mask
    and the survivor update skips pruned positions, so off-mask entries stay
    0 with no re-zeroing.
    Every position gets bitwise the result of the per-tensor update ``g *=
    mask; g += weight_decay * w; v = momentum * v + g; w -= lr * v``, and
    surviving positions the result without a step.
    """
    if step is not None:
        if grads is not state.grads:
            raise ValueError("with a step, grads must be state.grads")
        step.update(state, epoch)
        state.step_count += 1
        return
    lr = effective_lr(cfg, epoch)
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
    *,
    state: OptimizerState | None = None,
) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy over a dataset, deterministically.

    Argmax ties resolve to the lowest class index.  No shuffling; samples are
    visited in storage order in fixed-size chunks.  The masked weights and
    the buffers of the forward pass are built once per call and shared by
    every chunk.  Given the run's ``state``, the pass buffers are those of
    its ``Step``, kept for the run, and the masked weights are built in
    ``state.grads``, which every training step overwrites before reading.
    """
    n = dataset.features.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    step = Step(params, mask) if state is None else state.step_for(params, mask)
    layers = step.layers(None if state is None else state.grads)
    step.lay_out(min(chunk_size, n), keep_pre=False)
    offsets = np.arange(min(chunk_size, n)) * step.widths[-1]  # flat index of each row's first logit
    total_loss = 0.0
    correct = 0
    for start in range(0, n, chunk_size):
        feats = dataset.features[start : start + chunk_size]
        labels = dataset.labels[start : start + chunk_size]
        logits, _, _ = step.forward(layers, feats)
        rows = logits.shape[0]
        step.check_labels(labels, rows)
        loss, _ = _cross_entropy_loss(logits, offsets[:rows] + labels, step.dlogits[:rows])
        total_loss += loss * rows
        correct += int(np.count_nonzero(logits.argmax(axis=1) == labels))
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
    accuracy, measured on the logits computed before each update.  Labels
    outside the network's output width raise ValueError before anything is
    changed.

    The off-mask weights and velocities are zeroed first and stay exactly 0,
    so each step runs the forward and backward passes unmasked in the run's
    ``Step`` (``state.step_for``), writes the gradients into ``state.grads``
    and hands the step to ``sgd_step``.  Surviving params and velocities come
    out bitwise equal to a loop of masked ``loss_and_grad`` + ``sgd_step``.
    """
    features = train_set.features
    labels = train_set.labels
    n = features.shape[0]
    step = state.step_for(params, mask, cfg)
    step.check_labels(labels, n)
    if mask is not None:  # the invariant the unmasked passes and the plan rely on
        for name in mask.names():
            params[name] *= mask[name]
            state.velocity[name] *= mask[name]
    layers = [(params[w], params[b]) for w, b in step.pairs]  # w * mask would equal w
    step.lay_out(min(cfg.batch_size, n))
    batch = step._kept("batch", (min(cfg.batch_size, n), features.shape[1]))
    # flat index of each sample's first logit within its batch, in shuffled order
    offsets = np.arange(n) % cfg.batch_size * step.widths[-1]
    predicted = np.empty(n, dtype=np.intp)
    history: list[EpochMetrics] = []
    for epoch in range(cfg.epochs):
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, "shuffle", epoch)))
        order = rng.permutation(n)
        picks = labels.take(order)
        picks += offsets  # flat index of each sample's label logit
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            idx = order[start:stop]
            b = idx.shape[0]
            features.take(idx, axis=0, out=batch[:b], mode="clip")
            loss, logits = step.backprop(layers, batch[:b], picks[start:stop])
            sgd_step(params, state.grads, state, mask, cfg, epoch, step)
            loss_sum += loss * b
            logits.argmax(axis=1, out=predicted[start:stop])
        predicted += offsets
        correct = int(np.count_nonzero(predicted == picks))
        if not (np.isfinite(params.buffer.min()) and np.isfinite(params.buffer.max())):
            bad = next(name for name in params.names() if not np.all(np.isfinite(params[name])))
            raise FloatingPointError(f"non-finite values in {bad!r} after epoch {epoch}")
        history.append(EpochMetrics(train_loss=loss_sum / n, train_acc=correct / n))
    return history
