"""Iterative-magnitude-pruning laboratory for tracing the sparse double descent.

SPARSE_LAB_THREADS caps BLAS intra-op parallelism (default 1, which keeps
results bit-reproducible).  The cap is applied here, before numpy loads, so
importing ``sparse_lab`` first is enough; it cannot take effect if numpy was
already imported by the host process, and a RuntimeWarning says so when the
cap had to set a BLAS variable that numpy had already missed.
"""

import os as _os
import sys as _sys

from .util import BLAS_THREAD_VARS as _BLAS_THREAD_VARS

_threads = _os.environ.get("SPARSE_LAB_THREADS", "1")
_unset = [v for v in _BLAS_THREAD_VARS if v not in _os.environ]
for _var in _unset:
    _os.environ[_var] = _threads
if _unset and "numpy" in _sys.modules:
    import warnings as _warnings

    _warnings.warn("numpy was imported before sparse_lab, so SPARSE_LAB_THREADS cannot cap "
                   "its BLAS threads; import sparse_lab first", RuntimeWarning, stacklevel=2)

from .util import TOOL_VERSION as __version__  # noqa: E402
from .nn import (  # noqa: E402
    EpochMetrics,
    MlpArchitecture,
    OptimizerState,
    ParamSet,
    TrainConfig,
    effective_lr,
    evaluate,
    forward,
    init_params,
    loss_and_grad,
    sgd_step,
    train,
)
from .data import (  # noqa: E402
    LabeledDataset,
    NoiseRecord,
    export_idx,
    inject_symmetric_noise,
    load_idx,
    revert_noise,
    save_idx,
    split,
    synth_blobs,
)
from .pruning import (  # noqa: E402
    Mask,
    PruneScope,
    prune,
    rewind,
    sparsity,
)
from .rundir import (  # noqa: E402
    DatasetSpec,
    PhaseReport,
    ProbeResult,
    RoundMetrics,
    RunManifest,
    SketchConfig,
    SketchRun,
)
from .reporting import (  # noqa: E402
    detect_phases,
    emit_curves,
    emit_metrics_csv,
    load_run,
    parse_metrics_csv,
)
from .sketch import load_dataset, resume, run_sketch, sweep  # noqa: E402
from .probes import amplification_check, excess_logits, excess_output, probe_along_run  # noqa: E402
from .cli import cli_main  # noqa: E402

__all__ = [
    "__version__",
    "EpochMetrics", "MlpArchitecture", "OptimizerState", "ParamSet", "TrainConfig",
    "effective_lr", "evaluate", "forward", "init_params", "loss_and_grad", "sgd_step", "train",
    "LabeledDataset", "NoiseRecord", "export_idx", "inject_symmetric_noise", "load_idx",
    "revert_noise", "save_idx", "split", "synth_blobs",
    "Mask", "PruneScope", "prune", "rewind", "sparsity",
    "DatasetSpec", "PhaseReport", "RoundMetrics", "SketchConfig", "SketchRun",
    "detect_phases", "load_dataset", "resume", "run_sketch", "sweep",
    "ProbeResult", "amplification_check", "excess_logits", "excess_output", "probe_along_run",
    "RunManifest", "emit_curves", "emit_metrics_csv", "load_run", "parse_metrics_csv",
    "cli_main",
]
