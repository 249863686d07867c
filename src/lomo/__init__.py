"""Weakly supervised sequence classification with latent ordinal sub-events.

The model scores a sequence by placing M learned templates on M distinct,
temporally separated frames and adding a learned cost for the realized
temporal order of the templates (one scalar per permutation pattern). An
optional global template over the pooled sequence is blended in with a
mixing weight ``gamma_g`` that is cross-validated, not learned. Training is
stochastic subgradient descent on a regularized hinge loss with the
placement treated as a latent variable.
"""

from .core import (
    MAX_EVENTS,
    LatentAssignment,
    Model,
    SequenceSample,
    perm_rank,
    pool,
    score_fixed,
)
from .data import (
    Manifest,
    ManifestEntry,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    load_manifest,
    read_lseq,
    save_manifest,
    write_lseq,
)
from .errors import DataError, InfeasibleError, LomoError
from .evaluation import (
    EvalReport,
    FoldSpec,
    GridSearchResult,
    auc,
    average_class_accuracy,
    average_precision,
    cross_validate,
    grid_search,
    make_folds,
    mean_average_precision,
    roc_eer_rate,
)
from .inference import (
    effective_t,
    infer_brute,
    infer_dp,
    infer_greedy,
    solve_set,
)
from .pipeline import (
    KIND_ALIASES,
    KINDS,
    LoadedModel,
    ModelSpec,
    MulticlassModel,
    decide,
    late_fusion,
    load_model,
    predict,
    predict_table,
    save_model,
    train_multiclass,
    train_spec,
)
from .training import (
    TrainConfig,
    TrainReport,
    fixed_assignment_gradient,
    fixed_assignment_loss,
    init_model,
    objective,
    sgd_step,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "EvalReport",
    "FoldSpec",
    "GridSearchResult",
    "InfeasibleError",
    "KINDS",
    "KIND_ALIASES",
    "LatentAssignment",
    "LoadedModel",
    "LomoError",
    "MAX_EVENTS",
    "Manifest",
    "ManifestEntry",
    "Model",
    "ModelSpec",
    "MulticlassModel",
    "SequenceSample",
    "SynthConfig",
    "TrainConfig",
    "TrainReport",
    "auc",
    "average_class_accuracy",
    "average_precision",
    "cross_validate",
    "decide",
    "effective_t",
    "fixed_assignment_gradient",
    "fixed_assignment_loss",
    "generate_synthetic",
    "grid_search",
    "infer_brute",
    "infer_dp",
    "infer_greedy",
    "init_model",
    "late_fusion",
    "load_dataset",
    "load_manifest",
    "load_model",
    "make_folds",
    "mean_average_precision",
    "objective",
    "perm_rank",
    "pool",
    "predict",
    "predict_table",
    "read_lseq",
    "roc_eer_rate",
    "save_manifest",
    "save_model",
    "score_fixed",
    "sgd_step",
    "solve_set",
    "train",
    "train_multiclass",
    "train_spec",
    "write_lseq",
]
