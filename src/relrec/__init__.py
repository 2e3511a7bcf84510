"""Interpretable relation prediction from corpus co-occurrence statistics.

The pipeline has three stages sharing one set of embeddings: recalling
each entity's associations from co-occurrence statistics, recognizing
plausible relational interactions between recalled associations, and
aggregating those interactions with attention into a relation prediction
whose top-scored interactions double as rationales.
"""

from .evaluation import (
    SyntheticWorld,
    f1_score,
    generate_synthetic,
    load_pairs_tsv,
    sample_negative_pairs,
    save_pairs_tsv,
    split_dataset,
    write_synthetic_dataset,
)
from .graph import (
    CoocGraph,
    DataError,
    GraphFormatError,
    PpmiMatrix,
    UnknownTermError,
    Vocab,
    compute_ppmi,
    dump_cooc_graph,
    load_cooc_graph,
)
from .params import (
    AdamState,
    Checkpoint,
    CheckpointError,
    CheckpointVersionError,
    ModelDims,
    ModelParams,
    adam_step,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .rationale import (
    AssumptionRecord,
    RationaleEntry,
    RationaleReport,
    assumption_vector,
    attention_weights,
    cwa_rationales,
    extract_rationales,
    pair_representation,
    predict_relation,
    prediction_backward,
    prediction_forward,
    rationalize_pair,
)
from .recall import (
    AssociationList,
    association_probability,
    recall_loss,
    top_associations,
)
from .relational import (
    LabeledPair,
    RelationPosterior,
    RelationSchema,
    TripleSet,
    corrupt_triples,
    load_triples_tsv,
    posterior_from_scores,
    relation_posterior,
    relational_loss,
    triple_score,
)
from .training import (
    EpochLog,
    GradCheckResult,
    TrainConfig,
    TrainResult,
    TrainingDivergedError,
    bce_loss,
    finite_difference_grads,
    grad_check,
    grad_errors,
    joint_train,
    prediction_loss,
    predict_probabilities,
    write_training_log,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
