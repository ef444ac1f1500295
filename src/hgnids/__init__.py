"""Hypergraph-based traffic analytics and an adaptive tree-ensemble NIDS.

The package turns network flow records into an IP/port hypergraph, derives
s-closeness-centrality feature sets, trains a three-model tree ensemble,
generates black-box adversarial examples against a substitute model, and
evaluates threshold-triggered retraining policies in a deterministic
multi-computer simulation.
"""

__version__ = "0.1.0"

from .flows import (
    ActivityLabel,
    BENIGN_LABEL,
    CleaningReport,
    Dataset,
    FlowRecord,
    LabelKind,
    SCAN_LABEL,
    class_balance,
    ingest_csv,
    remap_ip_pairs,
    synth_traffic,
    write_csv,
)
from .hypergraph import (
    CentralityProfile,
    EdgeRole,
    Hypergraph,
    SComponentMap,
    build_hypergraph,
    centrality_profile,
    edge_profiles,
    feature_skip_interval,
    s_closeness_centrality,
    s_components,
    s_distance,
)
from .features import (
    ATTACK,
    FeatureMode,
    FeatureVector,
    NON_HACKER_WEIGHTS,
    NORMAL,
    encode,
    stratified_split,
)
from .trees import (
    EvalReport,
    Hyperparams,
    ModelKind,
    TreeModel,
    default_hyperparams,
    deserialize_model,
    evaluate,
    fit,
    serialize_model,
)
from .adversarial import (
    AdversarialExample,
    NormalizationParams,
    ZooBudget,
    attack_pipeline,
    fit_substitute,
    generate_examples,
    zoo_attack,
    zoo_attack_batch,
)
from .detector import ScanFlag, detect_window
from .ensemble import (
    EnsembleState,
    UpdateRule,
    build_ensemble,
    classify_batch,
    retrain_request,
)
from .simulate import (
    Scorecard,
    SimConfig,
    desk_case_config,
    make_desk_adversarial,
    make_desk_dataset,
    run_simulation,
    sweep_thresholds,
)
