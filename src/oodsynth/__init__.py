"""Virtual-outlier synthesis on the unit hypersphere via Hamiltonian Monte Carlo.

The package synthesizes out-of-distribution embeddings between
in-distribution clusters by running Markov chains against a kNN-based
OOD-ness potential, applies a vMF-KDE hard margin to reject samples that
look in-distribution, and evaluates the result with standard detection
metrics. Everything runs at desk scale on plain numpy arrays.
"""

from .bench import (
    BenchConfig,
    OodTestSpec,
    ablation_sweep,
    diversity_stds,
    generate_synthetic_id,
    run_experiment,
    sample_vmf,
    uniform_sphere,
)
from .energy import EnergyContext, passes_margin
from .metrics import (
    QualityAngles,
    ScoreReport,
    aupr,
    auroc,
    calibrate_threshold,
    fpr_at_tpr95,
    hypersphere_quality,
    knn_scores,
    score_report,
)
from .objectives import (
    cider_losses,
    combined_objective,
    ood_discernment_loss,
    temperature_from_kappa,
)
from .samplers import ChainState, HmcConfig, SamplerVariant
from .sphere import geodesic_step, normalize, project_tangent
from .store import IdSnapshot, IdStore
from .synthesis import (
    OutlierBatch,
    gaussian_baseline_batch,
    round_wise_scores,
    synthesize_batch,
)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "ChainState",
    "EnergyContext",
    "HmcConfig",
    "IdSnapshot",
    "IdStore",
    "OodTestSpec",
    "OutlierBatch",
    "QualityAngles",
    "SamplerVariant",
    "ScoreReport",
    "ablation_sweep",
    "aupr",
    "auroc",
    "calibrate_threshold",
    "cider_losses",
    "combined_objective",
    "diversity_stds",
    "fpr_at_tpr95",
    "gaussian_baseline_batch",
    "generate_synthetic_id",
    "geodesic_step",
    "hypersphere_quality",
    "knn_scores",
    "normalize",
    "ood_discernment_loss",
    "passes_margin",
    "project_tangent",
    "round_wise_scores",
    "run_experiment",
    "sample_vmf",
    "score_report",
    "synthesize_batch",
    "temperature_from_kappa",
    "uniform_sphere",
]
