"""The paper's three contributions, as a pipeline.

* :mod:`repro.core.characterize` — Problem 1: per-application VM
  characterization (Figure 2) and data-driven provisioning rules.
* :mod:`repro.core.predict` — Problem 2: dataset generation and the
  per-application GCN runtime predictors (Figures 4-5).
* :mod:`repro.core.optimize` — Problem 3: deadline-constrained deployment
  cost optimization via multi-choice knapsack DP (Table I, Figure 6).
* :mod:`repro.core.workflow` — the end-to-end Figure 1 workflow.
* :mod:`repro.core.report` — text renderers matching the paper's outputs.
"""

from .characterize import (
    CharacterizationReport,
    StageCharacterization,
    characterize,
    recommend_family,
)
from .optimize import (
    ConfigOption,
    Selection,
    StageOptions,
    build_stage_options,
    cost_saving_percent,
    over_provisioning,
    solve_brute_force,
    solve_greedy,
    solve_mckp_dp,
    solve_min_cost_dp,
    under_provisioning,
)
from .predict import (
    DatasetSpec,
    PredictorSuite,
    StagePredictor,
    build_datasets,
    train_predictors,
)
from .workflow import CloudDeploymentWorkflow, WorkflowOutcome
from . import experiments, persistence, report

__all__ = [
    "CharacterizationReport",
    "StageCharacterization",
    "characterize",
    "recommend_family",
    "ConfigOption",
    "Selection",
    "StageOptions",
    "build_stage_options",
    "cost_saving_percent",
    "over_provisioning",
    "solve_brute_force",
    "solve_greedy",
    "solve_mckp_dp",
    "solve_min_cost_dp",
    "under_provisioning",
    "DatasetSpec",
    "PredictorSuite",
    "StagePredictor",
    "build_datasets",
    "train_predictors",
    "CloudDeploymentWorkflow",
    "WorkflowOutcome",
    "experiments",
    "persistence",
    "report",
]
