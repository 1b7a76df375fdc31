"""The end-to-end workflow of Figure 1.

Chains the three contributions: characterize the applications once to get
per-stage VM-family recommendations, train runtime predictors, then for
any new design predict per-stage runtimes and pick the cost-minimal VM
configuration per stage under a deadline via the MCKP solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..cloud.instance import InstanceFamily
from ..cloud.pricing import PricingTable, aws_like_catalog
from ..cloud.provisioner import RECOMMENDED_FAMILY, DeploymentPlan
from ..eda.flow import FlowRunner
from ..eda.job import EDAStage
from ..netlist import aig_to_graph, netlist_to_star_graph
from ..netlist.aig import AIG
from .optimize import (
    Selection,
    StageOptions,
    build_stage_options,
    solve_mckp_dp,
)
from .predict import DatasetSpec, PredictorSuite, build_datasets, train_predictors

__all__ = ["CloudDeploymentWorkflow", "WorkflowOutcome"]


@dataclass
class WorkflowOutcome:
    """The workflow's answer for one design and deadline."""

    design: str
    deadline_seconds: float
    predicted_runtimes: Dict[EDAStage, Dict[int, float]]
    selection: Optional[Selection]
    stage_options: Optional[List[StageOptions]] = None

    @property
    def feasible(self) -> bool:
        return self.selection is not None

    def plan(self) -> DeploymentPlan:
        if self.selection is None:
            raise ValueError(
                f"deadline {self.deadline_seconds}s is not achievable (NA)"
            )
        return self.selection.to_plan(self.design)

    def execute(
        self,
        seed: int = 0,
        profile=None,
        policy=None,
        record_events: bool = True,
    ):
        """Run the optimized plan on the fault-injecting executor.

        The outcome's own option menus power mid-flight re-planning, so a
        degraded run re-optimizes its remaining stages under the residual
        deadline.  Returns an
        :class:`~repro.cloud.executor.ExecutionResult`.
        """
        from ..cloud.executor import PlanExecutor

        return PlanExecutor(profile=profile, policy=policy).execute(
            self.plan(),
            deadline_seconds=self.deadline_seconds,
            seed=seed,
            stage_options=self.stage_options,
            record_events=record_events,
        )


class CloudDeploymentWorkflow:
    """Predict -> optimize (Figure 1), on the characterization's families.

    ``families`` starts as the per-stage recommendation of Problem 1
    (:data:`~repro.cloud.provisioner.RECOMMENDED_FAMILY`;
    :func:`~repro.core.characterize.characterize` re-derives it).

    Parameters
    ----------
    catalog:
        Cloud pricing table.
    runner:
        Flow runner used for characterization and dataset generation.
    """

    def __init__(
        self,
        catalog: Optional[PricingTable] = None,
        runner: Optional[FlowRunner] = None,
    ):
        self.catalog = catalog if catalog is not None else aws_like_catalog()
        self.runner = runner if runner is not None else FlowRunner()
        self.families: Mapping[EDAStage, InstanceFamily] = RECOMMENDED_FAMILY
        self.predictors: Optional[PredictorSuite] = None

    # -- step 2 ----------------------------------------------------------
    def train_runtime_models(
        self,
        spec: DatasetSpec = DatasetSpec(),
        epochs: int = 60,
        verbose: bool = False,
    ) -> PredictorSuite:
        """Problem 2: build the dataset and train per-application GCNs."""
        datasets = build_datasets(spec, runner=self.runner, verbose=verbose)
        self.predictors = train_predictors(datasets, epochs=epochs, verbose=verbose)
        return self.predictors

    # -- step 3 ----------------------------------------------------------
    def predict_runtimes(self, aig: AIG) -> Dict[EDAStage, Dict[int, float]]:
        """Predict per-stage runtimes for a new design from its graphs."""
        if self.predictors is None:
            raise ValueError("call train_runtime_models() first")
        # The back-end models need the mapped netlist's star graph; run
        # synthesis once to obtain it (in production this is the handoff
        # point between front-end and back-end teams).
        synth = self.runner.synthesis.run(aig)
        return self.predictors.predict_stage_runtimes(
            aig_to_graph(aig), netlist_to_star_graph(synth.artifact)
        )

    def optimize_deployment(
        self,
        stage_runtimes: Mapping[EDAStage, Mapping[int, float]],
        deadline_seconds: float,
        design: str = "design",
    ) -> WorkflowOutcome:
        """Problem 3: pick the per-stage VM sizes under the deadline."""
        stages = build_stage_options(
            stage_runtimes, catalog=self.catalog, families=self.families
        )
        selection = solve_mckp_dp(stages, deadline_seconds)
        return WorkflowOutcome(
            design=design,
            deadline_seconds=deadline_seconds,
            predicted_runtimes={k: dict(v) for k, v in stage_runtimes.items()},
            selection=selection,
            stage_options=stages,
        )
