"""Runtime prediction (Problem 2): dataset building + per-application GCNs.

Reproduces the paper's Section III-B / IV pipeline:

1. **Dataset** — take the benchmark designs (EPFL/OpenCores analogues),
   apply different logic-optimization recipes to each to get structurally
   different netlists computing the same function (the paper: 18 designs,
   330 unique netlists, 2,640 runtime data points), and measure each
   stage's runtime at 1/2/4/8 vCPUs with the flow engines.
2. **Graphs** — the synthesis model consumes the optimized AIG; the
   placement/routing/STA models consume the star-model netlist graph.
3. **Models** — one :class:`~repro.gnn.model.RuntimeGCN` per application,
   trained jointly on the four runtimes (MSE, Adam, lr=1e-4), split 80/20
   *by design* so test designs are unseen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..eda.flow import FlowRunner
from ..eda.job import EDAStage
from ..eda.synthesis import restructure
from ..gnn import (
    RuntimeGCN,
    RuntimeSample,
    TrainConfig,
    evaluate,
    split_by_design,
    train,
)
from ..gnn.training import EvalResult, TrainResult
from ..netlist import aig_to_graph, benchmarks, netlist_to_star_graph
from ..netlist.stargraph import AIG_FEATURE_DIM, NETLIST_FEATURE_DIM
from ..parallel import PAPER_VCPU_LEVELS

__all__ = [
    "DatasetSpec",
    "build_datasets",
    "StagePredictor",
    "PredictorSuite",
    "train_predictors",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Dataset generation knobs.

    The paper's full dataset is 18 designs x ~18 variants = 330 netlists;
    the default here is a scaled-down grid that keeps CI runs fast.  Use
    ``variants_per_design=18`` (and ``scale=0.6``) for a paper-sized
    dataset of 324 netlists.
    """

    designs: Sequence[str] = tuple(benchmarks.dataset_names())
    variants_per_design: int = 5
    scale: float = 0.45
    seed: int = 0


def build_datasets(
    spec: DatasetSpec = DatasetSpec(),
    runner: Optional[FlowRunner] = None,
    verbose: bool = False,
) -> Dict[EDAStage, List[RuntimeSample]]:
    """Generate (graph, runtimes) samples for every application.

    Runs the full flow once per netlist variant (uninstrumented fast path)
    and harvests all four stages' runtimes from the same run — the paper's
    2,640 data points correspond to ``len(samples) x 4 stages x 4 vCPUs``.
    """
    runner = runner if runner is not None else FlowRunner()
    datasets: Dict[EDAStage, List[RuntimeSample]] = {s: [] for s in EDAStage.ordered()}
    rng = np.random.default_rng(spec.seed)
    started = time.time()
    for design in spec.designs:
        for variant_idx in range(spec.variants_per_design):
            # Each variant is a structurally different netlist computing the
            # same logic function: a size-jittered instance of the design,
            # restructured with a seeded rewriting pass.  The synthesis
            # recipe itself stays fixed, so every runtime is a
            # deterministic function of the variant's graph.
            jitter = float(rng.uniform(0.75, 1.3))
            base = benchmarks.build(design, spec.scale * jitter)
            variant_seed = int(rng.integers(1 << 30))
            variant = restructure(
                base,
                seed=variant_seed,
                rewrite_probability=0.4,
                keep_only_improved=False,
            )
            variant.name = f"{design}_v{variant_idx}"
            flow = runner.run(variant)
            netlist = flow[EDAStage.SYNTHESIS].artifact
            # The synthesis model sees the input AIG; the back-end models
            # see the star-model netlist graph (paper Section III-B).
            aig_graph = aig_to_graph(variant)
            net_graph = netlist_to_star_graph(netlist)
            for stage in EDAStage.ordered():
                result = flow[stage]
                runtimes = np.array([result.runtime(v) for v in PAPER_VCPU_LEVELS])
                graph = aig_graph if stage == EDAStage.SYNTHESIS else net_graph
                datasets[stage].append(
                    RuntimeSample(
                        graph=graph,
                        runtimes=runtimes,
                        design=design,
                        variant=variant_idx,
                    )
                )
        if verbose:
            print(
                f"[dataset] {design}: {spec.variants_per_design} variants "
                f"({time.time() - started:.0f}s elapsed)"
            )
    return datasets


@dataclass
class StagePredictor:
    """A trained model for one application plus its evaluation."""

    stage: EDAStage
    model: RuntimeGCN
    target_offset: np.ndarray
    target_std: np.ndarray
    train_result: TrainResult
    train_eval: EvalResult
    test_eval: EvalResult

    def predict(self, graph) -> Dict[int, float]:
        """Predict runtimes (seconds) at each vCPU level for a new design."""
        from ..gnn.graph import PreparedGraph

        prepared = graph if isinstance(graph, PreparedGraph) else PreparedGraph(graph)
        log_pred = self.model.forward(prepared) * self.target_std + self.target_offset
        runtimes = np.exp(log_pred)
        return dict(zip(PAPER_VCPU_LEVELS, runtimes.tolist()))

    @property
    def accuracy(self) -> float:
        """Test accuracy, ``100 - mean %% error`` (paper headline: 87%)."""
        return self.test_eval.accuracy


@dataclass
class PredictorSuite:
    """One predictor per application (the paper trains each separately)."""

    predictors: Dict[EDAStage, StagePredictor] = field(default_factory=dict)

    def __getitem__(self, stage: EDAStage) -> StagePredictor:
        return self.predictors[stage]

    def predict_stage_runtimes(
        self, aig_graph, netlist_graph
    ) -> Dict[EDAStage, Dict[int, float]]:
        """Predict all four stages' runtimes for a new design."""
        out: Dict[EDAStage, Dict[int, float]] = {}
        for stage, predictor in self.predictors.items():
            graph = aig_graph if stage == EDAStage.SYNTHESIS else netlist_graph
            out[stage] = predictor.predict(graph)
        return out

    def mean_error(self, stages: Optional[Sequence[EDAStage]] = None) -> float:
        """Average test error over a set of stages."""
        stages = list(stages) if stages is not None else list(self.predictors)
        errs = [self.predictors[s].test_eval.mean_error for s in stages]
        return float(np.mean(errs))


def train_predictors(
    datasets: Mapping[EDAStage, Sequence[RuntimeSample]],
    epochs: int = 200,
    lr: float = 1e-4,
    test_fraction: float = 0.2,
    seed: int = 0,
    hidden1: int = 256,
    hidden2: int = 128,
    fc_units: int = 128,
    pool: str = "mean",
    verbose: bool = False,
) -> PredictorSuite:
    """Train one GCN per application and evaluate on held-out designs."""
    suite = PredictorSuite()
    for stage, samples in datasets.items():
        train_set, test_set = split_by_design(
            list(samples), test_fraction=test_fraction, seed=seed
        )
        feature_dim = (
            AIG_FEATURE_DIM if stage == EDAStage.SYNTHESIS else NETLIST_FEATURE_DIM
        )
        model = RuntimeGCN(
            feature_dim=feature_dim,
            hidden1=hidden1,
            hidden2=hidden2,
            fc_units=fc_units,
            pool=pool,
            seed=seed,
        )
        config = TrainConfig(epochs=epochs, lr=lr, shuffle_seed=seed)
        train_result = train(model, train_set, config)
        train_eval = evaluate(
            model, train_set, train_result.target_offset, train_result.target_std
        )
        test_eval = evaluate(
            model, test_set, train_result.target_offset, train_result.target_std
        )
        suite.predictors[stage] = StagePredictor(
            stage=stage,
            model=model,
            target_offset=train_result.target_offset,
            target_std=train_result.target_std,
            train_result=train_result,
            train_eval=train_eval,
            test_eval=test_eval,
        )
        if verbose:
            print(
                f"[train] {stage.value}: final loss {train_result.final_loss:.4f}, "
                f"test error {100 * test_eval.mean_error:.1f}%"
            )
    return suite
