"""The paper's runtime-prediction model (Figure 4).

Architecture, from Section III-B "Model Design":

* 2 GCN layers with 256 and 128 hidden units,
* 1 fully connected layer with 128 units,
* a linear head producing the four runtimes (1, 2, 4, 8 vCPUs) jointly,
* trained with MSE over all four outputs, Adam, lr = 1e-4, 200 epochs.

One model instance is trained **per application** (synthesis model on
AIGs, placement/routing/STA models on star-model netlist graphs).

Targets are log-runtimes: runtimes span orders of magnitude across the
dataset and the paper's accuracy metric is relative error, for which a
log-domain MSE is the natural surrogate.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..parallel import PAPER_VCPU_LEVELS
from .graph import PreparedGraph
from .layers import DenseLayer, GCNLayer, Parameter, Readout

__all__ = ["RuntimeGCN"]


class RuntimeGCN:
    """GCN + FC runtime predictor.

    Parameters
    ----------
    feature_dim:
        Node feature width (8 for AIG graphs, 12 for netlist graphs).
    hidden1, hidden2, fc_units:
        Layer widths; defaults follow the paper (256, 128, 128).
    pool:
        Readout mode; ``"mean"`` (default) is size-stable, ``"sum"`` is the
        paper's literal example (kept for the ablation).
    seed:
        Initialization seed.
    """

    def __init__(
        self,
        feature_dim: int,
        hidden1: int = 256,
        hidden2: int = 128,
        fc_units: int = 128,
        outputs: int = len(PAPER_VCPU_LEVELS),
        pool: str = "mean",
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        self.gcn1 = GCNLayer(feature_dim, hidden1, rng)
        self.gcn2 = GCNLayer(hidden1, hidden2, rng)
        self.readout = Readout(pool)
        # The pooled embedding is augmented with global graph statistics
        # (log nodes/edges/depth, fanout stats): total work scales with size, and
        # mean-pooling alone discards it.
        self.meta_dim = 5
        self.fc = DenseLayer(hidden2 + self.meta_dim, fc_units, rng)
        self.head = DenseLayer(fc_units, outputs, rng, activation="linear")
        self._cache_nodes = 0

    @property
    def parameters(self) -> List[Parameter]:
        return (
            self.gcn1.parameters
            + self.gcn2.parameters
            + self.fc.parameters
            + self.head.parameters
        )

    def forward(self, graph: PreparedGraph) -> np.ndarray:
        """Predict log-runtimes; returns a vector of ``outputs`` values."""
        h1 = self.gcn1.forward(graph.features, graph.a_hat)
        h2 = self.gcn2.forward(h1, graph.a_hat)
        pooled = self.readout.forward(h2)
        x = np.concatenate([pooled, graph.meta_vector])
        z = self.fc.forward(x)
        return self.head.forward(z)

    def backward(self, grad_out: np.ndarray) -> None:
        """Backpropagate a gradient w.r.t. the model output."""
        dz = self.head.backward(grad_out)
        dx = self.fc.backward(dz)
        dpooled = dx[: -self.meta_dim]  # drop the global-statistics slots
        dh2 = self.readout.backward(dpooled)
        dh1 = self.gcn2.backward(dh2)
        self.gcn1.backward(dh1)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total trainable scalar count."""
        return sum(int(np.prod(p.shape)) for p in self.parameters)

    def state_dict(self) -> List[np.ndarray]:
        """Copy of all parameter arrays (for snapshots in tests)."""
        return [p.value.copy() for p in self.parameters]

    def load_state_dict(self, state: List[np.ndarray]) -> None:
        if len(state) != len(self.parameters):
            raise ValueError("state size mismatch")
        for p, s in zip(self.parameters, state):
            if p.value.shape != s.shape:
                raise ValueError("parameter shape mismatch")
            p.value[:] = s
