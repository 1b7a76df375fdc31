"""Numpy GCN: the paper's runtime-prediction model with manual backprop.

* :mod:`repro.gnn.graph` — normalized-adjacency preprocessing.
* :mod:`repro.gnn.layers` — GCN/dense layers with exact gradients.
* :mod:`repro.gnn.model` — the 2xGCN + FC architecture of Figure 4.
* :mod:`repro.gnn.optim` — Adam / SGD.
* :mod:`repro.gnn.dataset` — runtime samples and design-level splits.
* :mod:`repro.gnn.training` — MSE training loop and accuracy metrics.
"""

from .dataset import RuntimeSample, log_targets, split_by_design, unlog_targets
from .graph import PreparedGraph, normalized_adjacency, prepare
from .layers import DenseLayer, GCNLayer, Parameter, Readout
from .model import RuntimeGCN
from .optim import Adam, SGD
from .training import EvalResult, TrainConfig, TrainResult, evaluate, train

__all__ = [
    "RuntimeSample",
    "log_targets",
    "split_by_design",
    "unlog_targets",
    "PreparedGraph",
    "normalized_adjacency",
    "prepare",
    "DenseLayer",
    "GCNLayer",
    "Parameter",
    "Readout",
    "RuntimeGCN",
    "Adam",
    "SGD",
    "EvalResult",
    "TrainConfig",
    "TrainResult",
    "evaluate",
    "train",
]
