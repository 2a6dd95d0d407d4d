"""HighRPM — the paper's contribution.

Three models and a facade:

* :class:`StaticTRR` — offline temporal-resolution restoration: natural
  cubic spline over the sparse IM readings (long-term trend) + a
  decision-tree residual model over PMCs (short-term fluctuations) + the
  Algorithm-1 post-processing fusion;
* :class:`DynamicTRR` — online restoration: a compact two-layer LSTM over
  sliding windows of ``(PMCs, P'_node)``, fine-tuned whenever a real IM
  reading arrives;
* :class:`SRR` — spatial-resolution restoration: a shallow MLP distributing
  node power to ``(P_CPU, P_MEM)`` using PMCs *and* the node reading — the
  bi-directional workflow of Fig. 5(c);
* :class:`HighRPM` — the full framework with its initial-learning and
  active-learning stages (Fig. 3).
"""

from .config import HighRPMConfig
from .dataset import FlatDataset, build_flat_dataset, build_windows
from .dynamic_trr import DynamicTRR, OnlineTRRSession
from .highrpm import (
    PROV_MEASURED,
    PROV_MODEL_ONLY,
    PROV_RESTORED,
    HighRPM,
    MonitorResult,
    provenance_from_readings,
    provenance_stack,
)
from .srr import SRR
from .static_trr import StaticTRR, StaticTRRResult, StaticTRRStream
from .uncertainty import DynamicTRREnsemble, UncertainRestoration

__all__ = [
    "HighRPMConfig",
    "FlatDataset",
    "build_flat_dataset",
    "build_windows",
    "StaticTRR",
    "StaticTRRResult",
    "StaticTRRStream",
    "DynamicTRR",
    "OnlineTRRSession",
    "SRR",
    "HighRPM",
    "MonitorResult",
    "PROV_MEASURED",
    "PROV_RESTORED",
    "PROV_MODEL_ONLY",
    "provenance_from_readings",
    "provenance_stack",
    "DynamicTRREnsemble",
    "UncertainRestoration",
]
