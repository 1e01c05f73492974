"""Shared model interface and configuration.

Every model (baseline or DCMT) is a :class:`MultiTaskModel`:

* ``loss(batch)`` returns the scalar training loss (a graph tensor);
* ``predict(batch)`` returns numpy CTR/CVR/CTCVR predictions with the
  graph disabled.

The CVR prediction is always the *post-click* conversion probability
``p(r=1 | do(o=1), x)`` -- the paper's main task.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.autograd.plan import ForwardRunner, output_arrays
from repro.autograd.tensor import Tensor, no_grad
from repro.data.dataset import Batch
from repro.nn.embedding import check_indices
from repro.nn.module import Module


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters shared by all architectures.

    Defaults are scaled-down versions of the paper's settings
    (embedding 32 and towers [64-64-32]/[320-200-80] in the paper;
    Section IV-A2).  Experiment presets override per dataset.
    """

    embedding_dim: int = 12
    hidden_sizes: Tuple[int, ...] = (48, 32)
    activation: str = "relu"
    dropout: float = 0.0
    cvr_weight: float = 1.0
    ctcvr_weight: float = 1.0
    #: Propensities are clipped to this range inside importance weights
    #: (the paper clips to (0,1); a positive floor bounds the variance).
    #: 0.05 is the tuned default for the reduced-scale scenarios.
    propensity_floor: float = 0.05
    seed: int = 0

    def with_overrides(self, **kwargs) -> "ModelConfig":
        return replace(self, **kwargs)


@dataclass
class Predictions:
    """Inference outputs for one batch (plain numpy arrays)."""

    ctr: np.ndarray
    cvr: np.ndarray
    ctcvr: np.ndarray
    #: Counterfactual CVR (DCMT only; None elsewhere).
    cvr_counterfactual: Optional[np.ndarray] = None


class MultiTaskModel(Module):
    """Base class: CTR + CVR (+ CTCVR) estimation over exposures."""

    #: Human-readable name used in experiment tables.
    model_name: str = "base"

    def __init__(self, config: ModelConfig) -> None:
        super().__init__()
        self.config = config
        self._forward = ForwardRunner(check_indices)

    # ------------------------------------------------------------------
    def forward_tensors(self, batch: Batch) -> Dict[str, Tensor]:
        """Graph-mode forward pass; must include 'ctr' and 'cvr' keys."""
        raise NotImplementedError

    def loss(self, batch: Batch) -> Tensor:
        """Scalar training loss for one batch."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def predict(self, batch: Batch) -> Predictions:
        """Inference without graph construction.

        Outside a fit a model is in eval mode: its forward pass is then
        replayed as a compiled forward-only program once a batch
        signature repeats (:class:`~repro.autograd.plan.ForwardRunner`),
        bit-identical to the eager pass.  A training-mode model is
        scored eagerly in eval mode and handed back in training mode.
        """
        if self.training:
            self.eval()
            try:
                with no_grad():
                    outputs = output_arrays(self.forward_tensors(batch))
            finally:
                self.train()
        else:
            outputs = self._forward.run(self, batch)
        ctr = outputs["ctr"]
        cvr = outputs["cvr"]
        ctcvr = outputs.get("ctcvr")
        cf = outputs.get("cvr_counterfactual")
        return Predictions(
            ctr=np.asarray(ctr),
            cvr=np.asarray(cvr),
            ctcvr=np.asarray(ctcvr if ctcvr is not None else ctr * cvr),
            cvr_counterfactual=None if cf is None else np.asarray(cf),
        )

    # ------------------------------------------------------------------
    def masked_click_space_bce(
        self, cvr: Tensor, batch: Batch
    ) -> Tensor:
        """Naive CVR loss: log-loss on clicked samples only (Eq. (2)).

        When the batch carries per-row ``weights`` (delayed-feedback
        importance correction), the click-space mean becomes a weighted
        mean: ``sum(w o e) / sum(w o)``.  ``weights=None`` is bit-exact
        with the historical unweighted path.
        """
        from repro.autograd import functional

        clicks = batch.clicks.astype(float)
        if batch.weights is not None:
            clicks = clicks * np.asarray(batch.weights, dtype=float)
        n_clicked = max(clicks.sum(), 1.0)
        per_sample = functional.binary_cross_entropy(
            cvr, batch.conversions, reduction="none"
        )
        return functional.weighted_mean(per_sample, clicks, denominator=n_clicked)
