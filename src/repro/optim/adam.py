"""Adam optimizer (Kingma & Ba, 2014) -- the paper's training algorithm."""

from __future__ import annotations

from typing import Any, Dict, Iterable

import numpy as np

from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer
from repro.optim.plane import ParamPlane


class Adam(Optimizer):
    """Adam with bias correction, one update over the whole parameter plane.

    Defaults match the paper's setting: ``lr=0.001`` (Section IV-A2).
    ``weight_decay`` implements the Eq. (14) L2 regularizer
    (``lambda_2``, paper default 1e-4).

    Construction lays the parameters out in a :class:`ParamPlane`
    (``param.data`` becomes a view of it); the moments ``_m``/``_v`` are
    per-parameter views of two more buffers in the same layout.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, weight_decay)
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self._step_count = 0
        self.plane = ParamPlane(self.params)
        n = self.plane.size
        self._m_flat, self._v_flat = np.zeros(n), np.zeros(n)
        self._m = self.plane.views(self._m_flat)
        self._v = self.plane.views(self._v_flat)
        # Scratch for the out= kernels, so steps allocate nothing.
        self._s1, self._s2 = np.empty(n), np.empty(n)

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        state.update(
            lr=self.lr,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.eps,
            step_count=self._step_count,
            m=[m.copy() for m in self._m],
            v=[v.copy() for v in self._v],
        )
        return state

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        super().load_state_dict(state)
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self._step_count = int(state["step_count"])
        self._load_moments(state["m"], self._m)
        self._load_moments(state["v"], self._v)

    def step(self) -> None:
        """One Adam update of every parameter, as whole-buffer ufuncs.

        Ufunc-for-ufunc the textbook per-parameter form (``grad + 2
        lambda_2 theta``, then ``m_hat = m / bias1`` etc.), with each
        output landing in a reused buffer.  Every call is elementwise, so
        running it once over the plane is bit-exact with running it per
        parameter; a parameter without a gradient steps on zeros, with
        no decay.
        """
        plane = self.plane
        plane.adopt()
        missing = plane.gather()
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        m, v, s1, s2 = self._m_flat, self._v_flat, self._s1, self._s2
        grad = plane.grad
        if self.weight_decay:
            np.multiply(plane.data, 2.0 * self.weight_decay, out=s2)
            grad = np.add(plane.grad, s2, out=s2)
        for i in missing:
            grad[plane.slices[i]] = 0.0
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(grad, grad, out=s1)  # grad**2 (numpy's own lowering)
        s1 *= 1.0 - self.beta2
        v += s1
        np.divide(m, bias1, out=s1)  # m_hat
        np.divide(v, bias2, out=s2)  # v_hat
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 *= self.lr
        s1 /= s2
        plane.data -= s1
