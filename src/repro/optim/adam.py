"""Adam optimizer (Kingma & Ba, 2014) -- the paper's training algorithm."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer


class Adam(Optimizer):
    """Adam with bias correction.

    Defaults match the paper's setting: ``lr=0.001`` (Section IV-A2).
    ``weight_decay`` implements the Eq. (14) L2 regularizer
    (``lambda_2``, paper default 1e-4).
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
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # Scratch pool for the out= update kernels: buffers are borrowed
        # per parameter update and returned afterwards, so steady-state
        # steps allocate nothing.
        self._scratch: Dict[tuple, List[np.ndarray]] = {}
        self._borrowed: List[tuple] = []

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

    # -- scratch pool --------------------------------------------------
    def _borrow(self, shape, dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype).str)
        pool = self._scratch.get(key)
        buf = pool.pop() if pool else np.empty(shape, dtype=dtype)
        self._borrowed.append((key, buf))
        return buf

    def _release(self) -> None:
        for key, buf in self._borrowed:
            self._scratch.setdefault(key, []).append(buf)
        self._borrowed.clear()

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.params):
            grad = self._grad(p)
            self._dense_update(p.data, self._m[i], self._v[i], grad, bias1, bias2)

    def _dense_update(self, target, m, v, grad, bias1, bias2) -> None:
        """Adam update on ``target`` via pooled out= kernels.

        Ufunc-for-ufunc identical to the textbook expression form
        (``m_hat = m / bias1`` etc.): every line below maps to exactly
        one of the ufunc calls the expressions would issue, just with
        the output landing in a reused scratch buffer, so the result is
        bit-exact while steady-state steps allocate nothing.
        """
        s1 = self._borrow(target.shape, target.dtype)
        s2 = self._borrow(target.shape, target.dtype)
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
        target -= s1
        self._release()
