"""The parameter plane: every parameter, and every gradient, in one buffer.

Adam with the Eq. (14) ``lambda_2`` term updates every element of every
parameter on every step with elementwise ufuncs, so running them once
over one contiguous buffer gives the same bits as running them per
parameter.  :class:`ParamPlane` lays the parameters out in one float64
buffer, each at a 64-byte boundary with zero padding between, and keeps
a gradient buffer of the same layout.  ``param.data`` is rebound to a
view of the first; compiled plans store parameter gradients straight
into views of the second.  The parameter buffer is an anonymous shared
``mmap``, so processes forked from the owner read the live parameters.
"""

from __future__ import annotations

import mmap
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Floats per alignment unit: every view starts on a 64-byte boundary.
_ALIGN = 8


def shared_zeros(size: int) -> np.ndarray:
    """A zeroed float64 array on an anonymous shared mapping.

    Processes forked after the call map the same pages, with no name,
    ``/dev/shm`` entry or resource tracker.
    """
    return np.frombuffer(mmap.mmap(-1, max(size, 1) * 8), np.float64, size)


class ParamPlane:
    """Flat parameter and gradient buffers, with per-parameter views."""

    def __init__(self, params: Sequence) -> None:
        self.params = list(params)
        self.shapes = [param.data.shape for param in self.params]
        self.slices: List[slice] = []
        end = 0
        for param in self.params:
            self.slices.append(slice(end, end + param.data.size))
            end += -(-param.data.size // _ALIGN) * _ALIGN
        #: Floats in each flat buffer, padding included.
        self.size = end
        self.data = shared_zeros(end)
        self.grad = np.zeros(end)
        self.data_views = self.views(self.data)
        self.grad_views = self.views(self.grad)
        for param, view in zip(self.params, self.data_views):
            np.copyto(view, param.data)
            param.data = view

    def views(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-parameter views of any flat buffer of :attr:`size` floats."""
        return [flat[s].reshape(shape) for s, shape in zip(self.slices, self.shapes)]

    def grad_buffers(self, views: Optional[Sequence[np.ndarray]] = None) -> Dict:
        """``{id(param): view}``, where a plan stores each gradient."""
        views = self.grad_views if views is None else views
        return {id(param): view for param, view in zip(self.params, views)}

    def adopt(self) -> None:
        """Copy each rebound ``param.data`` in and point it back at its view.

        The view is the same object as before, so a compiled plan keeps
        replaying.  A changed shape cannot be adopted: ``ValueError``.
        """
        for param, view in zip(self.params, self.data_views):
            if param.data is view:
                continue
            if param.data.shape != view.shape:
                raise ValueError(
                    f"parameter {param.name or '?'} changed shape from "
                    f"{view.shape} to {param.data.shape}"
                )
            np.copyto(view, param.data)
            param.data = view

    def gather(self, views: Optional[Sequence[np.ndarray]] = None) -> List[int]:
        """Point every ``param.grad`` at its view in ``views`` (default:
        :attr:`grad_views`), copying in any an eager step allocated.

        Returns the indices of parameters whose ``grad`` is ``None``;
        their views hold stale bytes.
        """
        views = self.grad_views if views is None else views
        missing = []
        for i, (param, view) in enumerate(zip(self.params, views)):
            if param.grad is None:
                missing.append(i)
            elif param.grad is not view:
                np.copyto(view, param.grad)
                param.grad = view
        return missing
