"""``Module`` and ``Parameter``: the composition substrate for models.

``Module`` discovers child modules and parameters by inspecting instance
attributes (including inside lists/tuples/dicts), mirroring the familiar
PyTorch convention without any metaclass magic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is always trainable (``requires_grad=True``)."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True, name=name)


class Module:
    """Base class for layers and models.

    Subclasses implement :meth:`forward`; parameters and sub-modules
    assigned as attributes (or stored in list/tuple/dict attributes) are
    discovered automatically by :meth:`parameters`.
    """

    def __init__(self) -> None:
        self.training: bool = True

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, value in sorted(vars(self).items()):
            if name == "training":
                continue
            yield from _walk(value, f"{prefix}{name}")

    def parameters(self) -> List[Parameter]:
        """All trainable parameters, depth-first, deduplicated."""
        seen = set()
        result = []
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                result.append(param)
        return result

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for value in vars(self).values():
            yield from _walk_modules(value)

    def num_parameters(self) -> int:
        """Total number of scalar trainable weights."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Switch this module and all descendants to training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Switch this module and all descendants to evaluation mode."""
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter arrays keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, "
                    f"got {value.shape}"
                )
            param.data[...] = value


def _walk(value, name: str) -> Iterator[Tuple[str, Parameter]]:
    if isinstance(value, Parameter):
        yield name, value
    elif isinstance(value, Module):
        yield from value.named_parameters(prefix=f"{name}.")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk(item, f"{name}.{i}")
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _walk(value[key], f"{name}.{key}")


def _walk_modules(value) -> Iterator[Module]:
    if isinstance(value, Module):
        yield from value.modules()
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _walk_modules(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _walk_modules(item)
