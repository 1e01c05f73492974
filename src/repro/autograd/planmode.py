"""Mode flags shared between the autograd primitives and the plan compiler.

The plan machinery (:mod:`repro.autograd.plan`) needs two hooks inside
every primitive op:

* **trace** -- while a :class:`~repro.autograd.plan.PlanTracer` is
  installed, each op records itself (name, operands, attrs, output)
  after running its normal eager computation;
* **replay** -- while a :class:`~repro.autograd.plan.PlanExecutor` is
  installed, each op short-circuits its eager body and asks the
  executor to run the pre-compiled kernel for the next node of the
  plan instead.

Keeping the two module-globals here (rather than in ``plan.py``) breaks
the import cycle: ``tensor.py`` and ``ops.py`` import this leaf module,
while ``plan.py`` imports ``tensor.py``.  The cost on the eager path is
one ``None`` check per op call.
"""

from __future__ import annotations

from typing import Optional

#: The active :class:`repro.autograd.plan.PlanTracer`, or ``None``.
_TRACER = None
#: The active :class:`repro.autograd.plan.PlanExecutor`, or ``None``.
_REPLAY = None


def tracer():
    """The currently recording tracer, or ``None``."""
    return _TRACER


def set_tracer(t) -> Optional[object]:
    """Install ``t`` as the active tracer; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = t
    return previous


def set_replayer(r) -> Optional[object]:
    """Install ``r`` as the active executor; returns the previous one."""
    global _REPLAY
    previous = _REPLAY
    _REPLAY = r
    return previous
