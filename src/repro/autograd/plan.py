"""Plan compiler: trace the tape once, replay a pre-resolved kernel sequence.

The computation graph of every model in this repo is *static across
steps*: same ops, same shapes, same topology -- only the batch values
change.  Yet the eager engine re-walks ``_topological_order``,
re-creates every backward closure, and re-allocates every activation
and gradient buffer on each of thousands of steps.  This module
compiles that work away:

1. **Trace** (:class:`PlanTracer`) -- the first full-size step runs
   eagerly while every primitive op records ``(op, operands, attrs,
   out)``.  The trace step *is* an eager step, so it costs nothing
   extra and its results are exact.
2. **Compile** (:func:`_compile`) -- the recorded tape is lowered to a
   :class:`CompiledPlan`: per-node forward kernels writing into
   persistent :class:`~repro.autograd.arena.Arena` slots via ``out=``
   ufuncs, plus a flat list of backward closures in the exact
   ``_topological_order`` schedule of the eager engine.  Gradient
   buffers are assigned by lifetime
   (:class:`~repro.autograd.arena.IntervalAllocator`); pass-through
   gradients (reshape / sum-broadcast / concat slices) become static
   numpy *views* instead of copies; and two plan-level rewrite rules
   fuse the hottest backward pairs (affine-backward + relu mask,
   concat-split gather).
3. **Replay** (:class:`PlanExecutor`) -- later steps re-run the
   model's Python ``loss`` (host-side numpy such as DCMT's detached
   propensity weights and ESCM2's SNIPS normalisers must see *current*
   values), but every primitive op short-circuits to the next
   pre-compiled kernel via a cursor.  ``run_backward`` then executes
   the flat closure program: no graph walk, no closure construction,
   no gradient dict, and -- after the first step -- no allocations.

**Bit-exactness contract.**  Every kernel issues the same numpy ufuncs
in the same order as its eager counterpart (``out=`` variants of the
same ufunc are bitwise-identical), the backward schedule is the exact
reverse-topological order of the traced graph, and per-target
accumulation replays the eager first-store / later-add semantics.
``tests/autograd/test_plan_parity.py`` pins every registered model's
training to the last ULP against eager.

**Fallback contract.**  Before each replay the runner checks a
:class:`PlanSignature` -- batch shapes, parameter identity (including
``p.data`` identity, which changes on checkpoint restore) and train
mode.  A ragged final batch runs that one step eagerly; a
parameter-level change invalidates the plan and re-traces on the next
full batch; an op the compiler does not support disables
the plan for the run (permanent eager).  A cursor/shape mismatch
*during* replay raises :class:`PlanMismatch` and falls back for that
step; three consecutive mismatches disable the plan.

**Forward-only replay** (:class:`ForwardRunner`).  ``predict`` on an
eval-mode model compiles one traced ``forward_tensors`` (under
``no_grad``) into a :class:`ForwardProgram`: the same forward kernels
and arena, but no backward, no cursor and no Python model code.  Each
value operand is bound at trace time to the batch field it came from
(sparse ids by name, dense columns by name, shape and dtype), so a
replay refills those and runs the kernels in a flat loop.  The same
:class:`PlanSignature` invalidates it; a program is compiled only when
a batch signature repeats, and a model holds at most one.  An
unlowerable op or an unbound value leaves the model eager, with the
reason recorded.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.autograd import planmode as _planmode
from repro.autograd.arena import Arena, IntervalAllocator
from repro.autograd.tensor import Tensor, _topological_order, no_grad
from repro.utils.logging import get_logger

logger = get_logger("plan")


class PlanError(RuntimeError):
    """Base class for plan compilation/replay errors."""


class PlanUnsupported(PlanError):
    """The traced graph uses an op or pattern the compiler cannot lower."""


class PlanMismatch(PlanError):
    """Replay diverged from the recorded tape (shape/op/identity drift)."""


# ======================================================================
# Trace
# ======================================================================
class _TraceRecord:
    __slots__ = ("op", "out", "operands", "attrs")

    def __init__(self, op: str, out: Tensor, operands: tuple, attrs) -> None:
        self.op = op
        self.out = out
        self.operands = operands
        self.attrs = attrs


class PlanTracer:
    """Records every primitive op of one eager step, in execution order."""

    def __init__(self) -> None:
        self.records: List[_TraceRecord] = []
        self.by_id: Dict[int, int] = {}

    def record(self, op: str, out: Tensor, operands: tuple, attrs=None) -> None:
        self.by_id[id(out)] = len(self.records)
        self.records.append(_TraceRecord(op, out, operands, attrs))


# ======================================================================
# Operand classification
# ======================================================================
_NODE, _PARAM, _VALUE, _NONE = 0, 1, 2, 3


class _Operand:
    __slots__ = ("kind", "node", "param", "shape", "dtype", "grad")

    def __init__(self, kind, node=-1, param=None, shape=None, dtype=None, grad=False):
        self.kind = kind
        self.node = node
        self.param = param
        self.shape = shape
        self.dtype = dtype
        self.grad = grad


# ======================================================================
# Compiled node
# ======================================================================
class _PlanNode:
    __slots__ = (
        "index",
        "op",
        "attrs",
        "operands",
        "out_shape",
        "out_dtype",
        "requires_grad",
        "fwd",
        "fwd_out",
        "checks",
        "post_logits",
        "pos",
        "fused_into",
        "fused_relu",
    )

    def __init__(self, index: int, op: str, attrs, operands, out: Tensor) -> None:
        self.index = index
        self.op = op
        self.attrs = attrs
        self.operands = operands
        self.out_shape = out.data.shape
        self.out_dtype = out.data.dtype
        self.requires_grad = out.requires_grad
        self.fwd: Optional[Callable] = None
        self.fwd_out: Optional[np.ndarray] = None
        self.checks: tuple = ()
        self.post_logits = op == "sigmoid"
        self.pos = -1  # backward schedule position (-1: not in backward)
        self.fused_into: Optional[int] = None  # relu folded into this affine
        self.fused_relu: Optional[int] = None  # affine side of the pair


# ======================================================================
# Signature / fallback
# ======================================================================
def _batch_key(batch) -> tuple:
    return (
        tuple([(k, v.shape, v.dtype) for k, v in sorted(batch.sparse.items())]),
        tuple([(k, v.shape, v.dtype) for k, v in sorted(batch.dense.items())]),
        batch.clicks.shape,
        batch.conversions.shape,
        None if batch.actions is None else batch.actions.shape,
    )


class PlanSignature:
    """What must hold for a compiled plan to be replayed on a batch.

    ``matches`` returns ``"ok"``, ``"batch"`` (this batch only -- e.g. a
    ragged final batch; run it eagerly, keep the plan) or ``"params"``
    (the model itself changed -- vocab growth, checkpoint restore,
    train/eval flip; invalidate and re-trace).
    """

    def __init__(self, batch, model) -> None:
        self.batch_sig = _batch_key(batch)
        self.params = list(model.parameters())
        self.datas = [p.data for p in self.params]
        self.training = bool(getattr(model, "training", True))

    def matches(self, batch, model) -> str:
        if bool(getattr(model, "training", True)) != self.training:
            return "params"
        # Identity of the recorded parameters' arrays is the real
        # requirement: replay re-reads values from these arrays, so
        # in-place mutation (optimizer steps, checkpoint restores that
        # copy into place) is fine, while reallocation (vocab growth,
        # restores that rebind ``.data``) invalidates the plan.  A
        # *structurally* new parameter that starts participating in the
        # loss is caught downstream by the executor's per-op operand
        # identity checks (``PlanMismatch`` -> eager fallback), so no
        # per-step module-tree walk is needed here.
        for p, data in zip(self.params, self.datas):
            if p.data is not data:
                return "params"
        if self.batch_sig != _batch_key(batch):
            return "batch"
        return "ok"


# ======================================================================
# Forward kernels
# ======================================================================
# Each builder returns ``fwd(args) -> ndarray`` where ``args`` is the
# tuple of unwrapped operand arrays for the current step.  Kernels that
# allocate in eager mode instead write into a persistent arena slot via
# the *same* ufunc with ``out=`` (bitwise-identical results); shape ops
# return views.  ``borrow`` hands out compile-time-assigned scratch
# shared across kernels (two kernels never run concurrently).


def _fwd_builder(node: _PlanNode, arena: Arena, borrow) -> Callable:
    op = node.op
    shape, dtype = node.out_shape, node.out_dtype

    def out_slot():
        return arena.slot(("fwd", node.index), shape, dtype)

    if op == "add":
        buf = out_slot()
        return lambda a, buf=buf: np.add(a[0], a[1], out=buf)
    if op == "neg":
        buf = out_slot()
        return lambda a, buf=buf: np.negative(a[0], out=buf)
    if op == "mul":
        buf = out_slot()
        return lambda a, buf=buf: np.multiply(a[0], a[1], out=buf)
    if op == "div":
        buf = out_slot()
        return lambda a, buf=buf: np.divide(a[0], a[1], out=buf)
    if op == "pow":
        buf = out_slot()
        n = node.attrs[0]
        return lambda a, buf=buf, n=n: _pow_into(a[0], n, buf)
    if op == "matmul":
        buf = out_slot()
        return lambda a, buf=buf: np.matmul(a[0], a[1], out=buf)
    if op == "affine":
        buf = out_slot()
        has_bias = node.operands[2].kind != _NONE

        def fwd(a, buf=buf, has_bias=has_bias):
            np.matmul(a[0], a[1], out=buf)
            if has_bias:
                buf += a[2]
            return buf

        return fwd
    if op in ("reshape", "squeeze"):
        tshape = shape
        return lambda a, s=tshape: a[0].reshape(s)
    if op == "transpose":
        axes = node.attrs[0]
        return lambda a, ax=axes: a[0].transpose(ax)
    if op == "sum":
        buf = out_slot()
        axis, keepdims = node.attrs
        return lambda a, buf=buf, ax=axis, kd=keepdims: np.sum(
            a[0], axis=ax, keepdims=kd, out=buf
        )
    if op == "exp":
        buf = out_slot()
        return lambda a, buf=buf: np.exp(a[0], out=buf)
    if op == "log":
        buf = out_slot()
        return lambda a, buf=buf: np.log(a[0], out=buf)
    if op == "tanh":
        buf = out_slot()
        return lambda a, buf=buf: np.tanh(a[0], out=buf)
    if op == "relu":
        buf = out_slot()
        return lambda a, buf=buf: np.maximum(a[0], 0.0, out=buf)
    if op == "leaky_relu":
        buf = out_slot()
        slope = node.attrs[0]
        m = borrow(shape, np.bool_)

        def fwd(a, buf=buf, s=slope, m=m):
            # np.where(x > 0, x, s * x) via two masked copies.
            np.multiply(a[0], s, out=buf)
            np.greater(a[0], 0, out=m)
            np.copyto(buf, a[0], where=m)
            return buf

        return fwd
    if op == "absolute":
        buf = out_slot()
        return lambda a, buf=buf: np.abs(a[0], out=buf)
    if op == "clip":
        buf = out_slot()
        lo, hi = node.attrs
        return lambda a, buf=buf, lo=lo, hi=hi: np.clip(a[0], lo, hi, out=buf)
    if op == "maximum":
        buf = out_slot()
        return lambda a, buf=buf: np.maximum(a[0], a[1], out=buf)
    if op == "sigmoid":
        buf = out_slot()
        s = borrow(shape, dtype)
        m = borrow(shape, np.bool_)

        def fwd(a, buf=buf, s=s, m=m):
            x = a[0]
            np.absolute(x, out=s)
            np.negative(s, out=s)
            np.exp(s, out=s)  # e = exp(-|x|)
            np.add(s, 1.0, out=s)
            np.divide(1.0, s, out=s)  # t = 1 / (1 + e)
            np.subtract(1.0, s, out=buf)  # 1 - t
            np.greater_equal(x, 0, out=m)
            np.copyto(buf, s, where=m)  # where(x >= 0, t, 1 - t)
            return buf

        return fwd
    if op == "sigmoid_bce":
        buf = out_slot()
        s = borrow(shape, dtype)

        def fwd(a, buf=buf, s=s):
            z, y = a[0], a[1]
            np.maximum(z, 0.0, out=buf)
            np.multiply(z, y, out=s)
            buf -= s  # max(z, 0) - z*y
            np.absolute(z, out=s)
            np.negative(s, out=s)
            np.exp(s, out=s)
            np.log1p(s, out=s)
            buf += s  # ... + log1p(exp(-|z|))
            return buf

        return fwd
    if op == "concat":
        buf = out_slot()
        axis = node.attrs[0]
        views = []
        offset = 0
        for spec in node.operands:
            size = spec.shape[axis]
            slicer = [slice(None)] * len(shape)
            slicer[axis] = slice(offset, offset + size)
            views.append(buf[tuple(slicer)])
            offset += size

        def fwd(a, views=views):
            for part, view in zip(a, views):
                np.copyto(view, part)
            return buf

        return fwd
    if op == "stack":
        buf = out_slot()
        axis = node.attrs[0]
        ax = axis if axis >= 0 else axis + len(shape)
        views = [
            buf[(slice(None),) * ax + (i,)] for i in range(len(node.operands))
        ]

        def fwd(a, views=views, buf=buf):
            for part, view in zip(a, views):
                np.copyto(view, part)
            return buf

        return fwd
    if op == "take_rows":
        buf = out_slot()
        return lambda a, buf=buf: np.take(a[0], a[1], axis=0, out=buf)
    if op == "softmax":
        buf = out_slot()
        axis = node.attrs[0]
        red_shape = list(shape)
        red_shape[axis] = 1
        sm = borrow(tuple(red_shape), dtype)

        def fwd(a, buf=buf, sm=sm, ax=axis):
            np.max(a[0], axis=ax, keepdims=True, out=sm)
            np.subtract(a[0], sm, out=buf)
            np.exp(buf, out=buf)
            np.sum(buf, axis=ax, keepdims=True, out=sm)
            np.divide(buf, sm, out=buf)
            return buf

        return fwd
    raise PlanUnsupported(f"no forward kernel for op {op!r}")


def _pow_into(a: np.ndarray, n, out: np.ndarray) -> np.ndarray:
    # Mirror numpy's fast scalar-power paths so out-of-place ``a ** n``
    # and this out= version are bitwise identical.
    if n == 2:
        return np.multiply(a, a, out=out)
    if n == 1:
        np.copyto(out, a)
        return out
    if n == 0.5:
        return np.sqrt(a, out=out)
    if n == -1:
        return np.reciprocal(a, out=out)
    return np.power(a, n, out=out)


_SUPPORTED_OPS = frozenset(
    {
        "add", "neg", "mul", "div", "pow", "matmul", "affine", "reshape",
        "squeeze", "transpose", "sum", "exp", "log", "tanh", "relu", "leaky_relu",
        "absolute", "clip", "maximum", "sigmoid", "sigmoid_bce",
        "concat", "stack", "take_rows", "softmax",
    }
)


# ======================================================================
# Backward emissions
# ======================================================================
class _Emission:
    """One gradient contribution from a node to one of its operands."""

    __slots__ = ("k", "mode", "view_fn")

    def __init__(self, k: int, mode: str, view_fn=None) -> None:
        self.k = k
        self.mode = mode  # "view" | "compute"
        self.view_fn = view_fn  # for views: storage -> ndarray view


class _Contrib:
    __slots__ = ("order", "emission", "src_target", "role", "dst")

    def __init__(self, order: tuple, emission: _Emission) -> None:
        self.order = order  # (schedule pos of emitter, emission seq)
        self.emission = emission
        self.src_target: Optional["_Target"] = None  # for views
        self.role = ""  # store|add|alias|copy|add_view
        self.dst: Optional[np.ndarray] = None


class _Target:
    """Accumulation target: a backward node's gradient, or a parameter."""

    __slots__ = (
        "key", "kind", "node", "param", "shape", "dtype",
        "contribs", "storage", "root_req", "consume_pos",
    )

    def __init__(self, key, kind, shape, dtype, node=None, param=None) -> None:
        self.key = key
        self.kind = kind  # "node" | "param"
        self.node = node
        self.param = param
        self.shape = tuple(shape)
        self.dtype = dtype
        self.contribs: List[_Contrib] = []
        self.storage: Optional[np.ndarray] = None
        self.root_req = None  # interval request backing an alias chain
        self.consume_pos = -1


def _emissions_for(node: _PlanNode) -> List[_Emission]:
    """Emission spec mirroring the eager backward closure of ``node``.

    Order matches the closure's entry order exactly (this is what keeps
    same-target accumulation bit-exact).  Only grad-carrying operands
    emit, mirroring the ``requires_grad`` guards in the closures.
    """
    op = node.op
    specs = node.operands
    out_shape = node.out_shape

    def grad(k: int) -> bool:
        return specs[k].grad

    if op in ("neg", "exp", "log", "tanh", "relu", "leaky_relu", "absolute",
              "clip", "sigmoid", "softmax", "pow", "sigmoid_bce", "take_rows"):
        return [_Emission(0, "compute")] if grad(0) else []
    if op == "add":
        ems = []
        for k in (0, 1):
            if not grad(k):
                continue
            if tuple(specs[k].shape) == out_shape:
                ems.append(_Emission(k, "view", lambda g: g))
            else:
                ems.append(_Emission(k, "compute"))
        return ems
    if op in ("mul", "div", "matmul", "maximum"):
        return [_Emission(k, "compute") for k in (0, 1) if grad(k)]
    if op == "affine":
        ems = []
        for k in (0, 1, 2):
            if specs[k].kind != _NONE and grad(k):
                ems.append(_Emission(k, "compute"))
        return ems
    if op in ("reshape", "squeeze"):
        if not grad(0):
            return []
        pshape = tuple(specs[0].shape)
        return [_Emission(0, "view", lambda g, s=pshape: g.reshape(s))]
    if op == "transpose":
        if not grad(0):
            return []
        inv = node.attrs[1]
        return [_Emission(0, "view", lambda g, inv=inv: g.transpose(inv))]
    if op == "sum":
        if not grad(0):
            return []
        axis, keepdims = node.attrs
        pshape = tuple(specs[0].shape)

        def view(g, ax=axis, kd=keepdims, s=pshape):
            gg = g
            if ax is not None and not kd:
                gg = np.expand_dims(gg, ax)
            return np.broadcast_to(gg, s)

        return [_Emission(0, "view", view)]
    if op == "concat":
        axis = node.attrs[0]
        ems = []
        offset = 0
        for k, spec in enumerate(specs):
            size = spec.shape[axis]
            slicer = [slice(None)] * len(out_shape)
            slicer[axis] = slice(offset, offset + size)
            offset += size
            if grad(k):
                t = tuple(slicer)
                ems.append(_Emission(k, "view", lambda g, t=t: g[t]))
        return ems
    if op == "stack":
        axis = node.attrs[0]
        ax = axis if axis >= 0 else axis + len(out_shape)
        ems = []
        for k in range(len(specs)):
            if grad(k):
                idx = (slice(None),) * ax + (k,)
                ems.append(_Emission(k, "view", lambda g, i=idx: g[i]))
        return ems
    raise PlanUnsupported(f"no emission spec for op {op!r}")


# ======================================================================
# Backward kernels
# ======================================================================
def _make_reduce(src_shape, dst, borrow):
    """(work, finish): compute the full-shape value into ``work``, then
    ``finish()`` reduces it into ``dst`` exactly like ``unbroadcast``."""
    src_shape = tuple(src_shape)
    if src_shape == dst.shape:
        return dst, None
    extra = len(src_shape) - dst.ndim
    axes0 = tuple(range(extra))
    mid = src_shape[extra:]
    axes1 = tuple(
        i for i, s in enumerate(dst.shape) if s == 1 and mid[i] != 1
    )
    work = borrow(src_shape, dst.dtype)
    if not axes1:
        return work, lambda w=work, d=dst, ax=axes0: np.sum(w, axis=ax, out=d)
    if not axes0:
        return work, lambda w=work, d=dst, ax=axes1: np.sum(
            w, axis=ax, keepdims=True, out=d
        )
    r1 = borrow(mid, dst.dtype)

    def finish(w=work, r=r1, d=dst, a0=axes0, a1=axes1):
        np.sum(w, axis=a0, out=r)
        np.sum(r, axis=a1, keepdims=True, out=d)

    return work, finish


class _BCtx:
    """Everything a backward kernel builder needs."""

    __slots__ = ("node", "g", "rt", "i", "borrow")

    def __init__(self, node, g, rt, borrow):
        self.node = node
        self.g = g  # this node's gradient storage (static array/view)
        self.rt = rt  # per-step operand arrays: rt[i][k]
        self.i = node.index
        self.borrow = borrow


def _compute_closure(bc: _BCtx, em: _Emission, work) -> Callable:
    """Closure computing emission ``em``'s full-shape value into ``work``.

    Formulas mirror the eager closures ufunc-for-ufunc; forward values
    are read through ``rt`` (current step's operand arrays) so nothing
    stales across re-traces or checkpoint restores.
    """
    op, k = bc.node.op, em.k
    g, rt, i, borrow = bc.g, bc.rt, bc.i, bc.borrow

    if op == "neg":
        return lambda: np.negative(g, out=work)
    if op == "exp":
        out_buf = bc.node.fwd_out  # type: ignore[attr-defined]
        return lambda: np.multiply(g, out_buf, out=work)
    if op == "log":
        return lambda: np.divide(g, rt[i][0], out=work)
    if op == "tanh":
        out_buf = bc.node.fwd_out  # type: ignore[attr-defined]
        s = borrow(bc.node.out_shape, work.dtype)

        def run(s=s, o=out_buf):
            np.multiply(o, o, out=s)  # out ** 2
            np.subtract(1.0, s, out=s)
            np.multiply(g, s, out=work)

        return run
    if op == "sigmoid":
        out_buf = bc.node.fwd_out  # type: ignore[attr-defined]
        s = borrow(bc.node.out_shape, work.dtype)

        def run(s=s, o=out_buf):
            np.multiply(g, o, out=s)
            np.subtract(1.0, o, out=work)
            np.multiply(s, work, out=work)  # (g*out) * (1-out)

        return run
    if op == "relu":
        m = borrow(bc.node.out_shape, np.bool_)

        def run(m=m):
            np.greater(rt[i][0], 0, out=m)
            np.multiply(g, m, out=work)

        return run
    if op == "leaky_relu":
        slope = bc.node.attrs[0]
        s = borrow(bc.node.out_shape, work.dtype)

        def run(s=s, sl=slope):
            a = rt[i][0]
            s.fill(sl)
            s[a > 0] = 1.0  # np.where(a > 0, 1.0, slope)
            np.multiply(g, s, out=work)

        return run
    if op == "absolute":
        s = borrow(bc.node.out_shape, work.dtype)

        def run(s=s):
            np.sign(rt[i][0], out=s)
            np.multiply(g, s, out=work)

        return run
    if op == "clip":
        lo, hi = bc.node.attrs
        m1 = borrow(bc.node.out_shape, np.bool_)
        m2 = borrow(bc.node.out_shape, np.bool_)

        def run(m1=m1, m2=m2, lo=lo, hi=hi):
            a = rt[i][0]
            np.greater_equal(a, lo, out=m1)
            np.less_equal(a, hi, out=m2)
            np.logical_and(m1, m2, out=m1)
            np.multiply(g, m1, out=work)

        return run
    if op == "pow":
        n = bc.node.attrs[0]
        s = borrow(bc.node.out_shape, work.dtype)

        def run(s=s, n=n):
            a = rt[i][0]
            np.multiply(g, n, out=s)  # grad * n
            if n == 2:
                np.multiply(s, a, out=work)  # * a ** 1
            else:
                s2 = work if work.shape == a.shape else s
                _pow_into(a, n - 1, s2)
                np.multiply(s, s2, out=work)

        return run
    if op == "softmax":
        axis = bc.node.attrs[0]
        out_buf = bc.node.fwd_out  # type: ignore[attr-defined]
        s = borrow(bc.node.out_shape, work.dtype)
        red = list(bc.node.out_shape)
        red[axis] = 1
        dot = borrow(tuple(red), work.dtype)

        def run(s=s, dot=dot, ax=axis, o=out_buf):
            np.multiply(g, o, out=s)
            np.sum(s, axis=ax, keepdims=True, out=dot)
            np.subtract(g, dot, out=s)
            np.multiply(o, s, out=work)

        return run
    if op == "sigmoid_bce":
        s = borrow(bc.node.out_shape, work.dtype)

        def run(s=s):
            np.subtract(rt[i][2], rt[i][1], out=s)  # (sigmoid - y)
            np.multiply(s, g, out=work)  # * grad

        return run
    if op == "mul":
        other = 1 - k
        return lambda o=other: np.multiply(g, rt[i][o], out=work)
    if op == "div":
        if k == 0:
            return lambda: np.divide(g, rt[i][1], out=work)
        s = borrow(bc.node.out_shape, work.dtype)
        s2 = borrow(bc.node.operands[1].shape, work.dtype)

        def run(s=s, s2=s2):
            a, b = rt[i][0], rt[i][1]
            np.negative(g, out=s)
            np.multiply(s, a, out=s)  # -grad * a
            np.multiply(b, b, out=s2)  # b ** 2
            np.divide(s, s2, out=work)

        return run
    if op == "add":
        return lambda: np.copyto(work, g)  # reduced by finish()
    if op == "maximum":
        m = borrow(bc.node.out_shape, np.bool_)
        if k == 0:
            def run(m=m):
                np.greater_equal(rt[i][0], rt[i][1], out=m)
                np.multiply(g, m, out=work)
        else:
            def run(m=m):
                np.greater_equal(rt[i][0], rt[i][1], out=m)
                np.logical_not(m, out=m)
                np.multiply(g, m, out=work)
        return run
    if op == "matmul":
        if k == 0:
            return lambda: np.matmul(g, rt[i][1].T, out=work)
        return lambda: np.matmul(rt[i][0].T, g, out=work)
    if op == "affine":
        if k == 0:
            return lambda: np.matmul(g, rt[i][1].T, out=work)
        if k == 1:
            return lambda: np.matmul(rt[i][0].T, g, out=work)
        return lambda: np.sum(g, axis=0, out=work)
    if op == "take_rows":
        table_shape = tuple(bc.node.operands[0].shape)
        dim = 1
        for s_ in table_shape[1:]:
            dim *= s_
        nbins = table_shape[0] * dim
        wf = work.reshape(-1)
        # ``np.bincount`` accumulates weights in occurrence order --
        # exactly ``np.add.at``'s summation order -- so the flat-index
        # scatter below is bit-exact to the eager kernel at a fraction
        # of the cost (no per-element dispatch).  Guarded: any layout
        # or dtype that would break the equivalence falls back to the
        # literal eager scatter.
        if np.shares_memory(wf, work) and work.dtype == np.float64:
            if dim > 1:
                m_rows = bc.node.out_shape[0]
                ar = np.arange(dim, dtype=np.intp)
                col = borrow((m_rows,), np.intp)
                fi = borrow((m_rows, dim), np.intp)

                def run(col=col, fi=fi, ar=ar, wf=wf, nb=nbins, d=dim):
                    np.multiply(rt[i][1], d, out=col)
                    np.add(col[:, None], ar, out=fi)
                    np.copyto(
                        wf,
                        np.bincount(fi.ravel(), weights=g.ravel(), minlength=nb),
                    )

                return run

            def run(wf=wf, nb=nbins):
                np.copyto(
                    wf, np.bincount(rt[i][1], weights=g.ravel(), minlength=nb)
                )

            return run

        def run():
            work.fill(0.0)
            np.add.at(work, rt[i][1], g)

        return run
    raise PlanUnsupported(f"no backward kernel for op {op!r}")


# ======================================================================
# The compiled plan
# ======================================================================
@dataclass
class PlanStats:
    traces: int = 0
    replays: int = 0
    eager_steps: int = 0
    mismatch_fallbacks: int = 0
    retraces: int = 0
    disabled_reason: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "traces": self.traces,
            "replays": self.replays,
            "eager_steps": self.eager_steps,
            "mismatch_fallbacks": self.mismatch_fallbacks,
            "retraces": self.retraces,
            "disabled_reason": self.disabled_reason,
        }


class CompiledPlan:
    """A lowered tape: forward kernel per node + flat backward program."""

    def __init__(self, nodes, root_index, signature, arena):
        self.nodes: List[_PlanNode] = nodes
        self.root_index: int = root_index
        self.signature: PlanSignature = signature
        self.arena: Arena = arena
        self.program: List[Callable[[], None]] = []
        self.param_binds: List[Callable[[], None]] = []
        # Per-step runtime state, overwritten on every replay.
        n = len(nodes)
        self.rt: List[Optional[tuple]] = [None] * n
        self.fused_pairs: int = 0
        self.alias_grads: int = 0
        self.backward_ops: int = 0
        #: Dense gradient-storage bytes rewritten in place per replay.
        self.grad_bytes: int = 0

    def run_backward(self) -> None:
        for fn in self.program:
            fn()
        for fn in self.param_binds:
            fn()

    def stats_dict(self) -> Dict[str, Any]:
        return {
            "nodes": len(self.nodes),
            "backward_ops": self.backward_ops,
            "fused_pairs": self.fused_pairs,
            "alias_grads": self.alias_grads,
            "grad_bytes_per_step": self.grad_bytes,
            "arena": self.arena.stats.to_dict(),
            "bytes_peak": self.arena.bytes_peak,
        }


# ======================================================================
# Compilation
# ======================================================================
def _classify_operands(records, by_id, model) -> List[List[_Operand]]:
    params = model.parameters()
    param_ids = {id(p) for p in params}
    out_grad = [r.out.requires_grad for r in records]
    all_specs: List[List[_Operand]] = []
    for rec in records:
        specs: List[_Operand] = []
        for operand in rec.operands:
            if operand is None:
                specs.append(_Operand(_NONE))
                continue
            if isinstance(operand, Tensor):
                j = by_id.get(id(operand))
                if j is not None:
                    specs.append(
                        _Operand(
                            _NODE,
                            node=j,
                            shape=operand.data.shape,
                            dtype=operand.data.dtype,
                            grad=out_grad[j],
                        )
                    )
                    continue
                if id(operand) in param_ids:
                    specs.append(
                        _Operand(
                            _PARAM,
                            param=operand,
                            shape=operand.data.shape,
                            dtype=operand.data.dtype,
                            grad=True,
                        )
                    )
                    continue
                if operand.requires_grad:
                    raise PlanUnsupported(
                        "graph has a gradient-carrying leaf that is not a "
                        "model parameter; cannot validate it across steps"
                    )
                arr = operand.data
            else:
                arr = np.asarray(operand)
            specs.append(_Operand(_VALUE, shape=arr.shape, dtype=arr.dtype))
        all_specs.append(specs)
    return all_specs


def _check_tape(records) -> None:
    """Reject a tape with an op or pattern the compiler cannot lower."""
    if not records:
        raise PlanUnsupported("trace recorded no ops")
    for rec in records:
        if rec.op not in _SUPPORTED_OPS:
            raise PlanUnsupported(f"op {rec.op!r} is not plan-compilable")
        if rec.out._retains_grad:
            raise PlanUnsupported("retain_grad() inside a compiled region")
        if rec.op == "matmul":
            shapes = [
                o.data.shape for o in rec.operands if isinstance(o, Tensor)
            ]
            if any(len(s) != 2 for s in shapes):
                raise PlanUnsupported("batched (non-2D) matmul")


def _scratch_lender(arena: Arena):
    """``(borrow, release)``: kernel scratch lent from ``arena`` while one
    kernel is built, and handed back (to be shared) once it is."""
    scratch: List[np.ndarray] = []

    def borrow(shape, dtype=np.float64):
        buf = arena.take_scratch(tuple(int(s) for s in shape), dtype)
        scratch.append(buf)
        return buf

    def release():
        for buf in scratch:
            arena.release_scratch(buf)
        scratch.clear()

    return borrow, release


def _compile(
    tracer: PlanTracer, loss: Tensor, model, batch, grad_buffers
) -> CompiledPlan:
    records = tracer.records
    _check_tape(records)
    by_id = tracer.by_id
    root_index = by_id.get(id(loss))
    if root_index is None:
        raise PlanUnsupported("loss is not the output of a traced op")
    if not loss.requires_grad:
        raise PlanUnsupported("loss does not require grad")

    specs = _classify_operands(records, by_id, model)
    nodes = [
        _PlanNode(idx, rec.op, rec.attrs, specs[idx], rec.out)
        for idx, rec in enumerate(records)
    ]

    arena = Arena()
    borrow, release_scratch = _scratch_lender(arena)

    # -- forward kernels ----------------------------------------------
    for node in nodes:
        node.fwd = _fwd_builder(node, arena, borrow)
        release_scratch()

    # -- backward schedule: the exact eager topological order ----------
    topo = _topological_order(loss)
    sched: List[int] = []
    for t in topo:
        j = by_id.get(id(t))
        if j is not None and t.requires_grad:
            sched.append(j)
    for p, j in enumerate(sched):
        nodes[j].pos = p
    if not sched or sched[0] != root_index:
        raise PlanUnsupported("loss is not the root of the traced graph")

    plan = CompiledPlan(nodes, root_index, PlanSignature(batch, model), arena)
    rt = plan.rt

    emissions: Dict[int, List[_Emission]] = {
        j: _emissions_for(nodes[j]) for j in sched
    }

    # -- contribution map (pre-fusion) to find fusion candidates -------
    contrib_count: Dict[Any, int] = {}
    contrib_from: Dict[Any, List[int]] = {}
    for j in sched:
        for em in emissions[j]:
            spec = nodes[j].operands[em.k]
            key = ("n", spec.node) if spec.kind == _NODE else ("p", id(spec.param))
            contrib_count[key] = contrib_count.get(key, 0) + 1
            contrib_from.setdefault(key, []).append(j)

    # -- rewrite rule 1: fuse affine-backward + relu mask --------------
    for j in sched:
        node = nodes[j]
        if node.op != "relu":
            continue
        spec = node.operands[0]
        if spec.kind != _NODE:
            continue
        parent = nodes[spec.node]
        if parent.op != "affine" or parent.pos < 0 or j == root_index:
            continue
        key = ("n", parent.index)
        if contrib_count.get(key) == 1 and contrib_from[key] == [j]:
            node.fused_into = parent.index
            parent.fused_relu = j
            plan.fused_pairs += 1

    # -- build targets & contributions (fusion applied) ----------------
    # Keyed by (node, emission seq), never linked back from the
    # emission: that cycle would keep the arena alive until the cyclic
    # GC ran instead of freeing it with its runner.
    targets: Dict[Any, _Target] = {}
    contribs: Dict[tuple, _Contrib] = {}

    def target_for(spec: _Operand) -> _Target:
        if spec.kind == _NODE:
            key = ("n", spec.node)
            t = targets.get(key)
            if t is None:
                t = targets[key] = _Target(
                    key, "node", spec.shape, spec.dtype, node=nodes[spec.node]
                )
            return t
        key = ("p", id(spec.param))
        t = targets.get(key)
        if t is None:
            t = targets[key] = _Target(
                key, "param", spec.shape, spec.dtype, param=spec.param
            )
        return t

    for p, j in enumerate(sched):
        node = nodes[j]
        if node.fused_into is not None:
            continue  # relu's emission is inlined into the affine kernel
        for seq, em in enumerate(emissions[j]):
            spec = node.operands[em.k]
            t = target_for(spec)
            c = contribs[j, seq] = _Contrib((p, seq), em)
            if em.mode == "view":
                # The emitting node's own gradient feeds its views.
                c.src_target = targets.get(("n", node.index))
            t.contribs.append(c)

    # Consumption positions (fused relu grads live until the affine).
    for key, t in targets.items():
        if t.kind == "param":
            t.consume_pos = len(sched)  # survives the whole sweep
        else:
            owner = t.node
            t.consume_pos = (
                nodes[owner.fused_into].pos
                if owner.fused_into is not None
                else owner.pos
            )

    # -- storage assignment --------------------------------------------
    seed = np.ones_like(loss.data)
    allocator = IntervalAllocator()
    root_target = _Target(("root",), "node", loss.data.shape, loss.data.dtype)
    root_target.storage = seed

    def resolve_src(c: _Contrib) -> _Target:
        return c.src_target if c.src_target is not None else root_target

    # Pass 1, in schedule order of the owning node: decide alias vs
    # interval request.  An alias's source target always has a smaller
    # owner position, so its ``root_req`` is final by the time the alias
    # inherits (and extends) it.
    node_targets = sorted(
        (t for t in targets.values() if t.kind == "node"),
        key=lambda t: t.node.pos,
    )
    aliases: List[_Target] = []
    for t in node_targets:
        first = t.contribs[0]
        if len(t.contribs) == 1 and first.emission.mode == "view":
            src = resolve_src(first)
            t.root_req = src.root_req
            if t.root_req is not None:
                allocator.extend(t.root_req, t.consume_pos)
            first.role = "alias"
            aliases.append(t)
            plan.alias_grads += 1
            continue
        birth = first.order[0]
        req_id = t.key
        allocator.request(req_id, t.shape, t.dtype, birth, t.consume_pos)
        t.root_req = req_id
    # Dedicated persistent slots for parameter gradients: they outlive
    # the sweep (optimizer reads them), so they never interval-share.
    # A caller's buffer (a view of the optimizer's plane) replaces one.
    pidx = 0
    for t in targets.values():
        if t.kind == "param":
            t.storage = grad_buffers.get(id(t.param))
            if t.storage is None:
                t.storage = arena.slot(("pgrad", pidx), t.shape, t.dtype)
        pidx += 1
    # Pass 2: materialise interval-backed storage, then resolve alias
    # views in owner order (an alias chain's source always comes first).
    assignment = allocator.assign(arena)
    for t in node_targets:
        if t.storage is None and t.contribs[0].role != "alias":
            t.storage = assignment[t.key]
    for t in aliases:
        src = resolve_src(t.contribs[0])
        t.storage = t.contribs[0].emission.view_fn(src.storage)

    # Roles for the remaining contributions.
    for t in targets.values():
        for n_, c in enumerate(t.contribs):
            c.dst = t.storage
            if c.role == "alias":
                continue
            if c.emission.mode == "view":
                c.role = "copy" if n_ == 0 else "add_view"
            else:
                c.role = "store" if n_ == 0 else "add"

    # -- backward codegen ----------------------------------------------
    # Stash static forward buffers for backward kernels that read them.
    for node in nodes:
        buf = arena._slots.get(("fwd", node.index))
        node.fwd_out = buf  # type: ignore[attr-defined]

    for p, j in enumerate(sched):
        node = nodes[j]
        if node.fused_into is not None:
            continue
        actions: List[Callable[[], None]] = []

        if node.fused_relu is not None:
            # Rewrite rule 1: relu mask * upstream grad, computed at the
            # affine's schedule position (preserving accumulation order
            # into shared upstream targets), feeding the affine kernel.
            # The relu's emission was this affine's only contribution, so
            # the affine has no accumulation target of its own.
            relu_t = targets[("n", node.fused_relu)]
            pre = node.fwd_out  # pre-activation (the affine's output)
            masked = borrow(node.out_shape, node.out_dtype)
            mask = borrow(node.out_shape, np.bool_)
            g_up = relu_t.storage

            def fuse(masked=masked, g_up=g_up, pre=pre, m=mask):
                np.greater(pre, 0, out=m)
                np.multiply(g_up, m, out=masked)

            actions.append(fuse)
            gsrc = masked
        else:
            own = (
                root_target
                if j == root_index
                else targets.get(("n", j))
            )
            if own is None or own.storage is None:
                raise PlanUnsupported(
                    f"node {node.op} has no gradient source"
                )
            gsrc = own.storage

        bc = _BCtx(node, gsrc, rt, borrow)

        for seq, em in enumerate(emissions[j]):
            c = contribs[j, seq]
            if em.mode == "view":
                if c.role == "alias":
                    continue
                view = em.view_fn(gsrc)
                if c.role == "copy":
                    actions.append(
                        lambda d=c.dst, v=view: np.copyto(d, v)
                    )
                else:
                    actions.append(
                        lambda d=c.dst, v=view: np.add(d, v, out=d)
                    )
                continue
            # matmul/affine/take_rows backward kernels produce the
            # operand's shape directly; elementwise kernels produce the
            # (broadcast) output shape and are then unbroadcast-reduced.
            if node.op in ("matmul", "affine", "take_rows"):
                em_shape = tuple(node.operands[em.k].shape)
            else:
                em_shape = node.out_shape
            if c.role == "store":
                work, finish = _make_reduce(em_shape, c.dst, borrow)
                actions.append(_compute_closure(bc, em, work))
                if finish is not None:
                    actions.append(finish)
            else:  # add
                tmp = borrow(node.operands[em.k].shape, c.dst.dtype)
                work, finish = _make_reduce(em_shape, tmp, borrow)
                actions.append(_compute_closure(bc, em, work))
                if finish is not None:
                    actions.append(finish)
                actions.append(
                    lambda d=c.dst, t=tmp: np.add(d, t, out=d)
                )
        release_scratch()
        if not actions:
            continue
        plan.backward_ops += 1
        if len(actions) == 1:
            plan.program.append(actions[0])
        else:
            def run_all(acts=tuple(actions)):
                for fn in acts:
                    fn()

            plan.program.append(run_all)

    for t in targets.values():
        if t.kind == "param":
            plan.param_binds.append(
                lambda p=t.param, buf=t.storage: setattr(p, "grad", buf)
            )

    # Bytes of gradient storage rewritten (not reallocated) each replay:
    # every non-alias target lives in a pre-assigned arena buffer.
    plan.grad_bytes = sum(
        t.storage.nbytes
        for t in targets.values()
        if t.storage is not None
        and t.contribs
        and t.contribs[0].role != "alias"
    )

    _build_validators(plan)
    return plan


def _build_validators(plan: CompiledPlan) -> None:
    """Precompute per-node operand validation for the replay cursor."""
    for node in plan.nodes:
        checks = []
        for k, spec in enumerate(node.operands):
            if spec.kind == _NODE:
                checks.append((k, _NODE, spec.node, None, None))
            elif spec.kind == _PARAM:
                checks.append((k, _PARAM, -1, spec.param, None))
            elif spec.kind == _VALUE:
                checks.append((k, _VALUE, -1, None, (spec.shape, spec.dtype)))
        node.checks = tuple(checks)  # type: ignore[attr-defined]


# ======================================================================
# Replay
# ======================================================================
def _light_tensor(data: np.ndarray, requires_grad: bool) -> Tensor:
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = requires_grad
    t._backward = None
    t._parents = ()
    t._retains_grad = False
    t._logits = None
    t.name = None
    return t


class PlanExecutor:
    """Cursor over a compiled plan during one replayed forward pass."""

    __slots__ = ("plan", "cursor", "tensors")

    def __init__(self, plan: CompiledPlan) -> None:
        self.plan = plan
        self.cursor = 0
        self.tensors: List[Optional[Tensor]] = [None] * len(plan.nodes)

    def run(self, op: str, operands: tuple, attrs=None) -> Tensor:
        plan = self.plan
        i = self.cursor
        if i >= len(plan.nodes):
            raise PlanMismatch(f"extra op {op!r} beyond the traced tape")
        node = plan.nodes[i]
        if node.op != op or node.attrs != attrs:
            raise PlanMismatch(
                f"op #{i}: traced {node.op!r}{node.attrs!r}, "
                f"got {op!r}{attrs!r}"
            )
        tensors = self.tensors
        for k, kind, nidx, param, sig in node.checks:
            operand = operands[k]
            if kind == _NODE:
                if operand is not tensors[nidx]:
                    raise PlanMismatch(f"op #{i} ({op}): operand {k} drifted")
            elif kind == _PARAM:
                if operand is not param:
                    raise PlanMismatch(
                        f"op #{i} ({op}): parameter operand {k} drifted"
                    )
            else:
                arr = operand.data if isinstance(operand, Tensor) else operand
                arr = arr if isinstance(arr, np.ndarray) else np.asarray(arr)
                if arr.shape != sig[0] or arr.dtype != sig[1]:
                    raise PlanMismatch(
                        f"op #{i} ({op}): operand {k} shape/dtype changed "
                        f"({arr.shape}/{arr.dtype} vs {sig[0]}/{sig[1]})"
                    )
        args = tuple(
            o.data if isinstance(o, Tensor) else o for o in operands
        )
        plan.rt[i] = args
        out = node.fwd(args)
        t = _light_tensor(out, node.requires_grad)
        tensors[i] = t
        if node.post_logits:
            t._logits = operands[0]
        self.cursor = i + 1
        return t

    def finish(self, loss: Tensor) -> None:
        if self.cursor != len(self.plan.nodes):
            raise PlanMismatch(
                f"replay ran {self.cursor} of {len(self.plan.nodes)} traced ops"
            )
        if loss is not self.tensors[self.plan.root_index]:
            raise PlanMismatch("loss is not the traced root node")


# ======================================================================
# Runner
# ======================================================================
class PlanRunner:
    """Drives trace / replay / eager fallback for a training loop.

    One runner per ``fit`` call, and one per pool worker.  ``forward``
    returns the loss tensor; ``backward`` must be handed that same
    tensor.  All fallback policy lives here so the engine stays a plain
    step loop.  ``grad_buffers`` maps ``id(param)`` to the array a
    replay stores that parameter's gradient in (and binds to
    ``param.grad``); parameters without one get an arena slot.
    """

    #: Consecutive mid-replay mismatches before the plan is disabled.
    MAX_MISMATCHES = 3

    def __init__(
        self,
        model,
        expected_batch_size: Optional[int] = None,
        grad_buffers: Optional[Dict[int, np.ndarray]] = None,
    ):
        self.model = model
        self.expected_batch_size = expected_batch_size
        self.grad_buffers = grad_buffers or {}
        self.plan: Optional[CompiledPlan] = None
        self.stats = PlanStats()
        self._mode = "eager"
        self._mismatch_streak = 0
        self._disabled = False

    # ------------------------------------------------------------------
    @property
    def disabled(self) -> bool:
        return self._disabled

    @property
    def arena_stats(self) -> Optional[Dict[str, Any]]:
        return self.plan.stats_dict() if self.plan is not None else None

    # ------------------------------------------------------------------
    def forward(self, batch) -> Tensor:
        self._mode = "eager"
        if self._disabled:
            self.stats.eager_steps += 1
            return self.model.loss(batch)
        if self.plan is not None:
            status = self.plan.signature.matches(batch, self.model)
            if status == "ok":
                try:
                    loss = self._replay(batch)
                    self._mode = "replay"
                    self._mismatch_streak = 0
                    self.stats.replays += 1
                    return loss
                except PlanMismatch as exc:
                    self.stats.mismatch_fallbacks += 1
                    self._mismatch_streak += 1
                    self.plan = None
                    if self._mismatch_streak >= self.MAX_MISMATCHES:
                        self._disable(
                            f"repeated replay mismatches: {exc}",
                            logging.WARNING,
                        )
                    else:
                        logger.warning(
                            "plan replay mismatch, falling back to eager: %s",
                            exc,
                        )
                    self.stats.eager_steps += 1
                    return self.model.loss(batch)
            if status == "params":
                # Vocab growth / checkpoint restore / mode change: the
                # plan is stale for good; re-trace on the next full batch.
                self.plan = None
                self.stats.retraces += 1
            else:
                # Ragged batch: keep the plan, run this one step eagerly.
                self.stats.eager_steps += 1
                return self.model.loss(batch)
        if self._should_trace(batch):
            return self._trace(batch)
        self.stats.eager_steps += 1
        return self.model.loss(batch)

    def backward(self, loss: Tensor) -> None:
        if self._mode == "replay":
            self.plan.run_backward()
        else:
            loss.backward()

    def retarget(self, batch_size: int) -> None:
        """Trace at ``batch_size`` rows from now on.

        For a change that lasts (a re-sharded pool step): the plan of
        the old size is dropped and the next batch of the new size
        traces.  A one-off ragged batch needs no call; it runs eagerly
        and keeps the plan.
        """
        if batch_size == self.expected_batch_size:
            return
        self.expected_batch_size = batch_size
        if self.plan is not None:
            self.plan = None
            self.stats.retraces += 1

    # ------------------------------------------------------------------
    def _should_trace(self, batch) -> bool:
        if self.expected_batch_size is None:
            return True
        return batch.clicks.shape[0] == self.expected_batch_size

    def _trace(self, batch) -> Tensor:
        tracer = PlanTracer()
        previous = _planmode.set_tracer(tracer)
        try:
            loss = self.model.loss(batch)
        finally:
            _planmode.set_tracer(previous)
        self._mode = "trace"
        self.stats.traces += 1
        try:
            self.plan = _compile(tracer, loss, self.model, batch, self.grad_buffers)
        except PlanUnsupported as exc:
            # Expected for models the compiler cannot lower: the run
            # trains eagerly and ``stats.disabled_reason`` says why.
            self._disable(str(exc), logging.INFO)
        return loss

    def _replay(self, batch) -> Tensor:
        executor = PlanExecutor(self.plan)
        previous = _planmode.set_replayer(executor)
        try:
            loss = self.model.loss(batch)
        finally:
            _planmode.set_replayer(previous)
        executor.finish(loss)
        return loss

    def _disable(self, reason: str, level: int) -> None:
        self._disabled = True
        self.plan = None
        self.stats.disabled_reason = reason
        logger.log(level, "plan compilation disabled for this run: %s", reason)



# ======================================================================
# Forward-only replay (inference)
# ======================================================================
#: Ops whose kernel returns a view of its input instead of an arena slot.
_VIEW_OPS = frozenset({"reshape", "squeeze", "transpose"})

#: The ``forward_tensors`` outputs that ``MultiTaskModel.predict`` reads.
PREDICT_OUTPUTS = ("ctr", "cvr", "ctcvr", "cvr_counterfactual")


def _value_getter(arr: np.ndarray, batch) -> Optional[tuple]:
    """``(key, getter)`` for the one batch field a traced value came from.

    A sparse id array binds by identity (``Embedding.forward`` passes
    the batch's own array).  A dense column binds by name when, read as
    the traced dtype and reshaped to the traced shape, it has the traced
    value's exact bytes and either shares its memory (a view) or had a
    different dtype (a conversion copy); exactly one column may match.
    Anything else -- a scalar constant, an array the model computed --
    is unbound (``None``).
    """
    for name, ids in batch.sparse.items():
        if arr is ids:
            return ("sparse", name), lambda b, n=name: b.sparse[n]
    shape, dtype = arr.shape, arr.dtype
    names = []
    for name, column in batch.dense.items():
        col = np.asarray(column, dtype=dtype)
        if col.size != arr.size:
            continue
        col = col.reshape(shape)
        if col.tobytes() == arr.tobytes() and (
            np.shares_memory(col, arr) or np.asarray(column).dtype != dtype
        ):
            names.append(name)
    if len(names) != 1:
        return None
    name = names[0]

    def get(b, n=name, s=shape, d=dtype):
        return np.asarray(b.dense[n], dtype=d).reshape(s)

    return ("dense", name, shape, dtype.str), get


class ForwardProgram:
    """A traced ``forward_tensors`` lowered to a flat kernel loop.

    ``env`` holds every value the kernels read: node outputs (arena
    slots, fixed for the program's life), parameter arrays (fixed while
    the signature matches), and the bound batch fields, refilled per
    call.  A step whose operands are all fixed carries its argument
    tuple ready-made; view ops over fixed inputs were resolved once at
    compile time and have no step at all.
    """

    __slots__ = ("signature", "arena", "env", "binders", "row_checks", "steps", "outputs")

    def __init__(self, signature, arena, env, binders, row_checks, steps, outputs):
        self.signature: PlanSignature = signature
        self.arena: Arena = arena
        self.env: List[Any] = env
        #: ``(env slot, getter)`` per bound batch field.
        self.binders: List[tuple] = binders
        #: ``(env slot, table rows)`` per embedding gather, in tape order.
        self.row_checks: List[tuple] = row_checks
        #: ``(node, kernel, args or None, env refs or None)``.
        self.steps: List[tuple] = steps
        #: ``(output name, node)`` for each of :data:`PREDICT_OUTPUTS`.
        self.outputs: List[tuple] = outputs

    def run(self, batch, row_check) -> Dict[str, np.ndarray]:
        """Run the kernels on ``batch``; returns views of the arena."""
        env = self.env
        for slot, get in self.binders:
            env[slot] = get(batch)
        for slot, rows in self.row_checks:
            row_check(env[slot], rows)
        for i, fwd, args, refs in self.steps:
            env[i] = fwd(args if refs is None else tuple([env[r] for r in refs]))
        return {name: env[i] for name, i in self.outputs}


def _share_forward_slots(records, specs, named, arena: Arena) -> None:
    """Back forward outputs with lifetime-shared arena buffers.

    A node's output lives from its own step to its last reader, seen
    through any chain of views, or to the end when ``predict`` reads it.
    Outputs whose lifetimes are disjoint share storage, so the arena is
    sized by the graph's width, not its length.
    """
    n = len(records)
    root = list(range(n))
    death = list(range(n))
    for i, rec in enumerate(records):
        for spec in specs[i]:
            if spec.kind == _NODE:
                r = root[spec.node]
                death[r] = max(death[r], i)
        if rec.op in _VIEW_OPS and specs[i][0].kind == _NODE:
            root[i] = root[specs[i][0].node]
    for _, j in named:
        death[root[j]] = n
    allocator = IntervalAllocator()
    for i, rec in enumerate(records):
        if rec.op not in _VIEW_OPS:
            out = rec.out.data
            allocator.request(i, out.shape, out.dtype, i, death[i])
    for i, buf in allocator.assign(arena).items():
        arena._slots[("fwd", i)] = buf


def _compile_forward(tracer: PlanTracer, outputs, model, batch) -> ForwardProgram:
    records = tracer.records
    _check_tape(records)
    by_id = tracer.by_id
    specs = _classify_operands(records, by_id, model)
    n = len(records)
    env: List[Any] = [None] * n
    none_slot = n
    env.append(None)
    fixed = [False] * n + [True]
    slots: Dict[Any, int] = {}
    binders: List[tuple] = []
    row_checks: List[tuple] = []

    def slot_for(key, value, is_fixed) -> int:
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(env)
            env.append(value)
            fixed.append(is_fixed)
        return slot

    named = []
    for name in PREDICT_OUTPUTS:
        tensor = outputs.get(name)
        if tensor is None:
            continue
        j = by_id.get(id(tensor))
        if j is None:
            raise PlanUnsupported(f"output {name!r} is not the result of a traced op")
        named.append((name, j))

    arena = Arena()
    _share_forward_slots(records, specs, named, arena)
    borrow, release_scratch = _scratch_lender(arena)
    steps: List[tuple] = []
    for i, rec in enumerate(records):
        node = _PlanNode(i, rec.op, rec.attrs, specs[i], rec.out)
        refs = []
        for k, spec in enumerate(node.operands):
            if spec.kind == _NODE:
                refs.append(spec.node)
            elif spec.kind == _PARAM:
                refs.append(slot_for(("param", id(spec.param)), spec.param.data, True))
            elif spec.kind == _NONE:
                refs.append(none_slot)
            else:
                operand = rec.operands[k]
                arr = operand.data if isinstance(operand, Tensor) else np.asarray(operand)
                bound = _value_getter(arr, batch)
                if bound is None:
                    raise PlanUnsupported(
                        f"op #{i} ({rec.op}): value operand {k} is not bound "
                        "to a batch field"
                    )
                key, get = bound
                new = key not in slots
                slot = slot_for(key, None, False)
                if new:
                    binders.append((slot, get))
                if rec.op == "take_rows":
                    row_checks.append((slot, node.operands[0].shape[0]))
                refs.append(slot)
        fwd = _fwd_builder(node, arena, borrow)
        release_scratch()
        static = all(fixed[r] for r in refs)
        args = tuple(env[r] for r in refs) if static else None
        if rec.op in _VIEW_OPS:
            if static:
                env[i] = fwd(args)
                fixed[i] = True
                continue
        else:
            env[i] = arena._slots[("fwd", i)]
            fixed[i] = True
        steps.append((i, fwd, args, None if static else tuple(refs)))
    return ForwardProgram(
        PlanSignature(batch, model), arena, env, binders, row_checks, steps, named
    )


def output_arrays(outputs) -> Dict[str, np.ndarray]:
    """The :data:`PREDICT_OUTPUTS` arrays of an eager ``forward_tensors``."""
    return {
        name: outputs[name].data for name in PREDICT_OUTPUTS if name in outputs
    }


class ForwardRunner:
    """Replays a forward-only program behind an eval-mode ``predict``.

    One per model.  A batch signature seen on two consecutive calls is
    traced (that call runs eagerly, with a tracer installed) and
    compiled; later calls that match the program's
    :class:`PlanSignature` replay it and get copies of its outputs.  A
    one-off batch runs eagerly and builds nothing, and compiling for a
    new signature drops the old program, so a model holds at most one
    arena.  A tape the compiler cannot lower, or a value operand that
    binds to no batch field, disables the runner for good, with the
    reason in ``stats.disabled_reason``.

    ``row_check(ids, rows)`` is the embedding bounds check, run on every
    bound id array before any kernel.  Not reentrant: the arena is
    rewritten by every replay.
    """

    def __init__(self, row_check: Callable[[np.ndarray, int], None]) -> None:
        self.row_check = row_check
        self.program: Optional[ForwardProgram] = None
        self.stats = PlanStats()
        self._last_key: Optional[tuple] = None

    def run(self, model, batch) -> Dict[str, np.ndarray]:
        """The :data:`PREDICT_OUTPUTS` arrays of ``model`` on ``batch``."""
        program = self.program
        if program is not None:
            status = program.signature.matches(batch, model)
            if status == "ok":
                self._last_key = program.signature.batch_sig
                out = program.run(batch, self.row_check)
                self.stats.replays += 1
                return {name: arr.copy() for name, arr in out.items()}
            if status == "params":
                self.program = None
                self.stats.retraces += 1
        if self.stats.disabled_reason is None:
            key = _batch_key(batch)
            repeat = key == self._last_key
            self._last_key = key
            if repeat:
                return self._trace(model, batch)
        self.stats.eager_steps += 1
        with no_grad():
            return output_arrays(model.forward_tensors(batch))

    def _trace(self, model, batch) -> Dict[str, np.ndarray]:
        self.program = None
        tracer = PlanTracer()
        previous = _planmode.set_tracer(tracer)
        try:
            with no_grad():
                outputs = model.forward_tensors(batch)
        finally:
            _planmode.set_tracer(previous)
        self.stats.traces += 1
        try:
            self.program = _compile_forward(tracer, outputs, model, batch)
        except PlanUnsupported as exc:
            self.stats.disabled_reason = str(exc)
            logger.info("forward replay disabled for this model: %s", exc)
        return output_arrays(outputs)
