"""Buffer arena for compiled execution plans.

The eager engine allocates every activation and gradient array afresh
on every step (tens of megabytes per epoch on ``affine`` / ``relu`` /
``concat`` / ``take_rows`` alone).  A compiled plan has a static
graph, so every buffer's shape, dtype and *lifetime* are known up
front.  The arena exploits that:

* **Persistent slots** (:meth:`Arena.slot`) hold forward activations
  and leaf gradients.  Allocated once on the first step, reused as
  ``out=`` targets on every later step.
* **Interval-allocated buffers** (:class:`IntervalAllocator`) back the
  per-node gradient scratch of the backward sweep.  Each gradient is
  born at its first contribution and dies when its owner's backward
  kernel has consumed it; a linear-scan register allocation over those
  intervals lets gradients with disjoint lifetimes share storage.
* **A runtime scratch pool** (:meth:`Arena.take_scratch` /
  :meth:`Arena.release_scratch`) serves kernel-internal temporaries
  whose lifetime is a single kernel call.

Every path records hit/miss statistics in :class:`ArenaStats`, which
``PlanRunner.arena_stats`` reports next to the plan's peak bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

ShapeDtype = Tuple[Tuple[int, ...], str]


@dataclass
class ArenaStats:
    """Byte accounting for one arena."""

    #: Number of fresh numpy allocations made by the arena.
    allocations: int = 0
    #: Total bytes of those allocations (the arena's footprint).
    bytes_allocated: int = 0
    #: Number of requests served from an existing buffer.
    hits: int = 0
    #: Total bytes served without allocating.
    bytes_reused: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "allocations": self.allocations,
            "bytes_allocated": self.bytes_allocated,
            "hits": self.hits,
            "bytes_reused": self.bytes_reused,
        }


class Arena:
    """Owns every buffer a compiled plan writes into.

    One arena per plan: buffers persist across steps, so steady-state
    training allocates (almost) nothing; :attr:`bytes_peak` is the
    whole footprint.
    """

    def __init__(self) -> None:
        self.stats = ArenaStats()
        self._slots: Dict[Any, np.ndarray] = {}
        self._scratch: Dict[ShapeDtype, List[np.ndarray]] = {}

    # -- persistent slots ----------------------------------------------
    def slot(self, key: Any, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Return the persistent buffer for ``key``, allocating on miss."""
        buf = self._slots.get(key)
        if buf is not None and buf.shape == tuple(shape) and buf.dtype == dtype:
            self.stats.hits += 1
            self.stats.bytes_reused += buf.nbytes
            return buf
        buf = np.empty(shape, dtype=dtype)
        self._slots[key] = buf
        self.stats.allocations += 1
        self.stats.bytes_allocated += buf.nbytes
        return buf

    # -- kernel-internal scratch ---------------------------------------
    def take_scratch(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Borrow a scratch buffer; pair with :meth:`release_scratch`."""
        key = (tuple(shape), np.dtype(dtype).str)
        free = self._scratch.get(key)
        if free:
            buf = free.pop()
            self.stats.hits += 1
            self.stats.bytes_reused += buf.nbytes
            return buf
        buf = np.empty(shape, dtype=dtype)
        self.stats.allocations += 1
        self.stats.bytes_allocated += buf.nbytes
        return buf

    def release_scratch(self, buf: np.ndarray) -> None:
        key = (buf.shape, buf.dtype.str)
        self._scratch.setdefault(key, []).append(buf)

    @property
    def bytes_peak(self) -> int:
        """Peak live bytes.  Arena buffers are never freed, so the peak
        is the footprint itself."""
        return self.stats.bytes_allocated


@dataclass
class _Request:
    """One lifetime interval to be backed by a physical buffer."""

    req_id: Any
    shape: Tuple[int, ...]
    dtype: str
    birth: int
    death: int


@dataclass
class IntervalAllocator:
    """Linear-scan buffer assignment over compile-time lifetimes.

    Used by the plan compiler for backward gradient buffers: each
    request names the schedule position where the gradient is first
    written (``birth``) and the position of the backward kernel that
    finally consumes it (``death``).  Requests whose intervals do not
    overlap and whose shape/dtype match share a physical buffer, which
    is what makes the backward sweep's peak footprint a function of the
    graph's *width* rather than its *size*.
    """

    _requests: List[_Request] = field(default_factory=list)

    def request(self, req_id: Any, shape: Tuple[int, ...], dtype, birth: int, death: int) -> None:
        if death < birth:
            raise ValueError(f"lifetime ends before it starts: [{birth}, {death}]")
        self._requests.append(
            _Request(req_id, tuple(shape), np.dtype(dtype).str, birth, death)
        )

    def extend(self, req_id: Any, new_death: int) -> None:
        """Push a request's death later (gradient adoption chains)."""
        for req in self._requests:
            if req.req_id == req_id:
                req.death = max(req.death, new_death)
                return
        raise KeyError(f"no lifetime request named {req_id!r}")

    def assign(self, arena: Arena) -> Dict[Any, np.ndarray]:
        """Materialise buffers; returns ``req_id -> array``.

        Greedy linear scan in birth order: a freed buffer of the same
        (shape, dtype) whose interval has ended is reused, otherwise a
        new arena slot is created.
        """
        assignment: Dict[Any, np.ndarray] = {}
        # (shape, dtype) -> list of (death, physical_id)
        pools: Dict[ShapeDtype, List[List[Any]]] = {}
        n_physical = 0
        for req in sorted(self._requests, key=lambda r: (r.birth, r.death)):
            key = (req.shape, req.dtype)
            pool = pools.setdefault(key, [])
            chosen = None
            for entry in pool:
                if entry[0] < req.birth:
                    chosen = entry
                    break
            if chosen is None:
                physical_id = ("plan-grad", n_physical, key)
                n_physical += 1
                chosen = [req.death, physical_id]
                pool.append(chosen)
            else:
                chosen[0] = req.death
            assignment[req.req_id] = arena.slot(chosen[1], req.shape, req.dtype)
        return assignment
