"""Span tracing of nmgeo's public functions, from outside the package.

Tracer.install() replaces every public function of the traced modules,
in every traced module namespace that holds it (so phasediagram's imported
find_g_roots is caught as well as gfunction's), plus GSolution.eval, with
a wrapper that records one span per call: name, start, end, parent span,
thread and a work count.  Thread pools created by the traced modules pass
the submitting span on as the parent of the work they run.  Spans are kept
in per-thread arrays and turned into per-layer figures when the run ends.

Self time is a span's duration minus the union of its direct children's
intervals (children on pool threads overlap, so the union, not the sum).
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

TRACED_MODULES = ("gfunction", "dynamics", "geomphase", "phasediagram", "qsd", "cli")
_PACKAGE = "nmgeo."


class _Buffer:
    def __init__(self, tid: int):
        self.tid = tid
        self.sid = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.n = array("q")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


# name -> (label, count) taking (args, kwargs, result); label picks a span-name suffix
_DETAIL = {
    "gfunction.GSolution.eval": (None, lambda a, k, r: int(np.size(_arg(a, k, 1, "t")))),
    "gfunction.find_g_roots": (lambda a, k, r: f"t{float(_arg(a, k, 1, 't_max')):g}",
                               lambda a, k, r: len(r)),
    "phasediagram.classify_point": (lambda a, k, r: r.region, None),
    "phasediagram.sweep": (None, lambda a, k, r: len(r)),
    "qsd.ensemble_density": (
        None, lambda a, k, r: r.n_traj * r.series.grid.n_steps),
    "cli.write_series_csv": (None, lambda a, k, r: _arg(a, k, 0, "series").grid.n_steps + 1),
    "cli.write_series_json": (None, lambda a, k, r: _arg(a, k, 0, "series").grid.n_steps + 1),
    "cli.write_sweep_csv": (None, lambda a, k, r: len(_arg(a, k, 0, "cells"))),
    "cli.run": (lambda a, k, r: str(_arg(a, k, 0, "argv")[0]), None),
}


class Tracer:
    """Records spans of nmgeo calls between install() and uninstall()."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def _thread_state(self):
        loc = self._local
        try:
            return loc.buf, loc.stack
        except AttributeError:
            loc.buf = _Buffer(threading.get_ident())
            loc.stack = []
            with self._lock:
                self._buffers.append(loc.buf)
            return loc.buf, loc.stack

    def current(self) -> int:
        stack = self._thread_state()[1]
        return stack[-1] if stack else -1

    def _wrap(self, fn, name: str):
        label, count = _DETAIL.get(name, (None, None))
        plain_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            buf, stack = tracer._thread_state()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            raised = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if raised:
                    nid, n = tracer._name_id(name + ".raised"), 0
                else:
                    nid = plain_id if label is None else tracer._name_id(
                        f"{name}.{label(args, kwargs, result)}")
                    n = 1 if count is None else count(args, kwargs, result)
                buf.sid.append(sid)
                buf.name.append(nid)
                buf.parent.append(parent)
                buf.start.append(t0)
                buf.end.append(t1)
                buf.n.append(n)

        traced.__wrapped__ = fn
        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def with_parent(*a, **k):
                    stack = tracer._thread_state()[1]
                    stack.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        stack.pop()

                return super().submit(with_parent, *args, **kwargs)

        return TracedPool

    # -- patching ----------------------------------------------------------

    def _patch(self, obj, attr: str, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, package) -> None:
        mods = {m: getattr(package, m) for m in TRACED_MODULES}
        wrapped: dict[int, object] = {}
        for mod in mods.values():
            for attr, fn in list(vars(mod).items()):
                owner = getattr(fn, "__module__", "") or ""
                if (attr.startswith("_") or not callable(fn) or isinstance(fn, type)
                        or not owner.startswith(_PACKAGE)
                        or owner[len(_PACKAGE):] not in TRACED_MODULES):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn, f"{owner[len(_PACKAGE):]}.{fn.__name__}")
                self._patch(mod, attr, wrapped[id(fn)])
            if hasattr(mod, "ThreadPoolExecutor"):
                self._patch(mod, "ThreadPoolExecutor", self._pool_class())
        gsol = mods["gfunction"].GSolution
        self._patch(gsol, "eval", self._wrap(gsol.eval, "gfunction.GSolution.eval"))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    # -- results -----------------------------------------------------------

    def spans(self) -> "Spans":
        with self._lock:
            bufs = list(self._buffers)

        def column(field, dtype):
            return np.concatenate(
                [np.asarray(getattr(b, field), dtype=dtype) for b in bufs] or [np.empty(0, dtype)])

        tid = np.concatenate(
            [np.full(len(b.sid), b.tid, dtype=np.int64) for b in bufs] or [np.empty(0, np.int64)])
        return Spans(list(self.names), sid=column("sid", np.int64),
                     name=column("name", np.int32), parent=column("parent", np.int64),
                     start=column("start", float), end=column("end", float),
                     n=column("n", np.int64), tid=tid)


class Spans:
    """Flat span table, indexed by span id."""

    def __init__(self, names, sid, name, parent, start, end, n, tid):
        order = np.argsort(sid, kind="stable")
        self.names = names
        self.sid = sid[order]
        self.name = name[order]
        self.parent = parent[order]
        self.start = start[order]
        self.end = end[order]
        self.n = n[order]
        self.tid = tid[order]

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), sid=self.sid, name=self.name,
                            parent=self.parent, start=self.start, end=self.end, n=self.n,
                            tid=self.tid)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def mask(self, name: str) -> np.ndarray:
        return np.isin(self.name, [i for i, s in enumerate(self.names) if s == name])

    def _rows_of(self, sids: np.ndarray) -> np.ndarray:
        rows = np.searchsorted(self.sid, sids)
        rows = np.clip(rows, 0, max(len(self.sid) - 1, 0))
        ok = (sids >= 0) & (self.sid[rows] == sids) if len(self.sid) else np.zeros(0, bool)
        return np.where(ok, rows, -1)

    def has_ancestor(self, rows_mask: np.ndarray, ancestor: np.ndarray) -> np.ndarray:
        """For spans in rows_mask: whether some ancestor row is in the ancestor mask."""
        rows = np.nonzero(rows_mask)[0]
        found = np.zeros(rows.size, dtype=bool)
        cur = self._rows_of(self.parent[rows])
        for _ in range(64):
            live = cur >= 0
            if not np.any(live):
                break
            found[live] |= ancestor[cur[live]]
            nxt = np.full_like(cur, -1)
            nxt[live] = self._rows_of(self.parent[cur[live]])
            cur = np.where(found, -1, nxt)
        return found

    def child_rows(self, ancestor: np.ndarray) -> np.ndarray:
        """Spans whose direct parent is in the ancestor mask."""
        prow = self._rows_of(self.parent)
        out = np.zeros(len(self.sid), dtype=bool)
        ok = prow >= 0
        out[ok] = ancestor[prow[ok]]
        return out

    def self_times(self, parents: np.ndarray) -> np.ndarray:
        """Duration minus the union of direct children's intervals, per parent row."""
        rows = np.nonzero(parents)[0]
        prow = self._rows_of(self.parent)
        out = []
        for r in rows:
            kids = np.nonzero(prow == r)[0]
            lo, hi = self.start[r], self.end[r]
            iv = sorted(zip(np.clip(self.start[kids], lo, hi), np.clip(self.end[kids], lo, hi)))
            covered, cur_lo, cur_hi = 0.0, None, None
            for a, b in iv:
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((hi - lo) - covered)
        return np.array(out)
