"""In-memory span recorder for the benchmark's own layer boundaries.

Every call the benchmark makes into a layer of :mod:`repro` is wrapped
in ``tracer.span(name)``.  A span records its name, start, end, the
span it ran inside (``parent``) and the op it belongs to.  Spans stay in
memory and are written once, at exit.  With tracing off ``span`` yields
``None`` and records nothing, so untraced runs pay only a context
manager per layer call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self.op: Optional[int] = None  # op id stamped on new spans
        self._stack: List[int] = []
        #: seconds spent inside the recorder itself (the direct part of
        #: the tracing overhead)
        self.bookkeeping_s = 0.0

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Dict[str, object]]]:
        if not self.enabled:
            yield None
            return
        t_in = time.perf_counter()
        rec: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        self.bookkeeping_s += rec["start"] - t_in
        try:
            yield rec
        finally:
            rec["end"] = t_out = time.perf_counter()
            self._stack.pop()
            self.bookkeeping_s += time.perf_counter() - t_out

    def self_times_ms(self, ops: Optional[set] = None) -> Dict[str, float]:
        """Total self time per span name, over spans of ``ops`` (all if None).

        A span's self time is its duration minus the time its direct
        children cover; children of one span never overlap because the
        benchmark calls the layers one after another.
        """
        child_s: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        out: Dict[str, float] = {}
        for s in self.spans:
            if ops is not None and s["op"] not in ops:
                continue
            own = (s["end"] - s["start"]) - child_s.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own * 1000.0
        return out

    def total_ms(self, name: str, ops: Optional[set] = None) -> float:
        """Summed wall time of every span called ``name``."""
        return 1000.0 * sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (ops is None or s["op"] in ops)
        )

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)
