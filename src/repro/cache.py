"""Content-addressed schedule cache.

A design-space sweep re-solves the same (kernel, architecture) cells
over and over — across reruns, across CI jobs, across the kernels ×
profiles grid when two profiles happen to induce the same constraint
model.  Solving is seconds-to-minutes of branch-and-bound; looking the
answer up should be microseconds.  This module provides:

* :func:`graph_fingerprint` — a *canonical*, node-order-independent
  structural hash of an IR graph (re-exported from
  :mod:`repro.ir.fingerprint`, where it lives so the analysis layer's
  pass certificates can share the exact same identity).  Two graphs
  that are isomorphic as operand-ordered dataflow DAGs (same
  operations, same wiring, same operand positions) hash equal no
  matter in which order their nodes were created; any change that
  affects scheduling (a different op, an extra edge, a different
  merge) changes the hash.
* :func:`cache_key` — the full content address: graph fingerprint +
  the :class:`~repro.arch.eit.EITConfig` (which carries every latency/
  resource parameter, so a one-latency change misses) + the solve kind
  and solver options.
* :class:`ScheduleCache` — a two-tier store: an in-memory LRU dict and
  an optional on-disk JSON directory, with hit/miss/store counters
  (:class:`CacheStats`) that :mod:`repro.report` renders and the warm-
  sweep tests assert on.

Cached values are plain JSON-able payload dicts (see
:func:`schedule_payload` / :func:`modulo_payload`), not the live result
objects — the disk tier and the process-pool transport both want data,
not object graphs.  Rehydration re-attaches the caller's own
:class:`~repro.ir.graph.Graph`/config.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.arch.eit import EITConfig
from repro.cp.search import SolveStatus
from repro.ir.fingerprint import graph_fingerprint
from repro.ir.graph import Graph
from repro.sched.modulo import ModuloResult
from repro.sched.result import Schedule

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "ScheduleCache",
    "cache_key",
    "graph_fingerprint",
    "modulo_from_payload",
    "modulo_payload",
    "schedule_from_payload",
    "schedule_payload",
]

#: bump when the payload layout or the fingerprint recipe changes, so a
#: stale disk tier can never rehydrate into the wrong shape.
CACHE_FORMAT_VERSION = 1


def cache_key(
    graph: Graph,
    cfg: EITConfig,
    kind: str,
    options: Optional[Mapping[str, Any]] = None,
) -> str:
    """The content address of one solve.

    ``kind`` names the solve family (``"schedule"`` / ``"modulo"``),
    ``options`` the solver knobs that can change the answer (budgets,
    encodings, ``include_reconfigs``, ...).  The architecture config is
    hashed field-wise, so *any* parameter change — one latency, one lane
    — produces a different key.
    """
    payload = {
        "v": CACHE_FORMAT_VERSION,
        "graph": graph_fingerprint(graph),
        "cfg": asdict(cfg),
        "kind": kind,
        "options": dict(sorted((options or {}).items())),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# Result payloads (JSON-able both for the disk tier and the pool wire)
# ----------------------------------------------------------------------
def _pass_certificate_dicts(certs) -> List[Dict[str, Any]]:
    return [c.as_dict() for c in certs]


def _pass_certificates_from(payload: Mapping[str, Any]):
    """Rehydrate the pass-certificate chain from a payload (total).

    Entries that are not even dict-shaped are dropped here; entries
    that are dicts but malformed survive rehydration and surface as
    ``DFA608`` findings at verification time (mirroring the BND504
    contract for bounds certificates).
    """
    from repro.analysis.equivalence import PassCertificate

    raw = payload.get("pass_certificates") or ()
    out = []
    for entry in raw:
        cert = PassCertificate.from_dict(entry if isinstance(entry, Mapping) else None)
        if cert is not None:
            out.append(cert)
    return tuple(out)


def schedule_payload(s: Schedule) -> Dict[str, Any]:
    """The JSON-able essence of a :class:`Schedule` (graph not included)."""
    return {
        "kind": "schedule",
        "makespan": s.makespan,
        "starts": {str(k): v for k, v in s.starts.items()},
        "slots": {str(k): v for k, v in s.slots.items()},
        "status": s.status.value,
        "solve_time_ms": s.solve_time_ms,
        "fallback": s.fallback,
        "certificate": (
            s.certificate.as_dict() if s.certificate is not None else None
        ),
        "pass_certificates": _pass_certificate_dicts(s.pass_certificates),
    }


def schedule_from_payload(
    payload: Mapping[str, Any], graph: Graph, cfg: EITConfig
) -> Schedule:
    from repro.analysis.certify import Certificate

    return Schedule(
        graph=graph,
        cfg=cfg,
        starts={int(k): v for k, v in payload["starts"].items()},
        makespan=payload["makespan"],
        slots={int(k): v for k, v in payload["slots"].items()},
        status=SolveStatus(payload["status"]),
        solve_time_ms=payload["solve_time_ms"],
        fallback=payload["fallback"],
        certificate=Certificate.from_dict(payload.get("certificate")),
        pass_certificates=_pass_certificates_from(payload),
    )


def modulo_payload(m: ModuloResult) -> Dict[str, Any]:
    """The JSON-able essence of a :class:`ModuloResult`."""
    return {
        "kind": "modulo",
        "graph_name": m.graph_name,
        "include_reconfigs": m.include_reconfigs,
        "ii": m.ii,
        "n_reconfigurations": m.n_reconfigurations,
        "actual_ii": m.actual_ii,
        "status": m.status.value,
        "opt_time_ms": m.opt_time_ms,
        "offsets": {str(k): v for k, v in m.offsets.items()},
        "stages": {str(k): v for k, v in m.stages.items()},
        "tried": [list(t) for t in m.tried],
        "fallback": m.fallback,
        "certificate": (
            m.certificate.as_dict() if m.certificate is not None else None
        ),
        "pass_certificates": _pass_certificate_dicts(m.pass_certificates),
    }


def modulo_from_payload(payload: Mapping[str, Any]) -> ModuloResult:
    from repro.analysis.certify import Certificate

    return ModuloResult(
        graph_name=payload["graph_name"],
        include_reconfigs=payload["include_reconfigs"],
        ii=payload["ii"],
        n_reconfigurations=payload["n_reconfigurations"],
        actual_ii=payload["actual_ii"],
        status=SolveStatus(payload["status"]),
        opt_time_ms=payload["opt_time_ms"],
        offsets={int(k): v for k, v in payload["offsets"].items()},
        stages={int(k): v for k, v in payload["stages"].items()},
        tried=[(w, s) for w, s in payload["tried"]],
        fallback=payload["fallback"],
        certificate=Certificate.from_dict(payload.get("certificate")),
        pass_certificates=_pass_certificates_from(payload),
    )


# ----------------------------------------------------------------------
# The two-tier cache
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Counters a warm-sweep test can assert on.

    ``solver_nodes`` accumulates the CP search nodes spent filling
    misses (reported by the caller via :meth:`ScheduleCache.record_solve`);
    a fully warm rerun must therefore show ``misses == 0`` *and*
    ``solver_nodes == 0`` — zero new search effort.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    solver_nodes: int = 0
    #: cached payloads the static analyser rejected (corrupt entries
    #: caught by an ``audit=True`` sweep and invalidated)
    audit_rejections: int = 0
    #: sweep cells resolved by a static-bounds certificate with zero CP
    #: search *and* zero cache traffic (they never reach get/put)
    bound_pruned: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ScheduleCache:
    """In-memory LRU over an optional on-disk JSON tier.

    The memory tier is a plain ordered dict evicting least-recently-used
    entries past ``capacity``.  When ``disk_dir`` is given, every store
    also writes ``<key>.json`` there, and a memory miss falls through to
    disk (promoting the entry back into memory on hit) — so a sweep
    survives process restarts and CI can ship the directory as an
    artifact.  Corrupt or version-mismatched disk entries are treated as
    misses, never as errors.
    """

    def __init__(self, capacity: int = 512, disk_dir: Optional[str] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.disk_dir = disk_dir
        self.stats = CacheStats()
        self._mem: Dict[str, Dict[str, Any]] = {}
        if disk_dir:
            os.makedirs(disk_dir, exist_ok=True)

    # -- tiers ---------------------------------------------------------
    def _disk_path(self, key: str) -> str:
        assert self.disk_dir is not None
        return os.path.join(self.disk_dir, f"{key}.json")

    def _read_disk(self, key: str) -> Optional[Dict[str, Any]]:
        if not self.disk_dir:
            return None
        path = self._disk_path(key)
        try:
            with open(path) as f:
                wrapped = json.load(f)
        except (OSError, ValueError):
            return None
        if wrapped.get("v") != CACHE_FORMAT_VERSION:
            return None
        return wrapped.get("payload")

    def _write_disk(self, key: str, payload: Mapping[str, Any]) -> None:
        if not self.disk_dir:
            return
        path = self._disk_path(key)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w") as f:
                json.dump({"v": CACHE_FORMAT_VERSION, "payload": payload}, f)
            os.replace(tmp, path)
        except OSError:
            pass  # the disk tier is best-effort; memory tier still holds it

    # -- public API ----------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Payload for ``key``, or None; counts a hit or a miss."""
        if key in self._mem:
            self._mem[key] = self._mem.pop(key)  # refresh LRU position
            self.stats.hits += 1
            return self._mem[key]
        payload = self._read_disk(key)
        if payload is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._insert_mem(key, payload)
            return payload
        self.stats.misses += 1
        return None

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        self.stats.stores += 1
        self._insert_mem(key, dict(payload))
        self._write_disk(key, payload)

    def _insert_mem(self, key: str, payload: Dict[str, Any]) -> None:
        self._mem.pop(key, None)
        self._mem[key] = payload
        while len(self._mem) > self.capacity:
            self._mem.pop(next(iter(self._mem)))
            self.stats.evictions += 1

    def record_solve(self, nodes: int) -> None:
        """Attribute ``nodes`` CP search nodes to filling a miss."""
        self.stats.solver_nodes += nodes

    def invalidate(self, key: str) -> None:
        """Drop ``key`` from both tiers (a payload failed its audit).

        Counts an ``audit_rejections``; the next :meth:`get` for the
        key is a clean miss, so the caller re-solves instead of
        re-trusting a corrupt entry.
        """
        self.stats.audit_rejections += 1
        self._mem.pop(key, None)
        if self.disk_dir:
            try:
                os.remove(self._disk_path(key))
            except OSError:
                pass

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, key: str) -> bool:
        return key in self._mem or self._read_disk(key) is not None
