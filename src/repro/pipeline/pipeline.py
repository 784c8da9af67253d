"""The :class:`Pipeline` pass-manager.

A pipeline composes :class:`~repro.pipeline.stage.Stage` objects into a
staged compiler run.  For every stage it:

1. derives the stage's cache key from its parameters and the content hashes
   of its inputs (initial inputs hash by content; derived artifacts of
   unknown type fall back to the provenance key of the stage that produced
   them);
2. short-circuits on a hit in the in-process memo cache or the on-disk
   :class:`~repro.pipeline.artifacts.ArtifactStore`;
3. otherwise executes the stage, records wall time, and writes the artifact
   back to both cache layers.

Each artifact is hashed and pickled at most once per cache key per process.
A memo entry is ``(output_hash, payload)``: a memory hit thaws ``payload``
and takes the output hash from the entry instead of re-hashing the thawed
artifact.  An artifact whose pickle exceeds :data:`MEMO_MAX_ENTRY_BYTES`
keeps an entry with ``payload=None``, so re-executing its key (the
translate stage of a K_max sweep, for instance) reuses the recorded hash
and skips the pickle it would only discard again.  This rests on stage
determinism, the assumption every cache hit already makes.

Every run returns a :class:`PipelineRun` carrying the final artifact state
and a provenance manifest — one :class:`StageRecord` per stage saying
whether it executed, hit a cache layer, or was satisfied by a provided
input, plus the key and timing.  Per-stage telemetry accumulates in the metrics
registry (:data:`repro.obs.metrics.METRICS` by default) as labelled series:
``pipeline.stage.executions``, ``pipeline.stage.memory_hits`` and
``pipeline.stage.disk_hits`` counters plus the ``pipeline.stage.seconds``
histogram of execution wall time, each with a ``stage`` label.

Entry points may start mid-pipeline: a stage whose output is already
present in the initial state is recorded as ``provided`` and skipped, which
is how ``compile(pattern)`` and ``compile(computation_graph)`` reuse the
same stage list as ``compile(circuit)``.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.obs.events import EVENTS
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import TRACER
from repro.pipeline.artifacts import ArtifactStore, caching_disabled
from repro.pipeline.hashing import content_hash
from repro.pipeline.stage import Stage
from repro.utils.errors import CompilationError

__all__ = [
    "LRUCache",
    "Pipeline",
    "PipelineRun",
    "StageRecord",
    "clear_memory_cache",
]

#: Entry bound of the process-global stage memo.
MEMORY_CACHE_SIZE = 128

#: Artifacts whose pickled snapshot exceeds this many bytes keep no snapshot
#: in the in-process memo (they remain disk-cached): the memo is bounded by
#: entry count, and a handful of paper-scale DistributedCompilationResults
#: would otherwise dominate worker memory.  Their entry still carries the
#: output hash and so remembers the over-cap verdict: a re-execution of the
#: key neither re-hashes nor re-pickles the artifact.
MEMO_MAX_ENTRY_BYTES = 8 * 1024 * 1024

#: A memo entry: the artifact's output hash and its pickled snapshot (``None``
#: when the snapshot exceeded :data:`MEMO_MAX_ENTRY_BYTES`).
MemoEntry = Tuple[str, Optional[bytes]]

#: Metric-name prefix of the per-stage telemetry series.
STAGE_METRICS = "pipeline.stage."

_MISSING = object()

V = TypeVar("V")


class LRUCache:
    """A thread-safe mapping bounded to ``maxsize`` least-recently-used entries."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable, default: Optional[V] = None):
        """Return the cached value (marking it recently used) or ``default``."""
        with self._lock:
            if key not in self._entries:
                return default
            self._entries.move_to_end(key)
            return self._entries[key]

    def put(self, key: Hashable, value: object) -> None:
        """Insert ``value``, evicting the least-recently-used overflow entry."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def get_or_create(self, key: Hashable, factory: Callable[[], V]) -> V:
        """Return the cached value, creating it via ``factory`` on a miss."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.misses += 1
        value = factory()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


#: The process-global stage memo every pipeline shares unless given its own.
_MEMORY_CACHE = LRUCache(maxsize=MEMORY_CACHE_SIZE)


def clear_memory_cache() -> None:
    """Drop every memoised stage artifact (used between test phases)."""
    _MEMORY_CACHE.clear()


@dataclass(frozen=True)
class StageRecord:
    """Provenance of one stage within one pipeline run.

    Attributes:
        stage: Stage name.
        status: ``"executed"``, ``"memory-hit"``, ``"disk-hit"``,
            ``"provided"`` (output supplied with the initial state) or
            ``"skipped"`` (upstream of a mid-pipeline entry point).
        key: The stage's cache key (``None`` when caching did not apply).
        seconds: Wall time of a real execution (0 for hits).
        output: Name of the produced state entry.
    """

    stage: str
    status: str
    key: Optional[str]
    seconds: float
    output: str

    @property
    def is_hit(self) -> bool:
        """True when the artifact came from a cache layer."""
        return self.status in ("memory-hit", "disk-hit")

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for manifests and ``--json`` output."""
        return {
            "stage": self.stage,
            "status": self.status,
            "key": self.key,
            "seconds": round(self.seconds, 6),
            "output": self.output,
        }


@dataclass
class PipelineRun:
    """Everything produced by one pipeline invocation."""

    state: Dict[str, object]
    records: List[StageRecord] = field(default_factory=list)
    final_output: Optional[str] = None

    @property
    def artifact(self) -> object:
        """The final stage's output artifact."""
        if self.final_output is None:
            raise CompilationError("pipeline produced no output")
        return self.state[self.final_output]

    @property
    def cache_hits(self) -> int:
        """Stages satisfied by a cache layer in this run."""
        return sum(1 for record in self.records if record.is_hit)

    @property
    def executions(self) -> int:
        """Stages that performed real work in this run (cache misses)."""
        return sum(1 for record in self.records if record.status == "executed")

    def manifest(self) -> Dict[str, object]:
        """Provenance manifest: per-stage status/keys/timing plus totals."""
        return {
            "stages": [record.as_dict() for record in self.records],
            "cache_hits": self.cache_hits,
            "executions": self.executions,
            "seconds": round(sum(record.seconds for record in self.records), 6),
        }


class Pipeline:
    """Compose stages with content-addressed caching and telemetry.

    Args:
        stages: The stage sequence; each stage's inputs must be produced by
            an earlier stage or provided with the initial state.
        store: Optional on-disk artifact store shared across processes.
        use_cache: Disable both cache layers (and hashing) entirely —
            used by compilation-runtime benchmarks that must measure real
            work.
        no_cache_stages: Names of stages that must always *execute* (no
            cache lookup) but still publish their artifact to the cache
            layers.  Compilation-runtime benchmarks use this to scope the
            cache bypass to the timed stage while shared upstream prefixes
            stay reusable.
        memo: In-process memo cache; defaults to the process-global LRU.
        metrics: Registry the per-stage telemetry lands in; defaults to the
            process-global :data:`~repro.obs.metrics.METRICS`.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        store: Optional[ArtifactStore] = None,
        use_cache: bool = True,
        no_cache_stages: Sequence[str] = (),
        memo=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise CompilationError(f"duplicate stage names in pipeline: {names}")
        self.stages = list(stages)
        self.store = store
        self.use_cache = use_cache
        self.no_cache_stages = frozenset(no_cache_stages)
        self.memo = memo if memo is not None else _MEMORY_CACHE
        self.metrics = metrics if metrics is not None else METRICS

    def run(self, initial: Mapping[str, object]) -> PipelineRun:
        """Execute every stage against ``initial``, returning the run record."""
        state: Dict[str, object] = dict(initial)
        hashes: Dict[str, str] = {}
        records: List[StageRecord] = []

        # DCMBQC_PIPELINE_DISABLE_CACHE=1 (the CLI's --no-cache, inherited
        # by sweep workers) bypasses every layer, memo included.
        use_cache = self.use_cache and not caching_disabled()

        if use_cache:
            for name, value in state.items():
                value_hash = content_hash(value)
                if value_hash is not None:
                    hashes[name] = value_hash

        # Entry may be mid-pipeline (e.g. a pre-built computation graph):
        # every stage up to the last one whose output was provided is
        # skipped, so upstream stages never demand inputs the caller has
        # already surpassed.
        first_needed = 0
        for index, stage in enumerate(self.stages):
            if stage.output in state:
                first_needed = index + 1

        with TRACER.span(
            "pipeline.run", stages=len(self.stages), cached=use_cache
        ) as run_span:
            for index, stage in enumerate(self.stages):
                if stage.output in state:
                    records.append(
                        StageRecord(stage.name, "provided", None, 0.0, stage.output)
                    )
                    continue
                if index < first_needed:
                    records.append(
                        StageRecord(stage.name, "skipped", None, 0.0, stage.output)
                    )
                    continue
                missing = [name for name in stage.inputs if name not in state]
                if missing:
                    raise CompilationError(
                        f"stage {stage.name!r} is missing inputs {missing}; provide "
                        f"them in the initial state or add a producing stage"
                    )

                key: Optional[str] = None
                cacheable = (
                    use_cache
                    and stage.cacheable
                    and all(name in hashes for name in stage.inputs)
                )
                value: object = _MISSING
                status = "executed"
                # This key's memo entry: (output hash, pickled snapshot or
                # None when the snapshot exceeded MEMO_MAX_ENTRY_BYTES).
                entry: Optional[MemoEntry] = None

                if EVENTS.enabled:
                    EVENTS.emit("stage.start", stage=stage.name)
                with TRACER.span(f"stage.{stage.name}", stage=stage.name) as stage_span:
                    if cacheable:
                        key = stage.key([hashes[name] for name in stage.inputs])
                        entry = self.memo.get(key)
                    lookup = cacheable and stage.name not in self.no_cache_stages
                    if lookup and entry is not None and entry[1] is not None:
                        # The memo holds pickled snapshots: every hit thaws a
                        # private copy, so callers may mutate returned artifacts
                        # freely without corrupting the cache (same semantics as
                        # disk hits).
                        value, status = pickle.loads(entry[1]), "memory-hit"
                        self.metrics.inc(
                            STAGE_METRICS + "memory_hits", stage=stage.name
                        )
                    elif lookup and self.store is not None:
                        loaded = self.store.load(key)
                        if loaded is not None:
                            value, payload = loaded
                            status = "disk-hit"
                            if entry is None:
                                entry = self._remember(key, value, payload)
                            self.metrics.inc(
                                STAGE_METRICS + "disk_hits", stage=stage.name
                            )

                    if EVENTS.enabled and status in ("memory-hit", "disk-hit"):
                        EVENTS.emit(
                            "cache.hit", stage=stage.name, layer=status[:-4]
                        )

                    seconds = 0.0
                    if value is _MISSING:
                        if EVENTS.enabled and cacheable:
                            EVENTS.emit("cache.miss", stage=stage.name)
                        start = time.perf_counter()
                        try:
                            value = stage.run(state)
                        except Exception as exc:
                            if EVENTS.enabled:
                                EVENTS.error(exc, stage=stage.name)
                            raise
                        seconds = time.perf_counter() - start
                        if value is None:
                            raise CompilationError(
                                f"stage {stage.name!r} returned None"
                            )
                        self.metrics.inc(
                            STAGE_METRICS + "executions", stage=stage.name
                        )
                        self.metrics.observe(
                            STAGE_METRICS + "seconds", seconds, stage=stage.name
                        )
                        if cacheable:
                            if entry is None:
                                payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
                                entry = self._remember(key, value, payload)
                            else:
                                # Stages are deterministic: a re-execution
                                # reproduces the memoised artifact, so its hash
                                # and over-cap verdict stand; the store pickles
                                # only when the memo kept no snapshot.
                                payload = entry[1]
                            if self.store is not None:
                                self.store.put(key, value, payload=payload)
                    stage_span.set(status=status)

                if EVENTS.enabled:
                    EVENTS.emit("stage.finish", stage=stage.name, status=status)
                state[stage.output] = value
                if use_cache:
                    output_hash = entry[0] if entry is not None else content_hash(value)
                    if output_hash is not None:
                        hashes[stage.output] = output_hash
                records.append(
                    StageRecord(stage.name, status, key, seconds, stage.output)
                )

            run_span.set(
                cache_hits=sum(1 for r in records if r.is_hit),
                executions=sum(1 for r in records if r.status == "executed"),
            )

        return PipelineRun(
            state=state,
            records=records,
            final_output=self.stages[-1].output if self.stages else None,
        )

    def _remember(self, key: str, value: object, payload: bytes) -> MemoEntry:
        """Hash ``value`` and memoise it under ``key``; return the new entry.

        Artifacts of unknown type take the provenance key as their hash; a
        snapshot above :data:`MEMO_MAX_ENTRY_BYTES` is dropped, but the entry
        keeps its hash so later runs of the key neither hash nor pickle.
        """
        output_hash = content_hash(value)
        entry = (
            key if output_hash is None else output_hash,
            payload if len(payload) <= MEMO_MAX_ENTRY_BYTES else None,
        )
        self.memo.put(key, entry)
        return entry
