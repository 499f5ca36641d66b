"""In-memory spans around the program's public calls, and the per-layer view.

The traced run wraps each layer's entry point from here (the program itself
is not modified) and keeps every span in memory until the run ends.  A span
records its name, start, end, thread, parent span and batch id; a layer's
self time is its span's duration minus the part its child spans cover.

Work inside spawned prepare processes and names bound at import by the
program's own modules (``stages`` importing ``build_aggregation_plans``)
cannot be wrapped from here; those layers are read from the program's
metric registry instead (see :func:`registry_view`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import types
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int  # -1 for a root span
    batch: str  # "<epoch>:<index>", or "" when unknown

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from wrapped calls on any thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: pass label (epoch number, or "infer") used in batch ids
        self.epoch = ""
        #: batch key -> index within the current pass (see batch_key)
        self.batches: dict[bytes, int] = {}
        self.main_thread = threading.get_ident()
        #: optimizer steps completed on the main thread in this pass
        self.step = 0
        #: registry handed to traced inference passes (Trainer.predict
        #: passes none, so its stage waits would otherwise be dropped)
        from repro.telemetry import MetricsRegistry

        self.infer_metrics = MetricsRegistry()

    # -- batch ids ------------------------------------------------------
    @staticmethod
    def batch_key(nodes) -> bytes:
        """Seed nodes lead every MFG's ``n_id``, so their first ids key
        both the sampler's input and the slicer's."""
        return np.asarray(nodes[:8], dtype=np.int64).tobytes()

    def start_pass(self, label, batches) -> None:
        self.epoch = str(label)
        self.batches = {self.batch_key(b): i for i, b in enumerate(batches)}
        self.step = 0

    def batch_id(self, index) -> str:
        return f"{self.epoch}:{index}"

    def lookup(self, nodes) -> Optional[str]:
        index = self.batches.get(self.batch_key(nodes))
        return None if index is None else self.batch_id(index)

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    # -- wrapping -------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        batch_of: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``batch_of(args)`` names the call's batch; otherwise it inherits
        the enclosing span's, and main-thread spans fall back to the
        current optimizer step.  ``on_result(args, result)`` records work
        counts from the call.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            tid = threading.get_ident()
            batch = batch_of(args) if batch_of is not None else None
            if batch is None and stack:
                batch = stack[-1][1]
            if batch is None and tid == rec.main_thread:
                batch = rec.batch_id(rec.step)
            span_id = next(rec._ids)
            parent = stack[-1][0] if stack else -1
            stack.append((span_id, batch or ""))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec.spans.append(
                    Span(span_id, name, start, end, tid, parent, batch or "")
                )
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- views ----------------------------------------------------------
    def window(self, t0: float, t1: float) -> list[Span]:
        return [s for s in self.spans if s.start >= t0 and s.end <= t1]

    @staticmethod
    def self_times(spans: list[Span]) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in spans:
            children.setdefault(s.parent, []).append(s)
        out = {}
        for s in spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.span_id] = s.duration - covered
        return out

    def summary(self, spans: list[Span], main_only: bool = False) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        selfs = self.self_times(spans)
        out: dict[str, dict] = {}
        for s in spans:
            if main_only and s.thread != self.main_thread:
                continue
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += selfs[s.span_id]
        return out

    def write(self, path: Path) -> None:
        """Every span, plus the per-name summary (calls, total, self)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"summary": self.summary(self.spans), "spans": [asdict(s) for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh)


class Patches:
    """Attribute replacements undone in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def set(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` (a class, module or instance attribute);
        :meth:`undo` puts back exactly what ``owner`` itself held."""
        namespace = vars(owner)
        had = attr in namespace
        original = namespace.get(attr)
        shared = isinstance(owner, (type, types.ModuleType))
        # Instances may override __setattr__ (Module registers children).
        setter = setattr if shared else object.__setattr__
        setter(owner, attr, value)

        def restore() -> None:
            if had:
                setter(owner, attr, original)
            elif shared:
                delattr(owner, attr)
            else:
                namespace.pop(attr, None)

        self._undo.append(restore)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _mfg_counts(rec: SpanRecorder, prefix: str, mfg) -> None:
    rec.count(f"{prefix}.nodes", len(mfg.n_id))
    rec.count(f"{prefix}.edges", mfg.total_edges())
    rec.count(f"{prefix}.seeds", mfg.batch_size)


def install_layer_wrappers(rec: SpanRecorder, trainer, patches: Patches) -> None:
    """Wrap the public entry point of every traced layer of ``trainer``."""
    from repro.nn.optim import Adam
    from repro.runtime import mp_prepare, shm
    from repro.runtime.device import Device
    from repro.runtime.pinned import PinnedBufferPool
    from repro.sampling.fast_sampler import FastNeighborSampler
    from repro.slicing import memmap_store, quantize
    from repro.slicing.memmap_store import TieredFeatureStore
    from repro.slicing.store import FeatureStore
    from repro.tensor import functional
    from repro.tensor.tensor import Tensor
    from repro.train import loop

    def sampled(args, mfg):
        _mfg_counts(rec, "sampling", mfg)

    patches.set(
        FastNeighborSampler,
        "sample",
        rec.wrap(
            "sampling.sample",
            FastNeighborSampler.sample,
            batch_of=lambda a: rec.lookup(a[1]),
            on_result=sampled,
        ),
    )

    def sliced(args, out):
        rec.count("slicing.rows", len(args[1]))
        rec.count("slicing.bytes", out.nbytes)

    for cls in (FeatureStore, TieredFeatureStore):
        patches.set(
            cls,
            "slice_features",
            rec.wrap(
                "slicing.slice_features",
                cls.slice_features,
                batch_of=lambda a: rec.lookup(a[1]),
                on_result=sliced,
            ),
        )
    dequant = rec.wrap("slicing.dequantize_rows", quantize.dequantize_rows)
    patches.set(quantize, "dequantize_rows", dequant)
    patches.set(memmap_store, "dequantize_rows", dequant)

    def transferred(args, out):
        rec.count("transfer.bytes", args[1].nbytes())

    patches.set(
        Device,
        "transfer_batch",
        rec.wrap(
            "transfer.transfer_batch",
            Device.transfer_batch,
            batch_of=lambda a: rec.batch_id(a[2]) if len(a) > 2 else None,
            on_result=transferred,
        ),
    )
    patches.set(
        PinnedBufferPool,
        "acquire",
        rec.wrap("pinned.acquire", PinnedBufferPool.acquire),
    )
    decode = rec.wrap(
        "shm.decode_mfg",
        shm.decode_mfg,
        on_result=lambda a, mfg: _mfg_counts(rec, "decoded", mfg),
    )
    patches.set(shm, "decode_mfg", decode)
    patches.set(mp_prepare, "decode_mfg", decode)

    model = trainer.model
    patches.set(model, "forward", rec.wrap("model.forward", model.forward))
    for i, conv in enumerate(model.convs):
        patches.set(conv, "forward", rec.wrap(f"model.conv{i}.forward", conv.forward))
    patches.set(Tensor, "backward", rec.wrap("tensor.backward", Tensor.backward))
    patches.set(functional, "nll_loss", rec.wrap("loss.nll_loss", functional.nll_loss))

    def stepped(args, out):
        if threading.get_ident() == rec.main_thread:
            rec.step += 1

    patches.set(Adam, "step", rec.wrap("optim.step", Adam.step, on_result=stepped))
    infer_pass = rec.wrap("infer.pass", loop.sampled_inference)

    @functools.wraps(loop.sampled_inference)
    def sampled_inference(*args, **kwargs):
        kwargs.setdefault("metrics", rec.infer_metrics)
        return infer_pass(*args, **kwargs)

    patches.set(loop, "sampled_inference", sampled_inference)


def install_setup_wrappers(rec: SpanRecorder, patches: Patches) -> None:
    """Wrap the slab writer, which Trainer construction imports per call."""
    from repro.datasets import slab

    patches.set(slab, "write_dataset_slab", rec.wrap("datasets.slab_write", slab.write_dataset_slab))


def registry_view(metrics, counters=None) -> dict[str, float]:
    """The registry values the traced layers need, as one flat dict.

    Deltas of two views bracket a region.  Histograms contribute their sum
    and count; labelled families are summed across labels.
    """
    from repro.telemetry.metrics import Histogram

    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + float(value)

    for metric in metrics.collect():
        labels = metric.label_dict
        name = metric.name
        if name in ("stage_seconds", "caller_seconds"):
            name = f"{name}.{labels.get('stage', '')}"
        elif name == "feature_tier_rows":
            name = f"{name}.{labels.get('tier', '')}"
        if isinstance(metric, Histogram):
            add(name, metric.sum)
            add(f"{name}#count", metric.count)
        else:
            add(name, metric.value)
    if counters is not None:
        for key, value in counters.snapshot().items():
            add(f"counters.{key}", value)
    return out


def delta(after: dict, before: dict) -> dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}
