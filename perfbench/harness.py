"""One run of one workload through the public ``Trainer`` API.

A run sets up (dataset generation + ``Trainer`` construction, repeated
``SETUP_REPS`` times), warms up, measures a timed region sized from
``--seconds``, then replays the same work on a ``serial``-executor Trainer
outside the timed region and counts every batch whose result is not
byte-identical (or not finite, or raised) as a failed op.

With ``trace=True`` the timed region runs twice, untraced then traced, and
the run reports per-layer metrics from the traced copy (see
:mod:`perfbench.tracing`) instead of the end-to-end metrics.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import resource
import statistics
import struct
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np
from scipy.special import betainc

from repro.datasets.synthetic import generate_dataset
from repro.train.config import get_config
from repro.train.loop import Trainer
from repro.train.metrics import accuracy

from perfbench import spec, tracing


@dataclass(frozen=True)
class Sizing:
    """Input size; the benchmark always runs the default, tests run SMOKE."""

    scale: float = spec.SCALE
    setup_reps: int = spec.SETUP_REPS
    #: overrides the infer workload's setup epochs when set
    infer_setup_epochs: Optional[int] = None


SMOKE = Sizing(scale=0.5, setup_reps=2, infer_setup_epochs=1)


@dataclass
class Outcome:
    """What one run reports: ops counts, metrics, and human-readable notes."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    spans: Optional[tracing.SpanRecorder] = None


# ----------------------------------------------------------------------
# Clocks, memory, setup
# ----------------------------------------------------------------------
class Clock:
    """Stamps every completed call of ``owner.<attr>`` while in its ``with``.

    A method the owner inherits is looked up on its class at each call,
    so class-level trace wrappers installed later still run underneath.
    """

    def __init__(self, owner, attr: str) -> None:
        self.stamps: list[float] = []
        self._patches = tracing.Patches()
        self._owner, self._attr = owner, attr

    def __enter__(self) -> "Clock":
        owner, attr, stamps = self._owner, self._attr, self.stamps
        own = vars(owner).get(attr)

        def stamped(*args, **kwargs):
            fn = own if own is not None else getattr(type(owner), attr).__get__(owner)
            out = fn(*args, **kwargs)
            stamps.append(perf_counter())
            return out

        self._patches.set(owner, attr, stamped)
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.undo()

    def intervals(self, t0: float) -> np.ndarray:
        """Gaps between consecutive stamps, the first measured from ``t0``
        (a training region's first step includes its epoch refill)."""
        return np.diff(np.asarray([t0] + self.stamps))


def _vm_hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus each live worker process.

    ``RUSAGE_CHILDREN`` only counts reaped children, so live prepare
    workers are read from their own ``VmHWM`` while they still run.
    """
    own = _vm_hwm_kb("self") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = sum(_vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
    return (own + children) / 1024.0


def make_trainer(wl: spec.Workload, dataset, seed: int, executor: Optional[str] = None) -> Trainer:
    config = get_config(wl.dataset, spec.MODEL)
    expected = (config.num_layers, config.hidden_channels, config.batch_size,
                tuple(config.train_fanouts), tuple(config.infer_fanouts))
    if expected != (3, 64, 256, (15, 10, 5), (20, 20, 20)):
        raise RuntimeError(f"Table-5 config drifted from the benchmark's: {expected}")
    return Trainer(
        dataset,
        config,
        executor=executor or wl.executor,
        num_workers=spec.WORKERS,
        prepare_workers=spec.WORKERS,
        seed=seed,
        infer_executor=wl.infer_executor,
        feature_tier=wl.feature_tier,
    )


@dataclass
class Setup:
    dataset: object
    trainer: Trainer
    generate_s: list
    init_s: list
    slab_write_s: list

    @property
    def median_s(self) -> float:
        return statistics.median(g + i for g, i in zip(self.generate_s, self.init_s))


def build(wl, seed, sizing: Sizing, rec: Optional[tracing.SpanRecorder]) -> Setup:
    """Generate + construct ``sizing.setup_reps`` times; keep the last."""
    gen, init, slab = [], [], []
    dataset = trainer = None
    for rep in range(sizing.setup_reps):
        if trainer is not None:
            trainer.shutdown()
        dataset = trainer = None
        gc.collect()
        t0 = perf_counter()
        dataset = generate_dataset(wl.dataset, scale=sizing.scale, seed=seed)
        t1 = perf_counter()
        trainer = make_trainer(wl, dataset, seed)
        t2 = perf_counter()
        gen.append(t1 - t0)
        init.append(t2 - t1)
        if rec is not None:
            slab.append(sum(s.duration for s in rec.window(t1, t2)
                            if s.name == "datasets.slab_write"))
    return Setup(dataset, trainer, gen, init, slab)


# ----------------------------------------------------------------------
# Regions and the correctness gate
# ----------------------------------------------------------------------
@dataclass
class Region:
    t0: float
    t1: float
    starts: list  # wall-clock start of each epoch / pass
    losses: dict = field(default_factory=dict)  # epoch -> per-batch losses
    error: Optional[BaseException] = None
    #: epochs started, the one that raised included
    attempted: list = field(default_factory=list)
    #: seed nodes of each completed epoch
    epoch_nodes: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    def epoch_rates(self, skip: int = 0) -> list:
        """Seed nodes per second of each completed epoch after ``skip``."""
        ends = self.starts[1:] + [self.t1]
        return [n / (end - start) for n, start, end in
                zip(self.epoch_nodes, self.starts, ends)][skip:]

    def rate(self, skip: int = 0) -> float:
        """Median epoch throughput: one epoch slowed by a burst of outside
        load does not move it."""
        rates = self.epoch_rates(skip)
        return statistics.median(rates) if rates else 0.0


def train_region(trainer, epochs, rec=None) -> Region:
    batches = {ep: trainer.epoch_batches(ep) for ep in epochs}
    region = Region(perf_counter(), 0.0, [])
    for ep in epochs:
        if rec is not None:
            rec.start_pass(ep, batches[ep])
        region.starts.append(perf_counter())
        region.attempted.append(ep)
        try:
            stats = trainer.train_epoch(ep)
        except Exception as exc:  # a failed op, counted by the gate
            region.error = exc
            break
        region.losses[ep] = stats.losses
        region.epoch_nodes.append(sum(len(b) for b in batches[ep]))
    region.t1 = perf_counter()
    return region


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def gate_losses(got: dict, ref: dict, expected: dict) -> tuple[int, int]:
    """(attempted, failed) over every expected batch of every epoch.

    A batch fails when its loss is missing, non-finite, or not
    bit-identical to the reference's loss for the same batch.
    """
    attempted = failed = 0
    for ep, count in expected.items():
        mine, theirs = got.get(ep, []), ref.get(ep, [])
        for i in range(count):
            attempted += 1
            a = mine[i] if i < len(mine) else None
            b = theirs[i] if i < len(theirs) else None
            if a is None or b is None or not math.isfinite(a) or _bits(a) != _bits(b):
                failed += 1
    return attempted, failed


def gate_rows(got: Optional[np.ndarray], ref: Optional[np.ndarray], num_nodes: int,
              batch_size: int) -> tuple[int, int]:
    """(attempted, failed) over predicted batches of ``batch_size`` rows."""
    attempted = failed = 0
    for start in range(0, num_nodes, batch_size):
        attempted += 1
        stop = min(start + batch_size, num_nodes)
        if got is None or ref is None:
            failed += 1
            continue
        mine, theirs = got[start:stop], ref[start:stop]
        if not np.isfinite(mine).all() or mine.tobytes() != theirs.tobytes():
            failed += 1
    return attempted, failed


def timed_epochs(wl, seconds: float, batches_per_epoch: int) -> int:
    return max(1, round(seconds * wl.nominal_rate / batches_per_epoch))


def _percentile(values, q) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A beta-weighted mean of every order statistic: step times here are
    multimodal (refill, prep-bound and compute-bound steps), and a plain
    sample percentile that falls on a mode boundary jumps between modes
    from run to run, while this estimate moves smoothly.
    """
    x = np.sort(np.asarray(values, dtype=float))
    if len(x) < 2:
        return float(x[0]) if len(x) else 0.0
    n, p = len(x), q / 100.0
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


@dataclass
class Pass:
    """One timed ``Trainer.predict`` call."""

    t0: float
    t1: float
    out: Optional[np.ndarray]
    #: gaps between consecutive predicted batches of this call; the call's
    #: start-up (pipeline fill before its first batch) is not a gap
    intervals: np.ndarray
    error: Optional[BaseException]

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


#: timed predict passes over the same nodes; infer reports the median
INFER_PASSES = 3


def test_subset(trainer, seed: int, batches: int) -> np.ndarray:
    """A seed-derived sample of test nodes, ``batches`` batches long."""
    test = trainer.dataset.split.test
    n = min(len(test), batches * trainer.config.batch_size)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    return rng.choice(test, size=n, replace=False)


def timed_predict(trainer, nodes) -> Pass:
    with Clock(trainer.model, "forward") as clock:
        t0 = perf_counter()
        out, error = None, None
        try:
            out = trainer.predict(nodes)
        except Exception as exc:  # a failed op, counted by the gate
            error = exc
        t1 = perf_counter()
    return Pass(t0, t1, out, np.diff(np.asarray(clock.stamps)), error)


def traced(rec, trainer, body):
    """Run ``body()`` with every layer wrapped; returns (result, registry
    view before, registry view after)."""
    before = _registries(trainer, rec)
    patches = tracing.Patches()
    tracing.install_layer_wrappers(rec, trainer, patches)
    try:
        result = body()
    finally:
        patches.undo()
    return result, before, _registries(trainer, rec)


# ----------------------------------------------------------------------
# Workload kinds
# ----------------------------------------------------------------------
def run(wl: spec.Workload, seed: int, seconds: float, trace: bool,
        sizing: Sizing = Sizing()) -> Outcome:
    rec = tracing.SpanRecorder() if trace else None
    patches = tracing.Patches()
    try:
        if rec is not None:
            tracing.install_setup_wrappers(rec, patches)
        setup = build(wl, seed, sizing, rec)
    finally:
        patches.undo()
    try:
        if wl.kind == "train":
            outcome = _run_train(wl, seed, seconds, rec, setup)
        else:
            outcome = _run_infer(wl, seed, seconds, rec, setup, sizing)
    finally:
        setup.trainer.shutdown()
    outcome.spans = rec
    return outcome


def _batch_metrics(rate: float, intervals) -> dict:
    return {
        "nodes_per_s": rate,
        "batch_s_mean": float(np.mean(intervals)) if len(intervals) else 0.0,
        "batch_s_p90": _percentile(intervals, 90),
    }


def _run_train(wl, seed, seconds, rec, setup: Setup) -> Outcome:
    trainer, out = setup.trainer, Outcome()
    per_epoch = len(trainer.epoch_batches(0))
    n_timed = timed_epochs(wl, seconds, per_epoch)
    with Clock(trainer.optimizer, "step") as steps:
        warm = train_region(trainer, [0])
        first_step_s = steps.stamps[0] - warm.t0 if steps.stamps else warm.wall
        steps.stamps.clear()
        timed = train_region(trainer, list(range(1, 1 + n_timed)))
        step_iv = steps.intervals(timed.t0)[: per_epoch * len(timed.losses)]
    regions = [warm, timed]
    if rec is not None and timed.error is None:
        epochs = list(range(1 + n_timed, 1 + 2 * n_timed))
        region, reg0, reg1 = traced(rec, trainer, lambda: train_region(trainer, epochs, rec))
        regions.append(region)
    rss = peak_rss_mb()  # the training peak, workers still alive
    ok = all(r.error is None for r in regions)
    val_acc = trainer.evaluate("val") if ok else 0.0
    trainer.shutdown()  # free the cores (and workers) before the reference

    # Serial reference over exactly the epochs the measured trainer ran.
    epochs = [ep for r in regions for ep in r.attempted]
    reference = make_trainer(wl, setup.dataset, seed, executor="serial")
    try:
        ref = train_region(reference, epochs)
    finally:
        reference.shutdown()
    if ref.error is not None:  # the batches it could not replay fail
        out.notes.append(f"serial reference raised: {ref.error!r}")
    got = {ep: losses for r in regions for ep, losses in r.losses.items()}
    out.attempted, out.failed = gate_losses(got, ref.losses, {ep: per_epoch for ep in epochs})
    out.notes.extend(f"train_epoch raised: {r.error!r}" for r in regions if r.error)
    # The reference's epochs 1..n_timed replay the timed region.
    baseline = statistics.median(ref.epoch_rates(1)[:n_timed] or [0.0])
    rate = timed.rate()

    if rec is None:
        last = timed.losses[max(timed.losses)] if timed.losses else []
        out.metrics = {
            **_batch_metrics(rate, step_iv),
            "final_loss": float(np.mean(last)) if last else 0.0,
            "accuracy": val_acc,
            "setup_s": setup.median_s + first_step_s,
            "peak_rss_mb": rss,
        }
        out.notes.append(
            f"timed: {len(timed.losses)} epochs, {len(step_iv)} optimizer steps "
            f"({len(step_iv) - math.ceil(0.9 * len(step_iv))} beyond p90); "
            f"accuracy = Trainer.evaluate('val') over "
            f"{len(trainer.dataset.split.val)} nodes"
        )
    elif len(regions) == 3:
        out.metrics = layer_metrics(
            rec, regions[2], reg0, reg1, setup, trainer.store.row_bytes(),
            overhead=1.0 - regions[2].rate() / rate,
            baseline=baseline,
            speedup=rate / baseline if baseline else 0.0,
        )
        out.notes.extend(_closure_notes(out.metrics))
    return out


def _run_infer(wl, seed, seconds, rec, setup: Setup, sizing: Sizing) -> Outcome:
    trainer, out = setup.trainer, Outcome()
    epochs = sizing.infer_setup_epochs or wl.setup_epochs
    training = train_region(trainer, list(range(epochs)))
    if training.error is not None:
        raise RuntimeError("setup training failed") from training.error
    batch = trainer.config.batch_size
    trainer.predict(trainer.dataset.split.val[:batch])  # untimed warm-up pass
    # At least two batches per call, so each call has a batch interval.
    per_pass = max(2, round(seconds * wl.nominal_rate / (INFER_PASSES * batch)))
    subset = test_subset(trainer, seed, per_pass)
    n = len(subset)

    passes = []
    for _ in range(INFER_PASSES):
        passes.append(timed_predict(trainer, subset))
        if passes[-1].error is not None:
            break
    timed = passes[0]
    rate = statistics.median(n / p.wall for p in passes)
    if rec is not None and all(p.error is None for p in passes):
        rec.start_pass("infer", [subset[i:i + batch] for i in range(0, n, batch)])
        traced_pass, reg0, reg1 = traced(rec, trainer, lambda: timed_predict(trainer, subset))
        passes.append(traced_pass)
    rss = peak_rss_mb()

    trainer.infer_executor = "serial"
    ref_t0 = perf_counter()
    try:
        ref = trainer.predict(subset)
    except Exception as exc:  # reference failure: every batch fails
        out.notes.append(f"serial reference raised: {exc!r}")
        ref = None
    ref_s = perf_counter() - ref_t0
    for p in passes:
        attempted, failed = gate_rows(p.out, ref, n, batch)
        out.attempted += attempted
        out.failed += failed
        if p.error is not None:
            out.notes.append(f"predict raised: {p.error!r}")
    baseline = n / ref_s if ref is not None else 0.0

    if rec is None:
        labels = trainer.dataset.labels[subset]
        intervals = np.concatenate([p.intervals for p in passes])
        out.metrics = {
            **_batch_metrics(rate, intervals),
            "final_loss": float(np.mean(training.losses[epochs - 1])),
            "accuracy": accuracy(timed.out, labels) if timed.out is not None else 0.0,
            "setup_s": setup.median_s + training.wall,
            "peak_rss_mb": rss,
        }
        out.notes.append(
            f"timed: {len(passes)} predict passes over {n} test nodes "
            f"({len(intervals)} batch intervals) after {epochs} setup training epochs; "
            f"nodes_per_s is the median pass, accuracy on those nodes"
        )
    elif len(passes) == INFER_PASSES + 1 and passes[-1].error is None:
        region = Region(traced_pass.t0, traced_pass.t1, [traced_pass.t0])
        out.metrics = layer_metrics(
            rec, region, reg0, reg1, setup, trainer.store.row_bytes(),
            overhead=1.0 - (n / traced_pass.wall) / rate,
            baseline=baseline,
            speedup=rate / baseline if baseline else 0.0,
        )
        out.notes.extend(_closure_notes(out.metrics))
    return out


# ----------------------------------------------------------------------
# Per-layer metrics of a traced region
# ----------------------------------------------------------------------
def _registries(trainer, rec) -> dict:
    """Trainer registry + the registry traced inference passes report to."""
    view = tracing.registry_view(trainer.metrics, trainer.counters)
    for key, value in tracing.registry_view(rec.infer_metrics).items():
        view[key] = view.get(key, 0.0) + value
    return view


def layer_metrics(rec, region: Region, before: dict, after: dict, setup: Setup,
                  row_bytes: int, overhead: float, baseline: float, speedup: float) -> dict:
    spans = rec.window(region.t0, region.t1)
    every = rec.summary(spans)
    main = rec.summary(spans, main_only=True)
    d = tracing.delta(after, before)
    counts = rec.counts

    def total(name, table=every):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return every.get(name, {}).get("calls", 0)

    # Work in spawned workers shows only in the registry and in the
    # topologies the parent decodes from shared memory.
    in_workers = calls("sampling.sample") == 0 and d.get("stage_seconds.sample#count", 0) > 0
    prefix = "decoded" if in_workers else "sampling"
    seeds, edges, nodes = (counts.get(f"{prefix}.{k}", 0.0) for k in ("seeds", "edges", "nodes"))
    if in_workers:
        sample_calls, sample_s = d["stage_seconds.sample#count"], d["stage_seconds.sample"]
        slice_calls, slice_s = d["stage_seconds.slice#count"], d["stage_seconds.slice"]
        rows, nbytes = nodes, nodes * row_bytes
    else:
        sample_calls, sample_s = calls("sampling.sample"), total("sampling.sample")
        slice_calls, slice_s = calls("slicing.slice_features"), total("slicing.slice_features")
        rows, nbytes = counts.get("slicing.rows", 0.0), counts.get("slicing.bytes", 0.0)
    hot, cold = d.get("feature_tier_rows.hot", 0.0), d.get("feature_tier_rows.cold", 0.0)
    hits, misses = d.get("workspace_hits", 0.0), d.get("workspace_misses", 0.0)

    first_waits = []
    forwards = sorted(s.start for s in spans
                      if s.name == "model.forward" and s.thread == rec.main_thread)
    for start in region.starts:
        after_start = [f for f in forwards if f >= start]
        if after_start:
            first_waits.append(after_start[0] - start)

    m = {
        "datasets.generate_s": statistics.median(setup.generate_s),
        "datasets.slab_write_s": statistics.median(setup.slab_write_s) if setup.slab_write_s else 0.0,
        "train.trainer_init_s": statistics.median(setup.init_s),
        "sampling.calls": sample_calls,
        "sampling.busy_s": sample_s,
        "sampling.edges": edges,
        "sampling.nodes": nodes,
        "sampling.unique_ratio": nodes / (seeds + edges) if seeds + edges else 0.0,
        "slicing.calls": slice_calls,
        "slicing.busy_s": slice_s,
        "slicing.rows": rows,
        "slicing.bytes": nbytes,
        "slicing.dequant_s": total("slicing.dequantize_rows"),
        "slicing.mmap_wait_s": d.get("mmap_wait_seconds", 0.0),
        "slicing.hot_hit_ratio": hot / (hot + cold) if hot + cold else 0.0,
        "plan.busy_s": d.get("stage_seconds.plan_build", 0.0),
        "plan.edges": d.get("plan_build_edges", 0.0),
        "transfer.calls": calls("transfer.transfer_batch"),
        "transfer.bytes": counts.get("transfer.bytes", 0.0),
        "transfer.busy_s": total("transfer.transfer_batch"),
        "pinned.acquire_wait_s": total("pinned.acquire"),
        "pipeline.prep_wait_s": d.get("caller_seconds.prep_wait", 0.0),
        "pipeline.first_step_wait_s": float(np.mean(first_waits)) if first_waits else 0.0,
        "mp.worker_busy_s": d.get("mp_worker_busy_seconds", 0.0),
        "mp.result_wait_s": d.get("mp_result_wait_seconds", 0.0),
        "mp.spills": d.get("counters.mp_mfg_overflow_batches", 0.0)
        + d.get("counters.mp_slot_overflow_batches", 0.0),
        "shm.decode_s": total("shm.decode_mfg"),
        "model.forward_s": total("model.forward", main),
        "model.conv0.forward_s": total("model.conv0.forward"),
        "model.conv1.forward_s": total("model.conv1.forward"),
        "model.conv2.forward_s": total("model.conv2.forward"),
        "tensor.backward_s": total("tensor.backward", main),
        "loss.busy_s": total("loss.nll_loss", main),
        "workspace.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "optim.step_s": total("optim.step", main),
        "infer.pass_s": total("infer.pass"),
        "trace.overhead_frac": overhead,
        "baseline.serial_nodes_per_s": baseline,
        "pipeline.speedup_vs_serial": speedup,
    }
    # Training-thread closure: every blocking part plus the remainder is
    # the region's wall-clock, by construction; the check is that the
    # parts do not overlap (the remainder is not negative).
    m["closure.wall_s"] = region.wall
    m["closure.transfer_wait_s"] = d.get("caller_seconds.transfer", 0.0)
    parts = (m["pipeline.prep_wait_s"] + m["closure.transfer_wait_s"] + m["model.forward_s"]
             + m["loss.busy_s"] + m["tensor.backward_s"] + m["optim.step_s"])
    m["caller.unattributed_s"] = region.wall - parts
    return m


#: tolerated overlap between closure parts, as a share of wall-clock
CLOSURE_TOLERANCE = 0.01


def closure_holds(metrics: dict) -> bool:
    return metrics["caller.unattributed_s"] >= -CLOSURE_TOLERANCE * metrics["closure.wall_s"]


def _closure_notes(m: dict) -> list:
    parts = ["pipeline.prep_wait_s", "closure.transfer_wait_s", "model.forward_s",
             "loss.busy_s", "tensor.backward_s", "optim.step_s", "caller.unattributed_s"]
    text = " + ".join(f"{p}={m[p]:.4f}" for p in parts)
    verdict = "holds" if closure_holds(m) else "FAILS (parts overlap)"
    return [f"closure {verdict}: {text} = wall {m['closure.wall_s']:.4f} s"]
