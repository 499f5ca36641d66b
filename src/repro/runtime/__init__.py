"""Runtime: queues, pinned buffers, simulated device/streams, pipelines."""

from .device import Device, DeviceBatch, DeviceTensor, Stream, StreamEvent
from .feature_cache import (
    DeviceFeatureCache,
    hottest_nodes,
    transfer_batch_with_cache,
)
from .mp_prepare import (
    MPPrepareStage,
    MultiprocessExecutor,
    MultiprocessPreparePool,
    WorkerCrashed,
    WorkerTaskError,
)
from .pinned import PinnedBuffer, PinnedBufferPool, estimate_max_rows
from .pipeline import build_pipeline
from .shm import (
    SharedArena,
    SharedDataset,
    SharedPinnedBuffer,
    SharedSlotPool,
    decode_mfg,
    encode_mfg,
)
from .queues import BoundedOutputQueue, InputQueue, QueueClosed, StaticPartitionQueue
from .stages import (
    ComputeStage,
    Envelope,
    EpochStats,
    PrepareStage,
    SampleStage,
    SliceStage,
    Stage,
    StagedPipeline,
    StageError,
    TransferStage,
)
from ..telemetry.tracer import TraceEvent, Tracer, render_timeline

__all__ = [
    "Device",
    "DeviceBatch",
    "DeviceTensor",
    "Stream",
    "StreamEvent",
    "PinnedBuffer",
    "PinnedBufferPool",
    "EpochStats",
    "build_pipeline",
    "MultiprocessExecutor",
    "MultiprocessPreparePool",
    "MPPrepareStage",
    "WorkerCrashed",
    "WorkerTaskError",
    "SharedArena",
    "SharedDataset",
    "SharedPinnedBuffer",
    "SharedSlotPool",
    "encode_mfg",
    "decode_mfg",
    "InputQueue",
    "StaticPartitionQueue",
    "BoundedOutputQueue",
    "QueueClosed",
    "TraceEvent",
    "Tracer",
    "render_timeline",
    "estimate_max_rows",
    "DeviceFeatureCache",
    "transfer_batch_with_cache",
    "hottest_nodes",
]
