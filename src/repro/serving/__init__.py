"""Online frequency-selection serving layer.

Production-facing frontend over the paper's online phase: a thread-safe
:class:`~repro.serving.service.SelectionService` that micro-batches many
concurrent requests into single packed forward passes through the
inference engine (:mod:`repro.serving.engine`) and memoizes prediction
curves in a bounded LRU, with per-stage service stats.  See DESIGN.md
§9 for the batching/caching contracts and §13 for the packed-weight
engine.
"""

from repro.serving.cache import LRUCache
from repro.serving.engine import FusedInferenceEngine, PackedModel
from repro.serving.microbatch import MicroBatcher
from repro.serving.service import (
    SelectionRequest,
    SelectionService,
    ServiceResponse,
    ServiceStats,
)

__all__ = [
    "FusedInferenceEngine",
    "LRUCache",
    "MicroBatcher",
    "PackedModel",
    "SelectionRequest",
    "SelectionService",
    "ServiceResponse",
    "ServiceStats",
]
