"""Core package: configuration, errors and statistics."""

from repro.core.config import (
    RankFunction,
    SimilarityStrategy,
    StoreConfig,
    TrieBalancing,
)
from repro.core.errors import (
    ConfigError,
    ExecutionError,
    HashingError,
    KeyspaceError,
    OverlayError,
    PartitionUnreachableError,
    PlanningError,
    QueryError,
    ReproError,
    RoutingError,
    SchemaError,
    StorageError,
    VQLSyntaxError,
)

__all__ = [
    "RankFunction",
    "SimilarityStrategy",
    "StoreConfig",
    "TrieBalancing",
    "ConfigError",
    "ExecutionError",
    "HashingError",
    "KeyspaceError",
    "OverlayError",
    "PartitionUnreachableError",
    "PlanningError",
    "QueryError",
    "ReproError",
    "RoutingError",
    "SchemaError",
    "StorageError",
    "VQLSyntaxError",
]
