"""Experiment drivers: one per table / figure of the paper's evaluation."""

from .overhead import (OverheadReport, OverheadRow, ShardBatch, figure6,
                       figure7, measure_overhead, shard_overhead_matrix)
from .precision import PrecisionReport, PrecisionRow, figure8, measure_precision
from .escape import (ESCAPE_LABELS, ESCAPE_RANKS, EscapeReport, EscapeRow,
                     figure10, measure_escape)
from .bintuner_compare import BinTunerReport, SimilarityRow, figure9, measure_bintuner
from .opcode_distance import DistanceReport, figure11, measure_opcode_distance
from .internals import InternalsReport, InternalsRow, measure_internals, table2
from .reporting import format_table, matrix_table, overhead_table
from .experiments import EXPERIMENTS, Experiment, experiment_names, run_experiment
from .executor import (ExecutorTaskError, reset_worker_cache, resolve_jobs,
                       resolve_task_retries, resolve_task_timeout, run_tasks,
                       worker_cache, worker_cache_events)
from .faults import (FaultInjected, FaultInjector, FaultRule, active_injector,
                     parse_faults, reset_injector)
from .checkpoint import (RunManifest, checkpoint_enabled, run_checkpointed,
                         run_id)
from .diff_sharding import shard_diff_matrix

__all__ = [
    "OverheadReport", "OverheadRow", "figure6", "figure7", "measure_overhead",
    "PrecisionReport", "PrecisionRow", "figure8", "measure_precision",
    "ESCAPE_LABELS", "ESCAPE_RANKS", "EscapeReport", "EscapeRow", "figure10",
    "measure_escape", "BinTunerReport", "SimilarityRow", "figure9",
    "measure_bintuner", "DistanceReport", "figure11", "measure_opcode_distance",
    "InternalsReport", "InternalsRow", "measure_internals", "table2",
    "format_table", "matrix_table", "overhead_table", "EXPERIMENTS",
    "Experiment", "experiment_names", "run_experiment",
    "ExecutorTaskError", "reset_worker_cache", "resolve_jobs",
    "resolve_task_retries", "resolve_task_timeout", "run_tasks",
    "worker_cache", "worker_cache_events",
    "FaultInjected", "FaultInjector", "FaultRule", "active_injector",
    "parse_faults", "reset_injector",
    "RunManifest", "checkpoint_enabled", "run_checkpointed", "run_id",
    "ShardBatch", "shard_overhead_matrix", "shard_diff_matrix",
]
