"""Experiment drivers: one per table / figure of the paper's evaluation."""

from .overhead import (OverheadReport, OverheadRow, SemanticsMismatch,
                       clear_variant_facts, figure6, figure7,
                       measure_overhead, shard_overhead_matrix)
from .precision import PrecisionReport, PrecisionRow, figure8, measure_precision
from .escape import (ESCAPE_LABELS, ESCAPE_RANKS, EscapeReport, EscapeRow,
                     MissingVulnerableFunction, figure10, measure_escape)
from .bintuner_compare import BinTunerReport, SimilarityRow, figure9, measure_bintuner
from .opcode_distance import DistanceReport, figure11, measure_opcode_distance
from .internals import InternalsReport, InternalsRow, measure_internals, table2
from .reporting import format_table, matrix_table, overhead_table
from .experiments import EXPERIMENTS, Experiment, experiment_names, run_experiment
from .executor import (ExecutorTaskError, resolve_jobs, resolve_task_timeout,
                       run_tasks)
from .checkpoint import run_checkpointed
from .diff_sharding import shard_diff_matrix

__all__ = [
    "OverheadReport", "OverheadRow", "figure6", "figure7", "measure_overhead",
    "SemanticsMismatch", "clear_variant_facts",
    "PrecisionReport", "PrecisionRow", "figure8", "measure_precision",
    "ESCAPE_LABELS", "ESCAPE_RANKS", "EscapeReport", "EscapeRow", "figure10",
    "measure_escape", "MissingVulnerableFunction", "BinTunerReport",
    "SimilarityRow", "figure9",
    "measure_bintuner", "DistanceReport", "figure11", "measure_opcode_distance",
    "InternalsReport", "InternalsRow", "measure_internals", "table2",
    "format_table", "matrix_table", "overhead_table", "EXPERIMENTS",
    "Experiment", "experiment_names", "run_experiment",
    "ExecutorTaskError", "resolve_jobs", "resolve_task_timeout", "run_tasks",
    "run_checkpointed",
    "shard_overhead_matrix", "shard_diff_matrix",
]
