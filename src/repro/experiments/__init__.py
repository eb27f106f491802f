"""Experiment harness regenerating the paper's tables and figure-level claims."""

from .reporting import format_table, to_csv
from .runner import main, render_result, run_experiment
from .tables import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    ExperimentResult,
    ExperimentRow,
    paper_table3_graph_config,
    run_table1,
    run_table2,
    run_table3,
)

__all__ = [
    "ExperimentResult",
    "ExperimentRow",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "format_table",
    "main",
    "paper_table3_graph_config",
    "render_result",
    "run_experiment",
    "run_table1",
    "run_table2",
    "run_table3",
    "to_csv",
]
