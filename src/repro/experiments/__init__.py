"""One module per table/figure of the paper's evaluation (see DESIGN.md §4).

Each ``run_*`` function accepts laptop-scale defaults, returns a structured
result object with a ``render()`` text table, and is driven by the
corresponding benchmark in ``benchmarks/``.

The one system bench left here is :mod:`.query_cache`, the only
measurement of the serve-path result cache on repeated queries.  The
speed of the batched scan, sketch pre-filter, serving, cluster, ingest
and tiered storage is measured by the workloads of ``perf/`` (declared in
``BENCHMARK.json``); their correctness gates are tier-1 tests in
``tests/``.
"""

from .abacus import (
    AbacusCell,
    AbacusResult,
    AbacusSetup,
    build_setup,
    make_detector,
    sweep_transforms,
    sweep_transforms_shared,
)
from .ascii_plot import render_plot
from .common import Series, format_table
from .fig1_distance import Fig1Result, run_fig1
from .fig10_monitoring import Fig10Result, run_fig10
from .fig2_partition import Fig2Result, run_fig2
from .fig3_model_validation import Fig3Result, combined_transform, run_fig3
from .fig56_alpha_sweep import Fig56Result, run_fig56
from .fig7_scaling import Fig7Result, run_fig7
from .fig8_dbsize_abacus import Fig8Result, run_fig8
from .fig9_alpha_abacus import Fig9Result, run_fig9
from .query_cache import QueryCacheBenchResult, run_query_cache
from .table1_severity import Table1Result, paper_transform_ladder, run_table1

__all__ = [
    "AbacusCell",
    "AbacusResult",
    "AbacusSetup",
    "Fig1Result",
    "Fig10Result",
    "Fig2Result",
    "Fig3Result",
    "Fig56Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "Series",
    "QueryCacheBenchResult",
    "Table1Result",
    "build_setup",
    "combined_transform",
    "format_table",
    "make_detector",
    "paper_transform_ladder",
    "render_plot",
    "run_fig1",
    "run_fig10",
    "run_fig2",
    "run_fig3",
    "run_fig56",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_query_cache",
    "run_table1",
    "sweep_transforms",
    "sweep_transforms_shared",
]
