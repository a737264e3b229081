"""One module per table/figure of the paper's evaluation (see DESIGN.md §4).

Each ``run_*`` function accepts laptop-scale defaults, returns a structured
result object with a ``render()`` text table, and is driven by the
corresponding benchmark in ``benchmarks/``.
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
from .batch_query import BatchQueryBenchResult, run_batch_query
from .cluster_bench import ClusterBenchResult, run_cluster_bench
from .common import Series, format_table
from .fig1_distance import Fig1Result, run_fig1
from .fig10_monitoring import Fig10Result, run_fig10
from .fig2_partition import Fig2Result, run_fig2
from .fig3_model_validation import Fig3Result, combined_transform, run_fig3
from .fig56_alpha_sweep import Fig56Result, run_fig56
from .fig7_scaling import Fig7Result, run_fig7
from .fig8_dbsize_abacus import Fig8Result, run_fig8
from .fig9_alpha_abacus import Fig9Result, run_fig9
from .ingest_pipeline import (
    IngestPipelineResult,
    run_ingest_pipeline,
    write_ingest_pipeline_json,
)
from .prefilter import (
    PrefilterBenchResult,
    run_prefilter,
    write_prefilter_json,
)
from .query_cache import QueryCacheBenchResult, run_query_cache
from .segmented_ingest import SegmentedIngestResult, run_segmented_ingest
from .serve_bench import ServeBenchResult, run_serve_bench
from .storage_tiers import (
    StorageTiersResult,
    run_storage_tiers,
    write_storage_tiers_json,
)
from .table1_severity import Table1Result, paper_transform_ladder, run_table1

__all__ = [
    "AbacusCell",
    "AbacusResult",
    "AbacusSetup",
    "BatchQueryBenchResult",
    "ClusterBenchResult",
    "Fig1Result",
    "Fig10Result",
    "Fig2Result",
    "Fig3Result",
    "Fig56Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "IngestPipelineResult",
    "ParallelScanBenchResult",
    "ParallelScanSuiteResult",
    "SegmentedIngestResult",
    "Series",
    "PrefilterBenchResult",
    "QueryCacheBenchResult",
    "ServeBenchResult",
    "StorageTiersResult",
    "Table1Result",
    "build_setup",
    "combined_transform",
    "format_table",
    "make_detector",
    "paper_transform_ladder",
    "render_plot",
    "run_batch_query",
    "run_cluster_bench",
    "run_fig1",
    "run_fig10",
    "run_fig2",
    "run_fig3",
    "run_fig56",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_ingest_pipeline",
    "run_prefilter",
    "run_query_cache",
    "run_segmented_ingest",
    "run_serve_bench",
    "run_storage_tiers",
    "run_table1",
    "sweep_transforms",
    "sweep_transforms_shared",
    "write_ingest_pipeline_json",
    "write_prefilter_json",
    "write_storage_tiers_json",
]
