"""The benchmark's workloads, one module each."""

from workloads import (
    clip_detect,
    cluster_scatter,
    serve_mixed,
    stat_scan,
    tiered_scan,
)

WORKLOADS = {
    w.name: w
    for w in (
        clip_detect.WORKLOAD, stat_scan.WORKLOAD, tiered_scan.WORKLOAD,
        serve_mixed.WORKLOAD, cluster_scatter.WORKLOAD,
    )
}
