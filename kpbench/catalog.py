"""Every metric the benchmark reports, with its unit and direction.

BENCHMARK.json mirrors these lists (a test checks that it does).  Each
per-layer metric names the workload where its layer runs and the
end-to-end metric it should move there; on the other workloads the layer
is not exercised and the metric reads 0.
"""

from __future__ import annotations

WORKLOADS = ("build", "read", "write")

#: (name, unit, better, bound).  One set for every workload: each
#: workload has one unit operation (build: KPIndex.build, read: a single
#: server.query, write: a single-edge server update) and one throughput
#: (build: edges indexed, read: query_many, write: the update stream).
#: Latencies are p90s and rates p10s, and both are host-corrected
#: (``common.host_probe``): on a shared host the speed of the same work
#: moves with the neighbours' load.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better, workload, end-to-end metric it moves).
PER_LAYER = (
    # build: the Algorithm 2 path, stage by stage, and how much of the
    # build the stages cover
    ("graph.io.read_ms", "ms", "lower", "build", "setup_s"),
    ("graph.compact.build_ms", "ms", "lower", "build", "op_ms_p90"),
    ("kcore.core_numbers_ms", "ms", "lower", "build", "op_ms_p90"),
    ("graph.compact.sort_ms", "ms", "lower", "build", "op_ms_p90"),
    ("core.peel.ladder_ms", "ms", "lower", "build", "op_ms_p90"),
    ("core.peel.drain_ms", "ms", "lower", "build", "op_ms_p90"),
    ("core.peel.slowest_k_ms", "ms", "lower", "build", "op_ms_p90"),
    ("core.index.assemble_ms", "ms", "lower", "build", "op_ms_p90"),
    ("core.index.vertex_entries", "count", "lower", "build", "op_ms_p90"),
    ("core.index.entries_per_2m", "ratio", "lower", "build", "op_ms_p90"),
    ("core.index.levels", "count", "lower", "build", "op_ms_p90"),
    ("trace.build.staged_share", "ratio", "higher", "build", "op_ms_p90"),
    # read: isolated replays of one key stream against each entry point
    ("service.server.query_us", "us", "lower", "read", "op_ms_p90"),
    ("service.durable.query_slice_us", "us", "lower", "read", "op_ms_p90"),
    ("core.index.answer_key_us", "us", "lower", "read", "op_ms_p90"),
    ("core.index.query_slice_us", "us", "lower", "read", "op_ms_p90"),
    ("service.server.read_tax_us", "us", "lower", "read", "op_ms_p90"),
    ("service.cache.hit_rate", "ratio", "higher", "read", "op_ms_p90"),
    ("service.cache.hits", "count", "higher", "read", "op_ms_p90"),
    ("service.cache.misses", "count", "lower", "read", "op_ms_p90"),
    ("core.index.answer_size_mean", "vertices", "lower", "read", "op_ms_p90"),
    ("service.server.query_many_us_per_query", "us", "lower", "read",
     "throughput_per_s"),
    # read and write: the durable bootstrap
    ("service.bootstrap.apply_batch_s", "s", "lower", "read+write", "setup_s"),
    ("service.bootstrap.checkpoint_ms", "ms", "lower", "read+write", "setup_s"),
    # write: self times per single-edge update (span minus child spans)
    ("service.server.update_self_ms", "ms", "lower", "write", "op_ms_p90"),
    ("service.durable.update_self_ms", "ms", "lower", "write", "op_ms_p90"),
    ("service.durable.update_checkpoint_ms", "ms", "lower", "write",
     "op_ms_p90"),
    ("service.journal.append_ms", "ms", "lower", "write", "op_ms_p90"),
    ("service.journal.fsync_ms", "ms", "lower", "write", "op_ms_p90"),
    ("service.journal.fsyncs_per_update", "count", "lower", "write",
     "op_ms_p90"),
    ("core.maintenance.insert_ms", "ms", "lower", "write", "op_ms_p90"),
    ("core.maintenance.delete_ms", "ms", "lower", "write", "op_ms_p90"),
    ("trace.write.accounted_share", "ratio", "higher", "write", "op_ms_p90"),
    ("kcore.maintenance.update_ms", "ms", "lower", "write", "op_ms_p90"),
    ("core.maintenance.arrays_examined", "count", "lower", "write", "op_ms_p90"),
    ("core.maintenance.arrays_skipped", "count", "higher", "write", "op_ms_p90"),
    ("core.maintenance.arrays_updated", "count", "lower", "write", "op_ms_p90"),
    ("core.maintenance.vertices_repeeled", "count", "lower", "write",
     "op_ms_p90"),
    ("core.maintenance.early_stops", "count", "higher", "write", "op_ms_p90"),
    ("core.maintenance.fallback_rebuilds", "count", "lower", "write",
     "op_ms_p90"),
    ("core.maintenance.repeel_share", "ratio", "lower", "write", "op_ms_p90"),
    ("core.maintenance.thm2.arrays_skipped", "count", "higher", "write",
     "op_ms_p90"),
    ("core.maintenance.thm3.p_minus_bounds", "count", "higher", "write",
     "op_ms_p90"),
    ("core.maintenance.thm4.p_plus_bounds", "count", "higher", "write",
     "op_ms_p90"),
    ("core.maintenance.thm5.support_windows", "count", "higher", "write",
     "op_ms_p90"),
    ("core.maintenance.thm6.arrays_skipped", "count", "higher", "write",
     "op_ms_p90"),
    ("core.maintenance.thm7.arrays_skipped", "count", "higher", "write",
     "op_ms_p90"),
    ("core.maintenance.thm8.p_minus_bounds", "count", "higher", "write",
     "op_ms_p90"),
    ("core.maintenance.thm9.p_plus_bounds", "count", "higher", "write",
     "op_ms_p90"),
    ("core.maintenance.batch_ms", "ms", "lower", "write", "throughput_per_s"),
    ("core.maintenance.windowed_repeels", "count", "lower", "write",
     "throughput_per_s"),
    ("core.maintenance.full_repeels", "count", "lower", "write",
     "throughput_per_s"),
    # write: reads during writes, and the restart after them; these two
    # user-visible numbers exist on one workload only, so they are
    # reported here rather than gated as end-to-end metrics
    ("mixed_read.ms_p50", "ms", "lower", "write", "op_ms_p90"),
    ("mixed_read.ms_p99", "ms", "lower", "write", "op_ms_p90"),
    ("service.durable.checkpoint_ms", "ms", "lower", "write",
     "mixed_read.ms_p99"),
    ("service.cache.invalidations", "count", "lower", "write",
     "mixed_read.ms_p99"),
    ("mixed_read.generator_lag_ms", "ms", "lower", "write",
     "mixed_read.ms_p99"),
    ("service.durable.recover_ms", "ms", "lower", "write", "recover_s"),
    ("core.index.rebuild_ms", "ms", "lower", "write", "op_ms_p90"),
    ("core.maintenance.update_vs_rebuild", "ratio", "lower", "write",
     "op_ms_p90"),
    # every workload: what the traced run itself costs
    ("trace.overhead_ms_p90", "ms", "lower", "all", "op_ms_p90"),
    ("trace.overhead_share", "ratio", "lower", "all", "op_ms_p90"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
