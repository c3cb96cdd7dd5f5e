"""``read``: Zipf (k, p) traffic against a durable server with no writer.

One closed-loop client issues single ``server.query`` calls, then
``query_many`` batches, over the same seeded key stream.  This is the
read path only: validate -> lock -> ``answer_key`` -> cache -> slice.

The gated latency and throughput are host-corrected: a host-speed probe
runs before every 1,024 single queries and before every window of
batches, outside the timed calls, and the times are rescaled to the
reference speed at which the probe takes 1 ms.
"""

from __future__ import annotations

import shutil
from time import perf_counter, perf_counter_ns

from repro.core.kpcore import kp_core_vertices_compact
from repro.graph.compact import CompactAdjacency
from repro.obs.trace import Tracer

from kpbench.common import (
    REFERENCE_PROBE_S,
    Config,
    Outcome,
    bootstrap_median,
    count_quantile,
    host_probe,
    load_pinned,
    median,
    quantile,
    relabel_to_ints,
    stream_rng,
    zipf_keys,
)
from kpbench.spans import Wrappers

GRAPH = "gowalla"
SETUP_REPS = 3
STREAM_KEYS = 200_000
BATCH = 256
REPLAY_CHUNK = 2_000
#: The verification pass re-serves this prefix of the key stream (about
#: 430 distinct keys) and checks each distinct key against Algorithm 1.
VERIFY_QUERIES = 2_000
#: query_many throughput is taken per window of this many batches.
WINDOW_BATCHES = 50
#: The overhead pass makes millions of wrapped calls; only the most
#: recent spans are kept for the dump.
SPAN_BUFFER = 20_000


def run(seed: int, config: Config, traced: bool) -> Outcome:
    out = Outcome()
    graph = relabel_to_ints(load_pinned(config.graph or GRAPH))
    boot: dict[str, list[float]] = {}
    server, out.e2e["setup_s"], setup_raw = bootstrap_median(
        graph, config.setup_reps or SETUP_REPS, "read-", boot
    )
    out.report.append(("bootstrap_s", setup_raw, "s"))
    try:
        keys = zipf_keys(
            stream_rng(seed, "read-keys"), server.index.degeneracy, STREAM_KEYS
        )
        half = config.seconds / 2
        latency_ns, corrected_ns = _single_queries(server, keys, half, out)
        qps, rates = _query_many(server, keys, half, out)
        out.e2e["op_ms_p90"] = count_quantile(corrected_ns, 0.9) * 1e-6
        out.e2e["throughput_per_s"] = quantile(rates, 0.1)
        out.report += [
            ("query_us_p50", count_quantile(latency_ns, 0.5) * 1e-3, "us"),
            ("query_us_p90", count_quantile(latency_ns, 0.9) * 1e-3, "us"),
            ("query_us_p99", count_quantile(latency_ns, 0.99) * 1e-3, "us"),
            ("query_qps", qps, "1/s"),
        ]
        if traced:
            _traced(server, keys, config.seconds, boot, out)
        _verify(server, keys[:VERIFY_QUERIES], out)
    finally:
        server.close()
        shutil.rmtree(server.durable.directory, ignore_errors=True)
    return out


def _single_queries(server, keys, seconds: float, out: Outcome):
    """Closed loop of single queries.

    Returns ``{latency in ns: count}`` as measured and host-corrected:
    millions of calls, kept in memory bounded by the number of distinct
    latencies, so peak RSS does not grow with the host's speed.
    """
    query, counts, corrected = server.query, {}, {}
    deadline = perf_counter() + seconds
    i, n = 0, len(keys)
    while i % 1024 or perf_counter() < deadline:
        if i % 1024 == 0:
            scale = REFERENCE_PROBE_S / host_probe()
        k, p = keys[i % n]
        start = perf_counter_ns()
        try:
            query(k, p)
        except Exception as error:  # count the failure, keep serving
            out.fail(f"query({k}, {p}) raised {error!r}")
        ns = perf_counter_ns() - start
        counts[ns] = counts.get(ns, 0) + 1
        ns = round(ns * scale)
        corrected[ns] = corrected.get(ns, 0) + 1
        i += 1
    out.attempted += i
    return counts, corrected


def _query_many(server, keys, seconds: float, out: Outcome):
    """``query_many`` over consecutive batches.

    Returns the overall queries per second as measured and the
    host-corrected rate of each window of :data:`WINDOW_BATCHES` batches.
    """
    done, busy, rates = 0, 0.0, []
    window_busy, window_done = 0.0, 0
    probe = host_probe()
    deadline = perf_counter() + seconds
    n = len(keys)
    while done == 0 or perf_counter() < deadline:
        lo = done % n
        batch = keys[lo : lo + BATCH]
        start = perf_counter()
        try:
            server.query_many(batch)
        except Exception as error:  # count the failure, keep serving
            out.fail(f"query_many raised {error!r}")
        busy += perf_counter() - start
        done += len(batch)
        if done - window_done >= WINDOW_BATCHES * BATCH:
            rate = (done - window_done) / (busy - window_busy)
            rates.append(rate * probe / REFERENCE_PROBE_S)
            window_busy, window_done = busy, done
            probe = host_probe()
    out.attempted += done
    return done / busy, rates or [done / busy * probe / REFERENCE_PROBE_S]


def _verify(server, keys, out: Outcome) -> None:
    """Every distinct key served must equal Algorithm 1 on the graph,
    through both ``query`` and ``query_many``."""
    distinct = sorted(set(keys))
    snapshot = CompactAdjacency(server.durable.graph)
    labels = snapshot.labels
    batched = server.query_many(distinct)
    for (k, p), many in zip(distinct, batched):
        expected = {labels[v] for v in kp_core_vertices_compact(snapshot, k, p)}
        out.check(set(server.query(k, p)) == expected, f"query({k}, {p}) wrong")
        out.check(set(many) == expected, f"query_many ({k}, {p}) wrong")


def _traced(server, keys, seconds: float, boot, out: Outcome) -> None:
    """Per-layer numbers: a wrapped single-query pass for the overhead,
    then isolated replays of one key chunk against each entry point."""
    tracer = Tracer(buffer_size=SPAN_BUFFER)
    wrappers = Wrappers(tracer)
    before = server.cache_stats()
    wrappers.install(server, "query", "server.query")
    try:
        _, traced_ns = _single_queries(server, keys, seconds / 2, out)
    finally:
        wrappers.uninstall()
    out.spans = tracer.events()
    after = server.cache_stats()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    layers = out.layers
    layers["service.cache.hits"] = hits
    layers["service.cache.misses"] = misses
    layers["service.cache.hit_rate"] = hits / max(1, hits + misses)
    overhead = count_quantile(traced_ns, 0.9) * 1e-6 - out.e2e["op_ms_p90"]
    layers["trace.overhead_ms_p90"] = overhead
    layers["trace.overhead_share"] = overhead / out.e2e["op_ms_p90"]

    index, durable = server.index, server.durable
    entry_points = {
        "service.server.query_us": server.query,
        "service.durable.query_slice_us": durable.query_slice,
        "core.index.answer_key_us": index.answer_key,
        "core.index.query_slice_us": index.query_slice,
    }
    per_call: dict[str, list[float]] = {name: [] for name in entry_points}
    per_call["service.server.query_many_us_per_query"] = []
    deadline = perf_counter() + seconds / 2
    offset, rounds = 0, 0
    while rounds < 3 or perf_counter() < deadline:
        chunk = keys[offset : offset + REPLAY_CHUNK]
        offset = (offset + REPLAY_CHUNK) % (len(keys) - REPLAY_CHUNK)
        for name, call in entry_points.items():
            start = perf_counter()
            for k, p in chunk:
                call(k, p)
            per_call[name].append((perf_counter() - start) * 1e6 / len(chunk))
        start = perf_counter()
        for lo in range(0, len(chunk), BATCH):
            server.query_many(chunk[lo : lo + BATCH])
        per_call["service.server.query_many_us_per_query"].append(
            (perf_counter() - start) * 1e6 / len(chunk)
        )
        rounds += 1
    for name, values in per_call.items():
        layers[name] = median(values)
    layers["service.server.read_tax_us"] = (
        layers["service.server.query_us"] - layers["core.index.query_slice_us"]
    )
    sample = keys[:REPLAY_CHUNK]
    layers["core.index.answer_size_mean"] = sum(
        len(index.query_slice(k, p)) for k, p in sample
    ) / len(sample)
    layers["service.bootstrap.apply_batch_s"] = median(boot["apply_batch_s"])
    layers["service.bootstrap.checkpoint_ms"] = median(boot["checkpoint_ms"])
