#!/usr/bin/env python3
"""Fails CI when a BENCH_*.json headline metric regresses >10% vs baseline.

Usage:
    python3 tools/check_bench_regression.py \
        --baseline bench/baselines --current build [--tolerance 0.10]

The committed baselines under bench/baselines/ are the BENCH_*.json files a
known-good build produced (refresh them by copying a trusted run's output:
`cp build/BENCH_*.json bench/baselines/`). Only the *headline* metrics in
HEADLINE_METRICS are gated. Almost all of them are dimensionless: same-host
speedup ratios, efficiencies, recalls and binary correctness gates, which
are stable across host hardware. Two are absolute figures from
BENCH_stream.json: the ingest rate (trajs/sec, higher is better) and the
mixed-load query p95 (ms, lower is better). Their baselines were recorded
on a 1-core host, so multi-core CI runners clear them with margin; a
regression there is a lost stage overlap or a serialised queue. Every other
timing and absolute rate (steps/sec, per-phase milliseconds) is not
compared: it measures the runner, not the code.
"""

import argparse
import json
import os
import sys

# file -> list of (human name, extractor). Metrics are higher-is-better
# unless their key is listed in LOWER_IS_BETTER below.
HEADLINE_METRICS = {
    "BENCH_tensor.json": [
        # Fused-kernel speedup over the seed scalar loop, per benchmark.
        (
            "tensor kernel speedups",
            lambda doc: {
                f"benchmarks[{b['name']}].speedup": b["speedup"]
                for b in doc["benchmarks"]
            },
        ),
    ],
    "BENCH_pipeline.json": [
        (
            "pipeline end-to-end speedup",
            lambda doc: {"speedup_vs_seed": doc["speedup_vs_seed"]},
        ),
        (
            "length-bucketing padding efficiency",
            lambda doc: {
                "padding_efficiency.bucketed":
                    doc["padding_efficiency"]["bucketed"]
            },
        ),
        # CH-backed detour generation vs the seed's per-call Yen search —
        # a same-host ratio of two algorithms over the identical corpus.
        (
            "detour CH-vs-Yen speedup",
            lambda doc: {"detour.ch_speedup": doc["detour"]["ch_speedup"]},
        ),
    ],
    "BENCH_graph.json": [
        # Contraction-hierarchy point-to-point speedup over CSR Dijkstra on
        # the same pairs, and the exactness share (must stay 1.0 — the CH
        # answers are integer-identical to Dijkstra by construction).
        (
            "contraction-hierarchy query speedup",
            lambda doc: {"ch_speedup": doc["ch_speedup"]},
        ),
        (
            "contraction-hierarchy exactness",
            lambda doc: {"ch_exactness": doc["ch_exactness"]},
        ),
    ],
    "BENCH_serve.json": [
        # Frozen-engine corpus embedding vs the seed grad-tracking consumer
        # path: algorithmic (no autograd capture, precomputed road table,
        # bucketed batches), so stable across hosts.
        (
            "frozen-engine speedup",
            lambda doc: {
                "frozen_speedup_vs_seed": doc["frozen_speedup_vs_seed"]
            },
        ),
        # Padding efficiency of service-coalesced batches (length bucketing
        # inside the micro-batcher) — dimensionless and host-independent.
        (
            "service padding efficiency",
            lambda doc: {
                "service_padding_efficiency":
                    doc["service_padding_efficiency"]
            },
        ),
        # HNSW query throughput over the exact scan, and its recall@10
        # against the exact oracle. Both are same-host ratios (the speedup
        # is algorithmic — graph search visits O(ef*M) of the corpus — and
        # recall is dimensionless), so stable across runners.
        (
            "ann hnsw speedup",
            lambda doc: {"ann_hnsw_speedup": doc["ann_hnsw_speedup"]},
        ),
        (
            "ann hnsw recall@10",
            lambda doc: {"ann_recall_at_10": doc["ann_recall_at_10"]},
        ),
        # int8 serving vs the f32 frozen engine at serving width: a
        # same-host ratio (both sides run the same batches on the same
        # machine), so stable across runners with the same SIMD backend.
        (
            "quantized embed speedup",
            lambda doc: {
                "quantized_embed_speedup": doc["quantized_embed_speedup"]
            },
        ),
        # Quantization error, encoded higher-is-better as the mean cosine
        # between int8 and f32 embeddings (1.0 = exact). Dimensionless and
        # host-independent.
        (
            "quantized embed error",
            lambda doc: {
                "quantized_embed_mean_cos": doc["quantized_embed_mean_cos"]
            },
        ),
        # Tombstone compaction must restore build-fresh recall: the
        # compacted copy of a 50%-dead index vs the exact oracle over the
        # survivors. Dimensionless, host-independent.
        (
            "ann compacted recall@10",
            lambda doc: {
                "ann_compaction.compacted_recall":
                    doc["ann_compaction"]["compacted_recall"]
            },
        ),
    ],
    "BENCH_stream.json": [
        # Streaming-pipeline ingest throughput (full match -> embed ->
        # upsert path). Absolute trajs/sec, but the committed baseline was
        # recorded on a 1-core host, so CI runners clear it with margin;
        # a regression here is the pipeline losing a stage overlap or a
        # queue serializing, which shows on any machine.
        (
            "stream ingest rate",
            lambda doc: {"stream_ingest_rate": doc["stream_ingest_rate"]},
        ),
        # Query p95 while ingest runs concurrently — the "queries are not
        # starved by writers" contract. Lower is better.
        (
            "mixed-load query p95",
            lambda doc: {
                "mixed_query_latency_ms.p95":
                    doc["mixed_query_latency_ms"]["p95"]
            },
        ),
        # Recall@10 of the streamed HNSW index against the exact oracle
        # built from the same upserts. Dimensionless, host-independent.
        (
            "streamed-index recall@10",
            lambda doc: {
                "recall_at_10_vs_exact": doc["recall_at_10_vs_exact"]
            },
        ),
        # The pipeline accounting identity (accepted == ingested + failed
        # + dropped after drain). Binary and host-independent; anything
        # below 1.0 is a lost or double-counted item.
        (
            "pipeline accounting identity",
            lambda doc: {
                "accounting_ok": 1.0 if doc["accounting_ok"] else 0.0
            },
        ),
        # Recall@10 of the post-swap serving index after a full adaptation
        # round (warm-start retrain + rebuild + hot-swap + catch-up),
        # against an exact oracle of the new engine's embeddings.
        # Dimensionless, host-independent.
        (
            "post-swap recall@10",
            lambda doc: {
                "post_swap_recall_at_10": doc["post_swap_recall_at_10"]
            },
        ),
    ],
}

# Keys where smaller is better: the check inverts to a ceiling of
# base * (1 + tolerance).
LOWER_IS_BETTER = {
    "mixed_query_latency_ms.p95",
}


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="directory with committed BENCH_*.json")
    parser.add_argument("--current", required=True,
                        help="directory with freshly produced BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional regression (default 0.10)")
    args = parser.parse_args()

    failures = []
    checked = 0
    for filename, extractors in HEADLINE_METRICS.items():
        baseline_path = os.path.join(args.baseline, filename)
        current_path = os.path.join(args.current, filename)
        if not os.path.exists(baseline_path):
            print(f"note: no committed baseline for {filename}; skipping")
            continue
        if not os.path.exists(current_path):
            failures.append(f"{filename}: missing from {args.current} "
                            "(bench did not run?)")
            continue
        baseline_doc = load(baseline_path)
        current_doc = load(current_path)
        for group, extract in extractors:
            baseline_metrics = extract(baseline_doc)
            current_metrics = extract(current_doc)
            for key, base_value in baseline_metrics.items():
                if key not in current_metrics:
                    failures.append(f"{filename}: headline metric '{key}' "
                                    "disappeared")
                    continue
                current_value = current_metrics[key]
                if key in LOWER_IS_BETTER:
                    bound = base_value * (1.0 + args.tolerance)
                    ok = current_value <= bound
                    bound_name = "ceiling"
                else:
                    bound = base_value * (1.0 - args.tolerance)
                    ok = current_value >= bound
                    bound_name = "floor"
                status = "ok" if ok else "REGRESSED"
                print(f"[{status:>9}] {group}: {key} = {current_value:.3f} "
                      f"(baseline {base_value:.3f}, {bound_name} "
                      f"{bound:.3f})")
                checked += 1
                if not ok:
                    failures.append(
                        f"{filename}: {key} regressed to {current_value:.3f} "
                        f"(baseline {base_value:.3f}, allowed {bound_name} "
                        f"{bound:.3f})")

    if failures:
        print("\nFAIL: headline benchmark regression(s) detected:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {checked} headline metrics within "
          f"{args.tolerance:.0%} of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
