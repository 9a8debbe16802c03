#!/usr/bin/env bash
# Builds Release, runs the evaluation-throughput bench, and appends its JSON
# lines to BENCH_eval.json so the perf trajectory is tracked across PRs.
# Each line carries the raw engines (interpreter/tape/batched, with
# batched_qps pinned to the pre-schedule generic shape for comparability),
# the SIMD kernel-schedule backend's simd_qps / simd_lowprec_qps plus the
# dispatched `isa` and the actual `threads` the *_mt rows used (acceptance:
# simd_qps >= 1.5x and simd_lowprec_qps >= 1.3x the PR 3 ALARM/512 rows),
# the unified runtime's session_qps / session_batched_qps (acceptance:
# session_batched tracks the schedule backend within 10%), the emulated
# low-precision datapath's lowprec_qps / lowprec_batched_qps /
# lowprec_batched_mt_qps (acceptance: speedup_lowprec_batched >= 2 over the
# query-at-a-time session path), and the narrow-word datapath's
# simd_lowprec_narrow_qps with lowprec_fixed_bits / lowprec_datapath
# recording the measured format width and whether the lane-parallel u32
# kernels or the wide u128 path were dispatched (acceptance: 24-bit
# simd_lowprec_qps >= 3x the PR 4 ALARM/512 row).
#
# The decomposed SoftFloat datapath adds float rows to every line, for both
# circuits (alarm and synthetic_ve36): simd_lowprec_float_qps is the raw
# float engine at schedule defaults on the --float=E,M format (default
# 8,23 — lane-eligible mantissas split each block into exponent and
# significand rows and run the branch-free lane kernels;
# lowprec_float_datapath records lane32 / lane64 / wide),
# simd_lowprec_float_wide_qps the same format pinned to the interleaved
# wide path (force_wide_raw) — the lane-serial reference — and
# speedup_float_lane their ratio (acceptance: ALARM/512
# simd_lowprec_float_qps >= 3x its wide row).  The two paths are
# checksum-pinned in-process and lowprec_float_parity_checksum is printed
# for cross-run diffs.
#
# The cache-shaped tape relayout (ac/tape_layout.hpp) adds four fields:
#   relayout                — whether the run used the slot-reuse layout
#   slots                   — SoA value-buffer rows per block (max-live
#                             under the relayout, num_nodes otherwise)
#   max_live                — the layout's liveness bound (== slots when on)
#   buffer_bytes_per_query  — slots * 8, the per-lane buffer footprint
# The bench runs TWICE per invocation of this script — once with
# --no-relayout, once with the default layout — and both rows are appended,
# so every BENCH_eval.json generation carries its own layout-ablation
# reference (acceptance: ve36/512 simd_qps and simd_lowprec_qps >= 2x their
# relayout-off rows, ALARM within noise, checksums identical between rows).
#
# Every engine pair is parity-checked inside the bench — a checksum drift,
# including u32 vs u128 raw-datapath drift, exits non-zero before any line
# is appended — and the parity_checksum fields let CI diff a
# PROBLP_SIMD=scalar run against auto dispatch bit for bit, and a relayout
# run against --no-relayout, for a narrow and a wide format alike (the
# bench takes an optional `I F` fixed-format override).
#
# The precision-escalation serving row (--escalation=E,M, one extra
# invocation below) measures the flag-driven fallback of the serving
# runtime (runtime/session.hpp FallbackPolicy): the same ALARM batch served
# in the overflow/underflow-prone E=6,M=4 float format with fallback off,
# on the exact backend, and with escalate-to-exact fallback.  Because flag
# status correlates across a circuit's queries, the bench composes a
# serving mix capped at 10% flagged (natural_flagged_fraction records the
# raw batch) and checks the serving contract in-process — flagged answers
# bitwise the exact backend's, clean answers bitwise the fallback-off
# engine's — exiting non-zero on any violation (acceptance: overhead_pct
# <= 30 at flagged_fraction <= 0.10; see docs/runtime.md "Robustness").
#
# The model-artifact layer (runtime/artifact.hpp) adds a second output
# file, BENCH_load.json: bench_model_load writes one line per run with the
# cold-load latency and VmRSS growth of the binary mmap container (map +
# validate + adopt views) on the ALARM model, plus exact/fixed/float parity
# checksums that must match the in-memory model bit for bit (the bench
# exits non-zero on any checksum drift before a line is appended).  Older
# rows also carry text_* fields and load_speedup from the removed text
# artifact.
#
# The async serving front-end (src/serve/) adds a third output file,
# BENCH_serve.json: bench_serve_load writes one line per run with the raw
# batched engine reference (median of 5 rounds), closed-loop qps + p50/p99
# rows at 1..N clients (clients + workers <= nproc, sharing a window of
# (workers + 1) x batch_max requests) across 1..2 worker shards, the
# headline throughput_ratio (acceptance: >= 0.85 — coalescing within 15% of
# the raw engine at saturation), and an open-loop overload row at 2x the
# measured saturation rate with shedding armed.  The bench exits
# non-zero before printing its line unless every submitted request
# completed exactly once (the accounting identity the serve tests pin
# down), so a BENCH_serve.json row doubles as overload-safety evidence —
# see docs/serving.md.
#
# Usage: scripts/bench.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

# One circuit list for both passes, so the ablation rows always pair up.
circuits="alarm,synthetic_ve36"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j --target bench_eval_throughput bench_model_load bench_serve_load

out="$repo_root/BENCH_eval.json"
# The bench prints one JSON object per circuit on stdout; keep only those.
# Relayout-off first (the ablation reference), then the default layout.
for flags in "--no-relayout" ""; do
  # shellcheck disable=SC2086  # $flags is intentionally word-split
  # --min-seconds=1: recorded trajectory rows average over a longer window
  # than the CI smoke default, so single-run scheduler noise stays out of
  # the on/off ratios.
  "$build_dir/bench/bench_eval_throughput" --circuits="$circuits" --min-seconds=1 $flags |
    grep '^{' | while IFS= read -r line; do
      printf '%s\n' "$line" >> "$out"
    done
done

# The escalation serving row: ALARM only (the acceptance circuit), on the
# flag-prone narrow float format.
"$build_dir/bench/bench_eval_throughput" --circuits=alarm --min-seconds=1 --escalation=6,4 |
  grep '^{' >> "$out"

echo "appended results to $out:"
tail -n 5 "$out"

# Cold-load latency + resident cost of the two model artifact formats.
load_out="$repo_root/BENCH_load.json"
"$build_dir/bench/bench_model_load" | grep '^{' >> "$load_out"
echo "appended results to $load_out:"
tail -n 1 "$load_out"

# Saturation + overload row for the async serving front-end.  A longer
# window than the smoke default keeps scheduler noise out of the
# throughput_ratio; the bench fails closed (non-zero, no line) if any
# request completes twice or never.
serve_out="$repo_root/BENCH_serve.json"
"$build_dir/bench/bench_serve_load" --min-seconds=1 --clients=8 | grep '^{' >> "$serve_out"
echo "appended results to $serve_out:"
tail -n 1 "$serve_out"
