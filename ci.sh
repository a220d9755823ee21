#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
# Fast tier by default; FULL=1 additionally runs the #[ignore]d soak
# tests (10k-task pool drains) via --include-ignored, widens the chaos
# grid, and regenerates and diffs the Full paper archive
# (`experiments_full.txt`; BLESS=1 rewrites it).
set -euo pipefail
cd "$(dirname "$0")"

# Per-gate wall-clock accounting: every gate runs between gate_begin and
# gate_end "name", and the summary at the bottom prints where CI time went.
gate_timing=""
gate_t0=0
gate_begin() { gate_t0=$(date +%s%N); }
gate_end() {
    local gate_ms=$(( ($(date +%s%N) - gate_t0) / 1000000 ))
    gate_timing="${gate_timing}$(printf '  %-28s %6d ms' "$1" "$gate_ms")"$'\n'
}

gate_begin
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Docs gate: rustdoc warnings (broken, ambiguous or private intra-doc
# links) fail CI, so docs cannot keep naming deleted items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Thread lint: `par` is the single owner of host threads (its `Budget`
# shards edge regions and fleet boards). No other crate spawns its own,
# so per-call thread spawning cannot creep back into a hot path.
if grep -rnE 'std::thread::(scope|spawn)' crates/*/src | grep -v '^crates/par/'; then
    echo "thread lint: only crates/par may spawn host threads" >&2; exit 1
fi
# Quantile lint: `npu_serve::quantile::nearest_rank` is the one quantile
# rule (ceil nearest-rank). No other module defines its own percentile,
# so reports cannot drift back to incompatible definitions.
if grep -rnE '(fn|let) percentile\b' crates/*/src | grep -v '^crates/npu-serve/src/quantile.rs:'; then
    echo "quantile lint: use npu_serve::quantile::nearest_rank" >&2; exit 1
fi
# One-harness lint: `edge_sim::run` is the one harness that drives a
# `TieredService` (chaos is one of its storm presets). No other crate
# builds its own tier loop, so a second request plan, epoch loop and
# report cannot grow back beside it.
if grep -rn 'TieredService::new' crates/*/src | grep -vE '^crates/(npu-serve|edge-sim)/'; then
    echo "one-harness lint: drive the tier through edge_sim::run" >&2; exit 1
fi
# Event-buffer lint: the serving layer reports through counters
# (`ServeStats`, `TierStats`) and `MetricsSnapshot`. It keeps no
# trace-event log, so an unread per-request buffer cannot grow back
# into large runs.
if grep -rn 'TraceEvent' crates/npu-serve/src; then
    echo "event-buffer lint: npu-serve reports through counters, not TraceEvent" >&2; exit 1
fi
# FMA lint: the f32 training kernels keep every output's IEEE operation
# sequence (same k-order, same zero skips, no contraction), which is what
# keeps trained weights bit-identical. A fused multiply-add rounds once
# instead of twice and would silently change every trained weight.
if grep -nE 'mul_add|fmadd' crates/nn/src/{matrix,mlp,adam,train,resume,simd}.rs; then
    echo "FMA lint: no fused multiply-add in the f32 training kernels" >&2; exit 1
fi
# Quantizer-rule lint: the libm rounding rule of int8 quantization
# (`round` then `clamp` to the code range) is written once, in
# `nn::kernel` (`quantize_reference`, the spec of `KernelMode::Scalar`
# and of compiled weights). Every other quantizer is held to it bit for
# bit by the differential tests, so no second copy can drift from it.
if grep -rnE '\.round\(\)\.clamp\(' crates/*/src tests/ | grep -v '^crates/nn/src/kernel.rs:'; then
    echo "quantizer-rule lint: quantize through nn::kernel::quantize_reference" >&2; exit 1
fi
gate_end "fmt + clippy + docs + lints"

# Platform hot-path gate: a steady-state `Platform::tick` performs no heap
# allocation (fleet runs tick every board 500 times per epoch), and neither
# does the TOP-IL DVFS loop that runs every 50 ticks beside it; each test
# binary counts allocations over 1,000 warmed-up ticks. The memoized tick
# must also match its un-memoized reference bit for bit over randomized
# scenarios (phases, shared cores, migrations, governor debt, DVFS faults,
# DTM clamps).
gate_begin
cargo test -q -p hikey-platform --test tick_alloc || {
    echo "platform hot-path gate: Platform::tick allocated in steady state" >&2; exit 1; }
cargo test -q -p topil --test dvfs_alloc || {
    echo "platform hot-path gate: the DVFS loop allocated in steady state" >&2; exit 1; }
cargo test -q -p hikey-platform --lib memoized_tick_matches_the_reference_bit_for_bit || {
    echo "platform hot-path gate: the memoized tick diverged from its reference" >&2; exit 1; }
gate_end "platform hot-path gate"
echo "platform hot-path gate passed"

# Training-step allocation gate: once its workspace has seen the largest
# batch, an IL training step (batch gather, forward, loss, backward,
# Adam) and the validation pass perform no heap allocation; the test
# binary counts allocations over three warmed-up epochs.
gate_begin
cargo test -q -p nn --test train_alloc || {
    echo "training-step allocation gate: a warmed-up training step allocated" >&2; exit 1; }
gate_end "training-step allocation gate"
echo "training-step allocation gate passed"

# Serve-path allocation gate, on the edge fleet's own tier
# (`edge_sim::tier_config`). Warmed up, a 6x-load epoch on a one-rack
# tier allocates nothing: payloads are refilled in place, reply outputs
# and job lists go back to the service that filed them, and every other
# buffer is reused (the services' per-request sample Vecs, doubling past
# 64 KiB, are set apart). Cold, a whole `edge_sim::run` from fresh
# services on perfbench's two edge shapes allocates at most 1.1 (nominal)
# and 0.4 (6x load) times per submitted request, so the cost every
# perfbench run pays is pinned too. The test binary counts allocation
# calls on its own thread.
gate_begin
cargo test -q -p edge-sim --test serve_alloc || {
    echo "serve-path allocation gate: the edge serving path allocated past its budget" >&2; exit 1; }
gate_end "serve-path allocation gate"
echo "serve-path allocation gate passed"

gate_begin
cargo test -q -p trace
if [ "${FULL:-0}" = "1" ]; then
    cargo test --workspace -q -- --include-ignored
else
    cargo test --workspace -q
fi
gate_end "test suite"

# Crash-recovery gate: an interrupted sweep, resumed, must reproduce the
# uninterrupted run's CSV (incl. per-point trace hashes) byte-for-byte,
# and an interrupted IL training run, resumed from its snapshot, must
# write the uninterrupted run's model file byte-for-byte.
gate_begin
cargo build --release -q -p bench --bin experiments
ckpt_tmp="$(mktemp -d)"
trap 'rm -rf "$ckpt_tmp"' EXIT
experiments=target/release/experiments
"$experiments" sweep --points 2 --state "$ckpt_tmp/ref-state" --out "$ckpt_tmp/ref" >/dev/null
set +e
TOPIL_SWEEP_CRASH_AFTER=1 "$experiments" sweep --points 2 \
    --state "$ckpt_tmp/state" --out "$ckpt_tmp/resumed" >/dev/null
status=$?
set -e
if [ "$status" -ne 130 ]; then
    echo "crash-recovery gate: expected exit 130 from interrupted sweep, got $status" >&2
    exit 1
fi
"$experiments" sweep --points 2 --state "$ckpt_tmp/state" --out "$ckpt_tmp/resumed" >/dev/null
diff "$ckpt_tmp/ref/sweep.csv" "$ckpt_tmp/resumed/sweep.csv"
"$experiments" train --state "$ckpt_tmp/train-ref-state" --out "$ckpt_tmp/train-ref" >/dev/null
set +e
TOPIL_TRAIN_CRASH_AFTER=3 "$experiments" train \
    --state "$ckpt_tmp/train-state" --out "$ckpt_tmp/train-resumed" >/dev/null
status=$?
set -e
if [ "$status" -ne 130 ]; then
    echo "crash-recovery gate: expected exit 130 from interrupted training, got $status" >&2
    exit 1
fi
"$experiments" train --state "$ckpt_tmp/train-state" --out "$ckpt_tmp/train-resumed" \
    2> "$ckpt_tmp/train-resume.log" >/dev/null
grep -q 'resumed from training snapshot' "$ckpt_tmp/train-resume.log" || {
    cat "$ckpt_tmp/train-resume.log" >&2
    echo "crash-recovery gate: the rerun did not resume from the training snapshot" >&2; exit 1; }
cmp "$ckpt_tmp/train-ref/il-model.bin" "$ckpt_tmp/train-resumed/il-model.bin" || {
    echo "crash-recovery gate: resumed training wrote a different model" >&2; exit 1; }
gate_end "crash-recovery gate"
echo "crash-recovery gate passed"

# Fleet smoke + parallel-determinism gate: 16 boards x 200 epochs on the
# shared NPU service must drop zero requests, beat the serial baseline 3x,
# stay bit-exact — and produce byte-identical CSV whether the boards are
# stepped by one thread or four.
gate_begin
"$experiments" fleet --boards 16 --epochs 200 --threads 1 --out "$ckpt_tmp/fleet-a" >/dev/null 2>&1
"$experiments" fleet --boards 16 --epochs 200 --threads 4 --out "$ckpt_tmp/fleet-b" >/dev/null 2>&1
fleet_csv="$ckpt_tmp/fleet-a/fleet.csv"
grep -q '^summary,,dropped,0$' "$fleet_csv" || {
    echo "fleet gate: dropped requests" >&2; exit 1; }
grep -q '^summary,,mismatches,0$' "$fleet_csv" || {
    echo "fleet gate: batched replies diverged from dedicated inference" >&2; exit 1; }
awk -F, '$3 == "speedup_vs_serial" && $4 < 6.0 { exit 1 }' "$fleet_csv" || {
    echo "fleet gate: batched speedup below 6x" >&2; exit 1; }
diff "$fleet_csv" "$ckpt_tmp/fleet-b/fleet.csv" || {
    echo "fleet gate: CSV diverged between --threads 1 and --threads 4" >&2; exit 1; }
gate_end "fleet gate"
echo "fleet smoke + parallel-determinism gate passed"

# Kernel gate: the fast int8 path (lane-parallel quantizer, vectorized
# bodies), the scalar spec (reference quantizer, naive loop), and the
# policy cache must be interchangeable byte-for-byte. Runs the
# differential suite (scalar vs vectorized vs cached over randomized
# shapes, scales, group splits and rounding-boundary inputs), then forces
# a 1k-board fleet smoke onto the scalar spec and onto a cache-disabled
# service and diffs the CSVs against the vectorized cached default. The f32
# training kernels get the same treatment: their differential suite
# (blocked products vs the naive loops, on every SIMD tier the host
# runs: baseline, AVX2, AVX-512) and
# the trained-weight digest of the fleet and quick models.
gate_begin
cargo test -q -p nn kernel
cargo test -q -p nn matrix
cargo test -q --test golden_digests model_fleet0
cargo test -q -p npu cache
cargo test -q --test kernel_equivalence
kern_args="--boards 1000 --epochs 20 --threads 4"
# shellcheck disable=SC2086
"$experiments" fleet $kern_args --out "$ckpt_tmp/kern-vec" >/dev/null 2>&1
# shellcheck disable=SC2086
"$experiments" fleet $kern_args --kernel scalar \
    --out "$ckpt_tmp/kern-scalar" >/dev/null 2>&1
diff "$ckpt_tmp/kern-vec/fleet.csv" "$ckpt_tmp/kern-scalar/fleet.csv" || {
    echo "kernel gate: fleet CSV diverged between scalar and vectorized kernels" >&2; exit 1; }
# shellcheck disable=SC2086
"$experiments" fleet $kern_args --policy-cache 0 \
    --out "$ckpt_tmp/kern-nocache" >/dev/null 2>&1
awk -F, '$3 == "cache_hits" && $4 == 0 { exit 1 }' "$ckpt_tmp/kern-vec/fleet.csv" || {
    echo "kernel gate: the default fleet run never hit the policy cache" >&2; exit 1; }
grep -v '^summary,,cache_' "$ckpt_tmp/kern-vec/fleet.csv" > "$ckpt_tmp/kern-vec.stripped"
grep -v '^summary,,cache_' "$ckpt_tmp/kern-nocache/fleet.csv" > "$ckpt_tmp/kern-nocache.stripped"
diff "$ckpt_tmp/kern-vec.stripped" "$ckpt_tmp/kern-nocache.stripped" || {
    echo "kernel gate: policy cache changed an output byte outside its counters" >&2; exit 1; }
gate_end "kernel gate"
echo "kernel gate passed (scalar == vectorized == cached, byte-for-byte)"

# Overload gate: 10x open-loop traffic plus a fault storm. Admitted
# requests must never miss a deadline, sheds must stay bounded (the pool
# keeps serving), the breaker must actually cycle, the run must finish
# inside a hard wall-clock budget, and the CSV must be byte-identical
# whether payload generation uses one thread or four.
gate_begin
timeout 300 "$experiments" overload --threads 1 --storm --out "$ckpt_tmp/ov-a" >/dev/null 2>&1 || {
    echo "overload gate: run failed or exceeded the 300s wall-clock budget" >&2; exit 1; }
timeout 300 "$experiments" overload --threads 4 --storm --out "$ckpt_tmp/ov-b" >/dev/null 2>&1 || {
    echo "overload gate: run failed or exceeded the 300s wall-clock budget" >&2; exit 1; }
overload_csv="$ckpt_tmp/ov-a/overload.csv"
grep -q '^summary,,deadline_misses,0$' "$overload_csv" || {
    echo "overload gate: an admitted request was served past its deadline" >&2; exit 1; }
grep -q '^summary,,dropped,0$' "$overload_csv" || {
    echo "overload gate: a ticket vanished without a reply or a typed error" >&2; exit 1; }
awk -F, '$3 == "shed_rate" && $1 == "summary" && ($4 >= 1.0 || $4 <= 0.0) { exit 1 }' "$overload_csv" || {
    echo "overload gate: shed rate unbounded (all or none of the traffic shed)" >&2; exit 1; }
awk -F, '$3 == "served" && $1 == "summary" && $4 == 0 { exit 1 }' "$overload_csv" || {
    echo "overload gate: the pool served nothing under overload" >&2; exit 1; }
awk -F, '$3 == "breaker_opens" && $1 == "summary" && $4 == 0 { exit 1 }' "$overload_csv" || {
    echo "overload gate: the fault storm never tripped a breaker" >&2; exit 1; }
diff "$overload_csv" "$ckpt_tmp/ov-b/overload.csv" || {
    echo "overload gate: CSV diverged between --threads 1 and --threads 4" >&2; exit 1; }
gate_end "overload gate"
echo "overload gate passed"

# Golden-digest gate: the FNV-64 digests of the fleet, overload and edge
# CSVs (the edge grid includes the five chaos storm presets) over a small
# named scenario grid, each at a one- and a four-thread budget, must
# match the committed fixtures byte for byte. The golden traces and the
# digests both run with their notices visible: a fixture skipped for a
# foreign StdRng fingerprint pins nothing, so this workspace's own stream
# may not leave one dead.
gate_begin
for suite in golden_digests golden_traces; do
    golden_log="$ckpt_tmp/$suite.log"
    cargo test -q --test "$suite" -- --nocapture > "$golden_log" 2>&1 || {
        cat "$golden_log" >&2; echo "golden gate: $suite failed" >&2; exit 1; }
    if grep 'skipping golden fixture' "$golden_log" >&2; then
        echo "golden gate: $suite skipped a fixture blessed under another StdRng stream" >&2
        exit 1
    fi
done
gate_end "golden-digest gate"
echo "golden-digest gate passed"

# Chaos gate: a seeded storm grid — every edge-sim storm preset on the
# small flat-demand chaos fleet — under the always-on invariant checker.
# Every storm must finish with zero invariant violations, and the CSV
# must be byte-identical across thread budgets (1 vs 4). FULL=1 widens
# the grid into a soak.
gate_begin
chaos_args="--boards 8 --racks 2 --epochs 24 --seed 11 --threads 1"
storms="crash-wave partition heartbeat slow-tier all"
seeds="11"
if [ "${FULL:-0}" = "1" ]; then
    chaos_args="--boards 12 --racks 3 --epochs 80 --seed 11 --threads 1"
    seeds="11 23 47"
fi
for storm in $storms; do
    for seed in $seeds; do
        args="$(echo "$chaos_args" | sed "s/--seed 11/--seed $seed/")"
        # shellcheck disable=SC2086
        "$experiments" chaos $args --storm "$storm" \
            --out "$ckpt_tmp/chaos-$storm-$seed" >/dev/null 2>&1 || {
            echo "chaos gate: storm $storm seed $seed violated an invariant" >&2; exit 1; }
        chaos_csv="$ckpt_tmp/chaos-$storm-$seed/chaos.csv"
        grep -q '^summary,,invariant_violations,0$' "$chaos_csv" || {
            echo "chaos gate: storm $storm seed $seed reported violations" >&2; exit 1; }
    done
done
# Determinism leg on the full preset: threads 1 vs 4.
# shellcheck disable=SC2086
"$experiments" chaos $chaos_args --storm all --threads 4 \
    --out "$ckpt_tmp/chaos-t4" >/dev/null 2>&1
diff "$ckpt_tmp/chaos-all-11/chaos.csv" "$ckpt_tmp/chaos-t4/chaos.csv" || {
    echo "chaos gate: CSV diverged between --threads 1 and --threads 4" >&2; exit 1; }
gate_end "chaos gate"
echo "chaos gate passed (storms: $storms; seeds: $seeds)"

# Edge-fleet gate: 1k boards of the datacenter-scale simulator (user
# frontier + network model + tiered service, region-sharded). The run
# must finish with zero invariant violations, actually serve traffic,
# and produce byte-identical CSV across thread budgets (1 vs 4).
gate_begin
edge_args="--boards 1000 --racks 8 --epochs 24 --seed 11"
# shellcheck disable=SC2086
"$experiments" edge $edge_args --threads 1 \
    --out "$ckpt_tmp/edge-t1" >/dev/null 2>&1 || {
    echo "edge gate: run failed or violated an invariant" >&2; exit 1; }
edge_csv="$ckpt_tmp/edge-t1/edge.csv"
grep -q '^summary,,invariant_violations,0$' "$edge_csv" || {
    echo "edge gate: invariant violations reported" >&2; exit 1; }
awk -F, '$1 == "summary" && $3 == "replies" && $4 == 0 { exit 1 }' "$edge_csv" || {
    echo "edge gate: the fleet served nothing" >&2; exit 1; }
# shellcheck disable=SC2086
"$experiments" edge $edge_args --threads 4 \
    --out "$ckpt_tmp/edge-t4" >/dev/null 2>&1
diff "$edge_csv" "$ckpt_tmp/edge-t4/edge.csv" || {
    echo "edge gate: CSV diverged between --threads 1 and --threads 4" >&2; exit 1; }
gate_end "edge gate"
echo "edge-fleet gate passed"

# Paper-archive gate (FULL=1): `experiments --full all` is deterministic,
# and its stdout is the committed `experiments_full.txt` that
# EXPERIMENTS.md quotes (timings go to stderr). The gate regenerates the
# archive and diffs it, so a change that moves a paper-comparison number
# shows the moved lines; BLESS=1 rewrites the archive for an intended
# change, as it does the golden fixtures.
if [ "${FULL:-0}" = "1" ]; then
    gate_begin
    "$experiments" --full all > "$ckpt_tmp/experiments_full.txt" 2>/dev/null
    if [ "${BLESS:-0}" = "1" ]; then
        cp "$ckpt_tmp/experiments_full.txt" experiments_full.txt
        echo "paper-archive gate: rewrote experiments_full.txt"
    else
        diff experiments_full.txt "$ckpt_tmp/experiments_full.txt" || {
            echo "paper-archive gate: the Full archive moved (BLESS=1 rewrites it)" >&2; exit 1; }
    fi
    gate_end "paper-archive gate"
    echo "paper-archive gate passed"
fi

printf 'gate timing summary:\n%s' "$gate_timing"
