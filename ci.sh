#!/usr/bin/env bash
# Repo CI gate: build, tests, lints, formatting. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# The benchmark package is a workspace of its own that compiles against
# these crates through an offline crossbeam stand-in (two-arm `select!`
# only). Its smoke test catches a workspace API or channel-surface change
# that would otherwise first fail in the benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Bounded serving smoke: seeded closed-loop ingest + queries with epoch
# verification on. Exits non-zero on any torn read or zero QPS. The second
# run exercises the parallel writer (conflict-aware event micro-batching).
cargo run --release -p supa-bench --bin serve_bench -- \
  --scale 0.01 --events 1500 --readers 4 --queries 200 --verify --seed 7
cargo run --release -p supa-bench --bin serve_bench -- \
  --scale 0.01 --events 1500 --readers 4 --queries 200 --verify --seed 7 \
  --workers 4

# ANN serving smoke: replay with --ann and a dense recall guard; the run
# exits non-zero if the sampled recall@10 against exact scoring drops below
# 0.95, or on any torn read — the approximate path must stay both accurate
# and epoch-consistent.
cargo run --release -p supa-bench --bin serve_bench -- \
  --scale 0.02 --events 1500 --readers 2 --queries 300 --seed 7 \
  --ann --guard-every 8 --min-recall 0.95

# Block-mode bit-identity smoke: the admission layer's default policy must
# leave the serving path byte-for-byte unchanged — the deterministic probe
# digest of a run with every admission flag at its default must equal one
# with the policy spelled out, and equal a sample-1-in-k run whose weighted
# path degenerates to weight 1 off overload (large queue keeps the
# detector calm).
# (--batch 256 keeps the staleness-lag trigger, 8 chunks, beyond the
# 1500-event stream, so the sampling run's detector can never go hot.)
digest_of() { grep -o 'probe digest 0x[0-9a-f]*' | tail -n 1; }
base_digest=$(cargo run --release -p supa-bench --bin serve_bench -- \
  --scale 0.01 --events 1500 --readers 2 --queries 100 --seed 7 \
  --batch 256 | digest_of)
block_digest=$(cargo run --release -p supa-bench --bin serve_bench -- \
  --scale 0.01 --events 1500 --readers 2 --queries 100 --seed 7 \
  --batch 256 --shed-policy block | digest_of)
sample_digest=$(cargo run --release -p supa-bench --bin serve_bench -- \
  --scale 0.01 --events 1500 --readers 2 --queries 100 --seed 7 \
  --batch 256 --shed-policy sample-1-in-k --queue 8192 | digest_of)
[ -n "$base_digest" ] || { echo "ci: no probe digest in serve_bench output" >&2; exit 1; }
[ "$base_digest" = "$block_digest" ] || {
  echo "ci: --shed-policy block changed the probe digest ($base_digest vs $block_digest)" >&2
  exit 1
}
[ "$base_digest" = "$sample_digest" ] || {
  echo "ci: calm sample-1-in-k diverged from block ($base_digest vs $sample_digest)" >&2
  exit 1
}

# Wave-frozen regime smoke: every shard count >= 2 and every worker count
# >= 2 select the same training regime (α drift scalars frozen per
# conflict-free wave — DESIGN.md §10), so it is pinned once: shards 2 ==
# shards 4 == workers 2. (--shards 1 is the same code path as the base run;
# tests/sharding.rs keeps the None-vs-Some(1) assertion.) The shards=4 run
# additionally verifies epoch consistency under concurrent readers.
shard2_digest=$(cargo run --release -p supa-bench --bin serve_bench -- \
  --scale 0.01 --events 1500 --readers 2 --queries 100 --seed 7 \
  --batch 256 --shards 2 | digest_of)
shard4_digest=$(cargo run --release -p supa-bench --bin serve_bench -- \
  --scale 0.01 --events 1500 --readers 2 --queries 100 --seed 7 \
  --batch 256 --shards 4 --verify | digest_of)
workers2_digest=$(cargo run --release -p supa-bench --bin serve_bench -- \
  --scale 0.01 --events 1500 --readers 2 --queries 100 --seed 7 \
  --batch 256 --workers 2 | digest_of)
[ -n "$shard2_digest" ] || { echo "ci: no probe digest in sharded serve_bench output" >&2; exit 1; }
[ "$shard2_digest" = "$shard4_digest" ] || {
  echo "ci: shards 2 and 4 must pin one result ($shard2_digest vs $shard4_digest)" >&2
  exit 1
}
[ "$shard2_digest" = "$workers2_digest" ] || {
  echo "ci: --workers 2 left the wave-frozen regime ($shard2_digest vs $workers2_digest)" >&2
  exit 1
}

# Overload smoke: an open-loop Poisson burst calibrated to 2× the
# sustainable ingest rate against a tiny queue. serve_bench exits non-zero
# unless the admission layer shed events (--expect-shed), on any torn
# read, and if query p99 exceeds the (generous, absolute) bound — shedding
# must keep readers fast while the writer drowns.
cargo run --release -p supa-bench --bin serve_bench -- \
  --scale 0.01 --events 2000 --readers 2 --seed 7 --verify \
  --open-loop --overload-factor 2.0 --queue 64 \
  --shed-policy drop-oldest --expect-shed --max-p99-us 50000
cargo run --release -p supa-bench --bin serve_bench -- \
  --scale 0.01 --events 2000 --readers 2 --seed 7 --verify \
  --open-loop --overload-factor 2.0 --queue 64 \
  --shed-policy sample-1-in-k --sample-k 4 --expect-shed --max-p99-us 50000

# Replication smoke: one writer publishing per-epoch deltas, one replica
# tailing them. The replica's probe digest must equal the writer's
# bit-for-bit (same epoch ⇒ byte-identical top-K ids and scores), and
# both processes must exit cleanly. The writer publishes over both
# transports at once: a loopback TCP stream (--publish-wait 1 blocks the
# engine until the replica attaches at epoch 0) and the append-only
# segment file, which a second replica then replays offline.
repl_data=$(mktemp)
repl_seg=$(mktemp)
repl_log=$(mktemp)
repl_port=$(( 20000 + RANDOM % 20000 ))
cargo run --release -p supa-serve --bin supa -- generate \
  --dataset uci --scale 0.01 --seed 7 --out "$repl_data"
cargo run --release -p supa-serve --bin supa -- serve \
  --data "$repl_data" --readers 2 --queries 100 --seed 7 \
  --publish-addr 127.0.0.1:"$repl_port" --publish-wait 1 \
  --publish-segment "$repl_seg" > "$repl_log" 2>&1 &
writer_pid=$!
tcp_digest=$(cargo run --release -p supa-serve --bin supa -- replica \
  --data "$repl_data" --connect 127.0.0.1:"$repl_port" --seed 7 | digest_of)
wait "$writer_pid" || {
  cat "$repl_log" >&2
  echo "ci: replication writer exited non-zero" >&2
  exit 1
}
writer_digest=$(digest_of < "$repl_log")
segment_digest=$(cargo run --release -p supa-serve --bin supa -- replica \
  --data "$repl_data" --segment "$repl_seg" --seed 7 | digest_of)
[ -n "$writer_digest" ] || { echo "ci: no probe digest in replication writer output" >&2; exit 1; }
[ "$writer_digest" = "$tcp_digest" ] || {
  echo "ci: TCP replica diverged from writer ($writer_digest vs $tcp_digest)" >&2
  exit 1
}
[ "$writer_digest" = "$segment_digest" ] || {
  echo "ci: segment replica diverged from writer ($writer_digest vs $segment_digest)" >&2
  exit 1
}
rm -f "$repl_data" "$repl_seg" "$repl_log"

# Persisted-index resume smoke: a serve run with --ann and --checkpoint-dir
# saves its HNSW indexes into the checkpoint (v3 index section); a --resume
# run over the same stream must restore them fingerprint-verified instead
# of rebuilding, and answer the probe mix with a bit-identical digest.
ann_data=$(mktemp)
ann_dir=$(mktemp -d)
ann_log1=$(mktemp)
ann_log2=$(mktemp)
cargo run --release -p supa-serve --bin supa -- generate \
  --dataset taobao --scale 0.02 --seed 7 --out "$ann_data"
cargo run --release -p supa-serve --bin supa -- serve \
  --data "$ann_data" --readers 2 --queries 100 --seed 7 \
  --ann --checkpoint-dir "$ann_dir" --checkpoint-every 4 > "$ann_log1" 2>&1
cargo run --release -p supa-serve --bin supa -- serve \
  --data "$ann_data" --readers 2 --queries 100 --seed 7 \
  --ann --checkpoint-dir "$ann_dir" --resume > "$ann_log2" 2>&1
save_digest=$(digest_of < "$ann_log1")
resume_digest=$(digest_of < "$ann_log2")
[ -n "$save_digest" ] || { echo "ci: no probe digest in ann checkpoint run" >&2; exit 1; }
[ "$save_digest" = "$resume_digest" ] || {
  echo "ci: persisted-index resume diverged ($save_digest vs $resume_digest)" >&2
  exit 1
}
grep -q "ann indexes restored from checkpoint" "$ann_log2" || {
  cat "$ann_log2" >&2
  echo "ci: resume did not restore the persisted ann indexes" >&2
  exit 1
}
if grep -q "rebuilding indexes" "$ann_log2"; then
  cat "$ann_log2" >&2
  echo "ci: resume fell back to an index rebuild" >&2
  exit 1
fi
rm -rf "$ann_data" "$ann_dir" "$ann_log1" "$ann_log2"

# Streaming-ingestion smoke: generate a dump, replay it twice — once
# materialised (--data), once streamed off disk (--stream-tsv) — and the
# probe digests must be bit-identical (DESIGN.md §16 contract). The
# validation pass (`supa ingest`) must report zero malformed lines.
ing_data=$(mktemp --suffix=.tsv)
ing_log=$(mktemp)
cargo run --release -p supa-serve --bin supa -- generate \
  --dataset taobao --scale 0.02 --seed 7 --out "$ing_data"
ing_stats=$(cargo run --release -p supa-serve --bin supa -- ingest \
  --data "$ing_data")
printf '%s' "$ing_stats" | grep -q " 0 malformed" || {
  printf '%s\n' "$ing_stats" >&2
  echo "ci: supa ingest found malformed lines in a generated dump" >&2
  exit 1
}
mat_digest=$(cargo run --release -p supa-serve --bin supa -- serve \
  --data "$ing_data" --readers 2 --queries 100 --seed 7 | digest_of)
stream_digest=$(cargo run --release -p supa-serve --bin supa -- serve \
  --stream-tsv "$ing_data" --readers 2 --queries 100 --seed 7 | digest_of)
[ -n "$mat_digest" ] || { echo "ci: no probe digest in materialised serve output" >&2; exit 1; }
[ "$mat_digest" = "$stream_digest" ] || {
  echo "ci: streamed replay diverged from load_tsv ($mat_digest vs $stream_digest)" >&2
  exit 1
}

# Prometheus smoke: a streamed serve run exposing --prom-addr must answer
# one real scrape with a supa_* text exposition; --prom-wait 1 holds the
# run open until the scrape lands, so the background job exiting zero
# means the scrape was served.
prom_port=$(( 20000 + RANDOM % 20000 ))
cargo run --release -p supa-serve --bin supa -- serve \
  --stream-tsv "$ing_data" --readers 1 --queries 50 --seed 7 \
  --prom-addr 127.0.0.1:"$prom_port" --prom-wait 1 > "$ing_log" 2>&1 &
prom_pid=$!
scrape=""
for _ in $(seq 1 200); do
  if scrape=$(exec 2>/dev/null 3<>/dev/tcp/127.0.0.1/"$prom_port" \
      && printf 'GET /metrics HTTP/1.1\r\nHost: ci\r\n\r\n' >&3 \
      && cat <&3; exec 3<&- 2>/dev/null); then
    if printf '%s' "$scrape" | grep -q "supa_events_applied_total"; then
      break
    fi
  fi
  sleep 0.1
done
wait "$prom_pid" || {
  cat "$ing_log" >&2
  echo "ci: prom-gated serve run exited non-zero" >&2
  exit 1
}
printf '%s' "$scrape" | grep -q "# TYPE supa_queries_total counter" || {
  echo "ci: prometheus scrape missing the supa_* exposition" >&2
  exit 1
}
rm -f "$ing_data" "$ing_log"

# Kernel timing gate: ns-per-call for the vector kernels plus the
# adjacency-scan and whole-train-event macro benches, diffed against the
# checked-in baseline. Fails on a >25% regression vs baseline or on the
# generous 1 ms/call absolute budget. Regenerate the baseline on the CI
# machine with `microbench --write-baseline MICROBENCH_baseline.json`.
cargo run --release -p supa-bench --bin microbench -- \
  --baseline MICROBENCH_baseline.json

# Bounded throughput smoke: train/eval/serve rates at workers 1 and 4 on a
# tiny quick-mode dataset. A --quick run writes BENCH_throughput.json under
# target/experiments/, never over the checked-in full-run file at the root.
SUPA_SCALE=0.01 cargo run --release -p supa-bench --bin expt -- --quick throughput

# The tuned kernels must also build when the compiler is allowed to use the
# host's full vector ISA (this is how benchmark numbers are collected).
RUSTFLAGS="-C target-cpu=native" cargo build --release -p supa-embed

echo "ci: all checks passed"
