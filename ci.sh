#!/usr/bin/env bash
# Repo CI gate: build, tests, lints, formatting. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# Every dependency is a path inside this repo: the build needs no registry
# and no network, and the checked-in Cargo.lock must already describe it.
metadata=$(cargo metadata --offline --locked --format-version 1)
if [[ $metadata == *'"source":"registry+'* ]]; then
  echo "ci: a package comes from a registry; dependencies must be path crates" >&2
  exit 1
fi

cargo build --release --locked
cargo test -q --locked
cargo clippy --workspace --all-targets --locked -- -D warnings
cargo fmt --check
# Every intra-doc link must resolve and no public doc may link a private
# item, so a deleted API cannot leave a dangling reference behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib --locked

# The benchmark package is a workspace of its own that compiles against
# these crates by path. Its smoke test catches a workspace API change that
# would otherwise first fail in the benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The serving smokes drive the one CLI, `supa serve`, which verifies every
# query against its claimed epoch and exits non-zero on a torn read or when
# it served fewer than --readers × --queries queries (zero QPS). Scratch
# files share one directory; whether a gate passed or failed, the trap
# removes it and stops any backgrounded run (a job is a subshell whose child
# is `supa`, as `cargo run` execs it, so both are signalled).
work=$(mktemp -d)
trap 'rm -rf "$work"; for j in $(jobs -p); do pkill -P "$j"; kill "$j"; done 2>/dev/null || true' EXIT
supa() { cargo run --release -q --locked -p supa-serve --bin supa -- "$@"; }
digest_of() { grep -o 'probe digest 0x[0-9a-f]*' | tail -n 1; }
fail() { echo "ci: $*" >&2; exit 1; }
# same MESSAGE A B: fail with "MESSAGE (A vs B)" unless the digests match.
same() { [ "$2" = "$3" ] || fail "$1 ($2 vs $3)"; }
# Gated by tier-1 tests, not here: the 4-reader closed loop (all 800
# queries served, zero torn reads) by tests/serving.rs::
# closed_loop_serves_every_metered_query; the ANN recall floor (--min-recall
# 0.95) by tests/ann.rs::ann_serving_recall_meets_floor_against_brute_force;
# the open-loop overload pair (shed > 0, p99 <= 5x unloaded, ladder climb,
# recovery to level 0, zero torn reads) by tests/overload.rs::{
# drop_oldest_burst_sheds_keeps_p99_bounded_and_recovers,
# sample_one_in_k_burst_sheds_reweights_and_recovers}.
supa generate --dataset taobao --scale 0.01 --seed 7 --out "$work/t.tsv" # |E|=2500
serve() { supa serve --data "$work/t.tsv" --readers 2 --queries 100 --seed 7 --batch 512 "$@"; }

# Digest matrix: one equality class. The admission layer's default policy
# must leave the serving path byte-for-byte unchanged — the deterministic
# probe digest of a run with every admission flag at its default must equal
# one with the policy spelled out, and equal a sample-1-in-k run whose
# weighted path degenerates to weight 1 off overload. The detector cannot go
# hot however fast training runs: --queue 8192 holds all 2 500 events, and
# the staleness-lag trigger, 8 chunks x --batch 512 = 4 096 events, exceeds
# them. Every run also verifies its readers' answers against the epoch
# they claim (zero torn reads, or `supa serve` exits non-zero).
base_digest=$(serve | digest_of)
block_digest=$(serve --shed-policy block | digest_of)
sample_digest=$(serve --shed-policy sample-1-in-k --queue 8192 | digest_of)
[ -n "$base_digest" ] || fail "no probe digest in supa serve output"
same "--shed-policy block changed the probe digest" "$base_digest" "$block_digest"
same "calm sample-1-in-k diverged from block" "$base_digest" "$sample_digest"

# One CPU: every training call runs a sampler thread beside the trainer
# (DESIGN.md §10), and pinned to one CPU the two time-slice with the
# readers. The run must finish and reproduce the digest.
if command -v taskset > /dev/null 2>&1; then
  one_cpu_digest=$(taskset -c 0 cargo run --release -q --locked -p supa-serve --bin supa -- \
    serve --data "$work/t.tsv" --readers 2 --queries 100 --seed 7 --batch 512 | digest_of)
  same "one CPU (taskset -c 0) changed the probe digest" "$base_digest" "$one_cpu_digest"
else
  echo "ci: taskset not found; skipping the one-CPU digest check" >&2
fi

# Replication smoke: one writer publishing per-epoch deltas, one replica
# tailing them. The replica's probe digest must equal the writer's
# bit-for-bit (same epoch ⇒ byte-identical top-K ids and scores), and
# both processes must exit cleanly. The writer publishes over both
# transports at once: a loopback TCP stream (--publish-wait 1 blocks the
# engine until the replica attaches at epoch 0) and the append-only
# segment file, which a second replica then replays offline.
repl_port=$(( 20000 + RANDOM % 20000 ))
supa generate --dataset uci --scale 0.01 --seed 7 --out "$work/repl.tsv"
supa serve --data "$work/repl.tsv" --readers 2 --queries 100 --seed 7 \
  --publish-addr 127.0.0.1:"$repl_port" --publish-wait 1 \
  --publish-segment "$work/repl.seg" > "$work/repl.log" 2>&1 &
writer_pid=$!
tcp_digest=$(supa replica --data "$work/repl.tsv" --connect 127.0.0.1:"$repl_port" --seed 7 | digest_of)
wait "$writer_pid" || { cat "$work/repl.log" >&2; fail "replication writer exited non-zero"; }
writer_digest=$(digest_of < "$work/repl.log")
segment_digest=$(supa replica --data "$work/repl.tsv" --segment "$work/repl.seg" --seed 7 | digest_of)
[ -n "$writer_digest" ] || fail "no probe digest in replication writer output"
same "TCP replica diverged from writer" "$writer_digest" "$tcp_digest"
same "segment replica diverged from writer" "$writer_digest" "$segment_digest"

# Persisted-index resume smoke: a serve run with --ann and --checkpoint-dir
# saves its HNSW indexes into the checkpoint (v3 index section); a --resume
# run over the same stream must restore them fingerprint-verified instead
# of rebuilding, and answer the probe mix with a bit-identical digest.
supa generate --dataset taobao --scale 0.02 --seed 7 --out "$work/ann.tsv"
ann_serve() {
  supa serve --data "$work/ann.tsv" --readers 2 --queries 100 --seed 7 \
    --ann --checkpoint-dir "$work/ckpt" "$@"
}
ann_serve --checkpoint-every 4 > "$work/ann1.log" 2>&1
ann_serve --resume > "$work/ann2.log" 2>&1
save_digest=$(digest_of < "$work/ann1.log")
resume_digest=$(digest_of < "$work/ann2.log")
[ -n "$save_digest" ] || fail "no probe digest in ann checkpoint run"
same "persisted-index resume diverged" "$save_digest" "$resume_digest"
grep -q "ann indexes restored from checkpoint" "$work/ann2.log" || {
  cat "$work/ann2.log" >&2
  fail "resume did not restore the persisted ann indexes"
}
if grep -q "rebuilding indexes" "$work/ann2.log"; then
  cat "$work/ann2.log" >&2
  fail "resume fell back to an index rebuild"
fi

# Streaming-ingestion smoke: replay one dump twice — once materialised
# (--data), once streamed off disk (--stream-tsv) — and the probe digests
# must be bit-identical (DESIGN.md §16 contract). The validation pass
# (`supa ingest`) must report zero malformed lines. The dump rewritten in
# the canonical dialect (`supa ingest --out`) must stream to the same
# digest, so the writer and both readers of the one grammar agree.
ing_stats=$(supa ingest --data "$work/ann.tsv" --out "$work/canon.tsv")
printf '%s' "$ing_stats" | grep -q " 0 malformed" || {
  printf '%s\n' "$ing_stats" >&2
  fail "supa ingest found malformed lines in a generated dump"
}
mat_digest=$(supa serve --data "$work/ann.tsv" --readers 2 --queries 100 --seed 7 | digest_of)
stream_digest=$(supa serve --stream-tsv "$work/ann.tsv" --readers 2 --queries 100 --seed 7 | digest_of)
[ -n "$mat_digest" ] || fail "no probe digest in materialised serve output"
same "streamed replay diverged from load_tsv" "$mat_digest" "$stream_digest"
canon_digest=$(supa serve --stream-tsv "$work/canon.tsv" --readers 2 --queries 100 --seed 7 | digest_of)
same "the canonical rewrite streamed to another digest" "$mat_digest" "$canon_digest"

# Prometheus smoke: a streamed serve run exposing --prom-addr must answer
# one real scrape with a supa_* text exposition; --prom-wait 1 holds the
# run open until the scrape lands, so the background job exiting zero
# means the scrape was served.
prom_port=$(( 20000 + RANDOM % 20000 ))
supa serve --stream-tsv "$work/ann.tsv" --readers 1 --queries 50 --seed 7 \
  --prom-addr 127.0.0.1:"$prom_port" --prom-wait 1 > "$work/prom.log" 2>&1 &
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
wait "$prom_pid" || { cat "$work/prom.log" >&2; fail "prom-gated serve run exited non-zero"; }
printf '%s' "$scrape" | grep -q "# TYPE supa_queries_total counter" ||
  fail "prometheus scrape missing the supa_* exposition"

# Kernel timing gate: ns-per-call for the vector kernels plus the
# adjacency-scan, walk-sampling (per path set), whole-train-event, warm InsLearn-chunk (per event),
# delta-frame codec (per KiB), recycled snapshot export (per publish),
# health probe (per verdict) and ANN freeze (one clone and drop of a
# 4 096-vector index, per publish and group) macro benches, diffed against
# the checked-in baseline. The chunk bench catches per-chunk overhead
# creeping back, such as a whole-model copy; the codec bench, a bytewise
# CRC; the export bench, a full-table copy; the probe bench, a re-read of
# the rows training just wrote; the freeze bench, link lists allocated one
# per node and layer.
# Fails on a >25% regression vs baseline or on the generous 1 ms/call
# absolute budget. Regenerate the baseline on the CI machine with
# `microbench --write-baseline MICROBENCH_baseline.json`.
cargo run --release --locked -p supa-bench --bin microbench -- \
  --baseline MICROBENCH_baseline.json

# The tuned kernels must also build when the compiler is allowed to use the
# host's full vector ISA (this is how benchmark numbers are collected).
RUSTFLAGS="-C target-cpu=native" cargo build --release --locked -p supa-embed

echo "ci: all checks passed"
