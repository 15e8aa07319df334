#!/usr/bin/env bash
# Full local gate: a list of cargo invocations. Every drill is a Rust test
# the workspace run executes — the process-level ones (durable ingest across
# a real process death, leader change with fenced promote) spawn the real
# rrre-serve binary from crates/serve/tests/cli.rs — and the replication
# simulator (crates/testkit/tests/replica_sim.rs: an exhaustive two-replica
# search, 1 000 seeded three-replica schedules and the recorded schedules,
# seeds and bounds fixed in code; a failure prints its seed and shrunk
# schedule) runs inside `cargo test --workspace`.
# Run from anywhere; operates on the repo this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

# The goldens pin the training and baseline bits; with RRRE_UPDATE_GOLDENS
# set, a golden test rewrites its file and passes, so the gate would prove
# nothing.
if [ -n "${RRRE_UPDATE_GOLDENS+set}" ]; then
  echo "refusing to run with RRRE_UPDATE_GOLDENS set: unset it first" >&2
  exit 1
fi

cargo build --release --workspace
cargo test --workspace -q

# Every intra-doc link must resolve: a renamed item fails here, not in a
# reader's browser.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Every workspace crate, tests and examples included, stays clippy-clean:
# a new lint fails here, not in the next cleanup.
cargo clippy --offline --workspace --all-targets -- -D warnings

# The fixtures every root test trains are bit-identical at any thread count,
# so a failure here is a determinism regression in the parallel engine.
RRRE_THREADS=4 cargo test -q

# No test step may have rewritten a committed golden or the committed
# adversarial grid: the bit-exactness of every kernel change rests on them.
git diff --exit-code -- tests/goldens results/adversarial_grid.csv

# Connection-scale soak (5k concurrent conns): two fds per connection live in
# the test process, so it only runs where the fd limit can be lifted.
ulimit -n 16384 2>/dev/null || true
if [ "$(ulimit -n)" -ge 10752 ]; then
  cargo test --release -q -p rrre-serve --test conn_scale -- --ignored
else
  echo "SKIP conn_scale soak: fd soft limit $(ulimit -n) < 10752"
fi

# benchmark/ is its own workspace with path deps on crates/*: a rename or a
# dropped metric there must fail here, not in the benchmark driver.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- check

# Run the benchmark the way BENCHMARK.json declares it — full-length phases,
# untraced and traced, every workload. A run whose oracles fail or that
# panics exits non-zero. `--quick` is not a substitute: its 2-s phases never
# drain recommend_cold's pool of unseen users.
for workload in train_epoch recommend_cold predict_hot scatter_warm ingest_quorum; do
  for trace in 0 1; do
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
      run --workload "$workload" --seed 1 --seconds 12 --trace "$trace"
  done
done
# A faster cold path moves the traced cold run toward the rate at which it
# spends the unseen users its span replay needs (ROADMAP blocker 3), and
# the roadmap's check of it names seeds 1 and 2: run seed 2 traced as well.
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
  run --workload recommend_cold --seed 2 --seconds 12 --trace 1

echo "==> CI gate: all green"
