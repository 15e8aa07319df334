#!/usr/bin/env bash
# Full local CI gate: everything must build in release, every workspace
# test must pass, the paper-table/figure Criterion benches must at least
# compile, and the frozen benchmark crate must build, pass its unit tests
# and `check` against the current crates/.
# Run from anywhere; operates on the repo this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
# --workspace so the rrre-serve binary the smoke drills below exercise is
# rebuilt too (a bare `cargo build` only covers the root package).
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo build --benches (rrre-bench: paper tables, figures, ablations)"
cargo build --benches -p rrre-bench

echo "==> frozen benchmark (build, unit tests, check)"
# benchmark/ is its own workspace with path deps on crates/*: a rename or
# a dropped metric there must fail here, not in the benchmark driver.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- check

# Thread-matrix smoke: the tier-1 root suite must pass with the training
# thread count forced through the RRRE_THREADS override — the fixtures every
# root test trains are bit-identical at any thread count, so a failure here
# is a determinism regression in the parallel engine.
for t in 1 4; do
  echo "==> tier-1 suite under RRRE_THREADS=$t"
  RRRE_THREADS="$t" cargo test -q
done

echo "==> parallel parity oracles (explicit thread counts)"
cargo test -q --test parallel_parity --test golden_trace --test resume_parity

echo "==> resilience gates (chaos robustness, client failover, retry idempotency)"
cargo test -q -p rrre-serve --test chaos_robustness
cargo test -q -p rrre-client --test failover --test retry_idempotency

echo "==> event-core gates (frame decoder properties, pipelining, overload, reload, protocol)"
cargo test -q -p rrre-serve --test frame_decoder_props --test pipelining \
  --test protocol_robustness --test overload_supervision --test reload_fault

echo "==> connection-scale soak (5k concurrent conns, idle + loris + active)"
# Two fds per connection live in the test process; the soak guards itself
# and skips if the limit stays too small after our best effort to raise it.
ulimit -n 16384 2>/dev/null || true
if [ "$(ulimit -n)" -ge 10752 ]; then
  cargo test --release -q -p rrre-serve --test conn_scale -- --ignored
else
  echo "    SKIP: fd soft limit $(ulimit -n) < 10752; the 5k soak needs more"
fi

echo "==> crash-recovery smoke (train -> abort -> resume)"
SMOKE="$(mktemp -d)"
SRV_PID=()
PRX_PID=()
cleanup() {
  kill "${SRV_PID[@]:-}" "${PRX_PID[@]:-}" 2>/dev/null || true
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$SMOKE"
}
trap cleanup EXIT
SERVE=target/release/rrre-serve
CHAOS=target/release/rrre-chaos-proxy

full="$("$SERVE" train "$SMOKE/full" --epochs 4 2>/dev/null | tail -n 1)"
echo "    uninterrupted: $full"

# The abort flag exits 137 right after epoch 2's checkpoint lands — the
# scripted stand-in for a SIGKILL between epochs.
set +e
"$SERVE" train "$SMOKE/ckpt" --epochs 4 --abort-after-epoch 2 >/dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 137 ]; then
  echo "    FAIL: aborted run exited $status, expected 137" >&2
  exit 1
fi

# Resuming on a different thread count must not change a single bit.
resumed="$("$SERVE" train "$SMOKE/ckpt" --epochs 4 --resume --threads 3 2>/dev/null | tail -n 1)"
echo "    resumed:       $resumed"
if [ "$full" != "$resumed" ]; then
  echo "    FAIL: resumed run does not reproduce the uninterrupted run" >&2
  echo "      full:    $full" >&2
  echo "      resumed: $resumed" >&2
  exit 1
fi

echo "==> parallel determinism drill (loss bits across thread counts)"
# The stdout line carries the exact loss bits; any drift between thread
# counts fails the gate.
for t in 2 4; do
  par="$("$SERVE" train "$SMOKE/par$t" --epochs 4 --threads "$t" 2>/dev/null | tail -n 1)"
  echo "    threads=$t:     $par"
  if [ "$full" != "$par" ]; then
    echo "    FAIL: loss bits at --threads $t differ from serial" >&2
    echo "      serial:    $full" >&2
    echo "      threads=$t: $par" >&2
    exit 1
  fi
done

echo "==> chaos failover smoke (3 replicas, SIGKILL one mid-burst)"
# Three replicas serve one artifact, each behind a deterministic chaos
# proxy (transparent here — the proxies exist so the drill exercises the
# same interposition path the chaos tests use). One replica is SIGKILLed
# mid-burst; the client must finish with zero visible failures and the
# killed replica's breaker must be open in the final snapshot.
"$SERVE" demo "$SMOKE/model" >/dev/null 2>&1

wait_addr() { # <logfile> — scrape the "listening on ADDR" line
  local log="$1" addr
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$log" 2>/dev/null | head -n 1)"
    if [ -n "$addr" ]; then
      echo "$addr"
      return 0
    fi
    sleep 0.1
  done
  echo "    FAIL: no 'listening on' line in $log" >&2
  return 1
}

SRV_ADDR=()
PRX_ADDR=()
for i in 0 1 2; do
  "$SERVE" serve "$SMOKE/model" --addr 127.0.0.1:0 \
    </dev/null >"$SMOKE/serve$i.log" 2>&1 &
  SRV_PID[$i]=$!
done
for i in 0 1 2; do
  SRV_ADDR[$i]="$(wait_addr "$SMOKE/serve$i.log")"
  # The proxy parks on stdin; `tail -f /dev/null` holds the pipe open so
  # it keeps relaying until we tear the pipeline down.
  tail -f /dev/null | "$CHAOS" --upstream "${SRV_ADDR[$i]}" --seed $((90 + i)) \
    >"$SMOKE/proxy$i.log" 2>&1 &
  PRX_PID[$i]=$!
done
for i in 0 1 2; do
  PRX_ADDR[$i]="$(wait_addr "$SMOKE/proxy$i.log")"
done

"$SERVE" burst --replicas "${PRX_ADDR[0]},${PRX_ADDR[1]},${PRX_ADDR[2]}" \
  --requests 80 --gap-ms 10 --users 2 --items 2 \
  --retries 3 --timeout-ms 800 --seed 7 \
  >"$SMOKE/burst.log" 2>"$SMOKE/burst.err" &
BURST_PID=$!
sleep 0.25
kill -9 "${SRV_PID[1]}"
set +e
wait "$BURST_PID"
burst_status=$?
set -e
sed 's/^/    /' "$SMOKE/burst.log"
if [ "$burst_status" -ne 0 ]; then
  echo "    FAIL: burst exited $burst_status (client-visible failures)" >&2
  sed 's/^/    /' "$SMOKE/burst.err" >&2
  exit 1
fi
if ! grep -q "failed=0" "$SMOKE/burst.log"; then
  echo "    FAIL: burst summary does not report failed=0" >&2
  exit 1
fi
if ! grep "^replica ${PRX_ADDR[1]} " "$SMOKE/burst.log" | grep -q "breaker_open=true"; then
  echo "    FAIL: the killed replica's breaker did not open" >&2
  exit 1
fi

echo "==> kill-one-shard chaos smoke (3 shards x 2 replicas, SIGKILL a whole shard mid-burst)"
# A 3-shard fleet, two replicas per shard, every replica behind a chaos
# proxy. Mid-burst, BOTH replicas of shard 1 are SIGKILLed — the shard is
# gone, not just degraded. The scatter-gather client must finish with zero
# client-visible failures: ranking answers over the survivors come back
# flagged `degraded`, never wrong, and the unaffected shards' replicas
# must show zero failures of their own.
"$SERVE" demo "$SMOKE/smodel" --shards 3 >/dev/null 2>&1

SH_SRV_PID=()
SH_PRX_PID=()
SH_PRX_ADDR=()
slot=0
for shard in 0 1 2; do
  for rep in 0 1; do
    "$SERVE" serve "$SMOKE/smodel" --addr 127.0.0.1:0 --shard-id "$shard" \
      </dev/null >"$SMOKE/shard$shard-$rep.log" 2>&1 &
    SH_SRV_PID[$slot]=$!
    slot=$((slot + 1))
  done
done
slot=0
for shard in 0 1 2; do
  for rep in 0 1; do
    up="$(wait_addr "$SMOKE/shard$shard-$rep.log")"
    tail -f /dev/null | "$CHAOS" --upstream "$up" --seed $((200 + slot)) \
      >"$SMOKE/sproxy$slot.log" 2>&1 &
    SH_PRX_PID[$slot]=$!
    slot=$((slot + 1))
  done
done
for i in 0 1 2 3 4 5; do
  SH_PRX_ADDR[$i]="$(wait_addr "$SMOKE/sproxy$i.log")"
done
SRV_PID+=("${SH_SRV_PID[@]}")
PRX_PID+=("${SH_PRX_PID[@]}")

"$SERVE" shardmap "$SMOKE/smodel" --replicas \
  "${SH_PRX_ADDR[0]},${SH_PRX_ADDR[1]};${SH_PRX_ADDR[2]},${SH_PRX_ADDR[3]};${SH_PRX_ADDR[4]},${SH_PRX_ADDR[5]}" \
  >"$SMOKE/shardmap.json"

# Recommend workload: every request scatters across all three shards, so
# the dead shard degrades answers instead of failing point lookups.
"$SERVE" burst --shard-map "$SMOKE/shardmap.json" \
  --requests 80 --gap-ms 10 --users 3 --recommend-k 5 \
  --retries 3 --timeout-ms 800 --seed 11 \
  >"$SMOKE/sburst.log" 2>"$SMOKE/sburst.err" &
SBURST_PID=$!
sleep 0.25
kill -9 "${SH_SRV_PID[2]}" "${SH_SRV_PID[3]}" # both replicas of shard 1
set +e
wait "$SBURST_PID"
sburst_status=$?
set -e
sed 's/^/    /' "$SMOKE/sburst.log"
if [ "$sburst_status" -ne 0 ]; then
  echo "    FAIL: sharded burst exited $sburst_status (client-visible failures)" >&2
  sed 's/^/    /' "$SMOKE/sburst.err" >&2
  exit 1
fi
if ! grep -q "failed=0" "$SMOKE/sburst.log"; then
  echo "    FAIL: sharded burst summary does not report failed=0" >&2
  exit 1
fi
if grep -q " degraded=0 " "$SMOKE/sburst.log"; then
  echo "    FAIL: killing a whole shard produced no degraded answers" >&2
  exit 1
fi
for shard in 0 2; do
  if grep "^shard $shard replica " "$SMOKE/sburst.log" | grep -vq "failures=0"; then
    echo "    FAIL: unaffected shard $shard saw request failures" >&2
    exit 1
  fi
done

# The per-shard serving counters must be live: a surviving replica's Stats
# shows the scatter legs it served, and no cross-shard misroutes.
stats="$("$SERVE" query "${SH_PRX_ADDR[0]}" '{"op":"Stats"}' --timeout-ms 800)"
echo "    shard-0 stats: $(echo "$stats" | grep -o '"scatter_fanout":[0-9]*\|"cross_shard_rejects":[0-9]*' | tr '\n' ' ')"
if echo "$stats" | grep -q '"scatter_fanout":0[,}]'; then
  echo "    FAIL: shard 0 served a scatter burst but counted zero fan-out legs" >&2
  exit 1
fi
if ! echo "$stats" | grep -q '"cross_shard_rejects":0[,}]'; then
  echo "    FAIL: shard-routed client misrouted requests (cross_shard_rejects != 0)" >&2
  exit 1
fi

echo "==> durable ingest smoke (ingest, SIGKILL, replay, compaction, fail-closed corruption)"
# The exactly-once drill from the command line: 12 reviews are acked, the
# server is SIGKILLed with no chance to flush anything beyond the WAL, and
# a restarted server must know every acked seq id. The `ingest` verb
# derives each review deterministically from its seq, so re-running the
# identical command IS the client retry — zero lost records shows up as
# dup=12 (a lost ack would re-ingest fresh), zero duplicates shows up in
# the folded count compaction reports.
"$SERVE" demo "$SMOKE/imodel" >/dev/null 2>&1

"$SERVE" serve "$SMOKE/imodel" --addr 127.0.0.1:0 --ingest \
  </dev/null >"$SMOKE/ingest1.log" 2>&1 &
ING_PID=$!
SRV_PID+=("$ING_PID")
ING_ADDR="$(wait_addr "$SMOKE/ingest1.log")"
"$SERVE" ingest "$ING_ADDR" --count 12 --users 2 --items 2 --timeout-ms 2000 \
  >"$SMOKE/ingest1.out"
if ! grep -q "ingested total=12 new=12 dup=0 failed=0" "$SMOKE/ingest1.out"; then
  echo "    FAIL: first ingest pass did not ack 12 fresh records" >&2
  sed 's/^/    /' "$SMOKE/ingest1.out" >&2
  exit 1
fi
kill -9 "$ING_PID"

"$SERVE" serve "$SMOKE/imodel" --addr 127.0.0.1:0 --ingest \
  </dev/null >"$SMOKE/ingest2.log" 2>&1 &
ING_PID=$!
SRV_PID+=("$ING_PID")
ING_ADDR="$(wait_addr "$SMOKE/ingest2.log")"
"$SERVE" ingest "$ING_ADDR" --count 12 --users 2 --items 2 --timeout-ms 2000 \
  >"$SMOKE/ingest2.out"
if ! grep -q "ingested total=12 new=0 dup=12 failed=0" "$SMOKE/ingest2.out"; then
  echo "    FAIL: post-SIGKILL resend must dedup all 12 acked records (lost or duplicated ingest)" >&2
  sed 's/^/    /' "$SMOKE/ingest2.out" >&2
  exit 1
fi
echo "    SIGKILL + replay: 12/12 acked records deduplicated on resend"

# Compaction folds exactly the 12 WAL records — not 24 — into a new
# artifact generation: the replayed duplicates were never applied twice.
"$SERVE" compact "$ING_ADDR" --timeout-ms 5000 >"$SMOKE/compact.out"
sed 's/^/    /' "$SMOKE/compact.out"
if ! grep -q "compacted folded=12 generation=2" "$SMOKE/compact.out"; then
  echo "    FAIL: compaction must fold exactly the 12 acked records into generation 2" >&2
  exit 1
fi

# WAL-corruption fail-closed check: land 3 more records so a WAL segment
# is live again, SIGKILL, flip one byte inside the first record's payload
# (offset 10 sits mid-JSON, past the length/CRC header), and the restart
# must refuse to serve rather than replay records it cannot trust.
"$SERVE" ingest "$ING_ADDR" --count 3 --seq-start 100 --users 2 --items 2 \
  --timeout-ms 2000 >"$SMOKE/ingest3.out"
if ! grep -q "ingested total=3 new=3 dup=0 failed=0" "$SMOKE/ingest3.out"; then
  echo "    FAIL: post-compaction ingest did not ack 3 fresh records" >&2
  sed 's/^/    /' "$SMOKE/ingest3.out" >&2
  exit 1
fi
kill -9 "$ING_PID"
seg="$(ls "$SMOKE/imodel/wal"/seg-*.log 2>/dev/null | head -n 1)"
if [ -z "$seg" ] || [ ! -s "$seg" ]; then
  echo "    FAIL: expected a non-empty WAL segment under $SMOKE/imodel/wal" >&2
  exit 1
fi
orig="$(dd if="$seg" bs=1 skip=10 count=1 2>/dev/null | od -An -tu1 | tr -d ' ')"
printf "$(printf '\\x%02x' $(( (orig + 1) % 256 )))" \
  | dd of="$seg" bs=1 seek=10 count=1 conv=notrunc 2>/dev/null
set +e
timeout 30 "$SERVE" serve "$SMOKE/imodel" --addr 127.0.0.1:0 --ingest \
  </dev/null >"$SMOKE/ingest-corrupt.log" 2>&1
corrupt_status=$?
set -e
if [ "$corrupt_status" -eq 0 ]; then
  echo "    FAIL: a corrupt mid-WAL record must refuse to serve (fail closed)" >&2
  sed 's/^/    /' "$SMOKE/ingest-corrupt.log" >&2
  exit 1
fi
echo "    corrupt WAL record: startup refused (exit $corrupt_status) — fail closed"

echo "==> kill-the-leader replication smoke (3 replicas, quorum acks, fenced promote)"
# Three replicas of one artifact with intra-shard WAL replication: 12
# reviews are acked at --ack quorum, the leader is SIGKILLed, a caught-up
# follower is promoted to epoch 2, and the identical resend against the
# new leader must come back dup=12 — a lost ack would re-ingest fresh.
# Compacting both survivors must fold exactly those 12 records and leave
# byte-identical artifacts (a duplicate application would change bytes).
"$SERVE" demo "$SMOKE/rmodel0" >/dev/null 2>&1
cp -r "$SMOKE/rmodel0" "$SMOKE/rmodel1"
cp -r "$SMOKE/rmodel0" "$SMOKE/rmodel2"

# Replication config needs every address up front (the leader lists its
# followers; followers name the leader), so the fleet gets fixed ports.
RBASE=$(( (RANDOM % 5000) + 41000 ))
RL="127.0.0.1:$RBASE"
RF1="127.0.0.1:$((RBASE + 1))"
RF2="127.0.0.1:$((RBASE + 2))"

# Followers boot first (the leader's shippers dial them), then the leader.
"$SERVE" serve "$SMOKE/rmodel1" --addr "$RF1" --ingest --replicate-from "$RL" \
  </dev/null >"$SMOKE/repl1.log" 2>&1 &
RPL_PID1=$!
"$SERVE" serve "$SMOKE/rmodel2" --addr "$RF2" --ingest --replicate-from "$RL" \
  </dev/null >"$SMOKE/repl2.log" 2>&1 &
RPL_PID2=$!
SRV_PID+=("$RPL_PID1" "$RPL_PID2")
wait_addr "$SMOKE/repl1.log" >/dev/null
wait_addr "$SMOKE/repl2.log" >/dev/null
"$SERVE" serve "$SMOKE/rmodel0" --addr "$RL" --ingest \
  --followers "$RF1,$RF2" --ack quorum \
  </dev/null >"$SMOKE/repl0.log" 2>&1 &
RPL_PID0=$!
SRV_PID+=("$RPL_PID0")
wait_addr "$SMOKE/repl0.log" >/dev/null

"$SERVE" ingest "$RL" --count 12 --users 2 --items 2 --timeout-ms 5000 \
  >"$SMOKE/repl-ingest1.out"
if ! grep -q "ingested total=12 new=12 dup=0 failed=0" "$SMOKE/repl-ingest1.out"; then
  echo "    FAIL: quorum-ack ingest did not ack 12 fresh records" >&2
  sed 's/^/    /' "$SMOKE/repl-ingest1.out" >&2
  exit 1
fi

# Quorum only guarantees leader + one follower; wait until BOTH followers
# report the full log so whichever one we promote is provably caught up.
for faddr in "$RF1" "$RF2"; do
  converged=0
  for _ in $(seq 1 100); do
    if "$SERVE" query "$faddr" '{"op":"Stats"}' --timeout-ms 2000 2>/dev/null \
        | grep -q '"replicated_seq":12[,}]'; then
      converged=1
      break
    fi
    sleep 0.1
  done
  if [ "$converged" -ne 1 ]; then
    echo "    FAIL: follower $faddr never converged to replicated_seq=12" >&2
    exit 1
  fi
done

kill -9 "$RPL_PID0"
"$SERVE" promote "$RF1" --epoch 2 --peers "$RF2" --timeout-ms 5000 \
  >"$SMOKE/repl-promote.out"
if ! grep -q "promoted epoch=2" "$SMOKE/repl-promote.out"; then
  echo "    FAIL: promote did not install epoch 2 on the survivor" >&2
  sed 's/^/    /' "$SMOKE/repl-promote.out" >&2
  exit 1
fi

# The identical resend IS the client retry after losing the leader: every
# acked seq must dedup against the promoted survivor's log.
"$SERVE" ingest "$RF1" --count 12 --users 2 --items 2 --timeout-ms 5000 \
  >"$SMOKE/repl-ingest2.out"
if ! grep -q "ingested total=12 new=0 dup=12 failed=0" "$SMOKE/repl-ingest2.out"; then
  echo "    FAIL: resend after leader SIGKILL must dedup all 12 acked records" >&2
  sed 's/^/    /' "$SMOKE/repl-ingest2.out" >&2
  exit 1
fi
echo "    SIGKILL leader + promote: 12/12 acked records deduplicated on the new leader"

for raddr in "$RF1" "$RF2"; do
  "$SERVE" compact "$raddr" --timeout-ms 10000 >"$SMOKE/repl-compact-$raddr.out"
  if ! grep -q "compacted folded=12 generation=2" "$SMOKE/repl-compact-$raddr.out"; then
    echo "    FAIL: survivor $raddr must fold exactly the 12 acked records" >&2
    sed 's/^/    /' "$SMOKE/repl-compact-$raddr.out" >&2
    exit 1
  fi
done

# Byte-identical survivors, excluding per-replica operational state (the
# epoch file and the ledger's segment watermark) and the wal/ directory.
compared=0
for f in $(cd "$SMOKE/rmodel1" && find . -maxdepth 1 -type f | sort); do
  case "$f" in
    ./repl_epoch*|./ingest_ledger.json*) continue ;;
  esac
  if ! cmp -s "$SMOKE/rmodel1/$f" "$SMOKE/rmodel2/$f"; then
    echo "    FAIL: post-compaction artifact file $f differs between survivors" >&2
    exit 1
  fi
  compared=$((compared + 1))
done
if [ "$compared" -lt 3 ]; then
  echo "    FAIL: only $compared artifact files compared — the fleet dirs look wrong" >&2
  exit 1
fi
echo "    survivors byte-identical after compaction ($compared files compared)"
kill "$RPL_PID1" "$RPL_PID2" 2>/dev/null || true

echo "==> adversarial robustness grid (regenerate + byte-diff vs committed artifact)"
# The committed Table-IV-style grid must regenerate bit-identically from
# its fixed seeds: any drift means the sweep is no longer a pure function
# of its config (or someone forgot to re-commit the artifact).
"$SERVE" attack-eval --out "$SMOKE/adversarial_grid.csv" \
  >/dev/null 2>"$SMOKE/attack_eval.err"
if ! cmp -s "$SMOKE/adversarial_grid.csv" results/adversarial_grid.csv; then
  echo "    FAIL: regenerated grid differs from committed results/adversarial_grid.csv" >&2
  diff results/adversarial_grid.csv "$SMOKE/adversarial_grid.csv" | head -n 20 >&2
  exit 1
fi
echo "    results/adversarial_grid.csv reproduced byte-for-byte"

# Schema gate over a quick 2-family x 2-strength sweep: the header must
# match the committed artifact's and every cell must emit exactly one
# complete row — column drift or missing cells fail the gate.
"$SERVE" attack-eval --families template,mimicry --strengths 0.1,0.3 \
  --out "$SMOKE/attack_quick.csv" >/dev/null 2>&1
header="$(head -n 1 results/adversarial_grid.csv)"
quick_header="$(head -n 1 "$SMOKE/attack_quick.csv")"
if [ "$quick_header" != "$header" ]; then
  echo "    FAIL: grid schema drift" >&2
  echo "      committed: $header" >&2
  echo "      sweep:     $quick_header" >&2
  exit 1
fi
quick_rows="$(tail -n +2 "$SMOKE/attack_quick.csv" | wc -l)"
if [ "$quick_rows" -ne 4 ]; then
  echo "    FAIL: 2x2 sweep emitted $quick_rows rows, expected 4" >&2
  exit 1
fi
n_cols="$(echo "$header" | tr ',' '\n' | wc -l)"
bad_rows="$(tail -n +2 "$SMOKE/attack_quick.csv" | awk -F',' -v n="$n_cols" 'NF != n' | wc -l)"
if [ "$bad_rows" -ne 0 ]; then
  echo "    FAIL: $bad_rows sweep rows have the wrong column count" >&2
  exit 1
fi
echo "    2x2 quick sweep: header + shape match the committed schema"

echo "==> CI gate passed"
