#!/usr/bin/env bash
# Tier-1 verification: everything CI runs, runnable locally.
# The workspace has no external dependencies, so all steps work offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> non-test Rust lines per crate"
bash scripts/loc.sh

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> benchmark self-tests (perfbench is its own workspace; --workspace misses it)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> snapshot walks and the incremental cache (oracle, ownership, counters, differential; release)"
cargo test --release -q --test snapshot_oracle --test incremental_props --test incremental_reduction --test equivalence

echo "==> incremental bench smoke (one iteration of each row)"
ALGOPROF_BENCH_QUICK=1 cargo bench -q -p algoprof-bench --bench incremental

echo "==> trace differential corpus (record/replay fidelity, release)"
cargo test --release -q --test trace_roundtrip
cargo test --release -q -p algoprof-trace

echo "==> sweep smoke (parallel batch profiling, determinism across -j)"
sweep_out="$(mktemp -d)"
trap 'rm -rf "$sweep_out"' EXIT
./target/release/algoprof sweep examples/sized_arraylist.jay \
    --sizes 8,16,32,64 -j 1 --quiet --json "$sweep_out/j1.json" > "$sweep_out/j1.txt"
./target/release/algoprof sweep examples/sized_arraylist.jay \
    --sizes 8,16,32,64 -j 2 --quiet --json "$sweep_out/j2.json" > "$sweep_out/j2.txt"
cmp "$sweep_out/j1.json" "$sweep_out/j2.json"
cmp "$sweep_out/j1.txt" "$sweep_out/j2.txt"
# The doubly linked list sort: its structure walks are reused from other members.
./target/release/algoprof sweep examples/sized_insertion_sort.jay \
    --sizes 8,16,32,64 -j 1 --quiet --json "$sweep_out/sort1.json" > "$sweep_out/sort1.txt"
./target/release/algoprof sweep examples/sized_insertion_sort.jay \
    --sizes 8,16,32,64 -j 2 --quiet --json "$sweep_out/sort2.json" > "$sweep_out/sort2.txt"
cmp "$sweep_out/sort1.json" "$sweep_out/sort2.json"
cmp "$sweep_out/sort1.txt" "$sweep_out/sort2.txt"

echo "==> opstats smoke (dynamic opcode statistics, text and JSON)"
./target/release/algoprof opstats examples/sized_arraylist.jay --input 16 \
    | grep -q "top opcodes"
./target/release/algoprof opstats examples/sized_arraylist.jay --input 16 --json \
    | grep -q '"opcodes"'

echo "==> fusion differential (superinstructions must not change profiles)"
ALGOPROF_NO_FUSE=1 ./target/release/algoprof sweep examples/sized_arraylist.jay \
    --sizes 8,16,32,64 -j 1 --quiet --json "$sweep_out/nofuse.json" > "$sweep_out/nofuse.txt"
cmp "$sweep_out/j1.json" "$sweep_out/nofuse.json"
cmp "$sweep_out/j1.txt" "$sweep_out/nofuse.txt"
ALGOPROF_NO_FUSE=1 ./target/release/algoprof sweep examples/sized_insertion_sort.jay \
    --sizes 8,16,32,64 -j 1 --quiet --json "$sweep_out/sortnf.json" > "$sweep_out/sortnf.txt"
cmp "$sweep_out/sort1.json" "$sweep_out/sortnf.json"
cmp "$sweep_out/sort1.txt" "$sweep_out/sortnf.txt"

echo "==> fused vs unfused live reports and fused disassembly, every shipped example"
for prog in examples/*.jay; do
    for criterion in some all array type; do
        ./target/release/algoprof --criterion "$criterion" --input 12 "$prog" \
            > "$sweep_out/fused.txt"
        ALGOPROF_NO_FUSE=1 ./target/release/algoprof --criterion "$criterion" --input 12 \
            "$prog" > "$sweep_out/unfused.txt"
        cmp "$sweep_out/fused.txt" "$sweep_out/unfused.txt"
    done
    ./target/release/algoprof disasm "$prog" --fused > /dev/null
    ./target/release/algoprof disasm "$prog" --fused --cfg > /dev/null
done

echo "==> fused vs unfused failing run (out-of-bounds a[j - 1]): same stderr and exit code"
fault=crates/serve/tests/fixtures/offset_read_fault.jay
fused_code=0
./target/release/algoprof --input 12 "$fault" > /dev/null 2> "$sweep_out/fault-fused.err" \
    || fused_code=$?
unfused_code=0
ALGOPROF_NO_FUSE=1 ./target/release/algoprof --input 12 "$fault" > /dev/null \
    2> "$sweep_out/fault-unfused.err" || unfused_code=$?
test "$fused_code" -ne 0
test "$fused_code" -eq "$unfused_code"
cmp "$sweep_out/fault-fused.err" "$sweep_out/fault-unfused.err"
grep -Fq 'index -1 out of bounds for length 12 at line 14' "$sweep_out/fault-fused.err"

echo "==> multi-criterion sweeps, threaded programs too (determinism across -j and fusion)"
for prog in sized_insertion_sort_array sized_insertion_sort producer_consumer parallel_sum; do
    sweep=(./target/release/algoprof sweep "examples/$prog.jay" --sizes 8,16,32
        --criteria some,all,array,type --quiet)
    base="$sweep_out/crit-$prog"
    "${sweep[@]}" -j 1 --json "$base-j1.json" --html "$base-j1.html" > "$base-j1.txt"
    "${sweep[@]}" -j 2 --json "$base-j2.json" --html "$base-j2.html" > "$base-j2.txt"
    ALGOPROF_NO_FUSE=1 "${sweep[@]}" -j 1 --json "$base-nf.json" --html "$base-nf.html" \
        > "$base-nf.txt"
    for ext in txt json html; do
        cmp "$base-j1.$ext" "$base-j2.$ext"
        cmp "$base-j1.$ext" "$base-nf.$ext"
    done
done

echo "==> events smoke (record -> dump, text and JSON)"
./target/release/algoprof record examples/sized_arraylist.jay \
    --input 16 -o "$sweep_out/run.aptr"
./target/release/algoprof events "$sweep_out/run.aptr" --limit 10 \
    | grep -q "loop_entry"
./target/release/algoprof events "$sweep_out/run.aptr" --json --limit 10 \
    | grep -Eq '^\{"thread": [0-9]+, "event": "'

echo "==> live vs replay (analyze <trace> and analyze - match the live report: text, HTML, --check)"
for spec in sized_insertion_sort:48 producer_consumer:32; do
    prog="${spec%%:*}"
    input="${spec#*:}"
    ./target/release/algoprof record "examples/$prog.jay" \
        --input "$input" -o "$sweep_out/$prog.aptr" > /dev/null
    for criterion in some all array type; do
        for snapshots in firstlast every; do
            opts=(--criterion "$criterion" --snapshots "$snapshots")
            ./target/release/algoprof "${opts[@]}" --input "$input" \
                "examples/$prog.jay" > "$sweep_out/live.txt"
            ./target/release/algoprof analyze "$sweep_out/$prog.aptr" "${opts[@]}" \
                > "$sweep_out/replayed.txt"
            ./target/release/algoprof analyze - "${opts[@]}" \
                < "$sweep_out/$prog.aptr" > "$sweep_out/stdin.txt"
            cmp "$sweep_out/live.txt" "$sweep_out/replayed.txt"
            cmp "$sweep_out/live.txt" "$sweep_out/stdin.txt"
        done
    done
    ./target/release/algoprof --check --input "$input" "examples/$prog.jay" \
        > "$sweep_out/live-check.txt"
    ./target/release/algoprof analyze "$sweep_out/$prog.aptr" --check \
        > "$sweep_out/replayed-check.txt"
    ./target/release/algoprof analyze - --check < "$sweep_out/$prog.aptr" \
        > "$sweep_out/stdin-check.txt"
    cmp "$sweep_out/live-check.txt" "$sweep_out/replayed-check.txt"
    cmp "$sweep_out/live-check.txt" "$sweep_out/stdin-check.txt"
    ./target/release/algoprof --html "$sweep_out/live.html" --input "$input" \
        "examples/$prog.jay" > /dev/null
    ./target/release/algoprof analyze "$sweep_out/$prog.aptr" \
        --html "$sweep_out/replayed.html" > /dev/null
    ./target/release/algoprof analyze - --html "$sweep_out/stdin.html" \
        < "$sweep_out/$prog.aptr" > /dev/null
    cmp "$sweep_out/live.html" "$sweep_out/replayed.html"
    cmp "$sweep_out/live.html" "$sweep_out/stdin.html"
done

echo "==> serve smoke (daemon round-trip, byte parity with one-shot, warm cache hit)"
./target/release/algoprof serve --addr 127.0.0.1:0 --workers 2 \
    --cache-dir "$sweep_out/cache" > "$sweep_out/serve.out" &
serve_pid=$!
for _ in $(seq 1 50); do
    grep -q "listening on" "$sweep_out/serve.out" 2>/dev/null && break
    sleep 0.1
done
serve_addr="$(awk '{print $NF}' "$sweep_out/serve.out")"
./target/release/algoprof submit --addr "$serve_addr" --wait sweep \
    examples/sized_arraylist.jay --sizes 8,16,32,64 \
    --json "$sweep_out/served.json" > "$sweep_out/served.txt"
cmp "$sweep_out/j1.txt" "$sweep_out/served.txt"
cmp "$sweep_out/j1.json" "$sweep_out/served.json"
./target/release/algoprof --input 32 examples/producer_consumer.jay > "$sweep_out/oneshot.txt"
./target/release/algoprof submit --addr "$serve_addr" --wait profile \
    --input 32 examples/producer_consumer.jay > "$sweep_out/served-profile.txt"
cmp "$sweep_out/oneshot.txt" "$sweep_out/served-profile.txt"
./target/release/algoprof analyze "$sweep_out/sized_insertion_sort.aptr" \
    > "$sweep_out/oneshot-analyze.txt"
./target/release/algoprof submit --addr "$serve_addr" --wait analyze \
    "$sweep_out/sized_insertion_sort.aptr" > "$sweep_out/served-analyze.txt"
cmp "$sweep_out/oneshot-analyze.txt" "$sweep_out/served-analyze.txt"
# A 2.5 MB trace (5 MB of hex in the submit body): parsing the body is
# linear in its length, so the round trip takes well under a second.
./target/release/algoprof record examples/sized_insertion_sort.jay \
    --input 400 -o "$sweep_out/sort400.aptr" > /dev/null
./target/release/algoprof analyze "$sweep_out/sort400.aptr" > "$sweep_out/oneshot-400.txt"
timeout 60 ./target/release/algoprof submit --addr "$serve_addr" --wait analyze \
    "$sweep_out/sort400.aptr" > "$sweep_out/served-400.txt"
cmp "$sweep_out/oneshot-400.txt" "$sweep_out/served-400.txt"
# One source at two sizes and as a streamed trace: the daemon compiles
# it once per fusion setting and answers byte-identically.
for n in 24 32; do
    ./target/release/algoprof --input "$n" examples/sized_insertion_sort.jay \
        > "$sweep_out/oneshot-sort$n.txt"
    ./target/release/algoprof submit --addr "$serve_addr" --wait profile \
        --input "$n" examples/sized_insertion_sort.jay > "$sweep_out/served-sort$n.txt"
    cmp "$sweep_out/oneshot-sort$n.txt" "$sweep_out/served-sort$n.txt"
done
./target/release/algoprof record examples/sized_insertion_sort.jay \
    --input 24 -o "$sweep_out/sort24.aptr" > /dev/null
./target/release/algoprof analyze "$sweep_out/sort24.aptr" > "$sweep_out/oneshot-sort24.aptr.txt"
curl -sS --fail --data-binary @"$sweep_out/sort24.aptr" "http://$serve_addr/api/v1/stream" \
    | jq -j .text > "$sweep_out/streamed-sort24.txt"
cmp "$sweep_out/oneshot-sort24.aptr.txt" "$sweep_out/streamed-sort24.txt"
./target/release/algoprof submit --addr "$serve_addr" sweep \
    examples/sized_arraylist.jay --sizes 8,16,32,64 | grep -q "cache hit"
./target/release/algoprof submit --addr "$serve_addr" cache-stats > "$sweep_out/cache-stats.txt"
grep -Eq "^cache entries [0-9]+ hits [1-9]" "$sweep_out/cache-stats.txt"
grep -Eq "^program cache entries [0-9]+ hits [1-9]" "$sweep_out/cache-stats.txt"
./target/release/algoprof submit --addr "$serve_addr" shutdown
wait "$serve_pid"

echo "==> threaded smoke (per-thread trees, determinism across -j and fusion)"
./target/release/algoprof sweep examples/parallel_sum.jay \
    --sizes 8,16,32 -j 1 --quiet --json "$sweep_out/thr1.json" > "$sweep_out/thr1.txt"
./target/release/algoprof sweep examples/parallel_sum.jay \
    --sizes 8,16,32 -j 2 --quiet --json "$sweep_out/thr2.json" > "$sweep_out/thr2.txt"
ALGOPROF_NO_FUSE=1 ./target/release/algoprof sweep examples/parallel_sum.jay \
    --sizes 8,16,32 -j 1 --quiet --json "$sweep_out/thrnf.json" > "$sweep_out/thrnf.txt"
cmp "$sweep_out/thr1.json" "$sweep_out/thr2.json"
cmp "$sweep_out/thr1.txt" "$sweep_out/thr2.txt"
cmp "$sweep_out/thr1.json" "$sweep_out/thrnf.json"
grep -Fq '[t1]' "$sweep_out/thr1.txt"
grep -Fq '[t2]' "$sweep_out/thr1.txt"
./target/release/algoprof examples/producer_consumer.jay --input 32 > "$sweep_out/pc.txt"
grep -Fq '=== t1 ===' "$sweep_out/pc.txt"
grep -Fq '=== merged (all threads) ===' "$sweep_out/pc.txt"
./target/release/algoprof costfn examples/parallel_sum.jay \
    | grep -Fq 'Main.sum:loop0@L31  O(n)  cost n'
./target/release/algoprof record examples/locked_counter.jay \
    --input 16 -o "$sweep_out/thr.aptr"
./target/release/algoprof events "$sweep_out/thr.aptr" | grep -q "thread_spawn"
if ./target/release/algoprof events "$sweep_out/thr.aptr" --thread 1 \
    | grep -q "^t2 "; then
    echo "events --thread 1 leaked t2 lines" >&2
    exit 1
fi

echo "==> static analysis (lint) over shipped examples, one invocation"
./target/release/algoprof lint examples/*.jay > /dev/null

echo "==> cost-function smoke (symbolic coefficients + feature attribution)"
./target/release/algoprof costfn examples/sized_insertion_sort_array.jay \
    | grep -Fq '0.5*n^2 + 0.5*n - 1'
./target/release/algoprof costfn examples/sized_insertion_sort_array.jay \
    | grep -Fq 'array-access: 1.5*n^2 + 0.5*n - 2'
./target/release/algoprof costfn examples/sized_insertion_sort_array.jay --json \
    | grep -Fq '"coeff": 0.5'

echo "==> coefficient-verdict determinism (sweep columns identical across -j)"
./target/release/algoprof sweep examples/sized_insertion_sort_array.jay \
    --sizes 8,16,32,64 -j 1 --quiet --json "$sweep_out/coeff1.json" > "$sweep_out/coeff1.txt"
./target/release/algoprof sweep examples/sized_insertion_sort_array.jay \
    --sizes 8,16,32,64 -j 2 --quiet --json "$sweep_out/coeff2.json" > "$sweep_out/coeff2.txt"
cmp "$sweep_out/coeff1.json" "$sweep_out/coeff2.json"
cmp "$sweep_out/coeff1.txt" "$sweep_out/coeff2.txt"
grep -Fq '[agrees]' "$sweep_out/coeff1.txt"
grep -Fq '"verdict": "agrees"' "$sweep_out/coeff1.json"

echo "verify: OK"
