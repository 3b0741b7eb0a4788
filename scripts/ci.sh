#!/usr/bin/env bash
# Tier-1 gate for the repository (see ROADMAP.md): formatting, vet, build and
# the full test suite under the race detector. Run from anywhere; exits
# non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== sftlint =="
# Repo-specific static analysis (cmd/sftlint, internal/lint): syntactic rules
# for wall-clock and global-RNG bans in deterministic packages,
# map-iteration-order hazards, obs metric naming and circuit-node mutation
# discipline. Three gates: the tree must lint clean (any finding fails), the
# //lint:ordered suppression counts must match the debt pinned in
# lint_baseline.json, and the injected-violation fixtures must still fail —
# a rule that silently stops firing is as bad as a dirty tree.
# Run the built binary, not "go run": go run collapses every non-zero exit
# to 1, and the fixture gate below must distinguish findings (1) from a
# load failure (2).
sftlint="$(mktemp)"
trap 'rm -f "$sftlint"' EXIT
go build -o "$sftlint" ./cmd/sftlint
"$sftlint" ./...
# Suppression-debt gate: growing debt without a reviewed update of the
# pinned counts in the same commit fails here, and so does a stale count.
"$sftlint" -debt lint_baseline.json >/dev/null
set +e
"$sftlint" -det-all internal/lint/testdata/src/... >/dev/null 2>&1
sftlint_status=$?
set -e
if [ "$sftlint_status" -ne 1 ]; then
    echo "sftlint: fixture run exited $sftlint_status, want 1 (findings)" >&2
    exit 1
fi

echo "== go test -race =="
# The race detector carries the fan-out purity contract: every par fan-out
# seam (the faultsim shares and the exper par.MapErr calls) has a test that
# runs it at a fixed worker count above 1 against serial, so a task that
# writes shared state fails here. It needs two or more CPUs: at
# GOMAXPROCS=1 an injected write in a Table 3 task went unseen (README
# "Static analysis").
go test -race ./...

echo "== fuzz smoke =="
# A few seconds of parser fuzzing (FuzzParseBench): replays the committed
# corpus (including past crashers) and hunts briefly for new ones. Accepted
# netlists must pass circuit.Check and round-trip through the writer.
go test ./internal/bench -fuzz FuzzParseBench -fuzztime 5s -run '^$' >/dev/null
# Same budget for the frozen-CSR invariant fuzzer: every accepted netlist is
# run through a mutation script with an incremental Freeze + deep audit
# against a from-scratch rebuild after each step.
go test ./internal/bench -fuzz FuzzCSRFreeze -fuzztime 5s -run '^$' >/dev/null

echo "== bench smoke =="
# One iteration of every benchmark, no measurement: catches benches that no
# longer compile or fail at runtime without paying for a real sweep (full
# sweeps are scripts/bench.sh).
go test -bench . -benchtime 1x -run '^$' ./...

echo "== obsdiff smoke =="
# Regenerate the adder4 run report and diff it against the committed golden
# (internal/obsdiff/testdata). The pipeline is deterministic, so every
# counter, span count and circuit stat must match exactly (tolerance 0);
# wall-clock quantities get a huge tolerance because machines differ. The
# worker count is pinned to the golden's. A drifted counter or a grown
# circuit fails CI here; the injected-regression direction of the gate is
# covered by the internal/obsdiff tests.
fresh="$(mktemp)"
trap 'rm -f "$sftlint" "$fresh"' EXIT
go run ./cmd/sft -in circuits/adder4.bench -report -workers 2 \
    -metrics-out "$fresh" >/dev/null
go run ./cmd/obsdiff -tol 0 -tol-time 100 \
    internal/obsdiff/testdata/golden_report.json "$fresh"
# Parser sanity on the committed bench baselines (self-diff must be clean).
go run ./cmd/obsdiff BENCH_2026-08-06_lean.json BENCH_2026-08-06_lean.json >/dev/null
go run ./cmd/obsdiff BENCH_2026-08-08_csr.json BENCH_2026-08-08_csr.json >/dev/null

echo "== bench gate =="
# Re-measure the resynthesis/identification benchmark set and diff against
# the committed baseline (BENCH_2026-08-06_lean.json, recorded by
# scripts/bench.sh with the same pattern/benchtime). Allocation metrics are
# deterministic — measured run-to-run drift is <1% (sync.Pool refills under
# GC timing) — so allocs/op is gated at 1%: an optimization-killing change
# cannot hide. Wall-clock ns/op on a shared single-CPU container is only
# an order-of-magnitude signal: identical binaries measured 97-235us/op on
# the microsecond-scale identify bench (2.4x spread under CI load), so the
# default ns/op tolerance is 100% — it catches complexity-class blowups,
# which is all this hardware can resolve. Tighten on a quiet dedicated
# machine with e.g. BENCH_TOL_NS=0.10 scripts/ci.sh.
benchgate="$(mktemp)"
trap 'rm -f "$sftlint" "$fresh" "$benchgate"' EXIT
scripts/bench.sh 'Table2Procedure2|Resynth$|AblationIdentify' 1 "$benchgate" 20x >/dev/null
go run ./cmd/obsdiff -tol-bench "${BENCH_TOL_NS:-1.0}" -tol-alloc 0.01 \
    BENCH_2026-08-06_lean.json "$benchgate"

echo "== CSR bench gate =="
# Same contract for the frozen-CSR phase benches (BENCH_2026-08-08_csr.json):
# the csr path count must stay allocation-free (its pre-CSR reference,
# paths.RefCount, lives only in the paths tests), a serial fault-sim
# campaign must stay at 3 allocs/op or fewer however many blocks
# it runs (its per-fault reference lives only in the faultsim tests), and
# the incremental CSRRebuild must stay allocation-free. A change that
# quietly un-ports a phase back to map lookups, allocates per block, or
# makes Freeze allocate per patch, trips the 1% allocs gate here. The ns/op tolerance is wider than the main gate's:
# this set includes microsecond-scale benches (path count ~6us/op) whose
# wall clock swings >2x under CI load, so only allocations are a reliable
# signal at this scale.
csrgate="$(mktemp)"
trap 'rm -f "$sftlint" "$fresh" "$benchgate" "$csrgate"' EXIT
scripts/bench.sh 'CSR(Full)?Rebuild|PathCountProcedure1|FaultSimulation$' 1 "$csrgate" 20x \
    . ./internal/circuit >/dev/null
go run ./cmd/obsdiff -tol-bench "${BENCH_TOL_NS_CSR:-4.0}" -tol-alloc 0.01 \
    BENCH_2026-08-08_csr.json "$csrgate"

echo "== sftverify gate =="
# Provenance round trip, both directions (README "Provenance & verification").
# Forward: a fresh c17 run recorded with -events/-cert must replay cleanly
# through sftverify (chain, Merkle roots, circuit digests, equivalence
# witness, per-replacement evidence, path proof — exit 0). Reverse: the
# committed tampered stream (one flipped digit mid-record) must be rejected
# with exit 1, distinguished from a usage/IO failure (2). Built binaries,
# not "go run", for the same exit-code reason as the sftlint gate.
provdir="$(mktemp -d)"
trap 'rm -f "$sftlint" "$fresh" "$benchgate" "$csrgate"; rm -rf "$provdir"' EXIT
go build -o "$provdir/sft" ./cmd/sft
go build -o "$provdir/sftverify" ./cmd/sftverify
"$provdir/sft" -in circuits/c17.bench -out "$provdir/c17_out.bench" \
    -events "$provdir/c17.ndjson" -cert "$provdir/c17.cert.json" \
    -heartbeat 0 -workers 2 >/dev/null
"$provdir/sftverify" -ledger "$provdir/c17.ndjson" -cert "$provdir/c17.cert.json" \
    -in circuits/c17.bench -out "$provdir/c17_out.bench" >/dev/null
set +e
"$provdir/sftverify" -ledger internal/ledger/testdata/tampered_c17.ndjson >/dev/null
sftverify_status=$?
set -e
if [ "$sftverify_status" -ne 1 ]; then
    echo "sftverify: tampered fixture exited $sftverify_status, want 1 (verification failure)" >&2
    exit 1
fi
# Certificates are a pure function of input + options: two runs with
# different machine knobs (-workers) must produce byte-identical files.
"$provdir/sft" -in circuits/adder4.bench -cert "$provdir/a1.json" \
    -heartbeat 0 -workers 2 >/dev/null
"$provdir/sft" -in circuits/adder4.bench -cert "$provdir/a2.json" \
    -heartbeat 0 -workers 4 >/dev/null
cmp "$provdir/a1.json" "$provdir/a2.json"

echo "== sftexplain gate =="
# The decision trace is part of the determinism contract: records come from
# the serial sweep and carry no scheduling-dependent fields, so two
# -dtrace=full runs differing only in -workers must export byte-identical
# canonical record streams. The query surface (why, reasons,
# funnel, diff) must answer over a real c17 trace without error; 22 is a
# c17 primary-output NAND. See README "Decision trace (-dtrace)".
go build -o "$provdir/sftexplain" ./cmd/sftexplain
"$provdir/sft" -in circuits/c17.bench -events "$provdir/dt2.ndjson" \
    -dtrace=full -heartbeat 0 -workers 2 >/dev/null
"$provdir/sft" -in circuits/c17.bench -events "$provdir/dt4.ndjson" \
    -dtrace=full -heartbeat 0 -workers 4 >/dev/null
"$provdir/sftexplain" export "$provdir/dt2.ndjson" > "$provdir/dt2.records"
"$provdir/sftexplain" export "$provdir/dt4.ndjson" > "$provdir/dt4.records"
test -s "$provdir/dt2.records"
cmp "$provdir/dt2.records" "$provdir/dt4.records"
"$provdir/sftexplain" why 22 "$provdir/dt2.ndjson" >/dev/null
"$provdir/sftexplain" reasons "$provdir/dt2.ndjson" >/dev/null
"$provdir/sftexplain" funnel "$provdir/dt2.ndjson" >/dev/null
"$provdir/sftexplain" reasons -pass 1 "$provdir/dt2.ndjson" >/dev/null
"$provdir/sftexplain" funnel -pass 1 "$provdir/dt2.ndjson" >/dev/null
"$provdir/sftexplain" diff "$provdir/dt2.ndjson" "$provdir/dt4.ndjson" >/dev/null

echo "== serial sweep determinism gate =="
# -workers is a machine knob: resynthesis always runs one serial sweep, and
# the worker count reaches only fault simulation and the redundancy filter.
# The optimized netlist and the run certificate (a pure function of input +
# semantic options; these runs carry no -events) must be byte-identical at
# any count. A scheduling leak into the pipeline's decisions fails one of
# these cmps.
for cir in c17 adder4; do
    "$provdir/sft" -in "circuits/$cir.bench" -out "$provdir/${cir}_w1.bench" \
        -cert "$provdir/${cir}_w1.cert.json" -heartbeat 0 -workers 1 >/dev/null
    for w in 2 4; do
        "$provdir/sft" -in "circuits/$cir.bench" -out "$provdir/${cir}_w$w.bench" \
            -cert "$provdir/${cir}_w$w.cert.json" -heartbeat 0 -workers "$w" >/dev/null
        cmp "$provdir/${cir}_w1.bench" "$provdir/${cir}_w$w.bench"
        cmp "$provdir/${cir}_w1.cert.json" "$provdir/${cir}_w$w.cert.json"
    done
done

echo "== staleness =="
# The committed experiment outputs must match what the tree regenerates.
# figures_output.txt is fully deterministic and fast. tables_output.txt is
# written by go run ./cmd/tables -quick (about 20 s on 2 CPUs); its
# "# suite ready in ..."/"# table N in ..."/"# total ..." timing lines are
# wall-clock and filtered from both sides.
go run ./cmd/figures > "$provdir/figures.txt"
diff figures_output.txt "$provdir/figures.txt"
go run ./cmd/tables -quick > "$provdir/tables.txt"
filter_times() { grep -vE '^# (suite ready in|table [0-9] in|total )' "$1"; }
diff <(filter_times tables_output.txt) <(filter_times "$provdir/tables.txt")

echo "ci: all checks passed"
