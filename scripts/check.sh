#!/bin/sh
# Repo health check: full build, test suite, and a tracing round-trip smoke
# test (trace a run + a tiny GA tune into one JSONL file, then aggregate it
# with trace-summary and verify the expected sections appear).
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build @all

echo "== tests =="
dune runtest

echo "== trace smoke =="
trace=$(mktemp -t inltune_trace.XXXXXX.jsonl)
trap 'rm -f "$trace"' EXIT
rm -f "$trace"

dune exec --no-build bin/main.exe -- run raytrace -s adapt --trace "$trace" > /dev/null
dune exec --no-build bin/main.exe -- tune -s adapt --pop 6 -g 2 --trace "$trace" > /dev/null 2>&1

for ev in inline.decision vm.compile vm.measure ga.generation; do
  grep -q "\"ev\":\"$ev\"" "$trace" || { echo "missing $ev events in trace"; exit 1; }
done

summary=$(dune exec --no-build bin/main.exe -- trace-summary "$trace")
for section in "inlining decisions" "compile-time breakdown" "GA fitness"; do
  echo "$summary" | grep -q "$section" || { echo "missing '$section' in trace-summary"; exit 1; }
done

echo "== fault-injection smoke =="
# Two injected faults hit the same genome, so its retry fails too: the run
# must quarantine it and still finish, with the failure visible in the trace.
faults=$(mktemp -t inltune_faults.XXXXXX.jsonl)
trap 'rm -f "$trace" "$faults"' EXIT
rm -f "$faults"
# --domains 1 keeps evaluation strictly sequential so the occurrence-indexed
# faults land deterministically.
INLTUNE_FAULTS="eval:raise@3,eval:raise@4" \
  dune exec --no-build bin/main.exe -- tune -s adapt --pop 6 -g 2 --domains 1 \
  --trace "$faults" > /dev/null 2>&1
grep -q '"ev":"eval.quarantine"' "$faults" || { echo "missing eval.quarantine event"; exit 1; }
dune exec --no-build bin/main.exe -- trace-summary "$faults" | grep -q "eval.failures" \
  || { echo "missing eval.failures counter in trace-summary"; exit 1; }

echo "== checkpoint/resume smoke =="
# A run interrupted after 1 generation and resumed must print exactly what an
# uninterrupted run prints, and the resumed run, appending to the interrupted
# run's checkpoint, must leave the very file the uninterrupted run wrote.
ckpt=$(mktemp -t inltune_ckpt.XXXXXX.jsonl)
fullck=$(mktemp -t inltune_fullck.XXXXXX.jsonl)
trap 'rm -f "$trace" "$faults" "$ckpt" "$fullck"' EXIT
rm -f "$ckpt" "$fullck"
full=$(dune exec --no-build bin/main.exe -- tune -s adapt --pop 6 -g 2 --checkpoint "$fullck" \
  2> /dev/null)
dune exec --no-build bin/main.exe -- tune -s adapt --pop 6 -g 1 --checkpoint "$ckpt" \
  > /dev/null 2>&1
resumed=$(dune exec --no-build bin/main.exe -- tune -s adapt --pop 6 -g 2 --resume "$ckpt" \
  --checkpoint "$ckpt" 2> /dev/null)
[ "$full" = "$resumed" ] || {
  echo "resumed run differs from uninterrupted run:"
  echo "--- full ---"; echo "$full"
  echo "--- resumed ---"; echo "$resumed"
  exit 1
}
cmp "$fullck" "$ckpt" || { echo "resumed checkpoint differs from uninterrupted one"; exit 1; }

echo "== fitness-cache golden smoke =="
# A fixed-seed, one-domain plan-genome Adapt tune must write exactly the
# committed fitness-cache file (same keys, same measurements, same order).
# Rerun against that file, it must print the same stdout and add no line:
# every simulation is served from the file.
fcache=$(mktemp -t inltune_fcache.XXXXXX.jsonl)
trap 'rm -f "$trace" "$faults" "$ckpt" "$fullck" "$fcache"' EXIT
rm -f "$fcache"
fc_tune="tune -s adapt --tune-passes --pop 4 -g 2 --domains 1"
# $fc_tune is split on purpose: it is a list of flags.
fc_first=$(./_build/default/bin/main.exe $fc_tune --fitness-cache "$fcache" 2> /dev/null)
cmp "$fcache" scripts/golden/fitness_cache_adapt_tune_passes.jsonl \
  || { echo "fitness-cache file differs from scripts/golden"; exit 1; }
fc_again=$(./_build/default/bin/main.exe $fc_tune --fitness-cache "$fcache" 2> /dev/null)
[ "$fc_first" = "$fc_again" ] || { echo "tune over a warm fitness-cache file printed otherwise"; exit 1; }
cmp "$fcache" scripts/golden/fitness_cache_adapt_tune_passes.jsonl \
  || { echo "tune over a warm fitness-cache file appended lines"; exit 1; }

echo "== policy smoke =="
# Tiny dataset -> train -> eval round-trip: label a handful of compress call
# sites with the flip oracle, induce a tree, run it end-to-end on one unseen
# DaCapo benchmark, and verify the policy file reserializes canonically.
ds=$(mktemp -t inltune_ds.XXXXXX.jsonl)
pol=$(mktemp -t inltune_pol.XXXXXX.txt)
pol2=$(mktemp -t inltune_pol2.XXXXXX.txt)
trap 'rm -f "$trace" "$faults" "$ckpt" "$fullck" "$fcache" "$ds" "$pol" "$pol2"' EXIT
rm -f "$ds"
dune exec --no-build bin/main.exe -- dataset "$ds" --bench compress --max-sites 6 \
  > /dev/null 2>&1
[ -s "$ds" ] || { echo "dataset produced no examples"; exit 1; }
dune exec --no-build bin/main.exe -- train-policy "$ds" -o "$pol" > /dev/null
dune exec --no-build bin/main.exe -- eval-policy "$pol" --no-tuned --bench antlr \
  | grep -q "policy comparison" || { echo "missing eval-policy comparison table"; exit 1; }
# Serialize/deserialize equality: reprinting a reprinted policy is a fixpoint.
dune exec --no-build bin/main.exe -- eval-policy "$pol" --print > "$pol2"
dune exec --no-build bin/main.exe -- eval-policy "$pol2" --print | cmp -s - "$pol2" \
  || { echo "policy canonical form is not a serialization fixpoint"; exit 1; }
# A corrupt policy file must die with a one-line error and exit code 2.
printf 'inltune-policy v1 tree\nsplit 99 1.0\nleaf inline\nleaf no-inline\n' > "$pol"
rc=0
dune exec --no-build bin/main.exe -- eval-policy "$pol" --print > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "corrupt policy exited $rc, want 2"; exit 1; }

echo "== gp smoke =="
# GP policy evolution: a fixed-seed run interrupted after 1 generation and
# resumed must print exactly what an uninterrupted run prints (checkpoint /
# resume bit-identity); gp print is a serialization fixpoint; a corrupt tree
# file dies with a one-line error and exit code 2.
gpck=$(mktemp -t inltune_gpck.XXXXXX.jsonl)
gpfullck=$(mktemp -t inltune_gpfullck.XXXXXX.jsonl)
gptree=$(mktemp -t inltune_gptree.XXXXXX.txt)
trap 'rm -f "$trace" "$faults" "$ckpt" "$fullck" "$fcache" "$ds" "$pol" "$pol2" "$gpck" "$gpfullck" \
      "$gptree"' EXIT
rm -f "$gpck" "$gpfullck"
gp_full=$(dune exec --no-build bin/main.exe -- tune --evolve-policy -s opt:tot --pop 6 -g 2 \
  --seed 7 --gp-out "$gptree" --checkpoint "$gpfullck" 2> /dev/null)
dune exec --no-build bin/main.exe -- tune --evolve-policy -s opt:tot --pop 6 -g 1 --seed 7 \
  --checkpoint "$gpck" > /dev/null 2>&1
gp_resumed=$(dune exec --no-build bin/main.exe -- tune --evolve-policy -s opt:tot --pop 6 -g 2 \
  --seed 7 --gp-out "$gptree" --resume "$gpck" --checkpoint "$gpck" 2> /dev/null)
[ "$gp_full" = "$gp_resumed" ] || {
  echo "resumed GP run differs from uninterrupted run:"
  echo "--- full ---"; echo "$gp_full"
  echo "--- resumed ---"; echo "$gp_resumed"
  exit 1
}
cmp "$gpfullck" "$gpck" || { echo "resumed GP checkpoint differs from uninterrupted one"; exit 1; }
dune exec --no-build bin/main.exe -- gp print "$gptree" | cmp -s - "$gptree" \
  || { echo "gp tree canonical form is not a serialization fixpoint"; exit 1; }
printf 'inltune-gp v1\n(and true)\n' > "$gptree"
rc=0
dune exec --no-build bin/main.exe -- gp print "$gptree" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "corrupt gp tree exited $rc, want 2"; exit 1; }

echo "== gp-bench smoke =="
# The GP comparison bench must leave a parseable BENCH_gp.json carrying the
# 4-column protocol geomeans and the pre-filter avoidance counters.
INLTUNE_POP=6 INLTUNE_GENS=2 dune exec --no-build bench/main.exe gp > /dev/null
for field in '"best_tree"' '"prefilter"' '"avoidance"' '"gp"' '"cart"' '"ga"'; do
  grep -q "$field" BENCH_gp.json || { echo "BENCH_gp.json: missing $field"; exit 1; }
done

echo "== tuner-bench smoke =="
# The decision-signature cache must avoid simulations, and the compile cache
# must reuse optimizing compiles, without changing the search: bench tuner
# runs the same fixed-seed GA cache-off then cache-on and itself exits
# nonzero if the two searches differ.  Double-check the JSON.
INLTUNE_POP=6 INLTUNE_GENS=3 dune exec --no-build bench/main.exe tuner > /dev/null
grep -q '"identical_best":true' BENCH_tuner.json \
  || { echo "cache changed the best genome"; exit 1; }
grep -q '"identical_history":true' BENCH_tuner.json \
  || { echo "cache changed the per-generation history"; exit 1; }
sig_hits=$(sed -n 's/.*"sig_hits":\([0-9]*\).*/\1/p' BENCH_tuner.json)
[ "${sig_hits:-0}" -gt 0 ] || { echo "expected sig_hits > 0, got ${sig_hits:-none}"; exit 1; }
code_hits=$(sed -n 's/.*"code_cache_hits":\([0-9]*\).*/\1/p' BENCH_tuner.json)
[ "${code_hits:-0}" -gt 0 ] \
  || { echo "expected code_cache_hits > 0, got ${code_hits:-none}"; exit 1; }
# Opt measurements execute one iteration and derive the rest.
derived=$(sed -n 's/.*"iterations_derived":\([0-9]*\).*/\1/p' BENCH_tuner.json)
[ "${derived:-0}" -gt 0 ] \
  || { echo "expected iterations_derived > 0, got ${derived:-none}"; exit 1; }

echo "== perfbench smoke =="
# One short run of each of the repo benchmark's workloads.  Their checks
# include the cache-free verification: the search's best fitness recomputed
# bit for bit from fresh compiles, every simulation checked against the
# tree-walking reference interpreter.  The Adapt workload covers what the
# Opt one does not: baseline compiles, strategy inliners and guarded
# devirtualization feeding the dataflow passes.
for workload in tune-opt-spec tune-adapt-corpus; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 \
    | tail -n 1 | grep -q '"correct":true' || { echo "perfbench $workload not correct"; exit 1; }
done

echo "== plan smoke =="
# The pass-manager layer: the canonical plan text is a serialization
# fixpoint, running under the explicit default plan prints exactly what the
# implicit default prints, invalid plans die with a one-line error and exit
# code 2, and the GA can evolve the plan itself.
plan=$(mktemp -t inltune_plan.XXXXXX.txt)
plan2=$(mktemp -t inltune_plan2.XXXXXX.txt)
trap 'rm -f "$trace" "$faults" "$ckpt" "$fullck" "$fcache" "$ds" "$pol" "$pol2" "$gpck" "$gpfullck" "$gptree" \
      "$plan" "$plan2"' EXIT
dune exec --no-build bin/main.exe -- plan > "$plan"
dune exec --no-build bin/main.exe -- plan "$plan" > "$plan2"
cmp -s "$plan" "$plan2" || { echo "plan canonical form is not a serialization fixpoint"; exit 1; }
implicit=$(dune exec --no-build bin/main.exe -- run compress -s opt)
planned=$(dune exec --no-build bin/main.exe -- run compress -s opt --plan "$plan")
[ "$implicit" = "$planned" ] || {
  echo "run under the explicit default plan differs from the implicit default:"
  echo "--- implicit ---"; echo "$implicit"
  echo "--- planned ---"; echo "$planned"
  exit 1
}
printf 'inltune-plan v1\npass warp_speed on\n' > "$plan"
rc=0
dune exec --no-build bin/main.exe -- run compress --plan "$plan" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "unknown-pass plan exited $rc, want 2"; exit 1; }
printf 'inltune-plan v1\npass constprop on iters=99\n' > "$plan"
rc=0
dune exec --no-build bin/main.exe -- run compress --plan "$plan" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "out-of-range knob plan exited $rc, want 2"; exit 1; }
dune exec --no-build bin/main.exe -- tune --tune-passes -s opt:tot --pop 4 -g 2 2> /dev/null \
  | grep -q "best plan:" || { echo "tune --tune-passes printed no plan"; exit 1; }

echo "== passes-bench smoke =="
# bench passes asserts the default plan changes nothing (measurements and a
# fixed-seed GA search are bit-identical) and runs a plan-genome GA; it exits
# nonzero itself if any identity check fails.  Double-check the JSON.
INLTUNE_POP=6 INLTUNE_GENS=2 dune exec --no-build bench/main.exe passes > /dev/null
for flag in identical_measurements identical_best identical_history; do
  grep -q "\"$flag\":true" BENCH_passes.json \
    || { echo "BENCH_passes.json: $flag is not true"; exit 1; }
done

echo "== inliners smoke =="
# The pluggable inlining strategies: a plan with every strategy enabled at
# non-default knobs is a serialization fixpoint through the plan subcommand,
# a duplicated inliner-kind pass dies one-line + exit 2, corpus benchmark
# names resolve in run (and unknown ones die with the corpus families named),
# and the strategy bench writes BENCH_inliners.json with the default-plan
# identity intact.
cat > "$plan" <<'PLAN'
inltune-plan v1
pass constprop on iters=1
pass inline_leaves on leaf_size=30 rounds=3
pass inline_hot on hot_permille=200 budget=100
pass inline on
pass inline_region on budget=64 depth=2
pass cleanup on
PLAN
dune exec --no-build bin/main.exe -- plan "$plan" > "$plan2"
dune exec --no-build bin/main.exe -- plan "$plan2" | cmp -s "$plan2" - \
  || { echo "strategy plan is not a serialization fixpoint"; exit 1; }
printf 'inltune-plan v1\npass inline on\npass inline on\n' > "$plan"
rc=0
dune exec --no-build bin/main.exe -- run compress --plan "$plan" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "duplicate-inliner plan exited $rc, want 2"; exit 1; }
dune exec --no-build bin/main.exe -- run corpus_sweep00 > /dev/null \
  || { echo "corpus benchmark failed to run"; exit 1; }
rc=0
corpus_err=$(dune exec --no-build bin/main.exe -- run corpus_chain99 2>&1 > /dev/null) || rc=$?
[ "$rc" -eq 2 ] || { echo "unknown corpus benchmark exited $rc, want 2"; exit 1; }
echo "$corpus_err" | grep -q "corpus_chain00" \
  || { echo "unknown-benchmark error does not name the corpus families"; exit 1; }

echo "== inliners-bench smoke =="
# bench inliners asserts the strategies-disabled default plan changes no
# corpus measurement (exits nonzero itself otherwise) and compares default
# vs each strategy vs a tuned composite on an unseen suite.
INLTUNE_POP=4 INLTUNE_GENS=2 dune exec --no-build bench/main.exe inliners > /dev/null
grep -q '"identical_default":true' BENCH_inliners.json \
  || { echo "BENCH_inliners.json: identical_default is not true"; exit 1; }
grep -q '"geomean_vs_default"' BENCH_inliners.json \
  || { echo "BENCH_inliners.json: missing geomean_vs_default"; exit 1; }

echo "== observability smoke =="
# A profiled, progress-reported tune: per-generation progress lines land on
# stderr, the exit profile table names the span hierarchy, and the same
# trace aggregates into profile/histogram tables and flamegraph-ready
# folded stacks via trace-summary.
obs=$(mktemp -t inltune_obs.XXXXXX.jsonl)
trap 'rm -f "$trace" "$faults" "$ckpt" "$fullck" "$fcache" "$ds" "$pol" "$pol2" "$gpck" "$gpfullck" "$gptree" \
      "$plan" "$plan2" "$obs"' EXIT
rm -f "$obs"
obs_err=$(dune exec --no-build bin/main.exe -- tune -s adapt --pop 6 -g 2 --domains 1 \
  --profile --progress --trace "$obs" 2>&1 > /dev/null)
echo "$obs_err" | grep -q '^\[inltune\] gen ' || { echo "missing --progress lines"; exit 1; }
echo "$obs_err" | grep -q 'eta' || { echo "missing ETA in --progress lines"; exit 1; }
echo "$obs_err" | grep -q 'fitness.eval' || { echo "missing fitness.eval in exit profile"; exit 1; }
obs_summary=$(dune exec --no-build bin/main.exe -- trace-summary "$obs")
echo "$obs_summary" | grep -q "profile (wall time" \
  || { echo "missing profile table in trace-summary"; exit 1; }
echo "$obs_summary" | grep -q "histograms" \
  || { echo "missing histogram table in trace-summary"; exit 1; }
dune exec --no-build bin/main.exe -- trace-summary --folded "$obs" \
  | grep -q '^fitness\.eval.* [0-9][0-9]*$' \
  || { echo "missing folded stacks in trace-summary --folded"; exit 1; }

echo "== flat-interpreter identity smoke =="
# The flat threaded-dispatch interpreter and the tree-walking reference
# (INLTUNE_VM_REFERENCE=1) must be bit-identical on every observable the
# CLI prints: cycles, steps, output hash, compile counts, per-iteration
# breakdowns.  Under Opt the flat side executes one iteration and derives
# the rest, while the reference executes every one, so the 5-iteration
# Opt runs diff four derived iterations against executed ones.  The built
# binary is invoked directly — dune's build lock writes to stderr under
# concurrent process substitution and would show up as spurious diffs.
BIN=./_build/default/bin/main.exe
# The flat side instantiates baseline code from per-program templates; the
# reference compiles every baseline fresh.  corpus_sweep10 has the corpus's
# most baseline-compiled methods (118).
for case in "jess opt" "jess adapt" "jess ladder" "jess opt --iterations 5" \
    "compress opt" "compress adapt" "compress ladder" "compress opt --iterations 5" \
    "db opt" "db adapt" "db ladder" "db opt --iterations 5" \
    "corpus_sweep10 adapt" "corpus_sweep10 ladder"; do
  # $case is split on purpose: program, scenario, then any extra flags.
  set -- $case
  prog=$1; shift
  flat=$("$BIN" run "$prog" -s "$@")
  tree=$(INLTUNE_VM_REFERENCE=1 "$BIN" run "$prog" -s "$@")
  [ "$flat" = "$tree" ] || {
    echo "flat vs reference interpreter differ on $case:"
    echo "--- flat ---"; echo "$flat"
    echo "--- reference ---"; echo "$tree"
    exit 1
  }
done
# A fixed-seed GA search must also be interpreter-independent end to end:
# same best genome, same per-generation history, same printed fitness.
# The Opt tune exercises the compile cache, the plan-genome Adapt tune the
# baseline templates and the strategy inliners.
for tune in "-s opt:tot --pop 4 -g 2" "-s adapt --tune-passes --pop 4 -g 2"; do
  # $tune is split on purpose: it is a list of flags.
  tune_flat=$("$BIN" tune $tune 2> /dev/null)
  tune_tree=$(INLTUNE_VM_REFERENCE=1 "$BIN" tune $tune 2> /dev/null)
  [ "$tune_flat" = "$tune_tree" ] || {
    echo "fixed-seed tune $tune differs between interpreters:"
    echo "--- flat ---"; echo "$tune_flat"
    echo "--- reference ---"; echo "$tune_tree"
    exit 1
  }
done
# And the tuner bench's own cache-transparency contract must hold on the
# reference interpreter too.  It runs in a scratch directory so its
# BENCH_tuner.json does not replace the flat-interpreter one above.
root=$(pwd)
reftuner=$(mktemp -d -t inltune_reftuner.XXXXXX)
trap 'rm -f "$trace" "$faults" "$ckpt" "$fullck" "$fcache" "$ds" "$pol" "$pol2" "$gpck" "$gpfullck" "$gptree" \
      "$plan" "$plan2" "$obs";
      rm -rf "$reftuner"' EXIT
(cd "$reftuner" && INLTUNE_VM_REFERENCE=1 INLTUNE_POP=6 INLTUNE_GENS=2 \
  "$root/_build/default/bench/main.exe" tuner > /dev/null)
for flag in identical_best identical_history; do
  grep -q "\"$flag\":true" "$reftuner/BENCH_tuner.json" \
    || { echo "reference-mode tuner bench: $flag is not true"; exit 1; }
done

echo "== serve smoke =="
# The tuning daemon end to end: an injected fault fails one request and
# quarantines its genome (the server stays up), the failure trips degraded
# cache-only mode (--degrade-after 1), duplicate ids replay the original
# reply, and SIGTERM drains to a clean exit with the socket removed.
sock=$(mktemp -t inltune_serve.XXXXXX.sock)
rm -f "$sock"
trap 'rm -f "$trace" "$faults" "$ckpt" "$fullck" "$fcache" "$ds" "$pol" "$pol2" "$gpck" "$gpfullck" "$gptree" \
      "$plan" "$plan2" "$obs" "$sock";
      rm -rf "$reftuner";
      [ -n "${serve_pid:-}" ] && kill -9 "$serve_pid" 2> /dev/null || true' EXIT
INLTUNE_FAULTS="serve:raise@1,serve:raise@2" \
  ./_build/default/bin/main.exe serve --socket "$sock" --permits 2 \
  --max-retries 1 --degrade-after 1 --cooldown 60 --quiet &
serve_pid=$!

client() { ./_build/default/bin/main.exe client "$@" --socket "$sock"; }

i=0
until client ping 2> /dev/null | grep -q '"status":"ok"'; do
  i=$((i + 1))
  [ "$i" -lt 100 ] || { echo "daemon never came up"; exit 1; }
  sleep 0.1
done

# Both armed faults land on the first simulation request: one retry, then an
# explicit failed reply that quarantines the genome -- never the server.
out=$(client measure compress --tenant alice --id f1)
echo "$out" | grep -q '"status":"failed"' || { echo "faulted request not failed: $out"; exit 1; }
echo "$out" | grep -q '"quarantined":true' || { echo "failure did not quarantine: $out"; exit 1; }

# Replaying the same id returns the original reply, not a second execution.
out=$(client measure compress --tenant alice --id f1)
echo "$out" | grep -q '"duplicate":true' || { echo "id replay missing duplicate flag: $out"; exit 1; }
echo "$out" | grep -q '"status":"failed"' || { echo "id replay changed the reply: $out"; exit 1; }

# The same genome under a fresh id is refused outright as quarantined.
out=$(client measure compress --tenant alice)
echo "$out" | grep -q '"status":"quarantined"' || { echo "quarantined genome re-ran: $out"; exit 1; }

# The failure was a pressure event and --degrade-after 1: the daemon now
# answers from caches and the stock Jikes defaults instead of simulating.
out=$(client measure db --tenant bob)
echo "$out" | grep -q '"status":"degraded"' || { echo "expected degraded measure: $out"; exit 1; }
echo "$out" | grep -q '"mode":"degraded"' || { echo "missing degraded mode flag: $out"; exit 1; }
out=$(client tune -s opt:tot --pop 4 -g 1 --tenant bob)
echo "$out" | grep -q '"status":"degraded"' || { echo "expected degraded tune: $out"; exit 1; }
echo "$out" | grep -q '"fallback":"default-heuristic"' \
  || { echo "degraded tune did not fall back to the default heuristic: $out"; exit 1; }

# The daemon is still healthy throughout.
client ping | grep -q '"status":"ok"' || { echo "daemon unhealthy after faults"; exit 1; }

# SIGTERM: drain and exit 0, removing the socket.
kill -TERM "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "daemon exited $rc on SIGTERM, want 0"; exit 1; }
[ ! -e "$sock" ] || { echo "daemon left its socket behind"; exit 1; }
serve_pid=""

echo "== serve-bench smoke =="
# bench serve floods an in-process daemon with concurrent tenants under
# fault injection and itself exits nonzero unless every client got an
# explicit reply, backpressure was exercised, tenants shared cache entries,
# and a fixed-seed tune through the daemon matched the offline tuner.
dune exec --no-build bench/main.exe serve > /dev/null
for field in '"server_crashes":0' '"identical_tune":true' '"healed":true'; do
  grep -q "$field" BENCH_serve.json || { echo "BENCH_serve.json: missing $field"; exit 1; }
done
cross=$(sed -n 's/.*"cross_tenant_hits":\([0-9]*\).*/\1/p' BENCH_serve.json)
[ "${cross:-0}" -gt 0 ] || { echo "expected cross_tenant_hits > 0, got ${cross:-none}"; exit 1; }

echo "== CLI error smoke =="
# Bad flag values must die with a one-line error and exit code 2.
rc=0
dune exec --no-build bin/main.exe -- tune -s nonsense > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "bad --scenario exited $rc, want 2"; exit 1; }
rc=0
dune exec --no-build bin/main.exe -- tune --domains 0 > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "bad --domains exited $rc, want 2"; exit 1; }
rc=0
INLTUNE_FAULTS="garbage" dune exec --no-build bin/main.exe -- list > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "bad INLTUNE_FAULTS exited $rc, want 2"; exit 1; }
rc=0
dune exec --no-build bin/main.exe -- trace-summary /no/such/trace.jsonl > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "missing trace file exited $rc, want 2"; exit 1; }
rc=0
bench_err=$(./_build/default/bench/main.exe nosuchprotocol 2>&1 > /dev/null) || rc=$?
[ "$rc" -eq 2 ] || { echo "unknown bench protocol exited $rc, want 2"; exit 1; }
[ "$(echo "$bench_err" | wc -l)" -eq 1 ] \
  || { echo "unknown bench protocol printed more than one line: $bench_err"; exit 1; }
echo "$bench_err" | grep -q "^bench: unknown protocol nosuchprotocol (one of " \
  || { echo "unknown bench protocol error is not a usage line: $bench_err"; exit 1; }
# Resume failures are one-line errors too: a missing checkpoint, one written
# with another --seed, and one written by another search (scenario).
rc=0
dune exec --no-build bin/main.exe -- tune --resume /no/such/file > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "missing --resume file exited $rc, want 2"; exit 1; }
rc=0
dune exec --no-build bin/main.exe -- tune -s adapt --pop 6 -g 2 --seed 43 --resume "$ckpt" \
  > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "resume with another --seed exited $rc, want 2"; exit 1; }
rc=0
dune exec --no-build bin/main.exe -- tune -s opt:tot --pop 6 -g 2 --resume "$ckpt" \
  > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "resume under another -s exited $rc, want 2"; exit 1; }

echo "OK"
