#!/bin/sh
# Regenerate the committed golden outputs into DIR (default test/golden).
# Run from the repository root after `dune build`:
#
#   sh test/golden/regenerate.sh            # rewrite the committed files
#   sh test/golden/regenerate.sh fresh      # write elsewhere, then diff
#
# The four inject runs pin every trace digest of the fault-plan ladder on
# both stacks, with and without an adaptive attacker; report-full.md pins
# every artefact of Fortress_exp.Artefact as `report --full` renders it.
#
# The obs-*.txt and *.om files pin the observability plane: one small
# traced campaign (timeline, defender, causal spans) and every reader of
# its trace (`timeline` at two widths, one of them evicting and dropping,
# `trace`, `obs`), plus the `Sink.counting` table of `simulate --metrics`.
# The readers run inside DIR on fixed relative names, so no printed path
# depends on DIR. The JSONL trace (`--trace-out`) and the Perfetto artifact
# (`--causal-trace`) are too large to commit: obs-artifacts.cksum pins one
# `cksum` line for each, and both are deleted afterwards.
set -e
cli=$(pwd)/_build/default/bin/fortress_cli.exe
dir=${1:-test/golden}
mkdir -p "$dir"
"$cli" inject --plan all --seed 42 > "$dir/inject-plain.txt"
"$cli" inject --plan all --seed 42 --smr > "$dir/inject-smr.txt"
"$cli" inject --plan all --seed 42 --strategy stale-key-rush > "$dir/inject-stale-key-rush.txt"
"$cli" inject --plan all --seed 42 --smr --strategy partition-follower \
  > "$dir/inject-smr-partition-follower.txt"
"$cli" report --full > "$dir/report-full.md"
(
  cd "$dir"
  "$cli" inject --plan chaos --seed 42 --trials 2 --timeline 100 --defender alarm-rekey \
    --causal-trace obs-causal.json --trace-out obs.jsonl > obs-inject.txt
  "$cli" timeline obs.jsonl --width 100 --openmetrics obs-timeline.om > obs-timeline.txt
  "$cli" timeline obs.jsonl --width 37 --capacity 8 > obs-timeline-evict.txt
  "$cli" trace obs.jsonl --openmetrics obs-latency.om > obs-trace.txt
  "$cli" obs obs.jsonl > obs-summary.txt
  cksum obs.jsonl obs-causal.json > obs-artifacts.cksum
  rm obs.jsonl obs-causal.json
)
"$cli" simulate --attack-omega 8 --chi 256 --metrics --trace 25 > "$dir/obs-simulate-metrics.txt"
