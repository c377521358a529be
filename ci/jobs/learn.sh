#!/usr/bin/env bash
# Learned scheduling gate: trainer determinism and verified fallback.
source "$(dirname "$0")/../lib.sh"
build
# The extractor's input is itself deterministic: replaying the fixture
# workload re-captures the committed trace byte for byte.
"$BIN" volanomark --rooms 1 --users 4 --messages 2 --up --sched reg --quiet \
  --decision-trace --trace-out "$T/trace.jsonl"
cmp "$T/trace.jsonl" fixtures/learn/volano-up.jsonl

# (seed, dataset) -> model bytes is the trainer's whole contract: integer
# fixed-point SGD, no floats, no host dependence.
for arch in logreg mlp; do
  "$BIN" learn train --data fixtures/learn/volano-up.jsonl --arch "$arch" \
    --model-out "$T/$arch.model" --quiet
  cmp "$T/$arch.model" "models/volano-$arch.model"
done

# reg/elsc beside both bundled models, oracle on. The compare gates the
# cost metrics *and* prediction_accuracy: a retrained model that predicts
# worse fails even at equal cycles.
lab_gate "$BIN" learn BENCH_learn.json
grep -q '"prediction_accuracy"' learn-manifest.json

# models/adversarial.model scores the worst candidate highest, so the
# streak-K watchdog must swap in the native scan mid-run — and the whole
# story must be byte-identical across reruns.
twice_cmp "$T/adv.json" "$BIN" volanomark --rooms 1 --users 4 --messages 2 --quiet \
  --sched learned:models/adversarial.model --report-json
grep -q '"eject_reason":"accuracy_collapse"' "$T/adv.json"
grep -q '"ejected":true' "$T/adv.json"
