#!/usr/bin/env bash
# Mega-scale engine gate: throughput and wall clock.
source "$(dirname "$0")/../lib.sh"
build
# 4k- and 20k-task populations, engine metrics on. The compare gates the
# model metrics *and* sim_events_per_sec: an engine slowdown (events per
# virtual second declining > 5%) fails even when every model metric is
# unchanged.
lab_gate "$BIN" mega BENCH_engine.json
grep -q '"sim_events_per_sec"' mega-manifest.json

# Wall-clock gate self-test. ELSC_ENGINE_SLOWDOWN inserts a busy loop into
# every dispatch: virtual results stay byte-identical — sim_events_per_sec
# can't see it — so only the calibrated wall_ratio gate can trip, and it
# must.
ELSC_ENGINE_SLOWDOWN=3 "$BIN" lab sweep --spec mega --cache-dir "$T/slow" --out "$T/slow.json"
same_bytes "$T/slow.json" BENCH_engine.json
expect_exit 1 wall_ratio "$BIN" lab compare --manifest "$T/slow.json" --baseline BENCH_engine.json
