#!/bin/sh
# Runs every benchmark workload in turn, from the repository root. Extra
# arguments are passed to each run, e.g. `--trace 1` or `--seconds 5`.
set -e
for w in uk_gather europe_dense arabic_scatter stokes_loss1; do
    cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- --workload "$w" "$@"
done
