#!/usr/bin/env bash
# Build the server and the benchmark binary from source, then run one pass.
#
#   bash perfbench/run.sh --workload <read-warm|evolve|migrate> --seed <n> \
#       --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr; the last line
# on stdout is the JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/service || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a mapping-composition checkout" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin mapcomp >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/mapcomp-perfbench" \
    --server "$CARGO_TARGET_DIR/release/mapcomp" "$@"
