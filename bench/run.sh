#!/usr/bin/env bash
# Builds `tc` and the harness, then runs the harness with the arguments
# given (see README.md). Everything built or written stays under bench/,
# or under $CARGO_TARGET_DIR when the caller sets one.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release -p tc-cli --locked --offline >&2
cargo build --release --manifest-path bench/Cargo.toml --locked --offline >&2
exec "$CARGO_TARGET_DIR/release/chainbench" --tc "$CARGO_TARGET_DIR/release/tc" --out bench/out "$@"
