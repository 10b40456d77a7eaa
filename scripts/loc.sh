#!/usr/bin/env bash
# Non-test line counts: each `src/**/*.rs` file counted up to its first
# `#[cfg(test)]` at column 0, per file and then per crate.
# Usage: scripts/loc.sh [crate-dir ...]   (default: every crates/*)
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates/*
for crate in "$@"; do
  [ -d "$crate/src" ] || continue
  find "$crate/src" -name '*.rs' | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d  %s\n", n, FILENAME }' "$f"
  done | awk -v c="$crate/src" '{ print; t += $1 } END { printf "%6d  %s total\n", t, c }'
done
