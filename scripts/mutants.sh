#!/usr/bin/env bash
# Mutation score of the pins: applies each one-line mutation under
# scripts/mutants/ to a clean checkout of HEAD, builds and then runs the
# one test target that patch names, and counts the mutation as killed
# when that target's tests fail.  Prints one line per mutation and
# `killed/total`; exits 0 only when every mutation is killed.
#
#   scripts/mutants.sh [patch ...]   (default: every scripts/mutants/*.patch)
#
# Each patch starts with two header lines, then a `git diff`:
#   Contract: <what the mutation breaks>
#   Kill-by: cargo test <selector>   (run at the checkout root; must fail)
# A patch that no longer applies to HEAD, or whose mutant does not build
# (`cargo test --no-run <selector>`), is an error (exit 2), not a kill:
# refresh it against the code it mutates; so is a run that fails without
# cargo's `test result: FAILED` line (a crash).  So a kill is always a
# test that ran and failed an assertion.
#
# One `git worktree` (detached at HEAD) under $TMPDIR is reset between
# mutations, so cargo rebuilds only what each patch touches; its target
# directory is kept beside it.  Each mutation's build and test output is
# kept in a log directory the script prints.  Needs git and cargo only.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
[ $# -gt 0 ] || set -- "$root"/scripts/mutants/*.patch
patches=()
for p in "$@"; do
  patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")")
done

work=$(mktemp -d "${TMPDIR:-/tmp}/must-mutants.XXXXXX")
tree=$work/tree
logs=$(mktemp -d "${TMPDIR:-/tmp}/must-mutants-logs.XXXXXX")
echo "logs: $logs"
cleanup() {
  git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$tree" HEAD

killed=0
total=0
for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  cmd=$(sed -n 's/^Kill-by: //p' "$patch")
  if [[ $cmd != "cargo test "* ]]; then
    echo "error: $name has no \`Kill-by: cargo test ...\` line" >&2
    exit 2
  fi
  git -C "$tree" reset --hard --quiet HEAD
  if ! git -C "$tree" apply "$patch"; then
    echo "error: $name does not apply to HEAD" >&2
    exit 2
  fi
  total=$((total + 1))
  log=$logs/$name.log
  build="cargo test --no-run ${cmd#cargo test }"
  if ! (cd "$tree" && CARGO_TARGET_DIR=$work/target bash -c "$build") >"$log" 2>&1; then
    echo "error: $name does not build ($build); see $log" >&2
    exit 2
  fi
  if (cd "$tree" && CARGO_TARGET_DIR=$work/target bash -c "$cmd") >>"$log" 2>&1; then
    echo "SURVIVED  $name  ($cmd passed)"
  elif grep -q '^test result: FAILED' "$log"; then
    killed=$((killed + 1))
    echo "killed    $name  ($cmd)"
  else
    echo "error: $name failed with no failed test (a crash?); see $log" >&2
    exit 2
  fi
done
echo "$killed/$total killed (logs: $logs)"
[ "$killed" -eq "$total" ]
