#!/usr/bin/env bash
# Mutation score of the pins: applies each one-line mutation under
# scripts/mutants/ to a clean checkout of HEAD, runs the one test target
# that patch names, and counts the mutation as killed when that target
# fails.  Prints one line per mutation and `killed/total`; exits 0 only
# when every mutation is killed.
#
#   scripts/mutants.sh [patch ...]   (default: every scripts/mutants/*.patch)
#
# Each patch starts with two header lines, then a `git diff`:
#   Contract: <what the mutation breaks>
#   Kill-by: <the command, run at the checkout root, that must fail>
# A patch that no longer applies to HEAD is an error (exit 2), not a
# survivor: refresh it against the code it mutates.
#
# One `git worktree` (detached at HEAD) under $TMPDIR is reset between
# mutations, so cargo rebuilds only what each patch touches; its target
# directory is kept beside it.  Needs git and cargo only.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
[ $# -gt 0 ] || set -- "$root"/scripts/mutants/*.patch
patches=()
for p in "$@"; do
  patches+=("$(cd "$(dirname "$p")" && pwd)/$(basename "$p")")
done

work=$(mktemp -d "${TMPDIR:-/tmp}/must-mutants.XXXXXX")
tree=$work/tree
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
  if [ -z "$cmd" ]; then
    echo "error: $name has no Kill-by line" >&2
    exit 2
  fi
  git -C "$tree" reset --hard --quiet HEAD
  if ! git -C "$tree" apply "$patch"; then
    echo "error: $name does not apply to HEAD" >&2
    exit 2
  fi
  total=$((total + 1))
  log=$work/$name.log
  if (cd "$tree" && CARGO_TARGET_DIR=$work/target bash -c "$cmd") >"$log" 2>&1; then
    echo "SURVIVED  $name  ($cmd passed)"
  else
    killed=$((killed + 1))
    echo "killed    $name  ($cmd)"
  fi
done
echo "$killed/$total killed"
[ "$killed" -eq "$total" ]
