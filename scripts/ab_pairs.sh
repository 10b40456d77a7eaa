#!/usr/bin/env bash
# Alternated parent/change pairs of one repo-benchmark workload — the
# choosing-metrics §8 procedure: same benchmark settings on both sides,
# sides alternate which runs first, a gain is claimed only when the change
# wins >= 9/10 of the pairs and the medians differ by more than the
# parent's own inter-quartile range; a metric whose runs spread wider than
# its bound is resolved only when every change run is better than every
# parent run, which is printed per metric too.
#
#   scripts/ab_pairs.sh <parent-ref> <workload|all> [pairs=10] [seed=7] [--smoke]
#
# `all` runs every workload BENCHMARK.json names, one after the other, and
# prints one block per workload — the whole table a no-gain PR reports.
#
# "parent" is <parent-ref> exported with `git archive`; "change" is the
# working tree as it stands (uncommitted edits included).  Each side builds
# the stand-alone benchmark package into its own target directory under
# $AB_DIR (default .bench_build/ab, git-ignored); a parent build is keyed
# by its commit and reused.  Every run's stdout and result.json are kept
# under $AB_DIR/runs/.  The exit code is non-zero when a build or a run
# fails (a run fails on any of the benchmark's own correctness checks), or
# when the two sides' inputs_fingerprint differ on full-size runs — numbers
# over different inputs support no claim.  With --smoke (CI's exit-code
# check, which supports none anyway) a differing fingerprint is only
# printed, so a change that legitimately moves the benchmark's inputs still
# passes.  The verdict on the numbers is printed, never turned into an exit
# code — on a shared runner it is noise.
set -euo pipefail

smoke=()
args=()
for a in "$@"; do
  case "$a" in
    --smoke) smoke=(--smoke) ;;
    *) args+=("$a") ;;
  esac
done
if [ "${#args[@]}" -lt 2 ]; then
  sed -n '2,27p' "$0" >&2
  exit 2
fi
parent_ref=${args[0]}
workload=${args[1]}
pairs=${args[2]:-10}
seed=${args[3]:-7}

root=$(git rev-parse --show-toplevel)
if [ "$workload" = all ]; then
  # The names in BENCHMARK.json's "workloads" list (the first list in the
  # file that has names), in file order.
  for w in $(awk '/"workloads"/ { on = 1 } on && /^  \]/ { exit }
                  on && /"name"/ { gsub(/[",]/, ""); print $2 }' "$root/BENCHMARK.json"); do
    "$0" "$parent_ref" "$w" "$pairs" "$seed" "${smoke[@]}"
  done
  exit
fi
sha=$(git -C "$root" rev-parse --verify "$parent_ref^{commit}")
dir=${AB_DIR:-$root/.bench_build/ab}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)

build() { # <source root> <target dir>
  CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml"
}

if [ ! -x "$dir/target-$sha/release/benchmark" ]; then
  echo "# building parent $sha" >&2
  rm -rf "$dir/src-$sha"
  mkdir -p "$dir/src-$sha"
  git -C "$root" archive "$sha" | tar -x -C "$dir/src-$sha"
  build "$dir/src-$sha" "$dir/target-$sha"
fi
echo "# building change (working tree)" >&2
build "$root" "$dir/target-change"

# Copies: a rebuild while pairs are running cannot swap a binary under them.
runs=$dir/runs/$workload.seed$seed.$(date +%Y%m%dT%H%M%S)
mkdir -p "$runs"
cp "$dir/target-$sha/release/benchmark" "$runs/parent.bin"
cp "$dir/target-change/release/benchmark" "$runs/change.bin"

run() { # <side> <pair>
  local out=$runs/$1.$2
  "$runs/$1.bin" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 \
    --out "$out" "${smoke[@]}" >"$out.log"
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    run "$side" "$i"
  done
  echo "# pair $i/$pairs done ($order)" >&2
done

list() { # <side>: comma-separated result files, pair order
  local s=""
  for i in $(seq 1 "$pairs"); do s="$s${s:+,}$runs/$1.$i/result.json"; done
  echo "$s"
}

fingerprints() { grep -ho 'inputs_fingerprint=[0-9a-f]*' "$runs"/$1.*.log | sort -u; }
if [ "$(fingerprints parent)" != "$(fingerprints change)" ]; then
  echo "inputs_fingerprint differs: parent [$(fingerprints parent)] change [$(fingerprints change)]" >&2
  [ "${#smoke[@]}" -gt 0 ] || exit 1
fi

# The per-run medians as the benchmark printed them (name, value, unit).
metric() { awk -v m="$2" '$1 == m { print $2; exit }' "$runs/$1.$3.log"; }

echo "## $workload seed=$seed pairs=$pairs parent=$sha $(fingerprints parent)"
for m in setup_s ops_per_s p50_us recall_at_10 bytes_per_object; do
  for i in $(seq 1 "$pairs"); do
    echo "$m $i $(metric parent "$m" "$i") $(metric change "$m" "$i")"
  done
done | awk '
  function q(a, n, p,   h, lo) {            # linear-interpolated quantile of sorted a[1..n]
    h = 1 + (n - 1) * p; lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
  }
  function sorted(src, dst, n,   i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
  }
  function report(   lower, i, w, l, pm, cm, iqr) {
    if (n == 0) return
    lower = (name == "setup_s" || name == "p50_us" || name == "bytes_per_object")
    w = l = 0
    for (i = 1; i <= n; i++) {
      if (lower ? c[i] < p[i] : c[i] > p[i]) w++
      else if (c[i] != p[i]) l++
    }
    sorted(p, ps, n); sorted(c, cs, n)
    pm = q(ps, n, 0.5); cm = q(cs, n, 0.5); iqr = q(ps, n, 0.75) - q(ps, n, 0.25)
    printf "%-17s parent median %.4f [q1 %.4f q3 %.4f]  change median %.4f [q1 %.4f q3 %.4f]  change/parent %.4f  wins %d losses %d of %d  |d median| %s parent IQR %.4f\n", \
      name, pm, q(ps, n, 0.25), q(ps, n, 0.75), cm, q(cs, n, 0.25), q(cs, n, 0.75), \
      (pm != 0 ? cm / pm : 0), w, l, n, ((cm > pm ? cm - pm : pm - cm) > iqr ? ">" : "<="), iqr
    # Where the runs spread wider than the bound, a metric is resolved only
    # when the ranges of the two sides do not touch (choosing-metrics section 6).
    printf "%-17s every change run better than every parent run: %s  (parent min %.4f max %.4f, change min %.4f max %.4f)\n", \
      name, ((lower ? cs[n] < ps[1] : cs[1] > ps[n]) ? "yes" : "no"), ps[1], ps[n], cs[1], cs[n]
    printf "%-17s parent runs:", name; for (i = 1; i <= n; i++) printf " %s", p[i]; printf "\n"
    printf "%-17s change runs:", name; for (i = 1; i <= n; i++) printf " %s", c[i]; printf "\n"
    n = 0
  }
  $1 != name { report(); name = $1 }
  { n++; p[n] = $3 + 0; c[n] = $4 + 0 }
  END { report() }
'

echo "## benchmark --compare (medians of the runs' medians against BENCHMARK.json bounds)"
"$runs/change.bin" --compare "$(list parent)" "$(list change)" --bounds "$root/BENCHMARK.json" || true
echo "# runs kept in $runs"
