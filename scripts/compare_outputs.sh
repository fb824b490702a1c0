#!/usr/bin/env bash
# Byte-identity check of this checkout's run outputs against another
# revision's. One 60/20 synthetic corpus is generated; on each tree
# `bertc`, `gcan`, `vit` and `gcan-vit` train on it in setups A and B at
# --jobs 1 and 2 (3 folds, 2 epochs), and the two trees' manifests are
# compared with cmp. A manifest lists the SHA-256 of every file of its
# run but the timing-only events.jsonl, so equal manifests mean equal
# files.
#
# Usage: scripts/compare_outputs.sh <rev> [workdir]
# <rev> is checked out with `git worktree add` under the work directory
# (a temporary one unless given) and removed on exit. Progress goes to
# stderr; the last line on stdout is "byte-identical: K of N", over the N
# files that <rev>'s manifests list. Exits 1 unless K is N.
# Runtime: about 15 seconds on two CPU cores.
set -euo pipefail

rev="${1:?usage: scripts/compare_outputs.sh <rev> [workdir]}"
here="$(cd "$(dirname "$0")/.." && pwd)"
python="${PYTHON:-python}"
keep="${2:-}"
if [ -n "$keep" ]; then
  mkdir -p "$keep"
  work="$(cd "$keep" && pwd)"
else
  work="$(mktemp -d)"
fi
base_tree="$work/base-tree"

cleanup() {
  git -C "$here" worktree remove --force "$base_tree" 2>/dev/null || true
  if [ -z "$keep" ]; then rm -rf "$work"; fi
}
trap cleanup EXIT
git -C "$here" worktree add --quiet --detach "$base_tree" "$rev"

printf 'n_train = 60\nn_test = 20\n' > "$work/synth.spec"
printf 'folds = 3\nepochs = 2\nwarmup_epochs = 1\n' > "$work/run.cfg"
PYTHONPATH="$here/src" "$python" -m memefuse.cli gen-synth \
  --spec "$work/synth.spec" --out "$work/data" > /dev/null

for tree in base head; do
  if [ "$tree" = base ]; then src="$base_tree/src"; else src="$here/src"; fi
  for setup in A B; do
    for jobs in 1 2; do
      echo "$tree: setup $setup, --jobs $jobs" >&2
      for model in bertc gcan vit gcan-vit; do
        PYTHONPATH="$src" "$python" -m memefuse.cli train \
          --config "$work/run.cfg" --data "$work/data" --model "$model" \
          --setup "$setup" --jobs "$jobs" \
          --out "$work/$tree/$setup-jobs$jobs" > /dev/null
      done
    done
  done
done

same=0
total=0
for manifest in "$work"/base/*/*/manifest.tsv; do
  run="${manifest#"$work/base/"}"
  listed=$(( $(wc -l < "$manifest") - 1 ))
  total=$(( total + listed ))
  other="$work/head/$run"
  if cmp -s "$manifest" "$other"; then
    same=$(( same + listed ))
  else
    echo "differs: $run" >&2
    if [ -f "$other" ]; then  # the listed files whose line is unchanged
      same=$(( same + $(tail -n +2 "$manifest" |
                        grep -cxFf <(tail -n +2 "$other") || true) ))
    fi
  fi
done
echo "byte-identical: $same of $total"
[ "$same" -eq "$total" ]
