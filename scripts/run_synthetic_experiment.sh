#!/usr/bin/env bash
# End-to-end demonstration on the bundled synthetic meme generator:
# generate data, train the two uni-modal models and their fusion with
# 10-fold cross-validation, then evaluate, vote, and test significance.
#
# Usage: scripts/run_synthetic_experiment.sh [workdir]
# Runtime: about two minutes on one CPU core.
set -euo pipefail

ROOT="${1:-/tmp/memefuse-demo}"
mkdir -p "$ROOT"

cat > "$ROOT/synth.spec" <<'EOF'
# synthetic generator: keyword/motif cues are complementary across
# modalities, so fusion has headroom over either single modality
n_train = 1000
n_test = 200
seed = 7
keyword_prob = 0.65
motif_prob = 0.65
EOF

cat > "$ROOT/run.cfg" <<'EOF'
# training configuration scaled to the synthetic corpus
setup = B
folds = 10
epochs = 30
warmup_epochs = 2
base_lr = 0.003
fusion_lr = 0.01
batch_size = 16
fusion_batch_size = 32
patience = 8
dropout = 0.1
seq_len = 12
resize = 36
crop = 32
patch = 8
d_att = 32
n_heads = 4
n_layers = 3
window_len = 10
seed = 11
EOF

memefuse gen-synth --spec "$ROOT/synth.spec" --out "$ROOT/data"

# vit trains its folds in two forked workers that read the parent's
# image pool in place
for model in gcan vit gcan-vit; do
    echo "=== training $model ==="
    jobs=1
    if [ "$model" = vit ]; then jobs=2; fi
    memefuse train --config "$ROOT/run.cfg" --data "$ROOT/data" \
        --model "$model" --jobs "$jobs" --out "$ROOT/runs"
done

echo "=== per-fold and soft-vote scores ==="
memefuse evaluate --runs "$ROOT/runs" --test "$ROOT/data" \
    | tee "$ROOT/evaluation.tsv"

memefuse ensemble --mode soft --runs "$ROOT/runs/gcan-vit" \
    --out "$ROOT/fused_soft.tsv"
memefuse ensemble --mode hard \
    --runs "$ROOT/runs/gcan" "$ROOT/runs/vit" "$ROOT/runs/gcan-vit" \
    --out "$ROOT/all_hard.tsv"

echo "=== fusion vs. text-only fold F1s (Mann-Whitney U) ==="
memefuse significance --a "$ROOT/runs/gcan-vit/runs.tsv" \
    --b "$ROOT/runs/gcan/runs.tsv"
