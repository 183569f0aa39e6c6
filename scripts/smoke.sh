#!/usr/bin/env bash
# The shipped example through bench, bench --resume, rank, train and
# predict (csv and svmlight).  Run from the repository root, with the
# package importable (PYTHONPATH=src for a checkout):
#
#   bash scripts/smoke.sh OUT_DIR [PARALLELISM]
#
# OUT_DIR receives the bench reports, models and predictions; PARALLELISM
# is passed to `bench --parallelism` (default: auto).
set -euo pipefail
out=$1
parallelism=${2:-auto}

python -c "from opfdist import distances as d; print('kernels:', d.KERNELS)"
python -m opfdist.cli bench --config configs/bench_example.yaml --out "$out/ex" --parallelism "$parallelism"
python -m opfdist.cli bench --config configs/bench_example.yaml --out "$out/ex" --resume
python -m opfdist.cli rank --cells "$out/ex/cells.csv"
python -m opfdist.cli train --data configs/demo.csv --label-column label --has-header --distance D3 --normalization min_max_01 --out "$out/demo.opf"
# the archive's bytes are pinned: either kernel path must write these
python -c "import hashlib, sys; d = hashlib.sha256(open(sys.argv[1], 'rb').read()).hexdigest(); sys.exit(None if d == sys.argv[2] else f'demo.opf sha256 {d}, expected {sys.argv[2]}')" "$out/demo.opf" ee8c4c23fa09c8d4a180bf63a363b7e78e0a428987b06ce9911078a5331db5d9
python -m opfdist.cli predict --model "$out/demo.opf" --data configs/demo.csv --label-column label --has-header --out "$out/predictions.csv"
# svmlight omits zeros: the queries never name index 3
printf 'A 1:0.0 3:0.5\nA 1:1.0\nB 1:3.0 2:1.0\nB 1:4.0 3:1.0\n' > "$out/train.svm"
printf 'A 1:0.5\nB 1:3.5 2:1.0\n' > "$out/queries.svm"
python -m opfdist.cli train --data "$out/train.svm" --format svmlight --distance D3 --normalization min_max_01 --out "$out/svm.opf"
python -m opfdist.cli predict --model "$out/svm.opf" --data "$out/queries.svm" --format svmlight --out "$out/svm_predictions.csv"
