#!/usr/bin/env bash
# The shipped example through bench, bench --resume (after a whole run,
# then from a journal cut mid-row), rank, train and predict (csv and
# svmlight), pinning the bytes of the reports, the demo archive and both
# predictions.  Run from the repository root, with the
# package importable (PYTHONPATH=src for a checkout):
#
#   bash scripts/smoke.sh OUT_DIR [PARALLELISM]
#
# OUT_DIR receives the bench reports, models and predictions; PARALLELISM
# is passed to `bench --parallelism` (default: auto).
set -euo pipefail
out=$1
parallelism=${2:-auto}

# An output's bytes are pinned: either kernel path must write these.
pin() {
    python -c "import hashlib, sys; d = hashlib.sha256(open(sys.argv[1], 'rb').read()).hexdigest(); sys.exit(None if d == sys.argv[2] else f'{sys.argv[1]} sha256 {d}, expected {sys.argv[2]}')" "$1" "$2"
}

python -c "from opfdist import distances as d; print('kernels:', d.KERNELS)"
python -m opfdist.cli bench --config configs/bench_example.yaml --out "$out/ex" --parallelism "$parallelism"
python -m opfdist.cli bench --config configs/bench_example.yaml --out "$out/ex" --resume
# A crash mid-journal: keep the header and two rows, then a row cut short
# without its newline; the resumed run must still write the pinned bytes.
# (Shell builtins only: the numpy smoke runs with python alone on PATH.)
journal=("$out"/ex/journal-*.csv)
{ IFS= read -r header; IFS= read -r row1; IFS= read -r row2; } < "${journal[0]}"
printf '%s\n%s\n%s\ndemo,D3,9,1,0.9' "$header" "$row1" "$row2" > "${journal[0]}"
python -m opfdist.cli bench --config configs/bench_example.yaml --out "$out/ex" --resume
pin "$out/ex/cells.csv" df3ed5f06f6fdf2abee7a06268719db2c4b9bff03092b166c34908e9987bf976
pin "$out/ex/summary_raw.csv" 418726002b7e7bc73bcce68363f6623c320f4b5d3fcda5224e4a6e4cf03ccf25
pin "$out/ex/summary.csv" 7f6dd635d4aacbd00c06a51bdef9d308e3c6ee8819cd14c03962ab9b795dafb6
pin "$out/ex/wilcoxon.csv" cda4a6c05b6efeb3030f882b4f827506a1be5ec6470e013d49f45f0097a0e15f
pin "$out/ex/rank.csv" 6c8e2a02e523b282aefebbf56aabd816e16d445cf42e17df27e9afa00b8c21a0
python -m opfdist.cli rank --cells "$out/ex/cells.csv"
python -m opfdist.cli train --data configs/demo.csv --label-column label --has-header --distance D3 --normalization min_max_01 --out "$out/demo.opf"
pin "$out/demo.opf" ee8c4c23fa09c8d4a180bf63a363b7e78e0a428987b06ce9911078a5331db5d9
python -m opfdist.cli predict --model "$out/demo.opf" --data configs/demo.csv --label-column label --has-header --out "$out/predictions.csv"
pin "$out/predictions.csv" bbcc67e1641aaeeee36b53666a21dc673fa4225a4ae9d0e0ea24adc5dbadfa4c
# svmlight omits zeros: the queries never name index 3
printf 'A 1:0.0 3:0.5\nA 1:1.0\nB 1:3.0 2:1.0\nB 1:4.0 3:1.0\n' > "$out/train.svm"
printf 'A 1:0.5\nB 1:3.5 2:1.0\n' > "$out/queries.svm"
python -m opfdist.cli train --data "$out/train.svm" --format svmlight --distance D3 --normalization min_max_01 --out "$out/svm.opf"
python -m opfdist.cli predict --model "$out/svm.opf" --data "$out/queries.svm" --format svmlight --out "$out/svm_predictions.csv"
pin "$out/svm_predictions.csv" ec01074a09b41d1d31fe47111fb0a54f9a0806463d5c93eed545b993118655f6
