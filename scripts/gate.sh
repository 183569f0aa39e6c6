#!/usr/bin/env bash
# The checks of .github/workflows/tests.yml that run offline, in one
# command, so that the workflow and a local run cannot drift apart:
#
#   bash scripts/gate.sh            # every step below, in order
#   bash scripts/gate.sh STEP...    # the named steps, as the workflow runs them
#
# It prints one line per step (PASS, FAIL or SKIP, and its seconds) and
# exits non-zero if any step failed.  A named step writes its output to
# the terminal as it runs, so a step that hangs shows how far it got; a
# full run keeps each step's output and prints it after the line of a
# step that failed.  A step that this host cannot run (no cc for
# `compiled`, no taskset for `one-cpu`) is skipped in a full run and
# fails when named.
#
# Steps:
#   compiled     the compiled distance loops are in use, so the oracles
#                test them
#   tier1        the tier-1 tests; pyproject.toml makes a ResourceWarning
#                an error there, so a file, pool or journal left open fails
#                them
#   one-cpu      forest and grid tests on a one-CPU affinity mask
#                (taskset -c 0)
#   oracle       the kernel oracles with numpy's AVX-512 targets off
#   smoke        scripts/smoke.sh on the compiled kernels
#   smoke-numpy  scripts/smoke.sh on the numpy kernels, in a temporary copy
#                of src, scripts and configs with no cc on PATH and no
#                cached library
#   selftest     perfbench/run.py --selftest
#   wine-grid    seed 0 of wine-grid: report and prediction digests
#   noise-fit    seed 0 of noise-fit: the same
#   trace        seed 0 of wine-grid --trace 1: the per-column evaluation
#                reproduces the per-fold grid
#
# CI only, not here: the jobs that need another interpreter or other
# packages (the tier1 step under the matrix's other Python versions,
# without scipy and on numpy 1.24) and the Windows smoke job.
set -uo pipefail

ALL=(compiled tier1 one-cpu oracle smoke smoke-numpy selftest wine-grid
     noise-fit trace)
CANNOT_RUN=77

cd "$(dirname "$0")/.." || exit 2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
src="src${PYTHONPATH:+:$PYTHONPATH}"

step() {
    case $1 in
    compiled)
        command -v cc >/dev/null || return $CANNOT_RUN
        PYTHONPATH=$src python -c "from opfdist import distances as d; assert d.KERNELS == 'compiled', d.KERNELS; print('loop copy:', d.LOOP_COPY)" ;;
    tier1)
        PYTHONPATH=$src python -m pytest -q --continue-on-collection-errors -rs --durations=10 ;;
    one-cpu)
        command -v taskset >/dev/null || return $CANNOT_RUN
        PYTHONPATH=$src taskset -c 0 python -m pytest -q tests/test_forest.py tests/test_evaluation.py ;;
    oracle)
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" PYTHONPATH=$src python -m pytest -q tests/test_distances.py tests/test_forest.py tests/test_evaluation.py tests/test_kernels.py ;;
    smoke)
        PYTHONPATH=$src bash scripts/smoke.sh "$work/smoke" auto ;;
    smoke-numpy)
        # PATH holds one file, a `python` that runs this interpreter
        local copy=$work/numpy-copy bin=$work/no-cc
        mkdir -p "$copy" "$bin" || return
        tar -cf - --exclude=__pycache__ src scripts configs | tar -xf - -C "$copy" || return
        printf '#!/bin/sh\nexec "%s" "$@"\n' "$(python -c 'import sys; print(sys.executable)')" > "$bin/python"
        chmod +x "$bin/python"
        (cd "$copy" && export PATH=$bin PYTHONPATH=src &&
            python -c "from opfdist import distances as d; assert d.KERNELS == 'numpy', d.KERNELS" &&
            "$BASH" scripts/smoke.sh "$work/smoke-numpy" auto) ;;
    selftest)
        python3 perfbench/run.py --selftest ;;
    wine-grid)
        python3 perfbench/run.py --workload wine-grid --seed 0 ;;
    noise-fit)
        python3 perfbench/run.py --workload noise-fit --seed 0 ;;
    trace)
        python3 perfbench/run.py --workload wine-grid --seed 0 --trace 1 ;;
    *)
        echo "unknown step: $1 (steps: ${ALL[*]})"
        return 2 ;;
    esac
}

named=$#
(( named )) || set -- "${ALL[@]}"
failed=0
for name in "$@"; do
    start=$(date +%s.%N)
    if (( named )); then
        step "$name" 2>&1
    else
        step "$name" > "$work/log" 2>&1
    fi
    rc=$?
    seconds=$(python3 -c "import sys; print(f'{float(sys.argv[2]) - float(sys.argv[1]):.1f}')" "$start" "$(date +%s.%N)")
    if (( rc == 0 )); then
        result=PASS
    elif (( rc == CANNOT_RUN && !named )); then
        result=SKIP
    else
        result=FAIL
        failed=1
    fi
    printf '%-4s  %-11s  %6s s\n' "$result" "$name" "$seconds"
    (( rc == CANNOT_RUN )) && echo "    this host cannot run it"
    if [[ $result == FAIL ]] && (( !named )); then
        sed 's/^/    /' "$work/log"
    fi
done
exit $failed
