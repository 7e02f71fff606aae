#!/usr/bin/env sh
# Test lanes.
#
#   scripts/test.sh          fast lane: tier-1 only (default pytest config)
#   scripts/test.sh fast     same as above, explicitly
#   scripts/test.sh tier2    only the tier-2 subprocess/slow suites
#   scripts/test.sh full     everything: tier 1 + tier 2
#   scripts/test.sh ir       tier-1 under the trace-and-replay executor
#                            (REPRO_EXECUTOR=replay, where every validated
#                            no_grad trace runs as a generated kernel and
#                            gradient traces as fat-node replays)
#   scripts/test.sh batching the union-grid batching suites (planner,
#                            solve driver, solve() facade) plus the
#                            BENCH_batching acceptance benchmark
#   scripts/test.sh streaming the incremental-state suites (ContextState
#                            extend, resumable solves, stream sessions,
#                            prequential eval) under the eager executor
#                            and again under replay, plus the
#                            BENCH_streaming acceptance benchmark and the
#                            long-horizon smoke experiment
#   scripts/test.sh serving  the async serving suites (protocol, cache,
#                            micro-batcher, engine, server, streaming
#                            session entry points) plus the tier-2
#                            subprocess smoke (CLI serve + loadgen) and
#                            the BENCH_serving acceptance benchmark
#   scripts/test.sh adjoint  tier-1 under trace-checkpointed backprop
#                            (REPRO_CHECKPOINT_GRADS=on with
#                            REPRO_EXECUTOR=replay; only gradient replays
#                            checkpoint, so the eager executor never
#                            reaches it), then the BENCH_memory
#                            acceptance benchmark (backward memory gates)
#                            under the default settings
#   scripts/test.sh perf     the end-to-end benchmark's own checks
#                            (perfbench/test_perfbench.py): seed
#                            reproducibility of the workloads and the
#                            offline answer check
#
# Extra arguments after the lane go straight to pytest, e.g.
#   scripts/test.sh fast tests/parallel -q
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

lane="${1:-fast}"
[ "$#" -gt 0 ] && shift

case "$lane" in
    fast)
        exec python -m pytest -x -q "$@"
        ;;
    tier2)
        exec python -m pytest -x -q -m tier2 "$@"
        ;;
    ir)
        exec env REPRO_EXECUTOR=replay python -m pytest -x -q "$@"
        ;;
    adjoint)
        env REPRO_CHECKPOINT_GRADS=on REPRO_EXECUTOR=replay \
            python -m pytest -x -q "$@"
        exec python -m pytest -x -q benchmarks/test_memory.py \
            -p no:cacheprovider -m "tier2 or not tier2" "$@"
        ;;
    batching)
        exec python -m pytest -x -q tests/data/test_batching.py \
            tests/parallel/test_union_solve.py \
            tests/odeint/test_solve_api.py \
            benchmarks/test_batching.py -p no:cacheprovider \
            -m "tier2 or not tier2" "$@"
        ;;
    streaming)
        python -m pytest -x -q tests/core/test_context_state.py \
            tests/odeint/test_resume.py tests/data/test_streaming.py \
            tests/training/test_prequential.py "$@"
        env REPRO_EXECUTOR=replay \
            python -m pytest -x -q tests/core/test_context_state.py \
            tests/odeint/test_resume.py tests/data/test_streaming.py \
            tests/training/test_prequential.py "$@"
        exec python -m pytest -x -q tests/experiments/test_long_horizon.py \
            benchmarks/test_streaming.py -p no:cacheprovider \
            -m "tier2 or not tier2" "$@"
        ;;
    serving)
        python -m pytest -x -q tests/serving \
            tests/baselines/test_union_forward.py \
            tests/training/test_serialization.py "$@"
        exec python -m pytest -x -q tests/integration/test_serving_cli.py \
            tests/serving/test_pool.py \
            benchmarks/test_serving.py -p no:cacheprovider \
            -m "tier2 or not tier2" "$@"
        ;;
    perf)
        exec python3 -m pytest perfbench/test_perfbench.py -q \
            -p no:cacheprovider "$@"
        ;;
    full)
        # Overrides the "not tier2" filter baked into addopts.
        exec python -m pytest -x -q -m "tier2 or not tier2" "$@"
        ;;
    *)
        echo "usage: scripts/test.sh [fast|tier2|full|ir|batching|streaming|serving|adjoint|perf] [pytest args...]" >&2
        exit 2
        ;;
esac
