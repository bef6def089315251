#!/usr/bin/env bash
# verify.sh — the repo's verification tiers in one command.
#
#   ./scripts/verify.sh          tier-1 only (what CI gates on)
#   ./scripts/verify.sh --hot    tier-1 plus the hot-path battery:
#                                vet, the -race hammer over the
#                                packages with hand-written kernels and
#                                lock-free aggregation paths, the GEMM
#                                tile, conv-route, transposing-lowering,
#                                row-copy, BatchNorm-lane and client-
#                                schedule suites under -race (the
#                                concurrent one ten times), the worker
#                                pool's reused job slots under -race (a
#                                late helper claims only live chunks),
#                                the allocation gates (a tensor.Reuse
#                                hit, a region dispatched to the pool,
#                                a resnet20 training step, a 16 → 8 → 16
#                                batch cycle, a journal-less Emit, the
#                                massive sim's live heap at a
#                                straggler-heavy quorum, a FedAvg
#                                server round, a massive round's folds
#                                at two cores, a SPATL, an SSFL, a
#                                FedNova and a SCAFFOLD server round at
#                                two cores, a greedy
#                                SPATL local update,
#                                an update on a released model), the
#                                selection caches and the SPATL caller
#                                fold under -race, comm and algo built
#                                for GOARCH=386 (32-bit int wire
#                                lengths), the per-pass layer-buffer
#                                suites (reshapes within an array,
#                                release between steps bitwise over a
#                                NaN-filled pool, the pass memory gate,
#                                no buffer left after a round; models
#                                and eval under -race), the ReLU gate on
#                                its output, the selection agent's episode
#                                scoring (rl and prune under -race, the
#                                bitwise extraction suites, a fine-tuning
#                                update's allocation gate), and the
#                                determinism suites and the TCP
#                                transport equivalence suites (flnet's
#                                cross-transport, journal, quorum-of-all,
#                                protocol-violation and root reply-walk
#                                tests) at GOMAXPROCS 1, 2 and 4; a
#                                step whose -run pattern has an
#                                |-alternative matching no test of its
#                                packages (go test -list) fails
#   ./scripts/verify.sh --obs    tier-1 plus the observability battery:
#                                the -race hammer over the telemetry
#                                subsystem and the TCP transport that
#                                journals through it (what telemetry
#                                costs is a benchmark metric,
#                                telemetry.overhead_frac — no test times
#                                anything)
#   ./scripts/verify.sh --matrix tier-1 plus the scenario-matrix gate:
#                                run the committed 2x2x2 golden matrix
#                                (scripts/golden/matrix.json) end to end
#                                and diff every per-cell zero-time
#                                journal against scripts/golden/matrix/
#   ./scripts/verify.sh --hetero tier-1 plus the heterogeneous-federation
#                                battery: vet and -race over
#                                internal/hetero, the degenerate- and
#                                cross-transport-equivalence suites, and
#                                the golden 2-cluster 3-width cell
#                                (scripts/golden/hetero.json) diffed
#                                byte-for-byte against
#                                scripts/golden/hetero/
#   ./scripts/verify.sh --paper  tier-1 plus the paper gate: the whole
#                                tiny experiment suite (spatl-bench -exp
#                                all -scale tiny -seed 1 -csv) at
#                                GOMAXPROCS 1 and 2, its stdout diffed
#                                against results/tiny_all.txt with the
#                                "done in" timing lines stripped, and
#                                every CSV against results/csv_tiny/
#   ./scripts/verify.sh --e2e parent.json
#                                tier-1 plus the end-to-end benchmark:
#                                go run ./benchmark --out (all four
#                                workloads, untraced and traced, seed
#                                BENCH_SEED, default 1) and --compare
#                                against parent.json, a result the same
#                                command wrote on this machine at the
#                                parent commit; the new result is kept
#                                at E2E_OUT (default a temp file).
#                                One pair is a look, not a claim: a
#                                perf claim needs ten alternating pairs
#                                (scripts/pairs.sh)
#   ./scripts/verify.sh --flake  the flake hunt, instead of the single
#                                tier-1 run: tier-1 with -count=1 ten
#                                times at each of GOMAXPROCS 1, 2 and 4,
#                                then -race over internal/flnet and
#                                internal/fl (the transports, where the
#                                goroutines are). Any red run is a
#                                failure; the script prints which test
#                                at which GOMAXPROCS
#
# Tier-1 must pass on every commit. A mode other than the default still
# runs its own tier when tier-1 is red — an unrelated red test must not
# make the goldens or the race hammer unreachable — then prints which
# tests were red and exits non-zero. The hot-path battery is mandatory
# for changes touching internal/tensor (SIMD kernels, the strided GEMM
# tile, scratch pools, the worker pool's inline rule), internal/nn
# (implicit-GEMM and lowered conv routes, gradient shards, BatchNorm
# lanes, per-pass layer buffers), internal/models or internal/eval (the
# passes that release them), internal/prune or internal/rl (episodes
# scored concurrently on extracted sub-networks), internal/fl/local.go
# (the client schedule), internal/algo
# (parallel deterministic reduction, shard fold) or internal/flnet (TCP
# transport rounds, aggregation tree, async quorum).
# The observability battery is mandatory for changes touching
# internal/telemetry or any code that records into it. The matrix gate
# is mandatory for changes touching internal/scenario or the algorithm
# registry — a diff means the exact arithmetic of a seeded federation
# changed, which must be deliberate (regenerate the goldens with
#   go run ./cmd/spatl-bench -matrix scripts/golden/matrix.json -out tmp
# and copy the *.jsonl over). The hetero battery is mandatory for
# changes touching internal/hetero or the cluster/slice wire frames in
# internal/comm (goldens regenerate the same way from
# scripts/golden/hetero.json). The paper gate is mandatory for changes
# that can move a seeded federation's arithmetic or a driver's output;
# a deliberate move regenerates results/tiny_all.txt and
# results/csv_tiny/*.csv from the command above, in one commit.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-}"
case "$mode" in
"" | --hot | --obs | --matrix | --hetero | --paper | --e2e | --flake) ;;
*)
    echo "verify: unknown mode '$mode'" >&2
    sed '1d; /^# Tier-1 must pass/,$d' "$0" >&2
    exit 2
    ;;
esac

echo "== tier-1: build =="
go build ./...

if [[ "$mode" == "--flake" ]]; then
    flake_red=()
    log=$(mktemp)
    trap 'rm -f "$log"' EXIT
    # run <label> <command...>: a red run records each failed test (or
    # package, when it died without naming one) under the label.
    run() {
        local label="$1"
        shift
        echo "== flake: $label =="
        if ! "$@" >"$log" 2>&1; then
            while read -r line; do
                flake_red+=("$label: $line")
            done < <(grep -E '^(--- FAIL|FAIL[[:space:]]|panic:)' "$log" | sort -u)
        fi
    }
    for procs in 1 2 4; do
        for i in $(seq 1 10); do
            run "tier-1 run $i/10 at GOMAXPROCS=$procs" env GOMAXPROCS=$procs go test -count=1 ./...
        done
    done
    run "race over the transports" go test -race -count=1 ./internal/flnet ./internal/fl
    if (( ${#flake_red[@]} )); then
        echo "verify: flake hunt RED:" >&2
        printf '  %s\n' "${flake_red[@]}" >&2
        exit 1
    fi
    echo "verify: OK (31 runs, none red)"
    exit 0
fi

echo "== tier-1: tests =="
tier1_log=$(mktemp)
tier1_red=""
if ! go test ./... 2>&1 | tee "$tier1_log"; then
    tier1_red=$(grep -E '^(--- FAIL|FAIL[[:space:]])' "$tier1_log" | sort -u)
    if [[ -z "$mode" ]]; then
        rm -f "$tier1_log"
        echo "verify: tier-1 RED" >&2
        exit 1
    fi
    echo "verify: tier-1 is red; running the $mode tier anyway" >&2
fi
rm -f "$tier1_log"

if [[ "$mode" == "--hot" ]]; then
    # Every battery runs even when an earlier one fails; the failed
    # ones are listed at the end.
    hot_red=()
    # run_matches <pattern> <go test flags and packages...>: every
    # |-alternative of a -run pattern must name at least one test of the
    # packages (its top-level part, before any /), or the step would pass
    # having run nothing.
    run_matches() {
        local pattern="$1" alt listed
        shift
        listed=$(go test -list . "$@" | grep -E '^(Test|Fuzz|Example|Benchmark)') || return 1
        local IFS='|'
        for alt in $pattern; do
            if ! grep -qE -- "${alt%%/*}" <<<"$listed"; then
                echo "verify: -run alternative '$alt' matches no test in the step's packages" >&2
                return 1
            fi
        done
    }
    hot() {
        local name="$1" arg prev="" pattern="" list=()
        shift
        echo "== hot path: $name =="
        for arg in "$@"; do
            [[ "$prev" == "-run" ]] && pattern="$arg"
            [[ "$arg" == "-race" || "$arg" == ./* ]] && list+=("$arg")
            prev="$arg"
        done
        if [[ -n "$pattern" ]] && ! run_matches "$pattern" "${list[@]}"; then
            hot_red+=("$name (a -run alternative matches no test)")
            return
        fi
        "$@" || hot_red+=("$name")
    }
    hot "vet" go vet ./...
    hot "race hammer" go test -race ./internal/tensor ./internal/nn ./internal/algo ./internal/flnet
    hot "shard/quorum/sparse hammer" \
        go test -race -run 'Shard|Tree|Async|Quorum|Massive|SSFL|MaskPat|RawWeightWrite' \
        ./internal/algo ./internal/flnet ./internal/fl ./internal/nn ./internal/tensor
    hot "streaming-fold hammer" go test -race -count=1 -run 'Stream|Staging|Permutation' \
        ./internal/algo ./internal/fl ./internal/flnet
    hot "fused decode-fold kernel and run fold" \
        go test -race -count=1 -run 'AccumScaledLE|DenseView|ViewDense|DenseRunFold|DenseMalformed|DenseFoldMatchesSerialRef|ShardReserve|VecKernelsMatchRef|VecKernelsRaceHammer|VecF32LE|DenseBulkMatchesRef|FedAvgAccumulatorInvariant|EachStateRange' \
        ./internal/tensor ./internal/comm ./internal/algo ./internal/models
    hot "GEMM tile and conv routes" \
        go test -race -count=1 -run 'Gemm|AVX2Panel|MatMul|Im2Col|Col2Im|Conv2D|RawWeightWrite' \
        ./internal/tensor ./internal/nn
    hot "transposing lowering, row copies, BatchNorm lanes, client schedule, pool slots" \
        go test -race -count=1 \
        -run 'Im2ColPatchMatchesTranspose|CopyRows|ReLUGateOnOutput|BatchNormMatchesPerChannel|LongestFirst|ParallelClientsRuns|ParallelOfferSurvivesBacklog|ParallelLateHelperClaimsOnlyLiveChunks|SimRoundEqualAcrossGOMAXPROCS' \
        ./internal/tensor ./internal/nn ./internal/fl
    # Counts, not times; without -race, under which sync.Pool drops Puts.
    hot "allocation gates" \
        go test -count=1 -run 'ReuseHitAllocatesNothing|ParallelDispatchAllocatesNothing|TrainStepAllocationGate|ShortBatchStepAllocationGate|ReleasedUpdateAllocationGate|RolloutAllocationGate|EmitWithoutJournalAllocatesNothing|MassiveStragglerMemoryGate|FedAvgServerRoundAllocatesNothing|FedAvgMassiveFoldsAllocateNothing|SPATLServerRoundAllocatesNothing|SSFLServerRoundAllocatesNothing|FedNovaServerRoundAllocatesNothing|SCAFFOLDServerRoundAllocatesNothing|SPATLGreedyUpdateAllocationGate' \
        ./internal/tensor ./internal/models ./internal/prune ./internal/telemetry ./internal/fl ./internal/algo
    # What the selection agent and the SPATL server keep between rounds
    # must compute what a fresh build computes: the Env's refreshed graph,
    # the agent's refilled caches, the caller fold and span broadcast.
    hot "selection caches and SPATL caller fold" \
        go test -race -count=1 -run 'EnvStateMatchesFreshGraph|AgentCacheMatchesFresh|PPOUpdateAfterReusedForwards|PPOResetMatchesFresh|SPATLCallerFoldMatchesRef|SPATLBroadcastMatchesJoin' \
        ./internal/prune ./internal/rl ./internal/algo
    # A 32-bit int: a uint32 wire length converted as it stands turns
    # negative and passes a bounds check; the committed fuzz crashers
    # replay here.
    hot "tensor, comm and algo at GOARCH=386" env GOARCH=386 go test -count=1 ./internal/tensor ./internal/comm ./internal/algo
    # Layer buffers live for one pass and lanes share one pool: a released
    # buffer changes hands between goroutines. The pass memory gate counts
    # the bytes a pass holds and draws at once, never a time.
    hot "per-pass layer buffers" \
        go test -count=1 -run 'ReuseShapeChangeKeepsArray|ReleaseBetweenStepsIsBitwise|PassMemoryGate|SimRoundLeavesNoLayerBuffers' \
        ./internal/tensor ./internal/models ./internal/fl
    hot "models and eval under -race" go test -race -count=1 ./internal/models ./internal/eval
    hot "concurrent release hammer x10" \
        go test -race -count=10 -run 'ReleaseConcurrentLanes' ./internal/models
    hot "concurrent conv/linear hammer x10" \
        go test -race -count=10 -run 'ConvLinearConcurrentHammer' ./internal/nn
    # Episodes of a rollout score at once, each in its own slot, reading
    # one shared model.
    hot "selection agent under -race" go test -race -count=1 ./internal/rl ./internal/prune
    hot "concurrent episode hammer x10" \
        go test -race -count=10 -run 'EnvConcurrentSlotsHammer' ./internal/prune
    hot "bitwise extraction" \
        go test -count=1 -run 'ExtractEquivalence|WorkspaceReextraction|EnvAccuracyEvaluatedUnderMask|EnvStepRewardComponents' \
        ./internal/prune
    for procs in 1 2 4; do
        hot "determinism suites at GOMAXPROCS=$procs" \
            env GOMAXPROCS=$procs go test -count=1 \
            -run 'Deterministic|Conv2DImplicitMatchesLowered|ShardedReduce|PackedReduce|DegenerateEquivalence|DenseFoldMatchesSerialRef' \
            ./internal/nn ./internal/algo ./internal/fl ./internal/hetero ./internal/prune
        hot "transport equivalence suites at GOMAXPROCS=$procs" \
            env GOMAXPROCS=$procs go test -count=1 \
            -run 'CrossTransport|JournalDeterministic|QuorumOfAll|ProtocolViolations|RootReplyWalk' \
            ./internal/flnet
    done
    if (( ${#hot_red[@]} )); then
        echo "verify: hot-path batteries RED:" >&2
        printf '  %s\n' "${hot_red[@]}" >&2
        exit 1
    fi
fi

if [[ "$mode" == "--matrix" ]]; then
    echo "== matrix gate: golden 2x2x2 scenario matrix =="
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
    go run ./cmd/spatl-bench -matrix scripts/golden/matrix.json -out "$out" >/dev/null
    for g in scripts/golden/matrix/*.jsonl; do
        if ! diff -u "$g" "$out/$(basename "$g")"; then
            echo "verify: journal drift vs golden $(basename "$g")" >&2
            exit 1
        fi
    done
    ngold=$(ls scripts/golden/matrix/*.jsonl | wc -l)
    nout=$(ls "$out"/*.jsonl | wc -l)
    if [[ "$ngold" != "$nout" ]]; then
        echo "verify: cell count drift: ran $nout cells, goldens have $ngold" >&2
        exit 1
    fi
    echo "== matrix gate: $ngold cells byte-identical =="
fi

if [[ "$mode" == "--hetero" ]]; then
    echo "== hetero: vet =="
    go vet ./internal/hetero
    echo "== hetero: race hammer =="
    go test -race -count=1 ./internal/hetero
    echo "== hetero: equivalence suites =="
    go test -count=1 -run 'Degenerate|DeterministicAcross|HeteroCell' \
        ./internal/hetero ./internal/scenario
    go test -count=1 -run 'TestCrossTransportEquivalence/hetero' ./internal/flnet
    echo "== hetero: golden 2-cluster 3-width cell =="
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
    go run ./cmd/spatl-bench -matrix scripts/golden/hetero.json -out "$out" >/dev/null
    for g in scripts/golden/hetero/*.jsonl; do
        if ! diff -u "$g" "$out/$(basename "$g")"; then
            echo "verify: journal drift vs golden $(basename "$g")" >&2
            exit 1
        fi
    done
    echo "== hetero: $(ls scripts/golden/hetero/*.jsonl | wc -l) cells byte-identical =="
fi

if [[ "$mode" == "--paper" ]]; then
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
    go build -o "$out/spatl-bench" ./cmd/spatl-bench
    # The "[<id> done in <duration>]" lines are wall-clock; nothing else is.
    untimed() { grep -v '^\[.* done in .*\]$' "$1"; }
    for procs in 1 2; do
        echo "== paper gate: tiny suite at GOMAXPROCS=$procs =="
        dir="$out/csv$procs"
        GOMAXPROCS=$procs "$out/spatl-bench" -exp all -scale tiny -seed 1 -csv "$dir" >"$out/stdout$procs"
        if ! diff -u <(untimed results/tiny_all.txt) <(untimed "$out/stdout$procs"); then
            echo "verify: tiny suite stdout drift vs results/tiny_all.txt at GOMAXPROCS=$procs" >&2
            exit 1
        fi
        for g in results/csv_tiny/*.csv; do
            if ! diff -u "$g" "$dir/$(basename "$g")"; then
                echo "verify: CSV drift vs $g at GOMAXPROCS=$procs" >&2
                exit 1
            fi
        done
        ngold=$(ls results/csv_tiny/*.csv | wc -l)
        nout=$(ls "$dir"/*.csv | wc -l)
        if [[ "$ngold" != "$nout" ]]; then
            echo "verify: CSV count drift at GOMAXPROCS=$procs: wrote $nout, goldens have $ngold" >&2
            exit 1
        fi
    done
    echo "== paper gate: stdout and $ngold CSVs byte-identical at GOMAXPROCS 1 and 2 =="
fi

if [[ "$mode" == "--obs" ]]; then
    echo "== observability: race hammer =="
    go test -race ./internal/telemetry ./internal/flnet
fi

if [[ "$mode" == "--e2e" ]]; then
    parent="${2:-}"
    if [[ ! -f "$parent" ]]; then
        echo "verify: --e2e needs a parent result file (go run ./benchmark --out parent.json at the parent commit)" >&2
        exit 1
    fi
    out="${E2E_OUT:-$(mktemp --suffix=.json)}"
    echo "== e2e: all workloads, seed ${BENCH_SEED:-1} -> $out =="
    go run ./benchmark --seed "${BENCH_SEED:-1}" --out "$out"
    echo "== e2e: compare against $parent =="
    go run ./benchmark --compare "$parent" "$out"
fi

if [[ -n "$tier1_red" ]]; then
    echo "verify: ${mode} tier OK, but tier-1 is RED:" >&2
    echo "$tier1_red" >&2
    exit 1
fi
echo "verify: OK"
