#!/usr/bin/env bash
# Tier-1 verification gate for the KunServe reproduction workspace,
# structured as named stages:
#
#   fmt     cargo fmt --check
#   build   release build, all targets, then the frozen benchmark
#           (perfbench/, its own workspace): neither may print a warning
#   bench   one pass of each perfbench workload (burst_lineup,
#           calm_prefix, gateway_zoo) and a second burst_lineup pass at
#           seed 7: echoes the behaviour digests, fails unless they equal
#           PINNED_DIGESTS and PINNED_DIGESTS_SEED7 below and every run
#           reports "correct": true with "failed": 0
#   test    cargo test across the workspace
#   clippy  clippy with -D warnings: the workspace lints (Cargo.toml)
#           and the determinism lints (clippy.toml)
#   smoke   fig18_multi_model, fig18_donation and fig17 smokes: schema
#           validation, per-figure regression gates, and the wall-clock
#           budget gate
#   scenarios  the fig19-fig23 scenario matrix (diurnal, cold-start storm,
#           shared prefix, failure storm, cascading recovery) smokes:
#           schema validation, per-figure fidelity gates (KunServe beats
#           vLLM p99 on every leg, bounded prefix-recompute amplification),
#           budget gate
#   gateway the fig24 online-gateway closed-loop smoke: ledger audits
#           asserted in the figure, then goodput/p99 tolerance and
#           wall-clock budget gates on the emitted JSON
#   scale   Cluster A fidelity lineup, serial vs. the parallel bench
#           harness (byte-identity asserted in the figure, speedup gated)
#
# Every figure runs through the one scenario driver,
# `cargo run -p bench --bin figs -- <figure> [--smoke] [--threads N] [--json PATH]`.
#
# Usage: ./ci.sh [stage...]   (no args = every stage, in the order above)
#
# Each stage is timed; a machine-readable summary is written to
# target/ci-timings.json on exit (including on failure, with the failing
# stage marked ok=false).
#
# Everything runs offline: external deps (rand, proptest, criterion) are
# vendored as shim crates under vendor/, so no crates.io access is needed.
set -euo pipefail
cd "$(dirname "$0")"

ALL_STAGES=(fmt build bench test clippy smoke scenarios gateway scale)
TIMINGS_JSON=target/ci-timings.json
STAGE_NAMES=()
STAGE_MS=()
STAGE_OK=()
CI_START_MS=$(($(date +%s%N) / 1000000))

write_timings() {
    mkdir -p "$(dirname "$TIMINGS_JSON")"
    local total_ms=$((($(date +%s%N) / 1000000) - CI_START_MS))
    {
        printf '{\n  "stages": [\n'
        local i
        for i in "${!STAGE_NAMES[@]}"; do
            printf '    {"stage": "%s", "wall_clock_ms": %s, "ok": %s}%s\n' \
                "${STAGE_NAMES[$i]}" "${STAGE_MS[$i]}" "${STAGE_OK[$i]}" \
                "$([ "$i" -lt $((${#STAGE_NAMES[@]} - 1)) ] && echo ',')"
        done
        # threads_available lets the timing consumers (and the speedup
        # gate post-mortem) tell a degraded 1-core run from a real one.
        printf '  ],\n  "total_wall_clock_ms": %s,\n  "threads_available": %s\n}\n' \
            "$total_ms" "$(nproc 2>/dev/null || echo 1)"
    } > "$TIMINGS_JSON"
    echo "==> timings: $TIMINGS_JSON"
}
trap write_timings EXIT

run_stage() {
    local name=$1
    echo "==> stage: $name"
    local start_ms=$(($(date +%s%N) / 1000000))
    local ok=true
    # Run the stage in a subshell OUTSIDE any `||`/`if` context: errexit
    # is suppressed inside conditionally-invoked functions, which would
    # let a failing middle command of a multi-command stage go unnoticed
    # as long as the stage's last command passes.
    set +e
    (
        set -e
        "stage_$name"
    )
    local status=$?
    set -e
    [ "$status" -eq 0 ] || ok=false
    local elapsed=$((($(date +%s%N) / 1000000) - start_ms))
    STAGE_NAMES+=("$name")
    STAGE_MS+=("$elapsed")
    STAGE_OK+=("$ok")
    echo "==> stage: $name done in ${elapsed} ms"
    [ "$ok" = true ]
}

stage_fmt() {
    cargo fmt --check
}

stage_build() {
    cargo build --release --workspace --all-targets --offline
    echo "--- frozen benchmark build (path dependencies on the crates)"
    local log
    log=$(cargo build --release --offline --manifest-path perfbench/Cargo.toml \
        --target-dir target/perfbench 2>&1) || {
        printf '%s\n' "$log"
        return 1
    }
    printf '%s\n' "$log"
    if grep -q 'warning:' <<<"$log"; then
        echo "ci.sh: the perfbench build printed warnings" >&2
        return 1
    fi
}

# The behaviour fingerprint: every `digest <system> <hex>` line perfbench
# prints at each workload's default seed, prefixed with the workload. A
# change that moves behaviour on purpose (such as a new pipeline model)
# updates these lists and says why in CHANGES.md.
PINNED_DIGESTS='burst_lineup vLLM (DP) b91fba762df11a93
burst_lineup vLLM (PP) 7fefc6ed5a5b3252
burst_lineup InferCept f74d1a86053d9d60
burst_lineup Llumnix a6ac48c450f5287c
burst_lineup KunServe 21e4d96e651f2976
calm_prefix KunServe 09868ce82b27c2ed
calm_prefix vLLM (DP) 09868ce82b27c2ed
gateway_zoo KunServe 37260d67ae19a029
gateway_zoo vLLM (DP) c1413c5f23353fff'

# burst_lineup is the only workload with pipelined groups (vLLM (PP) from
# the start, KunServe after a drop); a second trace fingerprints them.
PINNED_DIGESTS_SEED7='burst_lineup vLLM (DP) ce1476e18ced16d2
burst_lineup vLLM (PP) 1bb83cce48429cad
burst_lineup InferCept 21dfc9b4e6dbe43d
burst_lineup Llumnix 025f87cffd1e2d22
burst_lineup KunServe e105030c5e944d1f'

# check_digests <pinned> <seed, or empty for the default> <workload>...:
# one `--seconds 0` perfbench pass per workload; fails unless every run
# reports "correct": true with "failed": 0 and the printed digest lines,
# prefixed with their workload, equal <pinned>.
check_digests() {
    local pinned=$1 seed=$2
    shift 2
    local extra=() label=""
    [ -z "$seed" ] || { extra=(--seed "$seed"); label=" --seed $seed"; }
    local w out printed=()
    for w in "$@"; do
        echo "--- perfbench ${w}${label}"
        out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml \
            --target-dir target/perfbench -- --workload "$w" --seconds 0 "${extra[@]}")
        grep '^digest' <<<"$out"
        if ! grep -q '"correct": true' <<<"$out" || ! grep -q '"failed": 0,' <<<"$out"; then
            printf '%s\n' "$out" >&2
            echo "ci.sh: perfbench ${w}${label} did not report a correct run without failures" >&2
            return 1
        fi
        mapfile -t -O "${#printed[@]}" printed < <(
            grep '^digest' <<<"$out" | sed "s/^digest /${w} /; s/ finished=.*//")
    done
    local got
    got=$(printf '%s\n' "${printed[@]}")
    if [ "$got" != "$pinned" ]; then
        printf -- '--- pinned digests\n%s\n--- printed digests\n%s\n' \
            "$pinned" "$got" >&2
        echo "ci.sh: the behaviour digests${label} moved from the pinned list" >&2
        return 1
    fi
}

stage_bench() {
    check_digests "$PINNED_DIGESTS" "" burst_lineup calm_prefix gateway_zoo
    check_digests "$PINNED_DIGESTS_SEED7" 7 burst_lineup
}

stage_test() {
    cargo test -q --workspace --offline
}

stage_clippy() {
    cargo clippy --workspace --all-targets --offline -- -D warnings
}

stage_smoke() {
    local smoke_json=target/bench-json/fig18_smoke.json
    local donation_json=target/bench-json/fig18_donation.json
    local fig17_json=target/bench-json/fig17_smoke.json

    echo "--- fig18 multi-model smoke"
    cargo run --release --offline -q -p bench --bin figs -- fig18_multi_model \
        --smoke --json "$smoke_json"

    echo "--- fig18 donation-granularity ablation smoke"
    cargo run --release --offline -q -p bench --bin figs -- fig18_donation \
        --smoke --json "$donation_json"

    echo "--- fig17 extreme-burst smoke"
    cargo run --release --offline -q -p bench --bin figs -- fig17_extreme_burst \
        --smoke --json "$fig17_json"

    echo "--- bench-JSON schema validation"
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        --schema "$smoke_json" "$donation_json" "$fig17_json"

    echo "--- regression gates"
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        "$smoke_json" crates/bench/tolerances/fig18_smoke.json
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        "$donation_json" crates/bench/tolerances/fig18_donation.json
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        "$fig17_json" crates/bench/tolerances/fig17_smoke.json

    echo "--- tier-1 wall-clock budget gate"
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        --budget crates/bench/tolerances/ci_budget.json \
        "$smoke_json" "$donation_json" "$fig17_json"
}

stage_scenarios() {
    local figs=(fig19_diurnal fig20_coldstart_storm fig21_shared_prefix fig22_failure_storm fig23_cascading_recovery)
    local tols=(fig19_smoke fig20_smoke fig21_smoke fig22_smoke fig23_smoke)
    local jsons=()
    local i
    for i in "${!figs[@]}"; do
        local fig=${figs[$i]}
        local json=target/bench-json/${fig}.json
        jsons+=("$json")
        echo "--- ${fig} smoke"
        cargo run --release --offline -q -p bench --bin figs -- "$fig" \
            --smoke --threads 2 --json "$json"
    done

    echo "--- bench-JSON schema validation"
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        --schema "${jsons[@]}"

    echo "--- scenario fidelity gates"
    for i in "${!figs[@]}"; do
        cargo run --release --offline -q -p bench --bin check_bench_json -- \
            "${jsons[$i]}" "crates/bench/tolerances/${tols[$i]}.json"
    done

    echo "--- tier-1 wall-clock budget gate"
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        --budget crates/bench/tolerances/ci_budget.json "${jsons[@]}"
}

stage_gateway() {
    local json=target/bench-json/fig24_gateway.json
    echo "--- fig24 gateway closed-loop smoke"
    cargo run --release --offline -q -p bench --bin figs -- fig24_gateway \
        --smoke --json "$json"
    echo "--- bench-JSON schema validation"
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        --schema "$json"
    echo "--- gateway goodput/p99 gate"
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        "$json" crates/bench/tolerances/fig24_smoke.json
    echo "--- tier-1 wall-clock budget gate"
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        --budget crates/bench/tolerances/ci_budget.json "$json"
}

stage_scale() {
    local ps_json=target/bench-json/paper_scale_parallel.json
    cargo run --release --offline -q -p bench --bin figs -- paper_scale_parallel \
        --threads 4 --json "$ps_json"
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        --schema "$ps_json"
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        "$ps_json" crates/bench/tolerances/paper_scale.json
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        --budget crates/bench/tolerances/ci_budget.json "$ps_json"
}

STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
    STAGES=("${ALL_STAGES[@]}")
fi
for s in "${STAGES[@]}"; do
    case " ${ALL_STAGES[*]} " in
        *" $s "*) ;;
        *) echo "ci.sh: unknown stage \`$s\` (known: ${ALL_STAGES[*]})" >&2; exit 2 ;;
    esac
done

for s in "${STAGES[@]}"; do
    run_stage "$s"
done

echo "==> OK: all stages passed (${STAGES[*]})"
