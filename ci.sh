#!/usr/bin/env bash
# Tier-1 verification gate for the KunServe reproduction workspace,
# structured as named stages:
#
#   fmt     cargo fmt --check
#   build   release build, all targets
#   test    cargo test across the workspace
#   clippy  clippy with -D warnings
#   lint    simlint determinism & unsafe-memory pass (D-*/U-* rules):
#           zero unsuppressed diagnostics, report schema + budget gated
#   smoke   fig18 (main + donation legs), fig17 smokes: schema validation,
#           per-figure regression gates, and the wall-clock budget gate
#   scenarios  the fig19-fig22 scenario matrix (diurnal, cold-start storm,
#           shared prefix, failure storm) smokes: schema validation,
#           per-figure fidelity gates (KunServe beats vLLM p99 on every
#           leg, bounded prefix-recompute amplification), budget gate
#   gateway the fig24 online-gateway closed-loop smoke: ledger audits
#           asserted in-bin, then goodput/p99 tolerance and wall-clock
#           budget gates on the emitted JSON
#   scale   Cluster A fidelity lineup, serial vs. the parallel bench
#           harness (byte-identity asserted in-bin, speedup gated)
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

ALL_STAGES=(fmt build test clippy lint smoke scenarios gateway scale)
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
}

stage_test() {
    cargo test -q --workspace --offline
}

stage_clippy() {
    cargo clippy --workspace --all-targets --offline -- -D warnings
}

stage_lint() {
    local lint_json=target/simlint.json
    echo "--- simlint scan (determinism + unsafe-memory rules)"
    cargo run --release --offline -q -p simlint -- --json "$lint_json"
    echo "--- simlint report schema + cleanliness gate"
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        --simlint "$lint_json"
    echo "--- simlint wall-clock budget gate"
    cargo run --release --offline -q -p bench --bin check_bench_json -- \
        --budget crates/bench/tolerances/ci_budget.json "$lint_json"
}

stage_smoke() {
    local smoke_json=target/bench-json/fig18_smoke.json
    local donation_json=target/bench-json/fig18_donation.json
    local fig17_json=target/bench-json/fig17_smoke.json

    echo "--- fig18 multi-model smoke (main leg only: the donation gate runs its own leg)"
    cargo run --release --offline -q -p bench --bin fig18_multi_model -- \
        --smoke --legs main --json "$smoke_json"

    echo "--- fig18 donation-granularity ablation (donation leg only)"
    cargo run --release --offline -q -p bench --bin fig18_multi_model -- \
        --smoke --legs donation --donation-json "$donation_json"

    echo "--- fig17 extreme-burst smoke"
    cargo run --release --offline -q -p bench --bin fig17_extreme_burst -- \
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
        cargo run --release --offline -q -p bench --bin "$fig" -- \
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
    cargo run --release --offline -q -p bench --bin fig24_gateway -- \
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
    cargo run --release --offline -q -p bench --bin paper_scale_parallel -- \
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
