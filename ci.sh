#!/usr/bin/env bash
# Tier-1 verification gate for the KunServe reproduction workspace,
# structured as named stages:
#
#   fmt     cargo fmt --check
#   build   release build, all targets, then the frozen benchmark
#           (perfbench/, its own workspace): both with --locked, so a
#           stale Cargo.lock or perfbench/Cargo.lock fails instead of
#           being rewritten, and neither may print a warning
#   bench   one pass of each perfbench workload (burst_lineup,
#           calm_prefix, gateway_zoo) and a second burst_lineup pass at
#           seed 7: echoes the behaviour digests, fails unless they equal
#           PINNED_DIGESTS and PINNED_DIGESTS_SEED7 below, every run
#           reports "correct": true with "failed": 0, and the gateway_zoo
#           pass peaks below GATEWAY_ZOO_RSS_CEILING_MB
#   test    cargo test across the workspace
#   clippy  fails naming the file and line of any determinism-lint
#           exemption (`clippy::disallowed_types`) in the simulation
#           crates' non-test code, then runs clippy with -D warnings: the
#           workspace lints (Cargo.toml) and the determinism lints
#           (clippy.toml)
#   doc     cargo doc for the workspace with rustdoc warnings denied, so
#           an intra-doc link to an item that no longer exists fails
#           (neither build nor clippy checks doc links)
#   gate    `figs --gate`: every gated figure (fig17, both fig18
#           documents and fig19-fig24, at smoke scale) in one process;
#           each document is checked against the bench-JSON schema, its
#           tolerance file and its wall-clock budget
#           (crates/bench/tolerances/, compiled into the registry), and the
#           stage fails naming every failed check
#   size    prints the size of the non-test code, `size <crate> <lines>`
#           per crate and `size total <lines>`; never fails
#
# Every figure runs through the one scenario driver,
# `cargo run -p bench --bin figs -- <figure> [--smoke] [--threads N] [--json PATH]`
# or `-- --gate [<figure>] [--threads N]`.
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

ALL_STAGES=(fmt build bench test clippy doc gate size)
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
        # threads_available puts the stage times in context: the same
        # stages take longer on a 1-core host than on a larger one.
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
    cargo build --release --workspace --all-targets --offline --locked
    echo "--- frozen benchmark build (path dependencies on the crates)"
    local log
    log=$(cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml \
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

# The engine's memory is constant per iteration, so one gateway_zoo pass
# (a 60 s session, about 455k iterations) stays small: it reads about
# 6.5 MB. Keeping one sample per iteration again would add about 14.5 MB
# per simulated minute and cross this ceiling.
GATEWAY_ZOO_RSS_CEILING_MB=16

# check_rss_ceiling <perfbench output> <ceiling MB>: prints the pass's
# peak_rss_mb and fails when it is above the ceiling.
check_rss_ceiling() {
    local rss
    rss=$(sed -n 's/^metric peak_rss_mb = \([0-9.]*\) MB$/\1/p' <<<"$1")
    echo "peak_rss_mb ${rss:-missing} MB (ceiling $2 MB)"
    if ! awk -v rss="$rss" -v max="$2" 'BEGIN { exit !(rss != "" && rss <= max) }'; then
        echo "ci.sh: peak_rss_mb ${rss:-missing} is above the $2 MB ceiling" >&2
        return 1
    fi
}

# check_digests <pinned> <seed, or empty for the default> <workload>...:
# one `--seconds 0` perfbench pass per workload; fails unless every run
# reports "correct": true with "failed": 0 and the printed digest lines,
# prefixed with their workload, equal <pinned>. The default-seed
# gateway_zoo pass must also stay under its memory ceiling.
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
        if [ "${w}${label}" = gateway_zoo ]; then
            check_rss_ceiling "$out" "$GATEWAY_ZOO_RSS_CEILING_MB"
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

# The determinism lints (clippy.toml) hold without exception in the
# simulation's non-test code: the lines of each file under crates/*/src
# before its first `#[cfg(test)]`. crates/bench allows them in its
# manifest. Prints the file and line of every exemption found there.
check_no_lint_exemptions() {
    local found
    found=$(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort |
        xargs awk '/#\[cfg\(test\)\]/ { nextfile }
            /clippy::disallowed_types/ { print FILENAME ":" FNR ": " $0 }')
    if [ -n "$found" ]; then
        printf '%s\n' "$found" >&2
        echo "ci.sh: the simulation's non-test code exempts itself from a determinism lint" >&2
        return 1
    fi
}

stage_clippy() {
    check_no_lint_exemptions
    cargo clippy --workspace --all-targets --offline -- -D warnings
}

stage_doc() {
    RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline --locked
}

stage_gate() {
    cargo run --release --offline -q -p bench --bin figs -- --gate
}

# The size of the non-test code: the non-blank lines that are not `//`
# comments, before the first `#[cfg(test)]` of each .rs file under
# crates/*/src and src, leaving out crates/bench/src/bin (the umbrella
# crate's src counts as `src`).
stage_size() {
    find crates/*/src src -name '*.rs' -not -path 'crates/bench/src/bin/*' | sort |
        xargs awk '
            /#\[cfg\(test\)\]/ { nextfile }
            /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
            {
                split(FILENAME, part, "/")
                lines[part[1] == "src" ? "src" : part[2]]++
                total++
            }
            END {
                for (c in lines) printf "size %s %d\n", c, lines[c] | "sort"
                close("sort")
                printf "size total %d\n", total
            }'
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
