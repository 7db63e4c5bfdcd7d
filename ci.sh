#!/usr/bin/env sh
# Local CI gate. Run from the repo root before sending a change out:
#
#   ./ci.sh          # fmt check + clippy + tier-1 build/test
#   ./ci.sh quick    # skip the release build, debug tests only; the
#                    # frozen benchmark is type-checked, not run
#   ./ci.sh pairs <base-ref> <workload> [pairs=10]
#                    # measure a change against a commit (no gates run)
#
# Tier-1 (ROADMAP.md): `cargo build --release && cargo test -q` must pass.
set -eu

cd "$(dirname "$0")"

say() { printf '\n== %s ==\n' "$1"; }

# The measurement rule as one command (ROADMAP "alternated parent/change
# pairs"): build the benchmark of <base-ref> and of the working tree, run
# the workload's timed pass on each, alternately, the side that goes first
# alternating too, and print every pair's wall_s, each side's median and
# quartiles, and who won. A gain counts when the change wins at least nine
# tenths of the pairs and the medians differ by more than the distance
# between the base's own quartiles. Writes only under target/.
pairs() {
    usage="usage: ./ci.sh pairs <base-ref> <workload> [pairs=10]"
    base_ref="${1:?$usage}"
    workload="${2:?$usage}"
    count="${3:-10}"
    [ "$count" -ge 1 ] 2>/dev/null || { echo "$usage" >&2; exit 2; }
    root="$PWD/target/pairs"
    mkdir -p "$root"
    git worktree remove --force "$root/base" 2>/dev/null || true
    git worktree add --detach "$root/base" "$base_ref" >/dev/null
    trap 'git worktree remove --force "$root/base"' EXIT
    say "pairs: building $base_ref and the working tree"
    cargo build --release --locked --manifest-path "$root/base/benchmark/Cargo.toml" \
        --target-dir "$root/base-target"
    cargo build --release --locked --manifest-path benchmark/Cargo.toml \
        --target-dir "$root/change-target"
    # One timed pass from the checkout it was built from; its last output
    # line is the result object.
    wall_s() {
        w="$(cd "$1" && "$root/$2-target/release/benchmark" run \
            --workload "$workload" --seed 1 --trace 0 \
            | sed -n '$s/.*"wall_s":{"value":\([0-9.eE+-]*\).*/\1/p')"
        [ -n "$w" ] || { echo "no wall_s from the $2 side's timed pass" >&2; exit 1; }
        echo "$w"
    }
    say "pairs: $workload, wall_s, $count pairs, base = $base_ref"
    printf '%-5s %-7s %12s %12s\n' pair first base change
    i=1
    : >"$root/walls"
    while [ "$i" -le "$count" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            first=base
            b="$(wall_s "$root/base" base)"
            c="$(wall_s "$PWD" change)"
        else
            first=change
            c="$(wall_s "$PWD" change)"
            b="$(wall_s "$root/base" base)"
        fi
        printf '%-5s %-7s %12.4f %12.4f\n' "$i" "$first" "$b" "$c"
        echo "$b $c" >>"$root/walls"
        i=$((i + 1))
    done
    awk '
        function at(v, n, p,    x, lo) {
            x = 1 + (n - 1) * p; lo = int(x)
            return lo >= n ? v[n] : v[lo] + (x - lo) * (v[lo + 1] - v[lo])
        }
        function sorted(v, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        }
        { n++; b[n] = $1; c[n] = $2
          if ($2 < $1) won++; else if ($1 < $2) lost++; else ties++ }
        END {
            sorted(b, n); sorted(c, n)
            printf "base    median %.4f  q1 %.4f  q3 %.4f\n", at(b, n, .5), at(b, n, .25), at(b, n, .75)
            printf "change  median %.4f  q1 %.4f  q3 %.4f\n", at(c, n, .5), at(c, n, .25), at(c, n, .75)
            printf "change wins %d, base wins %d, ties %d of %d pairs; change/base medians %.3f\n",
                won, lost, ties, n, at(c, n, .5) / at(b, n, .5)
            gain = won >= 0.9 * n && at(b, n, .5) - at(c, n, .5) > at(b, n, .75) - at(b, n, .25)
            print (gain ? "a gain by the rule" : "not a gain by the rule")
        }' "$root/walls"
}

if [ "${1:-}" = "pairs" ]; then
    shift
    pairs "$@"
    exit 0
fi

say "rustfmt (check only)"
cargo fmt --check

say "clippy, warnings are errors"
cargo clippy --workspace --all-targets -- -D warnings

say "rustdoc, warnings are errors"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

say "empower-lint (determinism & concurrency gate)"
# Domain lints (D001-D011, DESIGN.md §7 and §12): hash containers,
# wall-clock time, ambient-entropy RNGs, partial_cmp().unwrap(), library
# panics, missing #![forbid(unsafe_code)], plus the workspace-aware
# concurrency-determinism rules (mpsc merges, relaxed RMWs, detached
# spawns, hot-path locks, undeclared EMPOWER_* knobs). A finding is
# tolerated only by an in-place `allow(Dxxx) — reason` pragma; the
# SARIF-style report is archived as a CI artifact in both modes.
ART_DIR="${EMPOWER_CI_ARTIFACT_DIR:-target/ci-artifacts}"
mkdir -p "$ART_DIR"
cargo run -q -p empower-lint -- --sarif "$ART_DIR/empower-lint.sarif"
echo "lint artifact: $ART_DIR/empower-lint.sarif"

if [ "${1:-}" = "quick" ]; then
    say "tests (debug, equivalence corpora trimmed)"
    # The §3.2 equivalence property test sweeps 50 random topologies by
    # default; 12 keep the quick loop fast while still crossing both
    # topology classes and the restricted-medium query. The simulator
    # engine-equivalence corpus is likewise trimmed to its Fig. 1 prefix
    # plus the first dynamics scenarios, and the workload replay/cross-
    # engine gate to its first scenario; CI's full mode runs everything.
    # --workspace (also the root manifest's default-members): the member-
    # crate gates run too (sim equivalence corpus and hot-path budgets,
    # datapath graph tests, bench determinism tests).
    EMPOWER_EQUIV_TOPOLOGIES=12 EMPOWER_SIM_EQUIV_SCENARIOS=14 \
        EMPOWER_WORKLOAD_SCENARIOS=1 \
        cargo test -q --workspace
    say "benchmark: frozen package still compiles against the crates"
    # A PR that deletes or renames a public item learns here, not only in
    # the full lane, that benchmark/ (which no PR may edit) still builds.
    cargo check --locked --manifest-path benchmark/Cargo.toml
else
    say "tier-1: release build"
    # --workspace spelled out on both (it is also the root manifest's
    # default-members): every member crate's gates run, not only the root
    # package's integration tests.
    cargo build --release --workspace
    say "tier-1: tests"
    cargo test -q --release --workspace
    say "benchmark: frozen package still builds, runs (smoke) and passes its tests"
    # benchmark/ is a package of its own that compiles against the crates'
    # public items; a crate-API or crate-graph change that breaks it must
    # fail here, not in the benchmark pipeline. --locked is the check that
    # benchmark/Cargo.lock still matches the crate graph. Writes only to
    # the git-ignored benchmark/target and benchmark/out.
    cargo build --release --locked --manifest-path benchmark/Cargo.toml
    cargo run --release --locked --quiet --manifest-path benchmark/Cargo.toml \
        -- run --smoke >/dev/null
    # The package's own unit tests (the tables in BENCHMARK.json and its
    # README repeat the code's, replay = entry point, ...).
    cargo test -q --locked --manifest-path benchmark/Cargo.toml
fi

if [ "${EMPOWER_MIRI:-}" = "1" ]; then
    # Optional deep lane: run the one executor under miri, so the static
    # concurrency rules (D007-D010) get a dynamic cross-check.
    # Requires a nightly toolchain with the miri component; skipped (with
    # a notice) when absent so the lane can be enabled fleet-wide.
    if cargo miri --version >/dev/null 2>&1; then
        say "miri: empower-exec (EMPOWER_MIRI=1)"
        cargo miri test -p empower-exec
    else
        say "miri lane requested but the miri toolchain is absent — skipped"
    fi
fi

say "scenario smoke test (determinism)"
# Run the example scenario twice; the manifests must be byte-identical.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
if [ "${1:-}" = "quick" ]; then
    EMPOWER="cargo run -q --bin empower --"
else
    EMPOWER=target/release/empower
fi
$EMPOWER scenario run examples/fig12_drop.toml \
    --metrics "$SMOKE_DIR/a.json" >/dev/null
$EMPOWER scenario run examples/fig12_drop.toml \
    --metrics "$SMOKE_DIR/b.json" >/dev/null
cmp "$SMOKE_DIR/a.json" "$SMOKE_DIR/b.json" \
    || { echo "scenario manifests differ between identical runs" >&2; exit 1; }

say "workload smoke test (determinism)"
# Same two-run byte-comparison for the workload DSL's CLI entry point.
$EMPOWER workload run examples/workload_enterprise_rr.toml \
    --metrics "$SMOKE_DIR/wa.json" >/dev/null
$EMPOWER workload run examples/workload_enterprise_rr.toml \
    --metrics "$SMOKE_DIR/wb.json" >/dev/null
cmp "$SMOKE_DIR/wa.json" "$SMOKE_DIR/wb.json" \
    || { echo "workload manifests differ between identical runs" >&2; exit 1; }

if [ "${EMPOWER_SKIP_NET:-}" = "1" ]; then
    say "udp loopback smoke test skipped (EMPOWER_SKIP_NET=1)"
else
    say "udp loopback smoke test (forwarding graph over real sockets)"
    # Two OS processes forward 64 real EMPoWER frames over 127.0.0.1
    # through the same graph nodes the simulator drives (DESIGN.md §10).
    # Sandboxes without loopback sockets can set EMPOWER_SKIP_NET=1.
    if [ "${1:-}" = "quick" ]; then
        UDP_FWD="cargo run -q -p empower-datapath --example udp_forward --"
    else
        cargo build -q --release -p empower-datapath --example udp_forward
        UDP_FWD=target/release/examples/udp_forward
    fi
    # Port 0 = OS-assigned ephemeral port (no collisions between parallel
    # CI jobs); the receiver's `listening` line advertises the real
    # address. EMPOWER_UDP_PORT pins a fixed port when needed.
    UDP_ADDR="127.0.0.1:${EMPOWER_UDP_PORT:-0}"
    RECV_LOG="$SMOKE_DIR/udp_recv.log"
    $UDP_FWD recv "$UDP_ADDR" >"$RECV_LOG" 2>&1 &
    RECV_PID=$!
    # Wait until the receiver owns the socket before offering frames.
    i=0
    until grep -q '^listening' "$RECV_LOG" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "udp receiver never came up:" >&2
            cat "$RECV_LOG" >&2
            kill "$RECV_PID" 2>/dev/null || true
            exit 1
        fi
        sleep 0.1
    done
    # The bound address (with the discovered port) is what the sender must
    # target, not the possibly-port-0 bind request.
    UDP_PEER="$(sed -n 's/^listening //p' "$RECV_LOG" | head -n 1)"
    [ -n "$UDP_PEER" ] \
        || { echo "udp receiver printed no bound address:" >&2; cat "$RECV_LOG" >&2; exit 1; }
    $UDP_FWD send "$UDP_PEER" >/dev/null
    wait "$RECV_PID" \
        || { echo "udp receiver failed:" >&2; cat "$RECV_LOG" >&2; exit 1; }
    grep -q 'delivered 64 of 64 frames, in order: yes' "$RECV_LOG" \
        || { echo "udp loopback delivery check failed:" >&2; cat "$RECV_LOG" >&2; exit 1; }
    grep -q 'route prices \[Some(0.25), Some(0.5)\]' "$RECV_LOG" \
        || { echo "udp loopback ack price check failed:" >&2; cat "$RECV_LOG" >&2; exit 1; }
fi

say "ci.sh: all gates passed"
