#!/usr/bin/env sh
# Local CI gate. Run from the repo root before sending a change out:
#
#   ./ci.sh          # fmt check + clippy + tier-1 build/test
#   ./ci.sh quick    # skip the release build, debug tests only; the
#                    # frozen benchmark is type-checked, not run
#   ./ci.sh pairs <base-ref> <workload|all> [pairs=10]
#                    # measure a change against a commit (no gates run);
#                    # `all` measures every workload of BENCHMARK.json in turn
#   ./ci.sh identical <base-ref>
#                    # byte-identity of a refactor: every figure at --quick
#                    # (stdout, manifest and --json rows) and every
#                    # examples/*.toml under `scenario run` and `workload run`
#                    # (stdout and manifest), against <base-ref>;
#                    # names each file that differs and exits 1 if any does
#   ./ci.sh lines [<base-ref>]
#                    # Rust lines without blanks and comments, per crate and
#                    # in total, non-test code and test code apart; with a
#                    # ref, the same for it beside the working tree's
#   ./ci.sh mutants  # every mutants/*.patch applies to an export of the
#                    # working tree and fails the test it names
#
# Tier-1 (ROADMAP.md): `cargo build --release && cargo test -q` must pass.
set -eu

cd "$(dirname "$0")"

say() { printf '\n== %s ==\n' "$1"; }

# The measurement rule as one command (ROADMAP "alternated parent/change
# pairs"): build the benchmark of <base-ref> and of the working tree, run
# the workload's timed pass on each, alternately, the side that goes first
# alternating too, and print every pair's end-to-end metrics (all of
# BENCHMARK.json's `end_to_end`, not only wall_s) and the digest of its
# renderings (`DIGEST DIFFERS` where base and change disagree, so a
# byte-identical claim is checked by the run that measures it), each side's medians and
# quartiles, who won on wall_s, and a flag per metric by the rule of the
# benchmark's own `compare`. A metric is UNRESOLVED when either side's
# (q3 - q1) / median exceeds its declared bound and the sides overlap; it
# is REGRESSED when the change median is worse than the base median by
# more than the bound and, if a side is that noisy, every change run is
# worse than every base run. A gain counts when at least 10 pairs ran, the change wins at least
# nine tenths of them on wall_s and the wall_s medians differ by more than
# the distance between the base's own quartiles. With `all` for the
# workload, both sides are built once and every workload BENCHMARK.json
# names gets its pairs and verdict in turn, so a change that claims one
# workload is also checked on the others. Writes only under target/.
pairs() {
    usage="usage: ./ci.sh pairs <base-ref> <workload|all> [pairs=10]"
    base_ref="${1:?$usage}"
    workloads="${2:?$usage}"
    count="${3:-10}"
    [ "$count" -ge 1 ] 2>/dev/null || { echo "$usage" >&2; exit 2; }
    root="$PWD/target/pairs"
    # The base is a plain export of <base-ref>, not a worktree: a leftover
    # from an earlier or killed run (a traced base pass writes under its
    # own benchmark/out) is simply replaced, and .git is never touched.
    git rev-parse --verify --quiet "$base_ref^{commit}" >/dev/null \
        || { echo "pairs: unknown base ref $base_ref" >&2; exit 2; }
    rm -rf "$root/base"
    mkdir -p "$root/base"
    trap 'rm -rf "$root/base"' EXIT
    # -m: the files get the extraction time, not the commit time. Cargo
    # decides freshness by mtime, so with commit times an export of an
    # older commit than the last one built here looked up to date, and the
    # base side ran the previous base's binary.
    git archive "$base_ref" | tar -x -m -C "$root/base"
    say "pairs: building $base_ref and the working tree"
    cargo build --release --locked --manifest-path "$root/base/benchmark/Cargo.toml" \
        --target-dir "$root/base-target"
    cargo build --release --locked --manifest-path benchmark/Cargo.toml \
        --target-dir "$root/change-target"
    # The end-to-end metrics as "name better bound" lines, straight from
    # the working tree's BENCHMARK.json. wall_s must come first: the wins
    # and the gain rule below read column one.
    tr '{},' '\n\n\n' <BENCHMARK.json | awk -F'"' '
        $2 == "end_to_end" { on = 1 }
        $2 == "per_layer" { on = 0 }
        on && $2 == "name" { name = $4 }
        on && $2 == "better" { better = $4 }
        on && $2 == "bound" { sub(/^[: ]*/, "", $3); print name, better, $3 }
    ' >"$root/metrics"
    names="$(awk '{ print $1 }' "$root/metrics")"
    if [ "$workloads" = all ]; then
        workloads="$(tr '{},' '\n\n\n' <BENCHMARK.json | awk -F'"' '
            $2 == "workloads" { on = 1 }
            $2 == "end_to_end" { on = 0 }
            on && $2 == "name" { print $4 }
        ')"
    fi
    [ "$(echo "$names" | head -n 1)" = wall_s ] \
        || { echo "BENCHMARK.json: end_to_end must start with wall_s" >&2; exit 1; }
    # One timed pass from the checkout it was built from; its last output
    # line is the result object. Prints the metrics' values in $names order
    # and leaves the digest of the pass's renderings, read from its summary
    # line, in $root/digest.<side>.
    pass() {
        out="$(cd "$1" && "$root/$2-target/release/benchmark" run \
            --workload "$workload" --seed 1 --trace 0)"
        line="$(echo "$out" | tail -n 1)"
        echo "$out" | sed -n 's/.*(timed pass):.* digest \([0-9a-f]*\)$/\1/p' >"$root/digest.$2"
        [ -s "$root/digest.$2" ] || { echo "no digest from the $2 side's timed pass" >&2; exit 1; }
        for m in $names; do
            v="$(echo "$line" | sed -n "s/.*\"$m\":{\"value\":\([0-9.eE+-]*\).*/\1/p")"
            [ -n "$v" ] || { echo "no $m from the $2 side's timed pass" >&2; exit 1; }
            printf '%s ' "$v"
        done
    }
    for workload in $workloads; do
        pairs_of "$workload"
    done
}

# The alternated pairs and the verdict for one workload; `pairs` sets
# $root, $names, $count and $base_ref and defines `pass`.
pairs_of() {
    workload="$1"
    say "pairs: $workload, $count pairs, base = $base_ref"
    printf '%-5s %-7s' pair first
    for m in $names; do printf ' %14s %14s' "$m.base" "$m.change"; done
    echo
    i=1
    differs=0
    : >"$root/runs"
    while [ "$i" -le "$count" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            first=base
            b="$(pass "$root/base" base)"
            c="$(pass "$PWD" change)"
        else
            first=change
            c="$(pass "$PWD" change)"
            b="$(pass "$root/base" base)"
        fi
        # One line per pair: the base's values, then the change's.
        echo "$b$c" >>"$root/runs"
        printf '%-5s %-7s' "$i" "$first"
        echo "$b$c" | awk '{ k = NF / 2; for (j = 1; j <= k; j++) printf " %14.6g %14.6g", $j, $(j + k) }'
        # A byte-identical change must render what the base renders.
        if cmp -s "$root/digest.base" "$root/digest.change"; then
            printf '  digest %s' "$(cat "$root/digest.change")"
        else
            printf '  DIGEST DIFFERS: base %s, change %s' \
                "$(cat "$root/digest.base")" "$(cat "$root/digest.change")"
            differs=$((differs + 1))
        fi
        echo
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
        FNR == NR { k++; name[k] = $1; better[k] = $2; bound[k] = $3; next }
        { n++
          for (j = 1; j <= k; j++) { b[j, n] = $j; c[j, n] = $(j + k) }
          if ($(1 + k) < $1) won++; else if ($1 < $(1 + k)) lost++; else ties++ }
        function spread(v, n, m) { return m == 0 ? 0 : (at(v, n, .75) - at(v, n, .25)) / (m < 0 ? -m : m) }
        END {
            regressed = 0; unresolved = 0
            for (j = 1; j <= k; j++) {
                for (i = 1; i <= n; i++) { bs[i] = b[j, i]; cs[i] = c[j, i] }
                sorted(bs, n); sorted(cs, n)
                bm = at(bs, n, .5); cm = at(cs, n, .5)
                if (j == 1) { wb = bm; wc = cm; wiqr = at(bs, n, .75) - at(bs, n, .25) }
                # Oriented so that positive is worse.
                hi = better[j] == "higher"
                worse = (hi ? bm - cm : cm - bm)
                bad = worse > bound[j] * (bm < 0 ? -bm : bm)
                if (spread(bs, n, bm) > bound[j] || spread(cs, n, cm) > bound[j]) {
                    # Too noisy to judge, unless every change run beats (or
                    # loses to) every base run.
                    all_better = hi ? cs[1] > bs[n] : cs[n] < bs[1]
                    all_worse = hi ? cs[n] < bs[1] : cs[1] > bs[n]
                    bad = bad && all_worse
                    unres = !all_better && !bad
                } else unres = 0
                regressed += bad; unresolved += unres
                printf "%-13s base median %.6g  q1 %.6g  q3 %.6g | change median %.6g  q1 %.6g  q3 %.6g | change/base %.3f  bound %g%s\n",
                    name[j], bm, at(bs, n, .25), at(bs, n, .75), cm, at(cs, n, .25), at(cs, n, .75),
                    bm == 0 ? 1 : cm / bm, bound[j], bad ? "  REGRESSED" : unres ? "  UNRESOLVED" : ""
            }
            printf "wall_s: change wins %d, base wins %d, ties %d of %d pairs\n", won, lost, ties, n
            gain = won >= 0.9 * n && wb - wc > wiqr
            if (n < 10) print "fewer than 10 pairs: too few to claim a gain"
            else print (gain ? "a gain by the rule" : "not a gain by the rule")
            print (regressed ? regressed " metric(s) worse than their bound" : "no metric worse than its bound")
            if (unresolved) print unresolved " metric(s) unresolved: a side spreads wider than the bound"
        }' "$root/metrics" "$root/runs"
    if [ "$differs" -gt 0 ]; then
        echo "DIGEST DIFFERS on $differs of $count pairs: the sides render different bytes"
    else
        echo "digests equal on all $count pairs"
    fi
}

# The byte-identity proof of a refactor as one command: build `empower`
# from a `git archive` export of <base-ref> and from the working tree, each
# into its own target directory under target/identical/, render every
# figure the driver lists at --quick, with --json, and every examples/*.toml
# of the working tree under both `scenario run` and `workload run`, each
# with --metrics, on both builds, and compare stdout, manifest and figure
# rows file by file.
# A run that fails records its exit status in its stdout file, so a run
# that fails on one side only differs too. Names every file that differs
# and exits 1 if any does. Writes only under target/.
identical() {
    usage="usage: ./ci.sh identical <base-ref>"
    base_ref="${1:?$usage}"
    root="$PWD/target/identical"
    git rev-parse --verify --quiet "$base_ref^{commit}" >/dev/null \
        || { echo "identical: unknown base ref $base_ref" >&2; exit 2; }
    rm -rf "$root/base" "$root/out"
    mkdir -p "$root/base" "$root/out/base" "$root/out/change"
    trap 'rm -rf "$root/base"' EXIT
    # -m for the same reason as in `pairs`: cargo decides freshness by mtime.
    git archive "$base_ref" | tar -x -m -C "$root/base"
    say "identical: building empower from $base_ref and from the working tree"
    cargo build --release --locked --bin empower --manifest-path "$root/base/Cargo.toml" \
        --target-dir "$root/base-target"
    cargo build --release --locked --bin empower --target-dir "$root/change-target"
    # render <out-prefix> <binary> <args...>: stdout to .out, manifest to .json.
    # A figure also writes its rows to .rows.json.
    render() {
        prefix="$1"
        shift
        "$@" --metrics "$prefix.json" >"$prefix.out" 2>"$prefix.err" \
            || echo "exit status $?" >>"$prefix.out"
    }
    for side in base change; do
        bin="$root/$side-target/release/empower"
        out="$root/out/$side"
        say "identical: rendering on the $side build"
        figures="$("$bin" 2>&1 | sed -n 's/^figures: //p')"
        [ -n "$figures" ] || { echo "the $side build's usage lists no figures" >&2; exit 1; }
        for fig in $figures; do
            render "$out/figure.$fig" "$bin" figure "$fig" --quick --json "$out/figure.$fig.rows.json"
        done
        for doc in examples/*.toml; do
            name="$(basename "$doc" .toml)"
            for verb in scenario workload; do
                render "$out/$verb.$name" "$bin" "$verb" run "$doc"
            done
        done
    done
    say "identical: $base_ref against the working tree"
    files="$( (cd "$root/out/base" && ls; cd "$root/out/change" && ls) | grep -v '\.err$' | sort -u)"
    same=0
    differ=0
    for f in $files; do
        if cmp -s "$root/out/base/$f" "$root/out/change/$f"; then
            same=$((same + 1))
        else
            echo "DIFFERS: $f"
            differ=$((differ + 1))
        fi
    done
    if [ "$differ" -gt 0 ]; then
        echo "$differ of $((same + differ)) files differ (outputs kept in $root/out)"
        exit 1
    fi
    echo "all $same files identical"
}

# Per-file counts of one tree, as "crate code test" lines: every *.rs file
# of a workspace member (a directory under crates/, or the root package's
# src/, tests/ and examples/), without blank lines and lines that are only
# a comment. Test code is a file under a tests/ directory and every item
# behind #[cfg(test)], which rustfmt closes with a brace at the
# attribute's indentation.
count_lines() {
    (cd "$1" && find crates src tests examples -name '*.rs' 2>/dev/null | LC_ALL=C sort \
        | xargs awk '
            FNR == 1 {
                if (NR > 1) print crate, code, test
                split(FILENAME, part, "/")
                crate = part[1] == "crates" ? part[2] : "(root)"
                in_tests = FILENAME ~ /(^|\/)tests\//
                code = 0; test = 0; region = 0; pending = 0
            }
            {
                text = $0
                sub(/^[ \t]+/, "", text)
                indent = substr($0, 1, length($0) - length(text))
                is_test = in_tests || region
                if (!region && text ~ /^#\[cfg\(test\)\]/) {
                    is_test = 1; pending = 1; closing = indent "}"
                } else if (pending) {
                    is_test = 1
                    if (text !~ /^#\[/) { pending = 0; region = text !~ /;$/ }
                } else if (region && $0 == closing) {
                    region = 0
                }
                if (text == "" || text ~ /^\/\//) next
                if (is_test) test++; else code++
            }
            END { print crate, code, test }')
}

# The line counts of the working tree, and with <base-ref> those of a
# `git archive` export of it beside them and the difference. Writes only
# under target/.
lines() {
    root="$PWD/target/lines"
    rm -rf "$root"
    mkdir -p "$root/base"
    count_lines "$PWD" >"$root/change"
    : >"$root/base.counts"
    if [ -n "${1:-}" ]; then
        git rev-parse --verify --quiet "$1^{commit}" >/dev/null \
            || { echo "lines: unknown base ref $1" >&2; exit 2; }
        git archive "$1" | tar -x -C "$root/base"
        count_lines "$root/base" >"$root/base.counts"
    fi
    awk -v base="${1:-}" '
        FNR == NR { code[$1] += $2; test[$1] += $3; seen[$1] = 1; next }
        { bcode[$1] += $2; btest[$1] += $3; seen[$1] = 1 }
        END {
            for (c in seen) {
                printf "%-12s %7d %7d", c, code[c], test[c]
                if (base != "") {
                    printf " %7d %7d %+7d %+7d", bcode[c], btest[c], code[c] - bcode[c],
                        test[c] - btest[c]
                }
                printf "\n"
            }
        }' "$root/change" "$root/base.counts" | LC_ALL=C sort >"$root/table"
    if [ -n "${1:-}" ]; then
        printf '%-12s %15s %15s %15s\n' "" "working tree" "$1" difference
        printf '%-12s %7s %7s %7s %7s %7s %7s\n' crate code test code test code test
    else
        printf '%-12s %7s %7s\n' crate code test
    fi
    cat "$root/table"
    awk -v base="${1:-}" '
        { for (i = 2; i <= NF; i++) sum[i] += $i }
        $1 != "(root)" && $2 + $3 > 0 { crates++ }
        $1 != "(root)" && $4 + $5 > 0 { bcrates++ }
        END {
            printf "%-12s %7d %7d", "total", sum[2], sum[3]
            if (base != "") printf " %7d %7d %+7d %+7d", sum[4], sum[5], sum[6], sum[7]
            printf "\n%d crates under crates/", crates
            if (base != "") printf " (%d at %s)", bcrates, base
            printf ", and the root package\n"
        }' "$root/table"
    rm -rf "$root/base"
}

# Mutation proofs, the idea of cargo-mutants (https://mutants.rs) without
# the tool: each mutants/NNN-name.patch plants one bug, and its preamble
# names the test that must catch it, in a line
#   Fails: <package> <test target, or lib for unit tests> <test name>
# and optionally a line `Expect: <text>` that the failing test must print.
# The working tree's files (those git tracks or would track, the content
# `git archive` ships once committed) are exported under target/mutants/.
# There each named test must pass first; then for each patch, in name
# order, the runner asserts that the patch applies, that the mutant
# builds, and that the named test fails (with the expected text), and
# reverts the patch. A mutant that survives is a test that no longer
# guards what it was written for. Tests build in release, as the full
# lane runs them, so a `debug_assert!` does not catch a mutant in the
# named test's place. Writes only under target/.
mutants() {
    root="$PWD/target/mutants"
    tree="$root/tree"
    rm -rf "$tree"
    mkdir -p "$tree"
    git ls-files --cached --others --exclude-standard \
        | while IFS= read -r f; do [ -e "$f" ] && printf '%s\n' "$f"; done \
        | tar -c -T - | tar -x -m -C "$tree"
    # named_test <patch> [--no-run]: build, and unless --no-run run, the
    # test the patch names, alone; the output goes to $root/out.
    named_test() {
        patch_file="$1"
        shift
        set -- $(sed -n 's/^Fails: //p' "$patch_file") "$@"
        [ "$#" -ge 3 ] || { echo "$patch_file names no test (Fails: <package> <target> <test>)" >&2; exit 1; }
        if [ "$2" = lib ]; then target=--lib; else target="--test $2"; fi
        # shellcheck disable=SC2086
        cargo test -q --release --manifest-path "$tree/Cargo.toml" --target-dir "$root/target" \
            -p "$1" $target ${4:-} -- --exact "$3" >"$root/out" 2>&1
    }
    patches="$(ls mutants/*.patch)"
    say "mutants: the named tests pass on the working tree"
    for p in $patches; do
        named_test "$p" || { echo "$p: its named test fails unmutated" >&2; cat "$root/out" >&2; exit 1; }
        grep -q '^running 1 test' "$root/out" \
            || { echo "$p: its named test does not exist" >&2; cat "$root/out" >&2; exit 1; }
    done
    caught=0
    for p in $patches; do
        name="$(sed -n 's/^Fails: //p' "$p")"
        expect="$(sed -n 's/^Expect: //p' "$p")"
        say "mutants: $p must fail $name"
        patch -d "$tree" -p1 --batch --dry-run -s <"$p" >/dev/null \
            || { echo "$p no longer applies" >&2; exit 1; }
        patch -d "$tree" -p1 --batch -s <"$p"
        named_test "$p" --no-run \
            || { echo "$p does not build (a mutant must compile):" >&2; cat "$root/out" >&2; exit 1; }
        if named_test "$p"; then
            echo "$p SURVIVED: $name passes with the mutant" >&2
            exit 1
        fi
        if [ -n "$expect" ] && ! grep -qF "$expect" "$root/out"; then
            echo "$p fails $name, but without printing: $expect" >&2
            cat "$root/out" >&2
            exit 1
        fi
        patch -d "$tree" -p1 --batch -R -s <"$p"
        caught=$((caught + 1))
    done
    echo "all $caught mutants caught"
}

if [ "${1:-}" = "mutants" ]; then
    mutants
    exit 0
fi
if [ "${1:-}" = "lines" ]; then
    shift
    lines "$@"
    exit 0
fi
if [ "${1:-}" = "pairs" ]; then
    shift
    pairs "$@"
    exit 0
fi
if [ "${1:-}" = "identical" ]; then
    shift
    identical "$@"
    exit 0
fi

say "rustfmt (check only)"
cargo fmt --check

say "clippy, warnings are errors (the determinism rules D001-D011 and P001)"
# clippy.toml, the library crate roots' #![deny] and the workspace lint
# table state the rules (DESIGN.md §7). A site that is sound anyway carries
# #[expect(.., reason = "..")], which fails here once nothing fires.
cargo clippy --workspace --all-targets -- -D warnings

say "rustdoc, warnings are errors"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

if [ "${1:-}" = "quick" ]; then
    say "tests (debug, equivalence corpora trimmed)"
    # The §3.2 equivalence property test sweeps 50 random topologies by
    # default; 12 keep the quick loop fast while still crossing both
    # topology classes and the restricted-medium query.
    # EMPOWER_SIM_EQUIV_SCENARIOS trims one gate, the optimized-vs-reference
    # engine corpus (crates/sim/tests/equivalence.rs), to its Fig. 1 prefix
    # plus the first dynamics scenarios, and the workload replay/cross-
    # engine gate runs its first scenario; CI's full mode runs everything.
    # --workspace (also the root manifest's default-members): the member-
    # crate gates run too (sim equivalence corpus and hot-path budgets,
    # datapath stage tests, bench determinism tests).
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
    say "routing equivalence on a deeper corpus"
    # The exhaustive reference rebuilds the link metric at every tree node,
    # while the explorer restores saved weights on backtrack, so four
    # times the default corpus is where a wrongly restored weight shows.
    EMPOWER_EQUIV_TOPOLOGIES=200 cargo test -q --release -p empower-routing --test equivalence
    say "centralized optimum: every solve certified and accurate on the 160 draws"
    # Tier-1 runs 18 of the draws; the full set (40 seeds x residential/
    # enterprise x 1/3 flows against a 1e-13-certified reference) is the
    # ignored test, about a second in release.
    cargo test -q --release --test centralized_optimum -- --ignored
    say "examples: every example under examples/ runs"
    # `cargo test` only compiles examples; running each one is what shows
    # it is still reached. The names come from the glob, so a new example
    # cannot be skipped. (udp_forward, the datapath crate's example, has
    # its own smoke test below.)
    for ex in examples/*.rs; do
        cargo run -q --release --example "$(basename "$ex" .rs)" >/dev/null
    done
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
    say "mutants: every checked-in mutant fails the test it names"
    mutants
fi

if [ "${EMPOWER_MIRI:-}" = "1" ]; then
    # Optional deep lane: run the one executor under miri, so the static
    # concurrency rules (D007-D010) get a dynamic cross-check.
    # Requires a nightly toolchain with the miri component; skipped (with
    # a notice) when absent so the lane can be enabled fleet-wide.
    if cargo miri --version >/dev/null 2>&1; then
        say "miri: the sweep executor (EMPOWER_MIRI=1)"
        cargo miri test -p empower-bench --lib -- sweep::tests::results_come_back \
            sweep::tests::more_jobs sweep::tests::a_panicking sweep::tests::slot_errors
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
# Same two-run byte-comparison for the workload CLI entry point: a plain
# client workload, then the two documents with a fault timeline, which
# run the driver's poll-and-reroute loop (on fig1 and on a campus).
for doc in workload_enterprise_rr workload_campus_flap fig12_drop; do
    $EMPOWER workload run "examples/$doc.toml" \
        --metrics "$SMOKE_DIR/$doc.a.json" >/dev/null
    $EMPOWER workload run "examples/$doc.toml" \
        --metrics "$SMOKE_DIR/$doc.b.json" >/dev/null
    cmp "$SMOKE_DIR/$doc.a.json" "$SMOKE_DIR/$doc.b.json" \
        || { echo "workload manifests of $doc differ between identical runs" >&2; exit 1; }
done

say "figure smoke test (determinism across --jobs)"
# Every figure the driver's usage message lists, at quick size, once
# serially and once on two workers: stdout and manifests must be
# byte-identical. The list comes from the driver, so a new figure is
# covered without an edit here. Quick mode renders one cheap figure.
if [ "${1:-}" = "quick" ]; then
    FIGURES=ablation_routing
else
    FIGURES="$($EMPOWER 2>&1 | sed -n 's/^figures: //p')"
    [ -n "$FIGURES" ] || { echo "empower's usage lists no figures" >&2; exit 1; }
fi
for fig in $FIGURES; do
    for jobs in 1 2; do
        $EMPOWER figure "$fig" --quick --jobs "$jobs" \
            --metrics "$SMOKE_DIR/$fig.$jobs.json" >"$SMOKE_DIR/$fig.$jobs.txt"
    done
    { cmp "$SMOKE_DIR/$fig.1.txt" "$SMOKE_DIR/$fig.2.txt" \
        && cmp "$SMOKE_DIR/$fig.1.json" "$SMOKE_DIR/$fig.2.json"; } \
        || { echo "figure $fig differs between --jobs 1 and --jobs 2" >&2; exit 1; }
done

if [ "${EMPOWER_SKIP_NET:-}" = "1" ]; then
    say "udp loopback smoke test skipped (EMPOWER_SKIP_NET=1)"
else
    say "udp loopback smoke test (datapath endpoints over real sockets)"
    # Two OS processes forward 64 real EMPoWER frames over 127.0.0.1
    # through the same datapath stages the simulator drives (DESIGN.md §10).
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
