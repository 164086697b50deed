#!/usr/bin/env bash
# Checker of the checker: apply each tests/mutants/*.patch to a scratch copy
# of the workspace, run a test suite there and require it to FAIL.
#
#   scripts/mutants.sh                      # every mutant, default suites
#   scripts/mutants.sh join_key_identity    # the named mutants only
#   SUITE='-p minidb' scripts/mutants.sh    # another suite for every mutant
#
# A patch is a plain diff against any crates/*/src (the engine's, or the
# interpreter's client cache, which answers `=` beside it) under a
# three-line header: what it breaks, `profile: debug|release` (debug where only the
# overflow checks see it) and `kills: rows|order`. A `rows` mutant changes
# what some query returns and must fail ROWS_SUITE (engine_reference: the
# naive evaluator, the twins, the partitions — no pinned digest); an
# `order` mutant returns the same rows in another order, which no
# reference defines, and must fail ORDER_SUITE (the pinned digests of
# engine_differential). SUITE overrides both.
#
# The copy lives in $MUTANTS_DIR (default target/mutants) with one target
# directory shared by all mutants, so each costs one incremental build.
# Prints a kill table, also written to $MUTANTS_DIR/kill_table.md beside
# each run's output (<mutant>.log); exits non-zero if a mutant survives,
# fails to apply or fails to build.
set -u
cd "$(dirname "$0")/.."

ROWS_SUITE=${SUITE:-"-p cobra --test engine_reference"}
ORDER_SUITE=${SUITE:-"-p cobra --test engine_differential"}
WORK=${MUTANTS_DIR:-target/mutants}
# Relative to the workspace root unless absolute.
case $WORK in /*) ;; *) WORK=$PWD/$WORK ;; esac
SRC=$WORK/src
export CARGO_TARGET_DIR=$WORK/target

mkdir -p "$SRC"
# mtimes travel with the files, so an unchanged file is not rebuilt.
tar -cf - --exclude=./target --exclude=./.git --exclude=./cobra_bench . | tar -xf - -C "$SRC"

names=("$@")
if [ ${#names[@]} -eq 0 ]; then
    for p in tests/mutants/*.patch; do names+=("$(basename "$p" .patch)"); done
fi

table="| mutant | profile | kind | suite | verdict | failing tests |\n|---|---|---|---|---|---|\n"
survivors=0
for name in "${names[@]}"; do
    patch=$PWD/tests/mutants/$name.patch
    profile=$(sed -n 's/^profile: //p' "$patch")
    kind=$(sed -n 's/^kills: //p' "$patch")
    suite=$ROWS_SUITE
    [ "$kind" = order ] && suite=$ORDER_SUITE
    flags=--release
    [ "$profile" = debug ] && flags=
    verdict=killed
    failing=
    if ! (cd "$SRC" && patch -p1 -s <"$patch"); then
        verdict="DOES NOT APPLY"
    elif ! (cd "$SRC" && cargo test -q $flags $suite --no-run >/dev/null 2>&1); then
        verdict="DOES NOT BUILD"
    else
        # shellcheck disable=SC2086
        if (cd "$SRC" && cargo test -q $flags $suite) >"$WORK/$name.log" 2>&1; then
            verdict=SURVIVED
        else
            failing=$(sed -n 's/^    \([A-Za-z_:0-9]*\)$/\1/p' "$WORK/$name.log" | sort -u | tr '\n' ' ')
        fi
    fi
    (cd "$SRC" && patch -p1 -s -R <"$patch") 2>/dev/null
    [ "$verdict" = killed ] || survivors=$((survivors + 1))
    row="| $name | $profile | $kind | \`$suite\` | $verdict | $failing |"
    echo "$row"
    table+="$row\n"
done

printf '%b' "$table" >"$WORK/kill_table.md"
echo
printf '%b' "$table"
[ "$survivors" -eq 0 ]
