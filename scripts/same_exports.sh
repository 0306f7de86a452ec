#!/usr/bin/env sh
# Exports check: build `rp-exp` from <rev> and from the working tree, run
# both on the same two command lines, each from its own empty directory,
# and `diff -r` the directories. Exits non-zero on any difference, so a
# change claimed to keep every export byte-identical can be checked:
#
#   scripts/same_exports.sh HEAD~1
#
# The two runs cover the whole quick suite with every artifact kind, and
# the faulted Flux+Dragon, IMPECCABLE and PRRTE grids with metrics and
# lineage. <rev> is exported with `git archive` and built offline in a
# temporary directory; the whole tree, about 3.5 GB of exports included, is
# removed on exit.
set -eu

REV="${1:?usage: scripts/same_exports.sh <rev>}"
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM
mkdir "$WORK/base_src"
git archive "$(git rev-parse --verify "$REV^{commit}")" | tar -x -C "$WORK/base_src"

cargo build -q --release --offline --workspace --bin rp-exp \
    --manifest-path "$WORK/base_src/Cargo.toml" --target-dir "$WORK/base_target"
cargo build -q --release --offline --workspace --bin rp-exp

# run <rp-exp> <out dir>
run() {
    mkdir -p "$2/all" "$2/faults"
    (cd "$2/all" && "$1" all --quick --jobs 2 --profile-dir P --metrics-dir M \
        --lineage-dir L --telemetry-dir T > transcript.txt)
    (cd "$2/faults" && "$1" flux_dragon impeccable prrte --quick \
        --faults nodes=2,crashes=1,restart=15,retries=3 --fault-seed 7 \
        --metrics-dir M --lineage-dir L > transcript.txt)
}
run "$WORK/base_target/release/rp-exp" "$WORK/base"
run "$PWD/target/release/rp-exp" "$WORK/head"

diff -r "$WORK/base" "$WORK/head"
echo "exports byte-identical to $REV"
