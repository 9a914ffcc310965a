#!/bin/sh
# Full local CI: release build, every test of every crate (the root
# manifest's `default-members`, so the server, shard, remote and CLI
# suites run here once, on their default seeds), the benchmark harness's
# own tests against the crates as they are, a compile check of the
# benchmarks, the kernel property tests re-run with the native
# instruction set and under every forced dispatch tier, the benchmark
# smoke, the randomized chaos/oracle suites again on a pinned seed, and
# one warning-free clippy and rustdoc pass over every crate, after checking
# that no crate depends on the bbs-shard facade.  Run from the
# repository root.  `./ci.sh loc` only prints the non-test source lines
# per crate, and their total.
set -eu

# Lines of crates/*/src/**/*.rs outside `#[cfg(test)]` items: such an item
# runs from its attribute to the `;` that ends it or the `}` that closes
# the first `{` after it.  One row per crate, then their `total`.
loc() {
  for crate in crates/*/; do
    find "${crate}src" -name '*.rs' | sort | xargs awk -v crate="$(basename "${crate}")" '
      FNR == 1 { skipping = 0 }
      /^[ \t]*#\[cfg\(test\)\]/ { skipping = 1; depth = 0; opened = 0; next }
      skipping {
        opens = gsub(/\{/, "{"); depth += opens - gsub(/\}/, "}")
        if (opens) opened = 1
        if (opened ? depth <= 0 : /;[ \t]*$/) skipping = 0
        next
      }
      { lines++ }
      END { printf "%-10s %6d\n", crate, lines }'
  done | awk '{ print; total += $2 } END { printf "%-10s %6d\n", "total", total }'
}
if [ "${1:-}" = loc ]; then
  loc
  exit
fi
set -x

loc

# bbs-shard is a facade over bbs-storage's partitioned deployment: only
# benchmark/ and the [dev-dependencies] of test files may still reach it,
# so no crate but its own names it under [dependencies].
for manifest in crates/*/Cargo.toml; do
  [ "${manifest}" = crates/shard/Cargo.toml ] && continue
  if awk '/^\[/ { deps = ($0 == "[dependencies]") }
          deps && /^bbs-shard[ .=]/ { found = 1 }
          END { exit !found }' "${manifest}"; then
    echo "${manifest}: bbs-shard under [dependencies]" >&2
    exit 1
  fi
done

cargo build --release
cargo test -q
# The benchmark is a package of its own that this repository's manifests
# do not reach: its smoke run and unit tests are what notices a change to
# StorageBackend, SliceFile or the stats structs that breaks the harness.
cargo test --release --manifest-path benchmark/Cargo.toml
cargo bench --no-run
RUSTFLAGS="-C target-cpu=native" cargo test -q -p bbs-bitslice --test kernel_props
# Kernel-dispatch smoke matrix: the same property tests under every
# forced tier.  Forcing a tier the host lacks falls back to detection,
# so the avx2/avx512 rows are safe no-ops on older machines.
for tier in portable scalar avx2 avx512; do
  BBS_KERNEL_TIER="${tier}" \
    RUSTFLAGS="-C target-cpu=native" cargo test -q -p bbs-bitslice --test kernel_props
  BBS_KERNEL_TIER="${tier}" \
    RUSTFLAGS="-C target-cpu=native" cargo test -q -p bbs-core --test known_answer
done
# The cursor over a loaded index ANDs each in-memory slice window onto its
# level with `ops::and_assign` and popcounts with `ops::count_ones`, both
# dispatched kernels, so the known answers (the figures' buckets and
# counters) run under every tier.  Over a slice file the cursor ANDs page
# bytes with the safe word loop and hands the kernels only its own word
# buffers to popcount, which kernel_props covers.
# Benchmark smoke: every workload, phase and answer check of the one
# harness at toy scale (never gated), leaving target/bench-smoke.json.
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run --scale smoke --runs 1 --out target/bench-smoke.json
# The randomized chaos harnesses run on a fixed seed in CI so failures
# reproduce; export CHAOS_SEED to try a different schedule.
CHAOS_SEED="${CHAOS_SEED:-2964703749}"
echo "chaos seed: ${CHAOS_SEED}"
CHAOS_SEED="${CHAOS_SEED}" cargo test -q -p bbs-server --test chaos -- --nocapture
CHAOS_SEED="${CHAOS_SEED}" cargo test -q -p bbs-cli --test failover -- --nocapture
# Dynamic-workload suite on the same pinned seed: exactly-once deletes,
# compaction/fold/FPR maintenance, delete replication + resync, and the
# weblog-churn storm whose measured FPR must heal under AUTO rounds.
CHAOS_SEED="${CHAOS_SEED}" cargo test -q -p bbs-server --test dynamic -- --nocapture
# Swap recovery beside it: a crash at every step of a compaction and of a
# fold, reopened offline and through the served open; the frozen on-disk
# formats; and the restarted-inside-a-swap regression through `Engine`.
CHAOS_SEED="${CHAOS_SEED}" cargo test -q -p bbs-storage --test dynamic --test protocol
CHAOS_SEED="${CHAOS_SEED}" cargo test -q -p bbs-server --test swap_recovery
# Served == offline == in-memory on a churned deployment (most rows
# tombstoned), every scheme, serial and threaded, unsharded and behind a
# 3-shard server — on the same pinned seed as the rest of the dynamic suite.
CHAOS_SEED="${CHAOS_SEED}" cargo test -q -p bbs-cli --test churned -- --nocapture
# Distributed: the SIGKILL-a-shard-primary chaos run on the pinned seed.
CHAOS_SEED="${CHAOS_SEED}" cargo test -q -p bbs-cli --test distributed_chaos -- --nocapture
# Shard oracle suites: proptest equivalence against the unsharded
# deployment, and SIGKILL-mid-ingest crash recovery, on the pinned seed.
CHAOS_SEED="${CHAOS_SEED}" cargo test -q -p bbs-shard --test equivalence
CHAOS_SEED="${CHAOS_SEED}" cargo test -q -p bbs-shard --test crash -- --nocapture
cargo clippy --all-targets -- -D warnings
# Doc links are checked too: a deleted item that a doc comment still names
# fails here instead of becoming one more ignored rustdoc warning.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude rand --exclude proptest --exclude criterion
