#!/bin/sh
# Full local CI: release build, every test in the workspace, the
# benchmark harness's own tests against the crates as they are, a compile
# check of the benchmarks, the kernel property tests re-run with the
# native instruction set (exercising the AVX2 dispatch tier where the
# host has it), the server's end-to-end suites (wire-protocol clients
# against a live server, and the subprocess kill/fsck recovery test),
# the sharded-deployment suites (router parity over the wire, proptest
# equivalence oracle, SIGKILL crash recovery), and a warning-free clippy
# pass.  Run from the repository root.
set -eux

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
done
# Benchmark smoke: every workload, phase and answer check of the one
# harness at toy scale (never gated), leaving target/bench-smoke.json.
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run --scale smoke --runs 1 --out target/bench-smoke.json
# The server suites run as part of `cargo test -q` above; run them again
# by name so a failure here is unambiguous in CI logs.
cargo test -q -p bbs-server --test integration
cargo test -q -p bbs-server --test net_faults
cargo test -q -p bbs-server --test replication
cargo test -q -p bbs-cli --test server_proc
cargo test -q -p bbs-cli --test shard_proc
cargo test -q -p bbs-server --test sharded
cargo test -q -p bbs-server --test router
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
# Distributed e2e: coordinator + shard servers + replica over real
# sockets (equivalence, typed SHARD_UNAVAILABLE, failover), then the
# SIGKILL-a-shard-primary chaos run on the pinned seed.
cargo test -q -p bbs-remote --test distributed
cargo test -q -p bbs-remote --test router
CHAOS_SEED="${CHAOS_SEED}" cargo test -q -p bbs-cli --test distributed_chaos -- --nocapture
# Shard oracle suites: proptest equivalence against the unsharded
# deployment, and SIGKILL-mid-ingest crash recovery, on the pinned seed.
CHAOS_SEED="${CHAOS_SEED}" cargo test -q -p bbs-shard --test equivalence
CHAOS_SEED="${CHAOS_SEED}" cargo test -q -p bbs-shard --test crash -- --nocapture
cargo clippy -p bbs-shard --all-targets -- -D warnings
cargo clippy -p bbs-server --all-targets -- -D warnings
cargo clippy -p bbs-remote --all-targets -- -D warnings
cargo clippy --all-targets -- -D warnings
