#!/usr/bin/env bash
# Repository CI gate: build, test, lint. Run from the workspace root.
#
#   ./scripts/ci.sh
#
# Mirrors the tier-1 verification the roadmap pins (release build + tests),
# builds and smoke-runs the perfbench benchmark, and adds the clippy wall
# the supervision, engine, and storage code is held to: unwrap/expect are
# denied outside tests in bfu-crawler, bfu-script, bfu-browser, bfu-store,
# bfu-objstore, and bfu-fabric (a panic in any of them takes a whole
# survey — or its only on-disk copy — down).
#
# Set BFU_TORTURE_FULL=1 for the exhaustive sweeps (every backend op, fabric
# step, wire exchange and replica op) instead of the bounded default; the
# store, object-store and fabric torture suites then run in release.
set -euo pipefail
cd "$(dirname "$0")/.."

TORTURE_PROFILE=()
if [[ "${BFU_TORTURE_FULL:-0}" == "1" ]]; then
    TORTURE_PROFILE=(--release)
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test --workspace -q

echo "==> store round-trip (integration)"
cargo test -q --test store

echo "==> adversarial chaos suite (hostile web, 1 vs 8 threads)"
cargo test -q --test chaos

echo "==> store crash-consistency torture (bounded; BFU_TORTURE_FULL=1 = exhaustive)"
# The integration suite bounds its sweep to a fixed budget of crash points
# unless BFU_TORTURE_FULL=1, in which case it kills the store at every
# single backend op.
cargo test -q "${TORTURE_PROFILE[@]}" --test store_torture

echo "==> fabric crash-mid-lease + partition + network + replica torture (bounded; BFU_TORTURE_FULL=1 = exhaustive)"
# Kill the survey fabric at every worker/coordinator step AND partition the
# whole-object backend at every op (delayed visibility, stale reads/lists,
# lost replays under chaos), AND run the whole fabric over a hostile wire
# (dropped/truncated/stalled/duplicated/reordered frames, elected
# coordinator killed at every coordinator step with a standby finishing),
# AND over a 3-replica quorum store — any one replica killed at every one
# of its ops, partitioned for every window, killed together with a worker,
# rejoining empty and caught up by anti-entropy, the CAS primary dead from
# the start — proving every schedule recovers to the single-process
# fingerprint. A multi-worker grid (1/2/4 workers over the POSIX,
# whole-object, remote and replicated backends) must match it too.
cargo test -q "${TORTURE_PROFILE[@]}" --test fabric_torture

echo "==> object-store torture (crash sweep, publish windows, listing order, replica quorums)"
# The whole-object backend: every-op crash sweep with process-restart
# recovery, manifest old-or-new on both publish lowerings (versioned put
# and copy+delete rename, including the window between copy and delete),
# chaos-partitioned store runs, the shuffled-listing regression, plus the
# replica dimension — any single replica killed at any of its ops with no
# error surfacing, stale R=1 reads caught by visibility retries and healed
# by scrub, and a replayed mutation past the server's replay window
# refused typed instead of silently re-executed.
cargo test -q "${TORTURE_PROFILE[@]}" --test objstore_torture

echo "==> cross-process fabric (real worker processes; DirObjectStore + real TCP)"
# Two real OS worker processes coordinating only through the object store
# must fingerprint identically to a single-process LocalFs run, a worker
# process dying mid-run must be fenced and its leases reassigned, and the
# networked variant — coordinator and workers dialing an ObjectServer over
# real localhost TCP sockets, the coordinator under an elected CAS-fenced
# term — must land on the same fingerprint with remote-op and election
# counters in the provenance sidecar.
cargo test -q --test fabric_proc

echo "==> no-panic property tests + engine differential (tree-walk vs VM)"
# proptests include the engine differential suite: random token soup and
# mutated programs must produce identical outcomes, fuel, heap, and string
# accounting under the tree-walk oracle and the bytecode VM, and whole
# random crawls must fingerprint identically across the engine x cache grid
# with every cached cell's cache live. The chaos suite above extends the
# engine gate to a 200-site hostile web.
cargo test -q --test proptests

echo "==> perfbench: build, unit tests, traced smoke run of every workload"
# The benchmark is a package of its own that reaches the library only
# through bfu-core's public API, so building it here turns a public-API
# break into a CI failure instead of a failed benchmark run. The traced
# run at the pinned seed (--seed 1) checks each workload's PINNED dataset
# fingerprint, the recrawl and re-render checks, and that the probe's
# per-layer spans explain Browser::load within the benchmark's tolerance —
# a boot path the probe does not share with Browser::load fails here.
# About 18 s for paper-web; heavy-scripts peaks near 0.7 GB.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
for workload in paper-web heavy-scripts fabric; do
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 | grep '^# probe:'
done

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
