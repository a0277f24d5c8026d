#!/usr/bin/env bash
# CI gate for the workspace.
#
# 1. Tier-1 verify (see ROADMAP.md): release build + full test suite.
# 2. Robustness suite: the fault-injection matrix must pass explicitly
#    (it is part of the workspace tests too; the dedicated run makes a
#    matrix failure unmissable in CI output).
# 3. Observability gate: pse-obs unit tests, a metrics-endpoint smoke
#    test (one scrape must surface every layer), and an instrumentation
#    overhead check — repro_table1 with the registry enabled must stay
#    within 5% of a registry-disabled run.
# 4. Lint: clippy with warnings denied on the dependency-free crates
#    where we hold the bar at zero (pse-cache, pse-obs and pse-dbm today).
#    Skipped with a notice if the clippy component is not installed.
# 5. Adversarial wire tests: the incremental-parser matrix (trickled
#    bytes, split heads, pipelining, oversized headers, half-close)
#    runs against BOTH server cores inside the workspace suite; the
#    dedicated run makes a parser failure unmissable.
# 6. With --stress: the concurrency stress suite across a 3-seed
#    matrix at elevated thread count, run under BOTH server cores
#    (PSE_HTTP_MODE=reactor and =threaded), plus the MemRepository
#    linearizability checker. PSE_STRESS_OPS / PSE_STRESS_THREADS are
#    honoured when set in the environment.
# 7. With --c10k: the C10k gate — 1000 parked keep-alive connections
#    (override with PSE_C10K_CONNS) against a worker pool of 8 must
#    leave fresh clients fast, the staleness detector clean, and
#    shutdown prompt.
# 8. With --cluster: the replication gate — 1 primary + 2 replicas +
#    the consistent-hash router in-process, with the staleness /
#    torn-write / MOVE-atomicity detectors pointed through the router,
#    a replica-kill failover smoke, snapshot resync after log
#    compaction, and repro_cluster --check (read throughput must rise
#    monotonically 1 -> 2 -> 4 replicas with zero failover errors).
#    PSE_CLUSTER_OPS / PSE_CLUSTER_THREADS are honoured when set.
# 9. With --bulk: the bulk-transfer gate — range/conditional-request/
#    resumable-PUT/delta-sync suites (pse-dav bulk tests + handler
#    range matrix), the gzip fault-injection round trip, and
#    repro_table2 --delta --check (a 1% edit re-PUT must move >= 10x
#    fewer bytes on the wire than the full PUT), emitting
#    target/bench-json/bulk.json.
# 10. With --versions: the DeltaV gate — the versioning compliance +
#    concurrency suite (RFC 3253 state machine, PUT-storm version
#    granularity, history immutability, read-only history resources,
#    mem/fs replay equivalence with a mid-history restart) under BOTH
#    server cores, the ecce revert-a-calculation scenario, the cluster
#    history-replication/rejoin test, and repro_versions --check
#    (content-addressed storage for 50 x 1%-edit revisions of 2 MB
#    must cost <= 25% of full snapshots, with byte-identical reads),
#    emitting target/bench-json/versions.json.
# 11. With --search: the indexed-search gate — the SEARCH correctness
#    sweep (index ≡ scan equivalence proptests over mem/fs/logged
#    repositories, the SEARCH-vs-DELETE race, gzip + fault-proxy
#    round trips, pipelined framing on both cores), the JSON gateway
#    unit suite, the cluster SEARCH routing tests, and
#    repro_search --check (the planner must answer selective queries
#    over 10k calculations >= 10x faster than a walk-and-scan with a
#    byte-identical answer), emitting target/bench-json/search.json.
set -euo pipefail
cd "$(dirname "$0")/.."

STRESS=0
C10K=0
CLUSTER=0
BULK=0
SEARCH=0
VERSIONS=0
for arg in "$@"; do
    case "$arg" in
        --stress) STRESS=1 ;;
        --c10k) C10K=1 ;;
        --cluster) CLUSTER=1 ;;
        --bulk) BULK=1 ;;
        --search) SEARCH=1 ;;
        --versions) VERSIONS=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests: cargo test -q --workspace"
cargo test -q --workspace

echo "==> robustness suite (fault matrix): cargo test -q --test robustness"
cargo test -q --test robustness

echo "==> observability: cargo test -q -p pse-obs"
cargo test -q -p pse-obs

echo "==> observability: metrics endpoint smoke test"
cargo test -q -p pse-dav metrics_scrape_covers_every_layer
cargo test -q -p pse-http metrics_endpoint_reflects_request_mix_pre_auth

echo "==> observability: instrumentation overhead <= 5% (repro_table1 --obs-check)"
./target/release/repro_table1 --obs-check

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> lint: cargo clippy -p pse-cache -p pse-obs -p pse-dbm -- -D warnings"
    cargo clippy -p pse-cache --all-targets -- -D warnings
    cargo clippy -p pse-obs --all-targets -- -D warnings
    cargo clippy -p pse-dbm --all-targets -- -D warnings
else
    echo "==> lint: clippy not installed, skipping"
fi

echo "==> adversarial wire tests (both server cores): cargo test -q -p pse-http --test adversarial"
cargo test -q -p pse-http --test adversarial

if [ "$STRESS" = 1 ]; then
    : "${PSE_STRESS_OPS:=250}"
    : "${PSE_STRESS_THREADS:=6}"
    export PSE_STRESS_OPS PSE_STRESS_THREADS
    echo "==> stress: concurrency suite, 3-seed x 2-core matrix (threads=$PSE_STRESS_THREADS, ops=$PSE_STRESS_OPS)"
    for mode in reactor threaded; do
        for seed in 1 42 20010807; do
            echo "==> stress: core $mode, seed $seed"
            PSE_HTTP_MODE=$mode PSE_STRESS_SEED=$seed cargo test -q --test concurrency
        done
    done
    echo "==> stress: MemRepository linearizability"
    cargo test -q -p pse-dav --test linearizability
fi

if [ "$C10K" = 1 ]; then
    : "${PSE_C10K_CONNS:=1000}"
    export PSE_C10K_CONNS
    echo "==> c10k gate: $PSE_C10K_CONNS parked connections, pool of 8"
    cargo test -q --test c10k
fi

if [ "$CLUSTER" = 1 ]; then
    : "${PSE_CLUSTER_OPS:=120}"
    : "${PSE_CLUSTER_THREADS:=3}"
    export PSE_CLUSTER_OPS PSE_CLUSTER_THREADS
    echo "==> cluster gate: replication invariants through the router (threads=$PSE_CLUSTER_THREADS, ops=$PSE_CLUSTER_OPS)"
    cargo test -q --test cluster
    echo "==> cluster gate: replay convergence property tests"
    cargo test -q -p pse-cluster
    echo "==> cluster gate: repro_cluster --check (monotonic read scaling + clean failover)"
    cargo build --release -p pse-bench --bin repro_cluster
    ./target/release/repro_cluster --check
fi

if [ "$BULK" = 1 ]; then
    echo "==> bulk gate: range GET / resumable PUT / delta sync suites"
    cargo test -q -p pse-dav --test bulk
    cargo test -q -p pse-dav --lib -- range_get_matrix if_range_gates_partial_responses \
        resumable_put_protocol delta_put_via_x_copy_from \
        weak_and_quoted_etag_forms_compare_correctly
    echo "==> bulk gate: gzip through the fault proxy"
    cargo test -q -p pse-http --lib gzip_coded_exchanges_survive_truncation_and_corruption
    echo "==> bulk gate: repro_table2 --delta --check (>= 10x wire-byte reduction)"
    cargo build --release -p pse-bench --bin repro_table2
    ./target/release/repro_table2 --delta --check
fi

if [ "$SEARCH" = 1 ]; then
    echo "==> search gate: property index unit suite + planner/paging/gateway tests"
    cargo test -q -p pse-dav --lib -- propindex:: search:: gateway::
    echo "==> search gate: correctness sweep (equivalence proptests, vanish race, gzip, faults, pipelining)"
    cargo test -q -p pse-dav --test search_equiv
    echo "==> search gate: SEARCH routing + replica index coherence through the cluster"
    cargo test -q --test cluster -- search_routes_to_replicas_and_replica_indexes_agree \
        logged_repository_index_equivalent_to_scan
    echo "==> search gate: repro_search --check (>= 10x over walk-and-scan on 10k resources)"
    cargo build --release -p pse-bench --bin repro_search
    ./target/release/repro_search --check
fi

if [ "$VERSIONS" = 1 ]; then
    echo "==> versions gate: compliance + concurrency suite under both server cores"
    for mode in reactor threaded; do
        echo "==> versions gate: core $mode"
        PSE_HTTP_MODE=$mode cargo test -q -p pse-dav --test versioning
    done
    echo "==> versions gate: version store unit suite"
    cargo test -q -p pse-dav --lib -- version::
    echo "==> versions gate: revert-a-calculation scenario"
    cargo test -q -p pse-ecce --test revert
    echo "==> versions gate: history replication + replica rejoin through the cluster"
    cargo test -q --test cluster -- version_history_replicates_and_survives_rejoin
    echo "==> versions gate: repro_versions --check (CAS <= 25% of full snapshots)"
    cargo build --release -p pse-bench --bin repro_versions
    ./target/release/repro_versions --check
fi

echo "==> ci OK"
