#!/usr/bin/env bash
# Tier-1 gate: everything CI runs, runnable offline from any directory.
#
#   scripts/check.sh          # build + tests + clippy + fmt + e2ebench tests
#
# Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

# Vendored-dependency workspaces must never hit the network.
export CARGO_NET_OFFLINE=true

# `named_tests <cargo test args> -- <names>` runs the named tests, after
# checking each name against the targets' `--list`: a name that matches
# no test fails the step instead of running zero tests silently (cargo
# exits 0 on "running 0 tests"), so a renamed oracle cannot drop out.
named_tests() {
  local args=()
  while [[ "$1" != -- ]]; do
    args+=("$1")
    shift
  done
  shift
  local listed
  listed=$(cargo test -q "${args[@]}" -- --list | sed -n 's/: test$//p')
  local name
  for name in "$@"; do
    if ! grep -qF -- "$name" <<<"$listed"; then
      echo "no test matches '$name' in: cargo test ${args[*]}" >&2
      exit 1
    fi
  done
  cargo test -q "${args[@]}" -- "$@"
}

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo test (vire-bus)"
cargo test -q -p vire-bus

echo "==> cargo test (vire-geom)"
cargo test -p vire-geom -q

# One prepared state per algorithm: the vector kernels match their scalar
# oracles, every VIRE entry point (one-shot, prepare, sync from a
# perturbed map) agrees bit-for-bit, and a synced state equals a fresh
# build on every interpolation kernel. The calibration map holds the
# only copy of its reader-major planes, which LANDMARC reads; the virtual
# grid is one tile-major store (each reader's RSSI range and 16 values
# per 4x4 tile), the only copy of its values, which the sweep writes and
# elimination and weighting read. Every node of 1x1, 1x4 and 4x1
# reference lattices reads back the kernels' formulas through rssi,
# field and signal_vector, on every kernel, and the one-shot eliminate
# and candidate_weights refuse a reading with more or fewer readers than
# the grid. Adaptive elimination matches a map-building reference of the
# paper's procedure through all three phases (threshold bits and mask,
# largest-area reader first), and a lattice with one node along an axis
# localizes and syncs on every kernel. Adaptive elimination reads the
# values of only the tiles whose bounds admit a survivor or a smaller
# gap, and matches the dense max-gap elimination to the bit: fixed and adaptive modes, every floor, ties and
# ±0.0, readings on tile extremes, lattice sides off multiples of 4 (1xN,
# Nx1, 1x1, refine 1), and the lattices the server runs (refine 10 and
# 20, 1 to 6 readers), where it also matches the map-building reference.
# Its work is pinned: exact counts of range entries read, tiles scanned,
# queued and computed on the Env2 fixture, a tile whose bound equals the
# threshold is not computed, and tiles holding the reading tie at a zero
# bound. A steady-state locate (VIRE at refine 10 and 20, LANDMARC, and
# VIRE falling back to LANDMARC) and a steady-state hinted one-reader
# sync (refine 10 and 20) allocate nothing. A scored fix, read off its own
# locate's weights, matches a score built from the one-shot stages to the
# bit (refine 1, 3 and 10, every weighting and w1 mode), and a fallback
# fix scored right after an eliminated one gets the fallback score.
# The one sync path: a sync re-interpolates, whole, exactly each reader
# with a changed cell into its part of the tile store; the readers it
# leaves clean keep their values to the bit
# (rounds dirty one reader, several, and all), and re-interpolating any
# subset of readers equals a fresh build. Every map change (some readers,
# every reader, reshape) localizes like a fresh build, a batch matches
# sequential locates, and reused weighting buffers match fresh ones.
# The hint contract: a sync adopts exactly the cells the writer named
# (repeats and reverts filtered out by to_bits), or diffs them all; an
# empty hint is always safe, a hint is trusted only for the map id it
# describes, and a hint that misses a cell trips the debug mirror check.
echo "==> cargo test (prepared-state oracles)"
cargo test -q -p vire-core --test kernels --test incremental
named_tests -p vire-core --test kernels -- \
  adaptive_eliminate_matches_map_building_reference \
  adaptive_eliminate_matches_map_building_reference_at_serving_lattices
named_tests -p vire-core --test incremental -- \
  every_map_change_localizes_like_a_fresh_build \
  patched_state_is_bit_identical_to_rebuild \
  foreign_map_identity_syncs_via_full_diff \
  a_hint_that_misses_a_changed_cell_trips_the_mirror_check \
  one_node_axis_lattices_localize_and_patch_on_every_kernel
named_tests -p vire-core --test properties -- \
  locate_batch_matches_sequential_order_and_values
named_tests -p vire-core --lib -- \
  tile_pruned_elimination_matches_dense \
  tile_pruned_elimination_matches_dense_on_virtual_grids \
  tile_pruned_elimination_matches_dense_at_serving_lattices \
  a_tile_whose_bound_equals_the_threshold_is_not_computed \
  tiles_holding_the_reading_tie_at_a_zero_bound \
  reinterpolating_any_reader_subset_matches_fresh_builds \
  thin_lattices_hold_the_formula_on_every_kernel \
  eliminate_rejects_a_reading_with_more_readers \
  eliminate_rejects_a_reading_with_fewer_readers \
  candidate_weights_rejects_a_reading_with_more_readers \
  candidate_weights_rejects_a_reading_with_fewer_readers \
  reused_buffers_leave_labels_clear_and_match_fresh_ones \
  hint_path_and_diff_path_agree sync_patches_the_named_cell_and_matches_fresh
named_tests -p vire-bench --test elimination_work -- \
  elimination_work_on_the_fixture_is_pinned
named_tests -p vire-bench --test locate_allocations -- \
  steady_state_locates_allocate_nothing steady_state_syncs_allocate_nothing
named_tests -p vire-bench --test scoring -- locate_scored_matches_the_one_shot_stages

# The generational tag slab: handle allocation, slot reuse, and the
# lifetime-safety invariants every layer leans on.
echo "==> cargo test (tag-handle slab)"
named_tests -p vire-geom -- handle::

# Churn safety: slab-reused identity must be observationally identical to
# a never-reused-ids oracle (service estimates, track counts, cache
# hit/miss sequences), with storage pinned at the high-water mark. The
# middleware's tag table (one row per tag: smoothing streams by reader,
# pin, dirty link) must match the keyed maps it replaced on every output,
# to the bit, through ingests, pins, removals, re-ingest of a removed id
# and generation bumps on every smoothing kind: each reported value, every
# stream's value and fill (against a from-scratch recompute over each
# stream's reading history), each tracking drain (order and values), the
# dirty cells, both calibration maps and the removals. A freed row that
# kept its stream counts, or a re-inserted tag that kept its old dirty
# place, fails it. The table stays within MAX_TAGS rows while 10^6 new tag
# ids stream through a server: unpinned rows are evicted (CLOCK), counted
# to the tag, and a tag heard in every batch keeps its stream. A row's
# stream storage outlives its tags: new ids evicting a full table of
# MAX_TAGS rows x 4 readers allocate nothing. The
# service behind it is bounded too: each evicted tag (by a pump or a pin)
# is queued as a removal, so after 200,000 new ids at one beacon time its live tracks
# stay within the table's unpinned rows, its tombstones within
# TOMBSTONE_CAP with every drop counted, and a tag heard in every batch
# answers to the bit as if the flood never came. The service's one slot
# table (live track and tombstone per slot) answers exactly as the two
# maps it replaced: every estimate, query answer and tracked tag, through
# evictions, generation bumps, stragglers, out-of-order times, jumps past
# stale_after and the tombstone horizon, and tracks that never got a
# position; dropping the rule that a tombstone never goes back to an
# older generation fails it, as does a positionless track leaving one.
echo "==> cargo test (churn oracle proptest)"
cargo test -q -p vire-sim --test churn
named_tests -p vire-sim --test properties -- tag_table_matches_the_keyed_maps_it_replaced
named_tests -p vire-sim --test table_allocations -- evicting_a_full_table_allocates_nothing
named_tests -p vire-sim --test ingest -- \
  a_million_new_tag_ids_stay_within_the_tag_table \
  a_flood_of_new_tag_ids_stays_within_the_service
named_tests -p vire-core --test properties -- slot_table_matches_the_two_maps_it_replaced
named_tests -p vire-sim --lib -- \
  a_full_table_evicts_an_unheard_unpinned_row evicted_tags_are_queued_as_removals

# The link-budget cache must be invisible: cached and uncached testbeds
# bit-identical across every preset environment and config (proptest).
echo "==> cargo test (channel-cache bit-identity)"
cargo test -q -p vire-sim --test channel_cache

# The trial cache must be invisible too: cached trials bit-identical to
# fresh simulations (proptest), single-flight under contention, and the
# corpus round-trip bit-exact.
echo "==> cargo test (trial-cache bit-identity)"
cargo test -q -p vire-exp --test trial_cache

# Driving zones together is pure orchestration: a zone driven by
# `drive_zones` must be bit-identical to that zone's standalone service,
# on every kernel.
echo "==> cargo test (drive_zones bit-identity)"
cargo test -q -p vire-sim --test fabric

# Burst coalescing is pure loss policy: a coalesced serve drive must be
# bit-identical to replaying only the surviving readings, on every
# kernel, and no reading may ever be lost silently. The ring contract:
# full at capacity, the ring doubles up to its ceiling; at the ceiling the
# incoming event first supersedes its key's buffered one, then the ring
# gives up superseded same-key events, else drops the oldest (so a repeat
# never costs another key its only reading); a drain is
# the newest event per key in last-occurrence order, and
# accepted == delivered + lagged + coalesced_in_ring. The ring must match
# a naive model of that policy on every output, and must not stall when
# every key past the ceiling is distinct. An event from an unknown reader,
# or one with a non-finite time or RSSI, is skipped, not counted, and
# changes no number; and no buffer between the ring and the sync grows
# while the map is incomplete or the tracking tags are quiet. The service
# drains nothing until it can localize: the tag table's dirty list and
# the stage's dirty cells are the only buffer before locate, and a
# drain keeps the newest
# lifetime's reading per slot.
echo "==> cargo test (ingest coalescing oracle)"
cargo test -q -p vire-sim --test ingest
named_tests -p vire-sim --test ingest -- \
  unknown_reader_and_non_finite_events_are_skipped_not_ingested \
  an_incomplete_map_buffers_nothing_in_the_service
named_tests -p vire-sim --lib -- stage_state_stays_bounded_while_the_map_is_incomplete
named_tests -p vire-core --lib -- \
  quiet_drives_leave_the_dirty_cells_in_the_stage \
  drive_drains_nothing_until_the_map_completes \
  drive_keeps_the_newest_lifetime_per_slot_in_first_drained_order
named_tests -p vire-core --test properties -- \
  ingest_ring_matches_naive_policy_model distinct_keys_past_the_ceiling_do_not_stall
named_tests -p vire-core --lib -- a_repeat_at_the_ceiling_supersedes_instead_of_dropping

# Middleware smoothing: a stream's value and change flag, read through a
# one-tag middleware, equal a from-scratch recompute over its reading
# history, to the bit (the median's order matches partial_cmp, ±0.0 ties
# in arrival order, and is total, so a non-finite reading cannot panic
# it). A window of five finite non-zero readings takes its median from a
# compare-exchange network, which matches the stable sort to the bit on
# every window (ties, ±0.0, NaN, ±∞) and on every order of five distinct
# readings. An invalid policy panics when the middleware is built. A drain reports each
# dirty, fully heard tag once and keeps nothing. The testbed hands each
# decoded reading straight to its stage: replaying its raw log into a
# fresh middleware rebuilds the engine's smoothed table to the bit.
echo "==> cargo test (middleware smoothing oracle)"
named_tests -p vire-sim --test properties -- \
  filter_value_and_change_flag_match_a_recompute \
  windowed_filters_take_non_finite_readings_without_panicking
named_tests -p vire-sim --lib -- \
  smoothing::tests::invalid_alpha_panics smoothing::tests::zero_window_panics \
  smoothing::tests::median_of_five_matches_the_stable_sort \
  smoothing::tests::median_of_five_network_sorts_every_permutation
named_tests -p vire-sim --test drain -- \
  partially_heard_tags_are_left_out_and_reported_once_complete \
  tags_heard_by_one_reader_do_not_accumulate
named_tests -p vire-sim --test pipeline_equivalence -- log_replay_matches_engine_middleware

# The wire must never change a number: a trace streamed over a real TCP
# socket (binary and JSON framing) produces estimates bit-identical to
# in-process replay on every kernel, malformed frames fail only their
# own connection, and shutdown drains before the final accounting.
echo "==> cargo test (socket transport oracle)"
cargo test -q -p vire-net --test socket_oracle

# Frame grammar robustness: every split point, every chunk size, every
# truncation must decode cleanly or error cleanly — never panic.
echo "==> cargo test (frame codec proptests)"
cargo test -q -p vire-net --test codec

# The end-to-end benchmark is its own workspace built against these
# crates by path and implements the core localizer traits, so an API
# change in vire-core must keep it building and its tests passing.
echo "==> cargo test (e2ebench)"
cargo test -q --offline --manifest-path e2ebench/Cargo.toml

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (vire-geom)"
cargo clippy -p vire-geom --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo doc"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Refresh the committed BENCH_*.json copies when bench summaries exist in
# target/ (benches themselves are not part of tier-1).
if ls target/*.json >/dev/null 2>&1; then
  echo "==> collect bench summaries"
  scripts/collect_bench.sh
fi

# Every tracked bench summary must report its optimized path ahead of the
# baseline: any `*speedup*` field below 1.0 is a committed regression.
# (Diagnostic ratios that legitimately straddle 1.0 — e.g. sync-vs-prepare
# with every reader dirty — are named `*_ratio`, not `speedup`.)
echo "==> bench speedup gate"
fail=0
for f in BENCH_*.json; do
  [[ -f "$f" ]] || continue
  while read -r field value; do
    ok=$(awk -v v="$value" 'BEGIN { print (v >= 1.0) ? 1 : 0 }')
    if [[ "$ok" != 1 ]]; then
      echo "REGRESSION: $f reports $field = $value (< 1.0)" >&2
      fail=1
    fi
  done < <(grep -o '"[A-Za-z_]*speedup[A-Za-z_]*"[[:space:]]*:[[:space:]]*[0-9.eE+-]*' "$f" \
    | sed 's/"\([A-Za-z_]*\)"[[:space:]]*:[[:space:]]*/\1 /')
done
if [[ "$fail" -ne 0 ]]; then
  echo "bench speedup gate failed" >&2
  exit 1
fi

# Serving gates: overload coalescing must beat naive oldest-drop on
# accuracy (coalesce_vs_drop >= 1.0), and the O(1) query path must stay
# under its recorded p999 bound — a query that started scanning or
# draining ingest state would blow through it.
if [[ -f BENCH_service_latency.json ]]; then
  echo "==> service latency gate"
  num() {
    grep -o "\"$1\"[[:space:]]*:[[:space:]]*[0-9.eE+-]*" BENCH_service_latency.json \
      | head -1 | sed 's/.*:[[:space:]]*//'
  }
  ratio=$(num coalesce_vs_drop)
  p999=$(num p999_per_query_us)
  bound=$(num p999_per_query_us_bound)
  if [[ -z "$ratio" || -z "$p999" || -z "$bound" ]]; then
    echo "REGRESSION: BENCH_service_latency.json is missing gated fields" >&2
    exit 1
  fi
  if [[ $(awk -v v="$ratio" 'BEGIN { print (v >= 1.0) ? 1 : 0 }') != 1 ]]; then
    echo "REGRESSION: coalesce_vs_drop = $ratio (< 1.0)" >&2
    exit 1
  fi
  if [[ $(awk -v p="$p999" -v b="$bound" 'BEGIN { print (p <= b) ? 1 : 0 }') != 1 ]]; then
    echo "REGRESSION: p999_per_query_us = $p999 exceeds bound $bound" >&2
    exit 1
  fi
fi

# Network serving gates: the framed query round trip must stay under its
# recorded p999 bound (a Nagle stall or a drive on the query path would
# blow through it), and the fabric must report zero hard drops at the top
# recorded loopback rate. binary_vs_json_speedup >= 1.0 rides the generic
# speedup gate above.
if [[ -f BENCH_net_throughput.json ]]; then
  echo "==> net throughput gate"
  nnum() {
    grep -o "\"$1\"[[:space:]]*:[[:space:]]*[0-9.eE+-]*" BENCH_net_throughput.json \
      | head -1 | sed 's/.*:[[:space:]]*//'
  }
  p999=$(nnum p999_rtt_us)
  bound=$(nnum p999_rtt_us_bound)
  lagged=$(nnum lagged_at_top_rate)
  if [[ -z "$p999" || -z "$bound" || -z "$lagged" ]]; then
    echo "REGRESSION: BENCH_net_throughput.json is missing gated fields" >&2
    exit 1
  fi
  if [[ $(awk -v p="$p999" -v b="$bound" 'BEGIN { print (p <= b) ? 1 : 0 }') != 1 ]]; then
    echo "REGRESSION: p999_rtt_us = $p999 exceeds bound $bound" >&2
    exit 1
  fi
  if [[ "$lagged" != 0 ]]; then
    echo "REGRESSION: lagged_at_top_rate = $lagged (must be 0)" >&2
    exit 1
  fi
fi

echo "tier-1: all checks passed"
