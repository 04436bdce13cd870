//! # vire-bench: socket-to-fix benchmark of the VIRE serving stack
//!
//! One harness measures what a user of the serving stack sees — beacon
//! bytes arriving at a gateway socket until the fix they produce is
//! queryable — and attributes that time to each layer it crossed:
//!
//! ```text
//! gateway socket → vire_net::codec → connection IngestFrontEnd → ReaderRoute
//!   → zone-ring IngestFrontEnd → pipeline-front IngestFrontEnd → vire_bus
//!   → MiddlewareStage → incremental sync → VIRE locate → Kalman → query
//! ```
//!
//! ## Running
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin vire-bench -- --seed 1
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin vire-bench -- \
//!     --workload burst_flood --seed 3 --seconds 20 --trace 1
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin vire-bench -- \
//!     compare base/ new/
//! ```
//!
//! * A **plain run** ([`run::run`]) stands a real [`vire_net::NetServer`]
//!   up on loopback five times (the median stand-up is `setup_s`), warms
//!   the last for 2 s, then measures `--seconds` (default 20) of paced
//!   load with at most two client threads and connections. It prints
//!   every end-to-end metric with its unit and sample count, checks the
//!   correctness gates, writes `target/vire-bench/<workload>-seed<N>.json`,
//!   and ends with one JSON line `{"correct", "attempted", "failed",
//!   "metrics"}`.
//! * A **traced run** (`--trace`, or `--trace 1`) does the same, then
//!   stands up a fresh server whose zone localizers are wrapped in the
//!   bench-side [`trace::Timed`] adapter, drives it for 5 s, and replays
//!   that server's exact batches in process twice: untraced through
//!   `IngestServer`, and traced through [`replay::MirrorZone`], with a span
//!   around every layer call. The two replays advance in alternating
//!   64-batch chunks, so a slow spell of the host lands on both and the
//!   tracing overhead stays measurable. Its result line carries the per-layer
//!   metrics; spans go to `target/vire-bench/trace-<workload>.json`.
//!   End-to-end metrics always come from the untraced run.
//! * **compare** ([`compare::compare`]) reads two run files or two
//!   directories of them and labels each end-to-end metric of each
//!   workload improved, worse, unchanged or unresolved against the
//!   bounds in `BENCHMARK.json` (unresolved: a side's run-to-run spread
//!   is wider than the bound). It exits 1 when anything got worse.
//!
//! The harness is its own Cargo package (with its own workspace), so
//! its tests run with `cargo test --manifest-path e2ebench/Cargo.toml`;
//! one of them smoke-runs every workload for a fraction of a second.
//!
//! ## Workloads
//!
//! Inputs are a pure function of `--seed` ([`workload::Inputs`]): each
//! zone's reading pool is captured from a `vire_sim::Testbed` (paper
//! deployment, environment 2) with seeded zone seeds and stratified,
//! seeded tracking-tag positions; batches cut from the pools carry
//! timestamps rewritten to a 10 ms batch clock. The server sees only
//! those framed batches.
//!
//! | name | load | why |
//! |---|---|---|
//! | `room_track` | 1 zone, 16 reference + 1000 tracking tags; every key in a batch distinct. One gateway, **open loop**: 400 events every 10 ms (40 k ev/s), sleeping until 200 µs before each due time, then spinning. One application connection, **closed loop** of queries round-robin over the tags, 1 ms think time, `at` = newest stream time. | Locate-heavy: ~100 tags synced, located and Kalman-folded per drive; codec and ingest are a small share. Queries (zone read lock) sit beside drives (write lock). |
//! | `burst_flood` | 1 zone, 16 reference + 5 tracking tags. One gateway, **closed loop** of 512-event batches over the zone's 84 keys (~84% coalesced at the connection), a query after every 4th ack. | The codec and ingest path at full rate, with at most 5 tags located per drive. Every batch also moves the calibration map, so each drive rebuilds the prepared state: the traced budget puts `sync` at ~40% of a batch. One gateway per zone makes the drive schedule deterministic, so the socket run must match an in-process replay bit for bit. |
//! | `campus_overlap` | 4 zones, 16 reference + 100 tracking tags each. Two gateways, **closed loop**, each fronting half of every zone's readers, so each 200-event batch carries 50 events per zone in campus-frame reader ids; a query after every 4th ack. | The only workload that exercises `ReaderRoute`, the per-zone shard rings and the `try_write` drive race: both gateways race for every zone. |
//!
//! ## End-to-end metrics (untraced run; bounds in `BENCHMARK.json`)
//!
//! | metric | unit | bound | definition |
//! |---|---|---|---|
//! | `setup_s` | s | 25% | `NetServer::from_traces`, plus the time from the clients being connected until every tracking tag answers `Fresh` (closed-loop warm batches); median of 5 stand-ups. The connects are not timed: they wait on the acceptor's 25 ms poll tick, which is idle time that lands on either side of a tick by chance |
//! | `ingest_ev_s` | ev/s | 25% | events acked per second in each 1 s window of the timed run; the run's second-best window in twenty. On `room_track` it equals the offered 40 k ev/s unless a backlog builds |
//! | `fix_p50_us`, `fix_p90_us` | us | 25% | due time (open loop) or send time (closed loop) of a batch until its `BATCH_OK`, which follows the zone drive: beacon-to-queryable-fix latency. The percentile within each 1 s window; the run's second-best window in twenty |
//!
//! Why the best windows: on the 2-core machine these numbers were
//! measured on, the host slows the benchmark down in spells of 5–15 s
//! (a fixed single-thread CPU loop drifts by ±12%; identical in-process
//! replays differ by up to ±15%; the socket workloads amplify that
//! through cross-core wake-ups and the parallel locate fan-out). A 20 s
//! run can fall almost entirely into such a spell, so its median window
//! moves with the host: across ten seeds its run-to-run spread
//! (interquartile range over median) reached 57% on `burst_flood`. The
//! host never speeds the benchmark up, so the best windows are what
//! repeats: with the second-best window the spreads measured 0–15%. The
//! price is that a regression confined to a few seconds of a run would
//! not show; every per-window percentile still sees the whole
//! distribution within its second. Why 25%: a bound must sit above the
//! run-to-run spread to be resolvable, and those spreads reach 15%.
//!
//! Printed as diagnostics with their sample counts, not gated: query
//! latency `query.p50_us` and `query.p90_us` (same windowing; an
//! uncontended query is two loopback wake-ups, so the median tracks the
//! host's idle-CPU wake latency, and the p90 sits on the edge between
//! queries that wait out a drive and queries that do not, so neither
//! held a 25% spread on every workload), the `fix.p99_us`/`fix.p999_us`
//! and `query.p99_us`/`query.p999_us` tails over the whole run,
//! `loc_err_m` (the paper's error e = √((x−x₀)²+(y−y₀)²), averaged over
//! every tracking tag's final `Fresh` answer against its truth), the
//! undriven-ack share, generator lateness, and `lagged_ratio`. Accuracy
//! is dominated by the seed's radio channel (its median moves by a third
//! between seeds), so it is gated for sanity (≤ 1 m), not bounded; lost
//! events and failed operations must be zero, so they are gates too.
//!
//! ## Correctness gates (a failing run exits non-zero)
//!
//! * the ledger `accepted == delivered + lagged + coalesced` balances and
//!   `accepted` equals every event sent;
//! * `protocol_errors == 0` and no event was hard-dropped (`lagged == 0`);
//! * every tracking tag answers `Fresh` at the end; no client call failed;
//! * the mean final error is under 1 m;
//! * `burst_flood`: the final answers are `f64::to_bits`-identical to an
//!   in-process `IngestServer` fed the same batches;
//! * traced runs: the mirror's final answers are bit-identical to the
//!   untraced `IngestServer` replay (the mirror cannot drift from the
//!   pipeline it mirrors), and on `burst_flood` the traced socket run's
//!   answers match it too (the timing adapter is transparent).
//!
//! ## Per-layer metrics (traced run) and the end-to-end metric each moves
//!
//! Self time = a span's duration minus the time its child spans cover.
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | `vire_net::codec` | `codec.encode_ns_ev` (`FrameSink::batch_events`), `codec.decode_ns_ev` (`FrameDecoder::push`, `next_frame`, `decode_batch_events`), `codec.bytes_ev` | `ingest_ev_s` on `burst_flood`; flat on `room_track` |
//! | `vire_core::ingest` (three `IngestFrontEnd` levels) | `ingest.conn_ns_ev`, `ingest.ring_ns_ev`, `ingest.front_ns_ev` (accept + drain), `ingest.coalesced_ratio` | `ingest_ev_s` on `burst_flood`; flat on `room_track` |
//! | `vire_net::server::ReaderRoute` | `route.ns_ev` | `ingest_ev_s` on `campus_overlap` |
//! | `vire_bus` | `bus.publish_ns_ev` | `ingest_ev_s` on `burst_flood` |
//! | `vire_sim::pipeline::MiddlewareStage` | `middleware.pump_ns_ev`, `middleware.changed_ratio`, `middleware.export_us_drive` (`reference_map` + `changed_readings` + `take_dirty_cells` + `removed_tags`), `middleware.dirty_cells_drive` | `fix_p50_us` on `room_track` |
//! | `vire_core::incremental` | `sync.us_drive`, `sync.reused` / `sync.patched` / `sync.rebuilt`, `sync.cells_patch` | `fix_p50_us` on `room_track` and `campus_overlap`; `fix_p50_us` and `ingest_ev_s` on `burst_flood`, where every drive rebuilds |
//! | `vire_core::prepared` / `vire_alg` | `locate.us_tag` (includes the first `prepare_owned`), `locate.tags_drive`, `locate.err_ratio` | `fix_p50_us` on `room_track`, `ingest_ev_s` on `campus_overlap`; flat on `burst_flood` |
//! | `vire_core::service` | `kalman.us_tag` (self time of `LocationService::drive`), `query.inproc_ns` | `fix_p50_us` on `room_track`, and the `query.p90_us` diagnostic there |
//! | `vire_net::server`, from outside | `server.undriven_ratio` (acks with `drove: false`), `server.transport_us` (mean socket batch round trip minus the mean untraced replay cost of a batch), `server.coalesced_ratio`, `server.frames` | `fix_p50_us` on `campus_overlap` (undriven acks) and on every workload (transport) |
//! | harness validity | `gen.late_p99_us` (a run is suspect above 1 ms), `trace.overhead_ratio` (traced replay wall over untraced, minus 1), `trace.sum_ratio` (summed self times over the untraced replay wall; 0.9–1.1 when the spans cover the replay and cost little) | — |

#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

pub use run::RunConfig;
pub use workload::Workload;
