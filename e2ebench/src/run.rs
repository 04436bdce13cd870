//! One benchmark run of one workload over a real `NetServer` on
//! loopback: stand-ups, warm-up, the timed run, the correctness gates,
//! and — when traced — the layer attribution.

use crate::metrics::{Outcome, PER_LAYER};
use crate::replay::{ingest_servers, mirror_zones, mismatches, Replay};
use crate::stats::{self, percentile};
use crate::trace::{Timed, Tracer};
use crate::workload::{Inputs, Pacing, Queries, Stream, Workload, INLINE_QUERY_EVERY};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use vire_core::{Localizer, LocationQuery, QueryResponse, Vire};
use vire_net::{Encoding, GatewayClient, NetConfig, NetServer, NetStats};

/// How long each phase of a run lasts.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Timed run, seconds.
    pub seconds: f64,
    /// Untimed warm-up before the timed run, seconds.
    pub warmup: f64,
    /// Stand-ups whose median is `setup_s`.
    pub standups: usize,
    /// Seconds of traced socket load before the replays; `None` runs
    /// untraced.
    pub trace_seconds: Option<f64>,
}

impl RunConfig {
    /// The benchmark's settings: 5 stand-ups, 2 s warm-up, `seconds`
    /// timed, and 5 s of traced socket load when `trace`.
    pub fn benchmark(seconds: f64, trace: bool) -> Self {
        RunConfig {
            seconds,
            warmup: 2.0,
            standups: 5,
            trace_seconds: trace.then_some(5.0),
        }
    }
}

/// Open-loop gateways sleep until this long before a due time, then
/// spin, so sends leave on time without burning a core between batches.
const SPIN: Duration = Duration::from_micros(200);

/// Stand-up rounds (each sends every key once) before giving up on
/// every tracking tag answering `Fresh`.
const MAX_COVER_ROUNDS: usize = 8;

/// A final fix farther than this from the truth fails the accuracy
/// gate: VIRE in the paper's room is decimeter-accurate, so only a
/// broken pipeline (wrong routing, scrambled readers) lands here.
const MAX_ERROR_M: f64 = 1.0;

/// Operations attempted and failed by clients.
#[derive(Debug, Clone, Copy, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn add(&mut self, o: Ops) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// The client connections of one stand-up.
struct Clients {
    gateways: Vec<GatewayClient>,
    app: Option<GatewayClient>,
}

impl Clients {
    /// The connection final queries go through.
    fn querier(&mut self) -> &mut GatewayClient {
        match self.app.as_mut() {
            Some(app) => app,
            None => &mut self.gateways[0],
        }
    }

    fn close(self, ops: &mut Ops) {
        for c in self.gateways.into_iter().chain(self.app) {
            ops.attempted += 1;
            if c.bye().is_err() {
                ops.failed += 1;
            }
        }
    }
}

/// A server stood up and warmed until every tracking tag is `Fresh`.
struct StandUp<L: Localizer + Send + 'static> {
    server: NetServer<L>,
    clients: Clients,
    seconds: f64,
    /// Batches sent per gateway.
    sent: Vec<u64>,
}

/// Newest stream time any gateway has sent.
fn newest(sent: &[u64]) -> f64 {
    sent.iter()
        .filter(|&&n| n > 0)
        .map(|&n| Stream::time_of(n - 1))
        .fold(0.0, f64::max)
}

fn answers_over(
    client: &mut GatewayClient,
    inputs: &Inputs,
    at: f64,
    ops: &mut Ops,
) -> Result<Vec<QueryResponse>, String> {
    inputs
        .tracked
        .iter()
        .map(|t| {
            ops.attempted += 1;
            client
                .query(t.zone, LocationQuery { tag: t.tag, at })
                .map_err(|e| {
                    ops.failed += 1;
                    format!("final query: {e}")
                })
        })
        .collect()
}

/// Stands a server up and sends whole cover rounds, closed loop, until
/// every tracking tag answers `Fresh`.
///
/// Timed: `from_traces`, and everything after the clients connected.
/// Not timed: the connects themselves, which wait on the acceptor's
/// poll tick (up to `NetConfig::poll_interval`, idle time rather than
/// set-up work, landing on either side of a tick by chance).
fn stand_up<L: Localizer + Send + 'static>(
    inputs: &Inputs,
    localizer: impl FnMut(usize) -> L,
    ops: &mut Ops,
) -> Result<StandUp<L>, String> {
    let start = Instant::now();
    let server = NetServer::from_traces(
        "127.0.0.1:0",
        &inputs.zones,
        localizer,
        NetConfig::default(),
    )
    .map_err(|e| format!("stand-up: {e}"))?;
    let built = start.elapsed();
    let addr = server.local_addr();
    let connect =
        || GatewayClient::connect(addr, Encoding::Binary).map_err(|e| format!("connect: {e}"));
    let mut clients = Clients {
        gateways: inputs
            .gateways
            .iter()
            .map(|_| connect())
            .collect::<Result<_, _>>()?,
        app: match inputs.workload.shape().queries {
            Queries::App { .. } => Some(connect()?),
            Queries::Inline => None,
        },
    };
    let mut sent = vec![0u64; inputs.gateways.len()];
    let cover = inputs
        .gateways
        .iter()
        .map(Stream::cover_batches)
        .max()
        .unwrap_or(1);
    let mut events = Vec::new();
    let connected = Instant::now();
    for _ in 0..MAX_COVER_ROUNDS {
        for _ in 0..cover {
            for (g, stream) in inputs.gateways.iter().enumerate() {
                stream.batch_into(sent[g], &mut events);
                ops.attempted += 1;
                clients.gateways[g].send_batch_ack(&events).map_err(|e| {
                    ops.failed += 1;
                    format!("stand-up batch: {e}")
                })?;
                sent[g] += 1;
            }
        }
        let answers = answers_over(clients.querier(), inputs, newest(&sent), ops)?;
        if answers
            .iter()
            .all(|a| matches!(a, QueryResponse::Fresh { .. }))
        {
            return Ok(StandUp {
                server,
                clients,
                seconds: (built + connected.elapsed()).as_secs_f64(),
                sent,
            });
        }
    }
    Err(format!(
        "tracking tags were not all Fresh after {MAX_COVER_ROUNDS} cover rounds"
    ))
}

/// One acknowledged batch. Offsets are seconds since the phase began.
#[derive(Debug, Clone, Copy)]
struct Ack {
    /// Due time (open loop) or send time (closed loop).
    start: f64,
    /// When the send call began.
    sent: f64,
    /// When the ack arrived.
    done: f64,
    events: u64,
    drove: bool,
}

/// One answered query.
#[derive(Debug, Clone, Copy)]
struct Query {
    start: f64,
    us: f64,
}

/// What one client thread did during a phase.
struct ClientLog {
    client: GatewayClient,
    /// Next batch index (gateways only).
    next: u64,
    acks: Vec<Ack>,
    queries: Vec<Query>,
    ops: Ops,
    error: Option<String>,
}

impl ClientLog {
    fn new(client: GatewayClient, next: u64) -> Self {
        ClientLog {
            client,
            next,
            acks: Vec::new(),
            queries: Vec::new(),
            ops: Ops::default(),
            error: None,
        }
    }
}

/// Samples of one paced phase.
struct Phase {
    clients: Clients,
    sent: Vec<u64>,
    acks: Vec<Ack>,
    queries: Vec<Query>,
    ops: Ops,
    errors: Vec<String>,
}

/// What every client thread of one paced phase shares.
struct Pace<'a> {
    inputs: &'a Inputs,
    epoch: Instant,
    end: Instant,
    /// Bits of the newest acked stream time. Positive floats order like
    /// their bits, so `fetch_max` keeps the newest.
    newest: AtomicU64,
}

impl Pace<'_> {
    /// Seconds from the phase start to `t`.
    fn offset(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Asks where tracked tag `k` (mod the tag count) is at the newest
    /// stream time, logging the round trip.
    fn query(&self, log: &mut ClientLog, k: usize) -> Result<(), String> {
        let t = self.inputs.tracked[k % self.inputs.tracked.len()];
        let at = f64::from_bits(self.newest.load(Ordering::Relaxed));
        log.ops.attempted += 1;
        let t0 = Instant::now();
        match log.client.query(t.zone, LocationQuery { tag: t.tag, at }) {
            Ok(answer) => {
                std::hint::black_box(answer);
                log.queries.push(Query {
                    start: self.offset(t0),
                    us: t0.elapsed().as_secs_f64() * 1e6,
                });
                Ok(())
            }
            Err(e) => {
                log.ops.failed += 1;
                Err(format!("query: {e}"))
            }
        }
    }

    /// Gateway `g`'s loop: batches from `log.next` on, paced as the
    /// workload says, with inline queries when it asks for them.
    fn gateway(&self, g: usize, mut log: ClientLog) -> ClientLog {
        let shape = self.inputs.workload.shape();
        let stream = &self.inputs.gateways[g];
        // Gateways start their query round-robin apart.
        let mut q = g * self.inputs.tracked.len() / self.inputs.gateways.len();
        let mut events = Vec::new();
        for k in 0u64.. {
            stream.batch_into(log.next, &mut events);
            let start = match shape.pacing {
                Pacing::Open { period } => {
                    let due = self.epoch + period * k as u32;
                    if due >= self.end {
                        break;
                    }
                    let now = Instant::now();
                    if due > now + SPIN {
                        std::thread::sleep(due - now - SPIN);
                    }
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    due
                }
                Pacing::Closed => {
                    let now = Instant::now();
                    if now >= self.end {
                        break;
                    }
                    now
                }
            };
            let sent = Instant::now();
            log.ops.attempted += 1;
            let ack = match log.client.send_batch_ack(&events) {
                Ok(ack) => ack,
                Err(e) => {
                    log.ops.failed += 1;
                    log.error = Some(format!("batch: {e}"));
                    break;
                }
            };
            let done = Instant::now();
            self.newest
                .fetch_max(Stream::time_of(log.next).to_bits(), Ordering::Relaxed);
            log.acks.push(Ack {
                start: self.offset(start),
                sent: self.offset(sent),
                done: self.offset(done),
                events: events.len() as u64,
                drove: ack.drove,
            });
            log.next += 1;
            if shape.queries == Queries::Inline && (k + 1) % INLINE_QUERY_EVERY == 0 {
                if let Err(e) = self.query(&mut log, q) {
                    log.error = Some(e);
                    break;
                }
                q += 1;
            }
        }
        log
    }

    /// The application connection's closed loop of queries.
    fn app(&self, think: Duration, mut log: ClientLog) -> ClientLog {
        for k in 0.. {
            if Instant::now() >= self.end {
                break;
            }
            if let Err(e) = self.query(&mut log, k) {
                log.error = Some(e);
                break;
            }
            std::thread::sleep(think);
        }
        log
    }
}

/// Drives `clients` with the workload's pacing for `seconds`, one
/// thread per connection (at most two). Gateways continue their streams
/// from `sent`.
fn paced_phase(inputs: &Inputs, clients: Clients, sent: Vec<u64>, seconds: f64) -> Phase {
    let epoch = Instant::now();
    let pace = Pace {
        inputs,
        epoch,
        end: epoch + Duration::from_secs_f64(seconds),
        newest: AtomicU64::new(newest(&sent).to_bits()),
    };
    let (gateway_logs, app_log) = std::thread::scope(|s| {
        let pace = &pace;
        let gateways: Vec<_> = clients
            .gateways
            .into_iter()
            .enumerate()
            .map(|(g, client)| {
                let log = ClientLog::new(client, sent[g]);
                s.spawn(move || pace.gateway(g, log))
            })
            .collect();
        let app = clients.app.map(|client| {
            let Queries::App { think } = inputs.workload.shape().queries else {
                unreachable!("an app connection exists only for app queries")
            };
            s.spawn(move || pace.app(think, ClientLog::new(client, 0)))
        });
        let join = |h: std::thread::ScopedJoinHandle<'_, ClientLog>| {
            h.join().expect("client threads do not panic")
        };
        (
            gateways.into_iter().map(join).collect::<Vec<_>>(),
            app.map(join),
        )
    });
    let mut phase = Phase {
        clients: Clients {
            gateways: Vec::new(),
            app: None,
        },
        sent: gateway_logs.iter().map(|l| l.next).collect(),
        acks: Vec::new(),
        queries: Vec::new(),
        ops: Ops::default(),
        errors: Vec::new(),
    };
    let absorb = |log: ClientLog, phase: &mut Phase| {
        phase.acks.extend(log.acks);
        phase.queries.extend(log.queries);
        phase.ops.add(log.ops);
        phase.errors.extend(log.error);
        log.client
    };
    for log in gateway_logs {
        let client = absorb(log, &mut phase);
        phase.clients.gateways.push(client);
    }
    phase.clients.app = app_log.map(|log| absorb(log, &mut phase));
    phase
}

/// A finished socket session: the phase, the final answers, and the
/// server's final accounting.
struct Session {
    phase: Phase,
    sent: Vec<u64>,
    at: f64,
    answers: Vec<QueryResponse>,
    stats: NetStats,
}

/// Runs `phase_seconds` of paced load on a stood-up server, reads every
/// tracked tag's final answer, closes the clients, and shuts down.
fn session<L: Localizer + Send + 'static>(
    inputs: &Inputs,
    up: StandUp<L>,
    phase_seconds: f64,
    ops: &mut Ops,
) -> Result<Session, String> {
    let mut phase = paced_phase(inputs, up.clients, up.sent, phase_seconds);
    ops.add(phase.ops);
    let sent = phase.sent.clone();
    let at = newest(&sent);
    let answers = answers_over(phase.clients.querier(), inputs, at, ops)?;
    let clients = std::mem::replace(
        &mut phase.clients,
        Clients {
            gateways: Vec::new(),
            app: None,
        },
    );
    clients.close(ops);
    let stats = up.server.shutdown();
    Ok(Session {
        phase,
        sent,
        at,
        answers,
        stats,
    })
}

/// The gates every socket session must pass.
fn session_gates(label: &str, inputs: &Inputs, s: &Session, out: &mut Outcome) {
    let expected: u64 = s
        .sent
        .iter()
        .zip(&inputs.gateways)
        .map(|(&n, g)| n * g.events_per_batch() as u64)
        .sum();
    out.gate(
        &format!("{label}.ledger"),
        s.stats.balanced() && s.stats.accepted == expected,
        format!("{} (events sent {expected})", s.stats),
    );
    out.gate(
        &format!("{label}.protocol_errors"),
        s.stats.protocol_errors == 0,
        format!("{}", s.stats.protocol_errors),
    );
    out.gate(
        &format!("{label}.lagged"),
        s.stats.lagged == 0,
        format!(
            "{} hard-dropped of {} accepted",
            s.stats.lagged, s.stats.accepted
        ),
    );
    let fresh = s
        .answers
        .iter()
        .filter(|a| matches!(a, QueryResponse::Fresh { .. }))
        .count();
    out.failed += (s.answers.len() - fresh) as u64;
    out.gate(
        &format!("{label}.fresh"),
        fresh == s.answers.len(),
        format!("{fresh}/{} tracking tags Fresh at the end", s.answers.len()),
    );
    out.gate(
        &format!("{label}.client_errors"),
        s.phase.errors.is_empty(),
        if s.phase.errors.is_empty() {
            "none".into()
        } else {
            s.phase.errors.join("; ")
        },
    );
}

/// Mean distance from each tracked tag's final `Fresh` answer to its
/// truth, meters.
fn mean_error(inputs: &Inputs, answers: &[QueryResponse]) -> f64 {
    let errs: Vec<f64> = inputs
        .tracked
        .iter()
        .zip(answers)
        .filter_map(|(t, a)| match a {
            QueryResponse::Fresh { position, .. } => Some(position.distance(t.truth)),
            _ => None,
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// Batches per chunk when the traced and untraced replays alternate.
const REPLAY_CHUNK: u64 = 64;

/// Replays the batches `sent` through one untraced `IngestServer` per
/// zone.
fn reference_replay(inputs: &Inputs, sent: &[u64]) -> Replay<vire_sim::IngestServer<Vire>> {
    let mut replay = Replay::new(inputs, ingest_servers(inputs), Tracer::off());
    replay.run(
        &inputs.gateways,
        sent,
        0..sent.iter().copied().max().unwrap_or(0),
    );
    replay
}

/// Runs `workload` once. `Err` only when the run could not be carried
/// out (generation, bind, or stand-up failure); failed gates are
/// reported in the outcome.
pub fn run(workload: Workload, seed: u64, cfg: &RunConfig) -> Result<Outcome, String> {
    let inputs = Inputs::generate(workload, seed)?;
    let mut out = Outcome::new(workload, seed, cfg, inputs.fingerprint(16));
    let mut ops = Ops::default();

    // Stand-ups: each is timed; all but the last are then torn down.
    let mut setups = Vec::with_capacity(cfg.standups);
    let up = loop {
        let up = stand_up(&inputs, |_| Vire::default(), &mut ops)?;
        setups.push(up.seconds);
        if setups.len() >= cfg.standups {
            break up;
        }
        up.clients.close(&mut ops);
        up.server.shutdown();
    };
    let main = session(&inputs, up, cfg.warmup + cfg.seconds, &mut ops)?;
    session_gates("socket", &inputs, &main, &mut out);

    let loc_err = mean_error(&inputs, &main.answers);
    out.gate(
        "socket.accuracy",
        loc_err <= MAX_ERROR_M,
        format!("mean final error {loc_err:.4} m (ceiling {MAX_ERROR_M} m)"),
    );
    if workload == Workload::BurstFlood {
        // One gateway per zone sending ack-per-batch: every batch drives,
        // so the socket's final state is an in-process replay's.
        let reference = reference_replay(&inputs, &main.sent);
        let diff = mismatches(&main.answers, &reference.answers(&inputs, main.at));
        out.gate(
            "socket.matches_ingest_server",
            diff == 0,
            format!(
                "{diff} of {} final answers differ in bits",
                main.answers.len()
            ),
        );
    }

    // Timed window: everything that started after the warm-up.
    let (t0, t1) = (cfg.warmup, cfg.warmup + cfg.seconds);
    let timed = |start: f64| start >= t0 && start < t1;
    let acks: Vec<_> = main
        .phase
        .acks
        .iter()
        .filter(|a| timed(a.start))
        .copied()
        .collect();
    let queries: Vec<_> = main
        .phase
        .queries
        .iter()
        .filter(|q| timed(q.start))
        .copied()
        .collect();
    // Every rate and percentile is taken per 1 s window, and a run
    // reports its second-best window in twenty (`best_tenth`). The host
    // only ever slows the benchmark down — in spells of seconds that a
    // whole run can fall into — so the run's best windows are what
    // repeats from run to run; a median window moves with the host.
    let windows = (cfg.seconds.round() as usize).max(1);
    let width = cfg.seconds / windows as f64;
    let rates = stats::window_rates(
        &acks.iter().map(|a| (a.done, a.events)).collect::<Vec<_>>(),
        t0,
        width,
        windows,
    );
    let fix_samples: Vec<(f64, f64)> = acks
        .iter()
        .map(|a| (a.start, (a.done - a.start) * 1e6))
        .collect();
    let query_samples: Vec<(f64, f64)> = queries.iter().map(|q| (q.start, q.us)).collect();
    let windowed = |samples: &[(f64, f64)], q: f64| {
        stats::best_tenth(
            &stats::window_percentiles(samples, t0, width, windows, q),
            false,
        )
    };
    if fix_samples.is_empty() || query_samples.is_empty() || rates.is_empty() {
        return Err(format!(
            "the timed run produced no samples ({} acks, {} queries, {} windows)",
            fix_samples.len(),
            query_samples.len(),
            rates.len()
        ));
    }
    out.end_to_end("setup_s", stats::median(&setups), setups.len());
    out.end_to_end("ingest_ev_s", stats::best_tenth(&rates, true), rates.len());
    out.end_to_end(
        "fix_p50_us",
        windowed(&fix_samples, 50.0),
        fix_samples.len(),
    );
    out.end_to_end(
        "fix_p90_us",
        windowed(&fix_samples, 90.0),
        fix_samples.len(),
    );

    let fix = stats::sorted(fix_samples.iter().map(|s| s.1).collect());
    let query = stats::sorted(query_samples.iter().map(|s| s.1).collect());

    let (undriven, late_p99) = undriven_and_late(&acks);
    for (name, q) in [("query.p50_us", 50.0), ("query.p90_us", 90.0)] {
        out.diagnostic(name, "us", windowed(&query_samples, q), query_samples.len());
    }
    for (name, sorted, q) in [
        ("fix.p99_us", &fix, 99.0),
        ("fix.p999_us", &fix, 99.9),
        ("query.p99_us", &query, 99.0),
        ("query.p999_us", &query, 99.9),
    ] {
        out.diagnostic(name, "us", percentile(sorted, q), sorted.len());
    }
    out.diagnostic("loc_err_m", "m", loc_err, main.answers.len());
    out.diagnostic("server.undriven_ratio", "ratio", undriven, acks.len());
    out.diagnostic("gen.late_p99_us", "us", late_p99, acks.len());
    out.diagnostic(
        "lagged_ratio",
        "ratio",
        main.stats.lagged as f64 / main.stats.accepted.max(1) as f64,
        1,
    );

    if let Some(trace_seconds) = cfg.trace_seconds {
        traced(&inputs, trace_seconds, &main, &acks, &mut ops, &mut out)?;
    }
    out.attempted += ops.attempted;
    out.failed += ops.failed;
    Ok(out)
}

/// The traced run: a fresh server whose zone localizers are [`Timed`],
/// `trace_seconds` of paced load, then the in-process replays of that
/// server's exact batches — untraced through `IngestServer` and traced
/// through the mirror — whose answers must agree bit for bit.
fn traced(
    inputs: &Inputs,
    trace_seconds: f64,
    main: &Session,
    acks: &[Ack],
    ops: &mut Ops,
    out: &mut Outcome,
) -> Result<(), String> {
    let net_tracer = Tracer::on();
    let up = stand_up(
        inputs,
        |_| Timed::new(Vire::default(), net_tracer.clone()),
        ops,
    )?;
    let net = session(inputs, up, trace_seconds, ops)?;
    session_gates("traced_socket", inputs, &net, out);

    // The two replays advance in alternating chunks, so a slow spell of
    // the host lands on both and the overhead ratio stays meaningful.
    let replay_tracer = Tracer::on();
    let mut reference = Replay::new(inputs, ingest_servers(inputs), Tracer::off());
    let mut mirror = Replay::new(
        inputs,
        mirror_zones(inputs, &replay_tracer),
        replay_tracer.clone(),
    );
    let (mut wall_untraced, mut wall_traced) = (0.0, 0.0);
    let rounds = net.sent.iter().copied().max().unwrap_or(0);
    for (k, first) in (0..rounds).step_by(REPLAY_CHUNK as usize).enumerate() {
        let chunk = first..(first + REPLAY_CHUNK).min(rounds);
        if k % 2 == 0 {
            wall_untraced += reference.run(&inputs.gateways, &net.sent, chunk.clone());
            wall_traced += mirror.run(&inputs.gateways, &net.sent, chunk);
        } else {
            wall_traced += mirror.run(&inputs.gateways, &net.sent, chunk.clone());
            wall_untraced += reference.run(&inputs.gateways, &net.sent, chunk);
        }
    }
    let reference_answers = reference.answers(inputs, net.at);
    let diff = mismatches(&mirror.answers(inputs, net.at), &reference_answers);
    out.gate(
        "replay.mirror_matches_ingest_server",
        diff == 0,
        format!(
            "{diff} of {} final answers differ in bits",
            reference_answers.len()
        ),
    );
    if inputs.workload == Workload::BurstFlood {
        let diff = mismatches(&net.answers, &reference_answers);
        out.gate(
            "traced_socket.matches_ingest_server",
            diff == 0,
            format!(
                "{diff} of {} final answers differ in bits",
                net.answers.len()
            ),
        );
    }

    let log = replay_tracer.log();
    let c = mirror.counts;
    let sync = mirror.sync_stats();
    let by = log.self_by_name();
    let self_ns = |name: &str| by.get(name).map_or(0, |e| e.0) as f64;
    let syncs = by.get("sync").map_or(0, |e| e.1);
    let per = |num: f64, den: u64| num / den.max(1) as f64;
    let export_ns: f64 = by
        .iter()
        .filter(|(n, _)| n.starts_with("export."))
        .map(|(_, e)| e.0 as f64)
        .sum();
    let rtt_us = acks.iter().map(|a| (a.done - a.sent) * 1e6).sum::<f64>() / acks.len() as f64;
    let replay_us_batch = wall_untraced * 1e6 / c.batches.max(1) as f64;
    let (undriven, late_p99) = undriven_and_late(acks);
    let query_rounds = (20_000 / inputs.tracked.len()).max(1);
    let queries = (query_rounds * inputs.tracked.len()) as u64;
    let acked = acks.len() as u64;
    let coalesced = c.conn_coalesced + c.ring_coalesced + c.front_coalesced;
    #[rustfmt::skip]
    let rows: [(&str, f64, u64); PER_LAYER.len()] = [
        ("codec.encode_ns_ev", per(self_ns("codec.encode"), c.events), c.events),
        ("codec.decode_ns_ev", per(self_ns("codec.decode"), c.events), c.events),
        ("codec.bytes_ev", per(c.bytes as f64, c.events), c.events),
        ("ingest.conn_ns_ev", per(self_ns("ingest.conn"), c.conn_in), c.conn_in),
        ("ingest.ring_ns_ev", per(self_ns("ingest.ring"), c.ring_in), c.ring_in),
        ("ingest.front_ns_ev", per(self_ns("ingest.front"), c.front_in), c.front_in),
        ("ingest.coalesced_ratio", per(coalesced as f64, c.conn_in), c.conn_in),
        ("route.ns_ev", per(self_ns("route"), c.conn_in), c.conn_in),
        ("bus.publish_ns_ev", per(self_ns("bus.publish"), c.published), c.published),
        ("middleware.pump_ns_ev", per(self_ns("middleware.pump"), c.published), c.published),
        ("middleware.changed_ratio", per(c.changed as f64, c.published), c.published),
        ("middleware.export_us_drive", per(export_ns / 1e3, c.drives), c.drives),
        ("middleware.dirty_cells_drive", per(c.dirty_cells as f64, c.drives), c.drives),
        ("sync.us_drive", per(self_ns("sync") / 1e3, syncs), syncs),
        ("sync.reused", sync.reused as f64, c.drives),
        ("sync.patched", sync.patched as f64, c.drives),
        ("sync.rebuilt", sync.rebuilt as f64, c.drives),
        ("sync.cells_patch", per(sync.patched_cells as f64, sync.patched), sync.patched),
        ("locate.us_tag", per((self_ns("locate") + self_ns("locate.prepare")) / 1e3, c.located), c.located),
        ("locate.tags_drive", per(c.located as f64, c.locating_drives), c.locating_drives),
        ("locate.err_ratio", per(c.locate_errors as f64, c.located), c.located),
        ("kalman.us_tag", per(self_ns("service.drive") / 1e3, c.located), c.located),
        ("query.inproc_ns", mirror.query_ns(inputs, net.at, query_rounds), queries),
        ("server.undriven_ratio", undriven, acked),
        ("server.transport_us", rtt_us - replay_us_batch, acked),
        ("server.coalesced_ratio", per(main.stats.coalesced as f64, main.stats.accepted), main.stats.accepted),
        ("server.frames", main.stats.frames as f64, 1),
        ("gen.late_p99_us", late_p99, acked),
        ("trace.overhead_ratio", wall_traced / wall_untraced - 1.0, c.batches),
        ("trace.sum_ratio", log.total_self_ns() as f64 / 1e9 / wall_untraced, log.spans.len() as u64),
    ];
    for (name, value, samples) in rows {
        out.per_layer(name, value, samples as usize);
    }

    out.budget = by
        .iter()
        .map(|(&name, &(ns, n))| (name, ns as f64 / 1e9, n))
        .collect();
    out.replay_wall_s = (wall_untraced, wall_traced);
    let net_log = net_tracer.log();
    out.trace_doc = Some((net_log, log));
    Ok(())
}

/// The share of acks that came back `drove: false`, and the p99 of how
/// late the generator sent each batch after its start, microseconds.
/// `acks` is non-empty.
fn undriven_and_late(acks: &[Ack]) -> (f64, f64) {
    let undriven = acks.iter().filter(|a| !a.drove).count() as f64 / acks.len() as f64;
    let late = stats::sorted(
        acks.iter()
            .map(|a| ((a.sent - a.start) * 1e6).max(0.0))
            .collect(),
    );
    (undriven, percentile(&late, 99.0))
}
