//! The serving workloads: an in-process `exea-serve` over loopback TCP,
//! driven by two closed-loop connections of the plain (non-retrying)
//! client. Every answer is checked as it arrives, outside its timing,
//! against references computed before the run.

use crate::inputs::{self, ExactScorer};
use crate::layers::Probe;
use crate::stats::{self, Metric, Samples};
use crate::{trace, Args, Outcome};
use ea_data::datasets::{DatasetName, DatasetScale};
use ea_graph::KgSide;
use exea_serve::{
    Client, Endpoint, Engine, EngineConfig, Request, Response, Server, ServerConfig, ServerHandle,
    Tier,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Candidates per predict.
const K: u16 = 10;
/// Exact ranking kept per source for the top-k checks (a longer one is
/// computed only when near-ties reach past it).
const BEST: usize = 24;
/// Pairs explain and verify draw from.
const POOL: usize = 512;
/// Pairs per verify request.
const VERIFY_BATCH: usize = 8;
/// `serve-write`'s LSM seal budget and the sealed-segment count that
/// triggers a compaction: small, so seals and compactions happen within a
/// run.
pub const WRITE_SEAL_ROWS: usize = 16;
pub const WRITE_COMPACT_AT: usize = 4;
/// Full-tier predicts the reader sends per `serve-write` round.
const READS_PER_WRITE_ROUND: usize = 6;
/// How long a client waits on a stalled read before polling again.
const READ_TIMEOUT: Duration = Duration::from_secs(1);
/// In a traced run, tracing flips on and off in slices this long.
const TRACE_SLICE: Duration = Duration::from_millis(500);
/// Check failures kept per connection.
const MAX_ERRORS: usize = 20;

/// A running daemon over a bench-scale engine.
pub struct Serving {
    pub engine: &'static Engine,
    pub handle: ServerHandle,
    pub endpoint: Endpoint,
}

impl Serving {
    pub fn client(&self) -> Client {
        Client::connect(&self.endpoint, READ_TIMEOUT).expect("connect to the in-process daemon")
    }
}

fn engine_config(lsm_seal_rows: usize, compact_segments: usize) -> EngineConfig {
    EngineConfig {
        dataset: DatasetName::ZhEn,
        scale: DatasetScale::Bench,
        model: inputs::MODEL,
        max_k: 50,
        nshards: 4,
        partial_route: 0,
        compact_segments,
        lsm_seal_rows,
    }
}

/// Generates and trains from `seed`, builds the engine (leaked for the
/// daemon's `'static` borrow) and starts the daemon on an ephemeral
/// loopback port.
pub fn start(
    dataset: DatasetName,
    seed: u64,
    lsm_seal_rows: usize,
    compact_segments: usize,
) -> Serving {
    let pair = inputs::generate(dataset, seed);
    let trained = inputs::train(&pair, seed);
    let config = engine_config(lsm_seal_rows, compact_segments);
    let engine = trace::span("serve.engine_build", || {
        Engine::from_trained(pair, trained, &config)
    })
    .expect("the serving engine builds");
    let engine: &'static Engine = Box::leak(Box::new(engine));
    let handle = trace::span("serve.server_start", || {
        Server::start(
            engine,
            &[Endpoint::Tcp("127.0.0.1:0".into())],
            ServerConfig::default(),
        )
    })
    .expect("the daemon starts on loopback");
    let addr = handle.tcp_addr().expect("a bound TCP address");
    Serving {
        engine,
        handle,
        endpoint: Endpoint::Tcp(addr.to_string()),
    }
}

/// A few requests of every read kind, so connections, caches and lazy
/// state are warm before timing.
fn warm_up(serving: &Serving) {
    let mut client = serving.client();
    let pair = serving.engine.sample_pair().expect("a non-empty alignment");
    let (s, t) = (pair.source.0, pair.target.0);
    for i in 0..20u32 {
        let source = i % serving.engine.num_sources() as u32;
        for tier in [Tier::Full, Tier::Partial, Tier::Sq8] {
            let _ = client.call(
                Request::Predict {
                    source,
                    k: K,
                    tier: Some(tier),
                },
                0,
            );
        }
        let _ = client.call(
            Request::Explain {
                source: s,
                target: t,
            },
            0,
        );
        let _ = client.call(
            Request::Verify {
                pairs: vec![(s, t); VERIFY_BATCH],
            },
            0,
        );
        let _ = client.call(Request::Health, 0);
    }
}

/// `SETUPS` complete set-ups (input, training, engine, daemon, warm-up),
/// each shut down before the next; the last keeps serving.
fn setup(
    seed: u64,
    lsm_seal_rows: usize,
    compact_segments: usize,
    samples: &mut Samples,
) -> Serving {
    let mut last: Option<Serving> = None;
    for _ in 0..SETUPS {
        if let Some(prev) = last.take() {
            prev.handle.shutdown();
        }
        last = Some(trace::sample(samples, "bench.setup", || {
            let serving = start(DatasetName::ZhEn, seed, lsm_seal_rows, compact_segments);
            trace::span("serve.warm_up", || warm_up(&serving));
            serving
        }));
    }
    last.expect("at least one set-up")
}

/// What the library itself answers for one pair, called directly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expected {
    confidence: u64,
    strong: bool,
    num_triples: u32,
    accepted: bool,
}

/// References computed before the run: each source's exact ranking, and
/// direct library answers for a seeded pool of `(source, top-5 candidate)`
/// pairs.
struct Refs {
    exact: ExactScorer,
    best: Vec<Vec<(u32, f64)>>,
    pool: Vec<(u32, u32)>,
    expected: BTreeMap<(u32, u32), Expected>,
    targets: usize,
    /// Whether Full-tier ties must come in id order: true until the live
    /// corpus is mutated (see [`inputs::check_candidates`]).
    full_ties_by_id: bool,
}

impl Refs {
    fn new(engine: &Engine, seed: u64, full_ties_by_id: bool) -> Refs {
        let exact = ExactScorer::new(engine.exea().trained());
        let best = (0..engine.num_sources() as u32)
            .map(|s| exact.top(s, BEST))
            .collect();
        let index = engine.exea().candidate_index();
        let mut pool = Vec::new();
        for (row, &source) in index.source_ids().iter().enumerate() {
            for (target, _) in index.candidates(row).take(5) {
                pool.push((source.0, target.0));
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(inputs::mix(seed, 11));
        pool.shuffle(&mut rng);
        pool.truncate(POOL);
        let beta = engine.beta();
        let expected = pool
            .iter()
            .map(|&(s, t)| {
                let pair = engine.pair_of(s, t);
                let explained = &engine.explain_batch(&[pair])[0];
                let scored = engine.score_batch(&[pair])[0];
                let e = Expected {
                    confidence: explained.confidence().to_bits(),
                    strong: explained.adg.has_strong_edges(),
                    num_triples: explained.explanation.num_triples() as u32,
                    accepted: scored.has_strong_edges && scored.confidence >= beta,
                };
                ((s, t), e)
            })
            .collect();
        Refs {
            targets: exact.num_targets(),
            exact,
            best,
            pool,
            expected,
            full_ties_by_id,
        }
    }

    /// Checks a predict answer; see [`inputs::check_candidates`].
    fn predict(
        &self,
        source: u32,
        tier: Tier,
        response: &Response,
        excluded: Option<u32>,
    ) -> Result<(), String> {
        let Response::Predict {
            tier: served,
            candidates,
        } = response
        else {
            return Err(format!("predict {source}: answered {response:?}"));
        };
        if *served != tier {
            return Err(format!(
                "predict {source} pinned to {tier:?} served at {served:?}"
            ));
        }
        let got: Vec<(u32, f32)> = candidates.iter().map(|c| (c.target, c.score)).collect();
        let best = &self.best[source as usize];
        let complete = tier == Tier::Full;
        let want = inputs::Want {
            k: usize::from(K),
            excluded,
            complete,
            ties_by_id: !complete || self.full_ties_by_id,
        };
        inputs::check_candidates(&self.exact, source, best, &got, want)
            .map_err(|e| format!("predict {source} at {tier:?}: {e}"))
    }

    fn explain(&self, pair: (u32, u32), response: &Response) -> Result<(), String> {
        let want = self.expected[&pair];
        match *response {
            Response::Explain {
                confidence,
                has_strong_edges,
                num_triples,
            } if confidence.to_bits() == want.confidence
                && has_strong_edges == want.strong
                && num_triples == want.num_triples =>
            {
                Ok(())
            }
            _ => Err(format!(
                "explain {pair:?}: wire {response:?}, library {want:?}"
            )),
        }
    }

    fn verify(&self, pairs: &[(u32, u32)], response: &Response) -> Result<(), String> {
        let Response::Verify { verdicts } = response else {
            return Err(format!("verify: answered {response:?}"));
        };
        let same = verdicts.len() == pairs.len()
            && pairs.iter().zip(verdicts).all(|(p, &(ok, c))| {
                let want = self.expected[p];
                ok == want.accepted && c.to_bits() == want.confidence
            });
        if same {
            Ok(())
        } else {
            Err(format!(
                "verify of {} pairs: wire verdicts differ from the library's",
                pairs.len()
            ))
        }
    }
}

/// Request kinds, for latency bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    PredictFull,
    PredictPartial,
    PredictSq8,
    Explain,
    Verify,
    Remove,
    Insert,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::PredictFull => "serve.call_predict_full",
            Kind::PredictPartial => "serve.call_predict_partial",
            Kind::PredictSq8 => "serve.call_predict_sq8",
            Kind::Explain => "serve.call_explain",
            Kind::Verify => "serve.call_verify",
            Kind::Remove => "serve.call_remove",
            Kind::Insert => "serve.call_insert",
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Kind::PredictFull => "predict_full_p50_us",
            Kind::PredictPartial => "predict_partial_p50_us",
            Kind::PredictSq8 => "predict_sq8_p50_us",
            Kind::Explain => "explain_p50_us",
            Kind::Verify => "verify_p50_us",
            Kind::Remove => "remove_p50_us",
            Kind::Insert => "insert_p50_us",
        }
    }

    fn of(tier: Tier) -> Kind {
        match tier {
            Tier::Full => Kind::PredictFull,
            Tier::Partial => Kind::PredictPartial,
            Tier::Sq8 => Kind::PredictSq8,
        }
    }
}

/// What one connection saw.
#[derive(Default)]
struct Log {
    latency: BTreeMap<Kind, Samples>,
    /// Busy time of each round, and whether tracing was on when it began.
    rounds: Vec<(Duration, bool)>,
    /// When each round ended, and how many of its requests were answered.
    ends: Vec<(Instant, u64)>,
    answered_in_round: u64,
    attempted: u64,
    /// Requests that got no answer, or a refusal.
    refused: Vec<String>,
    refused_count: u64,
    errors: Vec<String>,
    /// Answers whose bit-equal scores are not in id order.
    ties_by_position: u64,
}

impl Log {
    /// Sends one request and times it; returns the response unless it was
    /// a refusal or a transport failure.
    fn call(&mut self, client: &mut Client, kind: Kind, request: Request) -> Option<Response> {
        self.attempted += 1;
        let (result, d) = trace::timed(kind.span(), || client.call(request, 0));
        let refusal = match result {
            Ok(
                r @ (Response::Overloaded { .. }
                | Response::DeadlineExceeded
                | Response::ShuttingDown
                | Response::BadRequest { .. }
                | Response::Internal { .. }),
            ) => format!("{kind:?}: {r:?}"),
            Ok(response) => {
                self.latency.entry(kind).or_default().push(d);
                self.answered_in_round += 1;
                return Some(response);
            }
            Err(e) => format!("{kind:?}: {e}"),
        };
        self.refused_count += 1;
        if self.refused.len() < MAX_ERRORS {
            self.refused.push(refusal);
        }
        None
    }

    fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }

    fn note_ties(&mut self, response: &Response) {
        if let Response::Predict { candidates, .. } = response {
            let out_of_id_order = candidates
                .windows(2)
                .any(|w| w[0].score == w[1].score && w[0].target > w[1].target);
            self.ties_by_position += u64::from(out_of_id_order);
        }
    }

    fn end_round(&mut self, t0: Instant, traced: bool) {
        let now = Instant::now();
        self.rounds.push((now - t0, traced));
        self.ends.push((now, self.answered_in_round));
        self.answered_in_round = 0;
    }

    fn count(&self, kind: Kind) -> u64 {
        self.latency.get(&kind).map_or(0, |s| s.len() as u64)
    }

    /// Moves counts and check failures into the run's outcome.
    fn settle(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.refused_count;
        out.errors.extend(self.errors.iter().cloned());
        if let Some(first) = self.refused.first() {
            out.notes.push(format!(
                "{} requests refused, first: {first}",
                self.refused_count
            ));
        }
    }
}

/// Flips tracing on and off in [`TRACE_SLICE`]s until `stop`, so traced
/// and untraced rounds interleave in one run; just waits otherwise.
fn pace(args: &Args, stop: Instant) {
    let mut on = true;
    while Instant::now() < stop {
        if args.trace {
            trace::set_enabled(on);
            on = !on;
        }
        std::thread::sleep(TRACE_SLICE.min(stop.saturating_duration_since(Instant::now())));
    }
    trace::set_enabled(args.trace);
}

/// Answered requests per second: the median over the run's whole
/// seconds, so a passing stall of the host moves it less than a run-wide
/// average would.
fn ops_per_second(logs: &[&Log], start: Instant, seconds: Duration) -> (f64, String) {
    let mut per = vec![0u64; seconds.as_secs() as usize];
    for log in logs {
        for &(end, answered) in &log.ends {
            if let Some(slot) = per.get_mut((end - start).as_secs() as usize) {
                *slot += answered;
            }
        }
    }
    per.sort_unstable();
    let median = match per.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => per[n / 2] as f64,
        n => (per[n / 2 - 1] + per[n / 2]) as f64 / 2.0,
    };
    let note = format!(
        "answered requests per second over the run: min {} median {median} max {}",
        per.first().copied().unwrap_or(0),
        per.last().copied().unwrap_or(0)
    );
    (median, note)
}

fn split_ab(logs: &[&Log]) -> (Samples, Samples) {
    let mut ab = (Samples::new(), Samples::new());
    for log in logs {
        for &(d, traced) in &log.rounds {
            if traced {
                ab.0.push(d);
            } else {
                ab.1.push(d);
            }
        }
    }
    ab
}

/// `serve-read`: two connections loop over a fixed round of five requests
/// — predict k=10 pinned to Full, Partial and Sq8 for one source, explain
/// one pair, verify a batch of eight — with sources and pairs drawn from
/// the seed.
pub fn read(args: &Args, out: &mut Outcome) -> Probe {
    let mut setup_samples = Samples::new();
    let serving = setup(args.seed, 0, 0, &mut setup_samples);
    let engine = serving.engine;
    out.notes.push(inputs::describe(
        engine.exea().pair(),
        engine.exea().trained(),
        1,
    ));
    let refs = Refs::new(engine, args.seed, true);
    let num_sources = engine.num_sources() as u32;

    let before = serving.handle.stats();
    let start = Instant::now();
    let stop = start + args.seconds;
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2u64)
            .map(|c| {
                let (serving, refs) = (&serving, &refs);
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(inputs::mix(args.seed, 10 + c));
                    let mut client = serving.client();
                    let mut log = Log::default();
                    while Instant::now() < stop {
                        let traced = trace::enabled();
                        let t0 = Instant::now();
                        let source = rng.gen_range(0..num_sources);
                        for tier in [Tier::Full, Tier::Partial, Tier::Sq8] {
                            let request = Request::Predict {
                                source,
                                k: K,
                                tier: Some(tier),
                            };
                            if let Some(r) = log.call(&mut client, Kind::of(tier), request) {
                                log.check(refs.predict(source, tier, &r, None));
                            }
                        }
                        let pair = *refs.pool.choose(&mut rng).expect("a non-empty pool");
                        let request = Request::Explain {
                            source: pair.0,
                            target: pair.1,
                        };
                        if let Some(r) = log.call(&mut client, Kind::Explain, request) {
                            log.check(refs.explain(pair, &r));
                        }
                        let pairs: Vec<(u32, u32)> = (0..VERIFY_BATCH)
                            .map(|_| *refs.pool.choose(&mut rng).expect("a non-empty pool"))
                            .collect();
                        let request = Request::Verify {
                            pairs: pairs.clone(),
                        };
                        if let Some(r) = log.call(&mut client, Kind::Verify, request) {
                            log.check(refs.verify(&pairs, &r));
                        }
                        log.end_round(t0, traced);
                    }
                    log
                })
            })
            .collect();
        pace(args, stop);
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let after = serving.handle.stats();
    let peak = stats::peak_rss_mib();

    let logs: Vec<&Log> = logs.iter().collect();
    let mut latency: BTreeMap<Kind, Samples> = BTreeMap::new();
    let mut rounds = Samples::new();
    for log in &logs {
        log.settle(out);
        for (kind, s) in &log.latency {
            latency.entry(*kind).or_default().extend(s);
        }
        for &(d, _) in &log.rounds {
            rounds.push(d);
        }
    }
    let sent = |kind: Kind| logs.iter().map(|l| l.count(kind)).sum::<u64>();
    let (partial, sq8) = (sent(Kind::PredictPartial), sent(Kind::PredictSq8));
    let moved = (
        after.degraded_partial - before.degraded_partial,
        after.degraded_sq8 - before.degraded_sq8,
    );
    out.check(moved == (partial, sq8), || {
        format!(
            "degraded counters moved by {moved:?} for {partial}/{sq8} pinned Partial/Sq8 predicts"
        )
    });
    let batches = after.batches - before.batches;
    let fill = (after.batched_pairs - before.batched_pairs) as f64 / batches.max(1) as f64;
    let (ops, note) = ops_per_second(&logs, start, args.seconds);
    out.notes.push(note);

    for (kind, s) in &latency {
        out.detail.push(Metric::median(kind.metric(), "us", s));
    }
    out.detail
        .push(Metric::value("serve_ops_per_s", "1/s", ops));
    out.detail.push(Metric::value("batch_fill", "pairs", fill));
    out.end_to_end = vec![
        Metric::median("setup_s", "s", &setup_samples),
        Metric::value("peak_rss_mib", "MiB", peak),
        Metric::median("round_p50_ms", "ms", &rounds),
    ];
    Probe::serving(DatasetName::ZhEn, 1, args.seed, split_ab(&logs), serving)
}

/// What the `serve-write` writer connection saw.
struct WriterLog {
    log: Log,
    rounds: usize,
    stale_partial: u64,
    stale_sq8: u64,
    seals: u64,
}

/// `serve-write`: the daemon with a 16-row LSM seal budget and compaction
/// at 4 sealed segments. Rounds run in lockstep on two connections. The
/// writer finds a source's Full-tier top-1, removes it, probes Full,
/// Partial and Sq8 for that source, and re-inserts the entity's original
/// raw row; the reader sends six Full-tier predicts meanwhile.
pub fn write(args: &Args, out: &mut Outcome) -> Probe {
    let mut setup_samples = Samples::new();
    let serving = setup(
        args.seed,
        WRITE_SEAL_ROWS,
        WRITE_COMPACT_AT,
        &mut setup_samples,
    );
    let engine = serving.engine;
    out.notes.push(inputs::describe(
        engine.exea().pair(),
        engine.exea().trained(),
        1,
    ));
    let refs = Refs::new(engine, args.seed, false);
    let raw = engine.exea().trained().entities(KgSide::Target);
    let num_sources = engine.num_sources() as u32;
    let mut plan: Vec<u32> = (0..num_sources).collect();
    plan.shuffle(&mut ChaCha8Rng::seed_from_u64(inputs::mix(args.seed, 20)));

    let before = serving.handle.stats();
    let barrier = Barrier::new(2);
    let go = AtomicBool::new(true);
    // The entity the writer removes this round, stored before its remove
    // is sent; both sides use SeqCst, so a reader whose answer already
    // lacks the entity reads it here afterwards.
    let removing = AtomicU32::new(u32::MAX);
    let start = Instant::now();
    let stop = start + args.seconds;
    // Both connections agree on every round: the barrier leader decides
    // whether another round starts, and both read that decision after a
    // second barrier.
    let next_round = || {
        if barrier.wait().is_leader() {
            go.store(Instant::now() < stop, Ordering::SeqCst);
        }
        barrier.wait();
        go.load(Ordering::SeqCst)
    };
    let (writer, reader) = std::thread::scope(|scope| {
        let w = scope.spawn(|| {
            let mut client = serving.client();
            let mut w = WriterLog {
                log: Log::default(),
                rounds: 0,
                stale_partial: 0,
                stale_sq8: 0,
                seals: 0,
            };
            while next_round() {
                let traced = trace::enabled();
                let t0 = Instant::now();
                let source = plan[w.rounds % plan.len()];
                w.rounds += 1;
                write_round(&mut w, &mut client, &refs, raw, source, &removing);
                w.log.end_round(t0, traced);
            }
            w
        });
        let r = scope.spawn(|| {
            let mut client = serving.client();
            let mut log = Log::default();
            let mut rng = ChaCha8Rng::seed_from_u64(inputs::mix(args.seed, 21));
            while next_round() {
                let traced = trace::enabled();
                let t0 = Instant::now();
                for _ in 0..READS_PER_WRITE_ROUND {
                    let source = rng.gen_range(0..num_sources);
                    let request = Request::Predict {
                        source,
                        k: K,
                        tier: Some(Tier::Full),
                    };
                    if let Some(r) = log.call(&mut client, Kind::PredictFull, request) {
                        log.note_ties(&r);
                        // The read may have run before, during or after
                        // this round's remove: accept either corpus.
                        let result = refs.predict(source, Tier::Full, &r, None).or_else(|_| {
                            let t = removing.load(Ordering::SeqCst);
                            refs.predict(source, Tier::Full, &r, Some(t))
                        });
                        log.check(result);
                    }
                }
                log.end_round(t0, traced);
            }
            log
        });
        pace(args, stop);
        (
            w.join().expect("writer thread"),
            r.join().expect("reader thread"),
        )
    });
    let after = serving.handle.stats();
    let peak = stats::peak_rss_mib();
    let wlog = &writer.log;

    wlog.settle(out);
    reader.settle(out);
    out.failed += writer.stale_sq8;
    let moved = (
        after.degraded_partial - before.degraded_partial,
        after.degraded_sq8 - before.degraded_sq8,
    );
    let pinned = (
        wlog.count(Kind::PredictPartial),
        wlog.count(Kind::PredictSq8),
    );
    out.check(moved == pinned, || {
        format!("degraded counters moved by {moved:?} for {pinned:?} pinned Partial/Sq8 predicts")
    });
    out.notes.push(format!(
        "{} write rounds: Sq8 served the removed entity {} times (counted as failed), Partial {} times (reported only); {} inserts sealed a segment",
        writer.rounds, writer.stale_sq8, writer.stale_partial, writer.seals
    ));
    out.notes.push(format!(
        "{} Full-tier answers ordered bit-equal scores by live position rather than id (allowed once the corpus is mutated; reported only)",
        wlog.ties_by_position + reader.ties_by_position
    ));
    let (ops, note) = ops_per_second(&[wlog, &reader], start, args.seconds);
    out.notes.push(note);

    let mut full = Samples::new();
    for log in [wlog, &reader] {
        if let Some(s) = log.latency.get(&Kind::PredictFull) {
            full.extend(s);
        }
    }
    let writes = wlog.count(Kind::Remove) + wlog.count(Kind::Insert);
    let mut rounds = Samples::new();
    for (a, b) in wlog.rounds.iter().zip(&reader.rounds) {
        rounds.push(a.0.max(b.0));
    }
    out.detail
        .push(Metric::median("predict_full_p50_us", "us", &full));
    for (kind, s) in &wlog.latency {
        if *kind != Kind::PredictFull {
            out.detail.push(Metric::median(kind.metric(), "us", s));
        }
    }
    out.detail.push(Metric::value(
        "write_ops_per_s",
        "1/s",
        writes as f64 / (stop - start).as_secs_f64(),
    ));
    out.detail
        .push(Metric::value("serve_ops_per_s", "1/s", ops));
    out.end_to_end = vec![
        Metric::median("setup_s", "s", &setup_samples),
        Metric::value("peak_rss_mib", "MiB", peak),
        Metric::median("round_p50_ms", "ms", &rounds),
    ];
    let ab = split_ab(&[wlog, &reader]);
    Probe::serving(DatasetName::ZhEn, 1, args.seed, ab, serving)
}

/// One writer round: find `source`'s Full-tier top-1, remove it, probe
/// every tier, re-insert its original raw row.
fn write_round(
    w: &mut WriterLog,
    client: &mut Client,
    refs: &Refs,
    raw: &ea_embed::EmbeddingTable,
    source: u32,
    removing: &AtomicU32,
) {
    let full = Request::Predict {
        source,
        k: K,
        tier: Some(Tier::Full),
    };
    let Some(found) = w.log.call(client, Kind::PredictFull, full.clone()) else {
        return;
    };
    w.log.check(refs.predict(source, Tier::Full, &found, None));
    w.log.note_ties(&found);
    let t = match &found {
        Response::Predict { candidates, .. } if !candidates.is_empty() => candidates[0].target,
        _ => return,
    };
    removing.store(t, Ordering::SeqCst);
    if let Some(r) = w
        .log
        .call(client, Kind::Remove, Request::Remove { entity: t })
    {
        let want = refs.targets as u64 - 1;
        let ok = matches!(r, Response::Remove { existed: true, live_rows } if live_rows == want);
        w.log.check(if ok {
            Ok(())
        } else {
            Err(format!(
                "remove of {t}: {r:?}, want existed with {want} live rows"
            ))
        });
    }
    if let Some(r) = w.log.call(client, Kind::PredictFull, full) {
        w.log.check(refs.predict(source, Tier::Full, &r, Some(t)));
        w.log.note_ties(&r);
    }
    for tier in [Tier::Partial, Tier::Sq8] {
        let probe = Request::Predict {
            source,
            k: K,
            tier: Some(tier),
        };
        let Some(r) = w.log.call(client, Kind::of(tier), probe) else {
            continue;
        };
        w.log.check(refs.predict(source, tier, &r, None));
        let stale = matches!(&r, Response::Predict { candidates, .. }
            if candidates.iter().any(|c| c.target == t));
        // The degraded tiers serve the startup snapshot. Sq8 returns the
        // removed entity every time and counts as a failed operation;
        // Partial returns it only when its shard is routed, so it is
        // reported, not counted.
        match tier {
            Tier::Sq8 if stale => w.stale_sq8 += 1,
            Tier::Partial if stale => w.stale_partial += 1,
            _ => {}
        }
    }
    let vector = raw.row(t as usize).to_vec();
    if let Some(r) = w
        .log
        .call(client, Kind::Insert, Request::Insert { entity: t, vector })
    {
        let want = refs.targets as u64;
        let ok = matches!(r, Response::Insert { live_rows, .. } if live_rows == want);
        w.seals += u64::from(matches!(r, Response::Insert { sealed: true, .. }));
        w.log.check(if ok {
            Ok(())
        } else {
            Err(format!("insert of {t}: {r:?}, want {want} live rows"))
        });
    }
}
