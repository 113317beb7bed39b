//! The traced run's per-layer measurements.
//!
//! Each layer is timed from outside, through calls into its public
//! functions, on the workload's own seeded input: the rayon shim, the
//! dataset generator, training, path enumeration, candidate search and the
//! LSM corpus, the ExEA framework, and the daemon's transport, codec and
//! batching. Every call runs inside a span, so the run also reports each
//! layer's self time and the tracing overhead.

use crate::inputs;
use crate::serve::{self, Serving};
use crate::stats::{Metric, Samples};
use crate::{trace, Outcome};
use ea_data::datasets::DatasetName;
use ea_embed::{CandidateSearch, LsmParams, MutableIndex};
use ea_graph::paths::enumerate_paths;
use ea_graph::{AlignmentPair, KgSide};
use exea_core::{ExEa, RepairConfig};
use exea_serve::protocol::{self, Candidate, RequestFrame, ResponseFrame};
use exea_serve::{Request, Response, Tier};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::hint::black_box;

/// Repeats of each set-up-sized call (medians of three).
const REPEATS: usize = 3;
/// Repeats of each microsecond-sized call.
const CALLS: usize = 2000;
/// Sources probed per candidate tier.
const SEARCHES: usize = 300;
/// Remove + insert cycles on the LSM corpus.
const LSM_CYCLES: usize = 256;
/// Explain + verify rounds per connection for the batch-fill reading.
const FILL_ROUNDS: usize = 100;

/// The layers whose self time a traced run reports.
const LAYERS: [&str; 8] = [
    "bench",
    "rayon",
    "ea-data",
    "ea-models",
    "ea-graph",
    "ea-embed",
    "core",
    "serve",
];

/// What a workload hands over to the traced run's layer measurements.
pub struct Probe {
    dataset: DatasetName,
    hops: usize,
    seed: u64,
    /// Round times of the workload with tracing on and off.
    ab: (Samples, Samples),
    serving: Option<Serving>,
}

impl Probe {
    pub fn offline(dataset: DatasetName, hops: usize, seed: u64, ab: (Samples, Samples)) -> Probe {
        Probe {
            dataset,
            hops,
            seed,
            ab,
            serving: None,
        }
    }

    pub fn serving(
        dataset: DatasetName,
        hops: usize,
        seed: u64,
        ab: (Samples, Samples),
        serving: Serving,
    ) -> Probe {
        Probe {
            serving: Some(serving),
            ..Probe::offline(dataset, hops, seed, ab)
        }
    }

    /// Stops the daemon, if the workload started one.
    pub fn close(self) {
        if let Some(s) = self.serving {
            s.handle.shutdown();
        }
    }
}

fn repeat<R>(n: usize, name: &'static str, mut f: impl FnMut() -> R) -> (R, Samples) {
    let mut samples = Samples::new();
    let mut last = None;
    for _ in 0..n {
        last = Some(trace::sample(&mut samples, name, &mut f));
    }
    (last.expect("at least one call"), samples)
}

/// Measures every per-layer metric, in the order `BENCHMARK.json` lists
/// them, then stops the daemon.
pub fn probe(probe: Probe, out: &mut Outcome) -> Vec<Metric> {
    trace::set_enabled(true);
    let mut m = Vec::new();
    let seed = probe.seed;
    let mut rng = ChaCha8Rng::seed_from_u64(inputs::mix(seed, 30));

    // rayon shim: one dispatch with trivial work.
    let (_, join) = repeat(CALLS, "rayon.join", || {
        black_box(rayon::join(|| black_box(1u64), || black_box(2u64)))
    });
    let small: Vec<u64> = (0..64).collect();
    let (_, par_map) = repeat(CALLS, "rayon.par_map", || {
        black_box(small.par_iter().map(|&x| x + 1).collect::<Vec<u64>>())
    });
    m.push(Metric::median("rayon.join_us", "us", &join));
    m.push(Metric::median("rayon.par_map_us", "us", &par_map));

    // Dataset, model, paths, candidate index, framework.
    let (pair, generate) = repeat(REPEATS, "ea-data.generate_pair", || {
        inputs::generate(probe.dataset, seed)
    });
    let (trained, train) = repeat(REPEATS, "ea-models.train_model", || {
        inputs::train(&pair, seed)
    });
    let (_, paths) = repeat(REPEATS, "ea-graph.enumerate_paths", || {
        let mut n = 0usize;
        for kg in [&pair.source, &pair.target] {
            for e in kg.entity_ids() {
                n += enumerate_paths(kg, e, probe.hops).len();
            }
        }
        black_box(n)
    });
    let (_, candidates) = repeat(REPEATS, "ea-embed.candidate_index", || {
        trained.candidate_index_with(&pair, 5, &CandidateSearch::Exact)
    });
    let (exea, framework) = repeat(REPEATS, "core.framework_new", || {
        ExEa::new(&pair, &trained, inputs::exea_config(probe.hops))
    });
    m.push(Metric::median("ea-data.generate_s", "s", &generate));
    m.push(Metric::median("ea-models.train_s", "s", &train));
    m.push(Metric::median("ea-graph.paths_s", "s", &paths));
    m.push(Metric::median(
        "ea-embed.candidates_build_s",
        "s",
        &candidates,
    ));

    // The daemon: the workload's own, or one started for the probe.
    let serving = match probe.serving {
        Some(s) => s,
        None => serve::start(probe.dataset, seed, 0, 0),
    };
    let engine = serving.engine;
    let sources: Vec<u32> = (0..SEARCHES)
        .map(|_| rng.gen_range(0..engine.num_sources() as u32))
        .collect();
    for (tier, name, metric) in [
        (
            Tier::Full,
            "ea-embed.search_full",
            "ea-embed.search_full_us",
        ),
        (
            Tier::Partial,
            "ea-embed.search_partial",
            "ea-embed.search_partial_us",
        ),
        (Tier::Sq8, "ea-embed.search_sq8", "ea-embed.search_sq8_us"),
    ] {
        let mut s = Samples::new();
        for &source in &sources {
            black_box(trace::sample(&mut s, name, || {
                engine.predict(source, 10, tier)
            }));
        }
        m.push(Metric::median(metric, "us", &s));
    }
    m.extend(lsm(&trained, seed));

    // Framework calls.
    m.push(Metric::median("core.framework_build_s", "s", &framework));
    let state = exea.default_alignment_state();
    let predicted: Vec<AlignmentPair> = exea.predictions().iter().collect();
    let (_, explain) = repeat(REPEATS, "core.explain_and_score_batch", || {
        exea.explain_and_score_batch(&predicted, &state, true, exea.batch_options())
    });
    let index = exea.candidate_index();
    let mut top5 = Vec::new();
    for (row, &source) in index.source_ids().iter().enumerate() {
        for (target, _) in index.candidates(row).take(5) {
            top5.push(AlignmentPair::new(source, target));
        }
    }
    let (_, score) = repeat(REPEATS, "core.score_batch", || {
        exea.score_batch(&top5, &state, true, exea.batch_options())
    });
    m.push(Metric::value(
        "core.explain_pairs_per_s",
        "1/s",
        predicted.len() as f64 / explain.median_secs(),
    ));
    m.push(Metric::value(
        "core.score_pairs_per_s",
        "1/s",
        top5.len() as f64 / score.median_secs(),
    ));
    // Repair passes run on the daemon's one-hop framework over the same
    // pair: a two-hop repair takes several seconds a pass.
    let repairing = engine.exea();
    let (_, cr2) = repeat(1, "core.repair_cr2_only", || {
        repairing.repair(&RepairConfig::without_cr3())
    });
    let (_, cr3) = repeat(1, "core.repair_cr3_only", || {
        repairing.repair(&RepairConfig::without_cr2())
    });
    let (full, _) = repeat(1, "core.repair", || {
        repairing.repair(&RepairConfig::default())
    });
    m.push(Metric::median("core.repair_cr2_s", "s", &cr2));
    m.push(Metric::median("core.repair_cr3_s", "s", &cr3));
    m.push(Metric::count(
        "core.repair_conflicts",
        full.stats.one_to_many_conflicts as u64,
    ));
    m.push(Metric::count(
        "core.repair_low_conf_pairs",
        full.stats.low_confidence_pairs as u64,
    ));

    // Daemon layers: transport, codec, in-process explain, batching.
    let mut client = serving.client();
    let (_, health) = repeat(CALLS / 2, "serve.health_rtt", || {
        client.call(Request::Health, 0)
    });
    m.push(Metric::median("serve.health_rtt_us", "us", &health));
    m.push(Metric::median(
        "serve.codec_us",
        "us",
        &codec(engine.predict(sources[0], 10, Tier::Full)),
    ));
    let mut pool: Vec<AlignmentPair> = top5.clone();
    pool.shuffle(&mut rng);
    pool.truncate(SEARCHES);
    let mut explain_one = Samples::new();
    for p in &pool {
        black_box(trace::sample(
            &mut explain_one,
            "serve.engine_explain_batch",
            || engine.explain_batch(std::slice::from_ref(p)),
        ));
    }
    m.push(Metric::median(
        "serve.engine_explain_us",
        "us",
        &explain_one,
    ));
    m.push(Metric::value(
        "serve.batch_fill",
        "pairs",
        batch_fill(&serving, &pool, out),
    ));

    // Tracing itself.
    let by_layer = trace::self_time_by_layer();
    for layer in LAYERS {
        let name = format!("{layer}.self_s");
        m.push(Metric::value(
            &name,
            "s",
            by_layer.get(layer).copied().unwrap_or(0.0),
        ));
    }
    let (traced, plain) = &probe.ab;
    m.push(Metric::count("trace.spans", trace::span_count() as u64));
    m.push(Metric::value(
        "trace.span_cost_ns",
        "ns",
        trace::span_cost_ns(),
    ));
    m.push(Metric::value(
        "trace.overhead_pct",
        "%",
        (traced.median_secs() / plain.median_secs() - 1.0) * 100.0,
    ));
    out.notes.push(format!(
        "tracing overhead: {} traced rounds (median {:.6} s) against {} untraced (median {:.6} s) in this run",
        traced.len(),
        traced.median_secs(),
        plain.len(),
        plain.median_secs()
    ));

    serving.handle.shutdown();
    m
}

/// Remove + insert cycles on an LSM corpus loaded with the target rows,
/// compacting whenever the sealed segments reach the trigger — the write
/// path `serve-write` drives, without the daemon around it.
fn lsm(trained: &ea_models::TrainedAlignment, seed: u64) -> Vec<Metric> {
    let raw = trained.entities(KgSide::Target);
    let params = LsmParams {
        seal_rows: serve::WRITE_SEAL_ROWS,
        ..LsmParams::default()
    };
    let mut index = MutableIndex::new(raw.dim(), params);
    for row in 0..raw.rows() {
        index
            .insert(row as u32, raw.row(row))
            .expect("a resident LSM insert succeeds");
    }
    index.compact().expect("a resident compaction succeeds");
    let mut rng = ChaCha8Rng::seed_from_u64(inputs::mix(seed, 31));
    let (mut insert, mut remove, mut compact) = (Samples::new(), Samples::new(), Samples::new());
    let (mut seals, mut compactions) = (0u64, 0u64);
    for _ in 0..LSM_CYCLES {
        let entity = rng.gen_range(0..raw.rows() as u32);
        trace::sample(&mut remove, "ea-embed.lsm_remove", || index.remove(entity));
        let sealed = trace::sample(&mut insert, "ea-embed.lsm_insert", || {
            index.insert(entity, raw.row(entity as usize))
        })
        .expect("a resident LSM insert succeeds");
        if sealed {
            seals += 1;
            if index.segments() >= serve::WRITE_COMPACT_AT {
                trace::sample(&mut compact, "ea-embed.lsm_compact", || index.compact())
                    .expect("a resident compaction succeeds");
                compactions += 1;
            }
        }
    }
    vec![
        Metric::median("ea-embed.lsm_insert_us", "us", &insert),
        Metric::median("ea-embed.lsm_remove_us", "us", &remove),
        Metric::median("ea-embed.lsm_compact_ms", "ms", &compact),
        Metric::count("ea-embed.lsm_seals", seals),
        Metric::count("ea-embed.lsm_compactions", compactions),
    ]
}

/// Encode + decode of one predict request and its k-candidate response.
fn codec(candidates: Vec<Candidate>) -> Samples {
    let request = RequestFrame {
        id: 7,
        deadline_ms: 0,
        request: Request::Predict {
            source: 1,
            k: candidates.len() as u16,
            tier: Some(Tier::Full),
        },
    };
    let response = ResponseFrame {
        id: 7,
        response: Response::Predict {
            tier: Tier::Full,
            candidates,
        },
    };
    let (_, samples) = repeat(CALLS, "serve.codec_predict", || {
        let req = protocol::decode_request(&protocol::encode_request(black_box(&request)));
        let resp = protocol::decode_response(&protocol::encode_response(black_box(&response)));
        black_box((req.is_ok(), resp.is_ok()))
    });
    samples
}

/// Pairs per admission batch while two connections send explain and
/// verify requests at once.
fn batch_fill(serving: &Serving, pool: &[AlignmentPair], out: &mut Outcome) -> f64 {
    let before = serving.handle.stats();
    let refused: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = serving.client();
                    let mut refused = 0;
                    for i in 0..FILL_ROUNDS {
                        let p = pool[(i * 2 + c) % pool.len()];
                        let explain = Request::Explain {
                            source: p.source.0,
                            target: p.target.0,
                        };
                        let pairs = pool
                            .iter()
                            .take(8)
                            .map(|p| (p.source.0, p.target.0))
                            .collect();
                        for request in [explain, Request::Verify { pairs }] {
                            let ok =
                                trace::span("serve.call_batch_fill", || client.call(request, 0));
                            refused += usize::from(!matches!(
                                ok,
                                Ok(Response::Explain { .. }) | Ok(Response::Verify { .. })
                            ));
                        }
                    }
                    refused
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("batch-fill client"))
            .sum()
    });
    out.check(refused == 0, || {
        format!("{refused} batch-fill requests were refused")
    });
    let after = serving.handle.stats();
    (after.batched_pairs - before.batched_pairs) as f64
        / (after.batches - before.batches).max(1) as f64
}
