//! The offline workloads: repair on ZH-EN, explanation and verification on
//! FR-EN with second-order explanations.
//!
//! One run builds several inputs from sub-seeds of its seed and cycles its
//! operation over them in whole passes. A single input's repair time moves
//! by about 15% from seed to seed, so a run over one input would measure
//! the input as much as the code.

use crate::inputs::{self, HopIndex};
use crate::layers::Probe;
use crate::stats::{self, Metric, Samples};
use crate::{trace, Args, Outcome};
use ea_data::datasets::DatasetName;
use ea_graph::{AlignmentPair, AlignmentSet, KgPair, KnowledgeGraph, Triple};
use ea_models::TrainedAlignment;
use exea_core::repair::RepairStats;
use exea_core::verification::verify_pair;
use exea_core::{verify_top_candidates, ExEa, RepairConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Inputs per `offline-repair` run.
const REPAIR_INPUTS: usize = 8;
/// Inputs per `offline-explain` run.
const EXPLAIN_INPUTS: usize = 6;
/// Candidates verified per test source in `offline-explain`.
const VERIFY_K: usize = 5;
/// Batch verdicts re-checked one pair at a time with `verify_pair`, per
/// input.
const VERIFY_PAIR_SAMPLE: usize = 16;

/// A built offline pipeline: dataset, trained model, framework.
struct Offline {
    pair: &'static KgPair,
    exea: ExEa<'static>,
}

/// Generates, trains and builds the framework for `n` inputs drawn from
/// sub-seeds of `seed`, timing each set-up. Each leaks its pair and model
/// (a few MiB) so the framework can borrow them for the rest of the run.
fn build(name: DatasetName, hops: usize, seed: u64, n: usize, setup: &mut Samples) -> Vec<Offline> {
    (0..n as u64)
        .map(|j| {
            let seed = inputs::mix(seed, 100 + j);
            trace::sample(setup, "bench.setup", || {
                let pair: &'static KgPair = Box::leak(Box::new(inputs::generate(name, seed)));
                let trained: &'static TrainedAlignment =
                    Box::leak(Box::new(inputs::train(pair, seed)));
                let exea = trace::span("core.framework_build", || {
                    ExEa::new(pair, trained, inputs::exea_config(hops))
                });
                Offline { pair, exea }
            })
        })
        .collect()
}

/// Share of gold reference pairs an alignment gets right, computed here
/// from the pair lists.
fn accuracy(alignment: &AlignmentSet, gold: &AlignmentSet) -> f64 {
    let got: BTreeSet<AlignmentPair> = alignment.iter().collect();
    let hits = gold.iter().filter(|p| got.contains(p)).count();
    hits as f64 / gold.len().max(1) as f64
}

/// Runs whole passes of `op` over `n` inputs until the run's time is up,
/// returning each operation's time. In a traced run every other pass
/// records spans, so traced and untraced passes of one process give the
/// tracing overhead (`ab`).
fn passes(
    args: &Args,
    n: usize,
    ab: &mut (Samples, Samples),
    mut op: impl FnMut(usize) -> Duration,
) -> Samples {
    let mut all = Samples::new();
    let start = Instant::now();
    let mut pass = 0;
    while start.elapsed() < args.seconds {
        let traced = args.trace && pass % 2 == 0;
        trace::set_enabled(traced);
        for i in 0..n {
            let d = op(i);
            all.push(d);
            if traced {
                ab.0.push(d);
            } else {
                ab.1.push(d);
            }
        }
        trace::set_enabled(args.trace);
        pass += 1;
    }
    all
}

/// `offline-repair`: one operation is one full repair (cr1+cr2+cr3) of the
/// GCN-Align predictions on a ZH-EN input.
pub fn repair(args: &Args, out: &mut Outcome) -> Probe {
    let mut setup = Samples::new();
    let built = build(DatasetName::ZhEn, 1, args.seed, REPAIR_INPUTS, &mut setup);
    out.notes
        .push(inputs::describe(built[0].pair, built[0].exea.trained(), 1));
    let base: Vec<f64> = built
        .iter()
        .map(|b| accuracy(b.exea.predictions(), &b.pair.reference))
        .collect();

    let mut ab = (Samples::new(), Samples::new());
    let mut first: Vec<Option<(Vec<AlignmentPair>, RepairStats)>> = vec![None; built.len()];
    let ops = passes(args, built.len(), &mut ab, |i| {
        let Offline { pair, exea } = &built[i];
        let (outcome, d) = trace::timed("core.repair", || exea.repair(&RepairConfig::default()));
        let result = (outcome.repaired.to_vec(), outcome.stats.clone());
        match &first[i] {
            None => {
                check_repair(pair, &outcome.repaired, base[i], out);
                out.notes.push(format!(
                    "input {i}: repair accuracy {:.4} -> {:.4}, {:?}",
                    base[i],
                    accuracy(&outcome.repaired, &pair.reference),
                    outcome.stats
                ));
                first[i] = Some(result);
            }
            Some(f) => out.check(*f == result, || {
                format!("input {i}: a repeated repair gave a different alignment or RepairStats")
            }),
        }
        d
    });
    let peak = stats::peak_rss_mib();
    out.attempted = ops.len() as u64;

    out.detail.push(Metric::median("repair_s", "s", &ops));
    out.end_to_end = vec![
        Metric::median("setup_s", "s", &setup),
        Metric::value("peak_rss_mib", "MiB", peak),
        Metric::median("round_p50_ms", "ms", &ops),
    ];
    Probe::offline(DatasetName::ZhEn, 1, args.seed, ab)
}

fn check_repair(pair: &KgPair, repaired: &AlignmentSet, base: f64, out: &mut Outcome) {
    let pairs = repaired.to_vec();
    let targets: BTreeSet<_> = pairs.iter().map(|p| p.target).collect();
    out.check(targets.len() == pairs.len(), || {
        format!(
            "repaired alignment is not one-to-one: {} pairs, {} targets",
            pairs.len(),
            targets.len()
        )
    });
    let sources: BTreeSet<_> = pairs.iter().map(|p| p.source).collect();
    let test: BTreeSet<_> = pair.reference.iter().map(|p| p.source).collect();
    out.check(sources == test && pairs.len() == test.len(), || {
        format!(
            "repaired alignment covers {} sources, the test set has {}",
            sources.len(),
            test.len()
        )
    });
    let seed_targets: BTreeSet<_> = pair.seed.iter().map(|p| p.target).collect();
    let used = targets.intersection(&seed_targets).count();
    out.check(used == 0, || {
        format!("repaired alignment uses {used} seed targets")
    });
    let acc = accuracy(repaired, &pair.reference);
    out.check(acc > base, || {
        format!("repaired accuracy {acc:.4} does not exceed the base model's {base:.4}")
    });
}

fn triple_set(kg: &KnowledgeGraph) -> BTreeSet<(u32, u32, u32)> {
    kg.triples()
        .iter()
        .map(|t| (t.head.0, t.relation.0, t.tail.0))
        .collect()
}

/// Explanation confidences and sizes, then verification verdicts: what a
/// repeated pass must reproduce exactly.
type Fingerprint = (Vec<(u64, usize)>, Vec<(AlignmentPair, bool)>);

/// `offline-explain`: one operation explains every test pair
/// (`explain_all`) and verifies every test source's top-5 candidates
/// (`verify_top_candidates`) on an FR-EN input with two-hop explanations.
pub fn explain(args: &Args, out: &mut Outcome) -> Probe {
    const HOPS: usize = 2;
    let mut setup = Samples::new();
    let built = build(
        DatasetName::FrEn,
        HOPS,
        args.seed,
        EXPLAIN_INPUTS,
        &mut setup,
    );
    out.notes.push(inputs::describe(
        built[0].pair,
        built[0].exea.trained(),
        HOPS,
    ));

    let mut ab = (Samples::new(), Samples::new());
    let (mut explains, mut verifies) = (Samples::new(), Samples::new());
    let mut first: Vec<Option<Fingerprint>> = vec![None; built.len()];
    let ops = passes(args, built.len(), &mut ab, |i| {
        let Offline { pair, exea } = &built[i];
        let (scored, d_explain) = trace::timed("core.explain_all", || exea.explain_all());
        let (verdicts, d_verify) = trace::timed("core.verify_top_candidates", || {
            verify_top_candidates(exea, VERIFY_K)
        });
        explains.push(d_explain);
        verifies.push(d_verify);
        let fingerprint: Vec<(u64, usize)> = scored
            .iter()
            .map(|e| (e.confidence().to_bits(), e.explanation.num_triples()))
            .collect();
        match &first[i] {
            None => {
                check_explanations(pair, exea, &scored, HOPS, out);
                check_verdicts(inputs::mix(args.seed, i as u64), pair, exea, &verdicts, out);
                first[i] = Some((fingerprint, verdicts));
            }
            Some((f, v)) => out.check(*f == fingerprint && *v == verdicts, || {
                format!("input {i}: a repeated explain/verify pass gave different results")
            }),
        }
        d_explain + d_verify
    });
    let peak = stats::peak_rss_mib();
    out.attempted = 2 * ops.len() as u64;

    out.detail
        .push(Metric::median("explain_all_s", "s", &explains));
    out.detail.push(Metric::median("verify_s", "s", &verifies));
    out.end_to_end = vec![
        Metric::median("setup_s", "s", &setup),
        Metric::value("peak_rss_mib", "MiB", peak),
        Metric::median("round_p50_ms", "ms", &ops),
    ];
    Probe::offline(DatasetName::FrEn, HOPS, args.seed, ab)
}

fn check_explanations(
    pair: &KgPair,
    exea: &ExEa<'_>,
    scored: &[exea_core::ScoredExplanation],
    hops: usize,
    out: &mut Outcome,
) {
    let predictions: Vec<AlignmentPair> = exea.predictions().iter().collect();
    let explained: Vec<AlignmentPair> = scored.iter().map(|s| s.pair).collect();
    out.check(explained == predictions, || {
        "explain_all did not explain every prediction in order".into()
    });
    let (src_triples, tgt_triples) = (triple_set(&pair.source), triple_set(&pair.target));
    let (mut src_hops, mut tgt_hops) = (HopIndex::new(&pair.source), HopIndex::new(&pair.target));
    let key = |t: &Triple| (t.head.0, t.relation.0, t.tail.0);
    for s in scored {
        let conf = s.confidence();
        out.check(conf.is_finite() && (0.0..=1.0).contains(&conf), || {
            format!("pair {:?}: confidence {conf}", s.pair)
        });
        let src: Vec<Triple> = s.explanation.source_triples.triples().collect();
        let tgt: Vec<Triple> = s.explanation.target_triples.triples().collect();
        out.check(
            src.iter().all(|t| src_triples.contains(&key(t)))
                && tgt.iter().all(|t| tgt_triples.contains(&key(t))),
            || {
                format!(
                    "pair {:?}: explanation holds a triple not in its KG",
                    s.pair
                )
            },
        );
        out.check(
            src_hops.all_within(s.pair.source.0, hops, &src)
                && tgt_hops.all_within(s.pair.target.0, hops, &tgt),
            || format!("pair {:?}: explanation triple beyond {hops} hops", s.pair),
        );
    }
}

fn check_verdicts(
    seed: u64,
    pair: &KgPair,
    exea: &ExEa<'_>,
    verdicts: &[(AlignmentPair, bool)],
    out: &mut Outcome,
) {
    let sources = exea.candidate_index().source_ids().len();
    out.check(verdicts.len() == sources * VERIFY_K, || {
        format!(
            "{} verdicts for {sources} sources x top-{VERIFY_K}",
            verdicts.len()
        )
    });
    let mut sample: Vec<usize> = (0..verdicts.len()).collect();
    sample.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    for &i in sample.iter().take(VERIFY_PAIR_SAMPLE) {
        let (p, batch) = verdicts[i];
        let single = verify_pair(exea, &p);
        out.check(single == batch, || {
            format!("pair {p:?}: batch verdict {batch}, verify_pair {single}")
        });
    }
    let gold: BTreeSet<AlignmentPair> = pair.reference.iter().collect();
    let (mut gold_n, mut gold_ok, mut wrong_n, mut wrong_ok) = (0usize, 0usize, 0usize, 0usize);
    for (p, ok) in verdicts {
        if gold.contains(p) {
            gold_n += 1;
            gold_ok += usize::from(*ok);
        } else {
            wrong_n += 1;
            wrong_ok += usize::from(*ok);
        }
    }
    let share = |a: usize, n: usize| a as f64 / n.max(1) as f64;
    out.check(share(gold_ok, gold_n) > share(wrong_ok, wrong_n), || {
        format!(
            "verification accepts {gold_ok}/{gold_n} gold candidates, no larger a share than {wrong_ok}/{wrong_n} wrong ones"
        )
    });
}
