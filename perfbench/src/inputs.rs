//! Seeded inputs and the benchmark's own reference computations.
//!
//! Every input is a pure function of the run's `--seed`: the dataset
//! generator's RNG seed, the training seed and the request mixes are all
//! derived from it. The references here (exact cosine, hop distances) are
//! computed from the raw embeddings and triples without going through the
//! engines or the explainer they check.

use crate::trace;
use ea_data::datasets::{config_for, DatasetName, DatasetScale};
use ea_data::{SyntheticConfig, SyntheticGenerator};
use ea_embed::CandidateSearch;
use ea_graph::{KgPair, KgSide, KnowledgeGraph, Triple};
use ea_models::{build_model, ModelKind, TrainConfig, TrainedAlignment};
use exea_core::ExeaConfig;

/// The base alignment model of every workload.
pub const MODEL: ModelKind = ModelKind::GcnAlign;

/// Largest absolute difference allowed between a returned f32 score and the
/// benchmark's f64 cosine of the raw embeddings. Scores of 32-wide unit
/// vectors accumulated in f32 differ from the f64 value by about 1e-7.
pub const SCORE_TOL: f64 = 1e-5;

/// SplitMix64 finaliser: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The named dataset at bench scale, with its generator seeded from `seed`.
pub fn dataset_config(name: DatasetName, seed: u64) -> SyntheticConfig {
    let mut config = config_for(name, DatasetScale::Bench);
    config.rng_seed = mix(seed, config.rng_seed);
    config
}

pub fn generate(name: DatasetName, seed: u64) -> KgPair {
    let config = dataset_config(name, seed);
    trace::span("ea-data.generate", || {
        SyntheticGenerator::new(config).generate()
    })
}

/// Trains the base model with the library's default configuration, the
/// seed taken from the run and the exact candidate engine named explicitly.
pub fn train(pair: &KgPair, seed: u64) -> TrainedAlignment {
    let config = TrainConfig {
        seed: mix(seed, 2),
        candidate_search: CandidateSearch::Exact,
        ..TrainConfig::default()
    };
    trace::span("ea-models.train", || build_model(MODEL, config).train(pair))
}

pub fn exea_config(hops: usize) -> ExeaConfig {
    ExeaConfig {
        hops,
        candidate_search: CandidateSearch::Exact,
        ..ExeaConfig::default()
    }
}

/// One line describing an input: entities, triples, embedding dimension and
/// the bytes of its triples and embedding tables.
pub fn describe(pair: &KgPair, trained: &TrainedAlignment, hops: usize) -> String {
    let triples = pair.source.num_triples() + pair.target.num_triples();
    let triple_bytes = triples * std::mem::size_of::<Triple>();
    let dim = trained.dim();
    let emb_bytes = (pair.source.num_entities() + pair.target.num_entities()) * dim * 4;
    format!(
        "input {}: entities {}+{}, triples {}+{}, relations {}+{}, seed pairs {}, test pairs {}, dim {}, hops {}, corpus bytes {} (triples {} + embeddings {})",
        pair.name,
        pair.source.num_entities(),
        pair.target.num_entities(),
        pair.source.num_triples(),
        pair.target.num_triples(),
        pair.source.num_relations(),
        pair.target.num_relations(),
        pair.seed.len(),
        pair.reference.len(),
        dim,
        hops,
        triple_bytes + emb_bytes,
        triple_bytes,
        emb_bytes
    )
}

/// Exact cosine similarities from the raw trained embeddings, in f64.
pub struct ExactScorer {
    dim: usize,
    sources: Vec<f64>,
    targets: Vec<f64>,
}

fn normalized_rows(trained: &TrainedAlignment, side: KgSide) -> Vec<f64> {
    let table = trained.entities(side);
    let mut out = Vec::with_capacity(table.rows() * table.dim());
    for i in 0..table.rows() {
        let row = table.row(i);
        let norm = row
            .iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>()
            .sqrt();
        let inv = if norm > 0.0 { 1.0 / norm } else { 0.0 };
        out.extend(row.iter().map(|&x| f64::from(x) * inv));
    }
    out
}

impl ExactScorer {
    pub fn new(trained: &TrainedAlignment) -> ExactScorer {
        ExactScorer {
            dim: trained.dim(),
            sources: normalized_rows(trained, KgSide::Source),
            targets: normalized_rows(trained, KgSide::Target),
        }
    }

    pub fn num_targets(&self) -> usize {
        self.targets.len() / self.dim
    }

    /// Exact cosine of one (source, target) pair.
    pub fn score(&self, source: u32, target: u32) -> f64 {
        let (s, t) = (source as usize * self.dim, target as usize * self.dim);
        self.sources[s..s + self.dim]
            .iter()
            .zip(&self.targets[t..t + self.dim])
            .map(|(a, b)| a * b)
            .sum()
    }

    /// The `n` best targets of `source` by exact cosine, in (score desc,
    /// id asc) order.
    pub fn top(&self, source: u32, n: usize) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = (0..self.num_targets() as u32)
            .map(|t| (t, self.score(source, t)))
            .collect();
        all.sort_by(|a, b| ea_embed::order::desc_f64(a.1, b.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }
}

/// What a predict answer must be.
#[derive(Debug, Clone, Copy)]
pub struct Want {
    /// Results asked for.
    pub k: usize,
    /// A target that must not appear (removed from the live corpus).
    pub excluded: Option<u32>,
    /// The exact tier: the answer must be the brute-force top-k.
    pub complete: bool,
    /// Bit-equal scores must come in id order. The LSM corpus orders such
    /// ties by canonical live position, which mutations move away from id
    /// order.
    pub ties_by_id: bool,
}

/// Checks one predict answer for `source`: ids distinct, known and not
/// `excluded`; every score within [`SCORE_TOL`] of the exact cosine;
/// results in (score desc, id asc) order, or with bit-equal scores in any
/// id order unless `ties_by_id`. With `complete` it must also hold `k`
/// results and omit no target other than `excluded` scoring more than
/// [`SCORE_TOL`] above its lowest result — the brute-force top-k up to
/// ties within tolerance. `best` is the source's precomputed exact
/// ranking; when it is too short to decide, every target is scored.
pub fn check_candidates(
    exact: &ExactScorer,
    source: u32,
    best: &[(u32, f64)],
    got: &[(u32, f32)],
    want: Want,
) -> Result<(), String> {
    let Want {
        k,
        excluded,
        complete,
        ties_by_id,
    } = want;
    if got.is_empty() || got.len() > k {
        return Err(format!("{} candidates for k={k}", got.len()));
    }
    let mut lowest = f64::INFINITY;
    for (i, &(id, score)) in got.iter().enumerate() {
        if id as usize >= exact.num_targets() || Some(id) == excluded {
            return Err(format!("target {id} is unknown or removed"));
        }
        if got[..i].iter().any(|&(other, _)| other == id) {
            return Err(format!("target {id} returned twice"));
        }
        let e = exact.score(source, id);
        if !score.is_finite() || (f64::from(score) - e).abs() > SCORE_TOL {
            return Err(format!("target {id}: score {score} but exact cosine {e}"));
        }
        lowest = lowest.min(e);
    }
    for w in got.windows(2) {
        let ((a, sa), (b, sb)) = (w[0], w[1]);
        if !(sa > sb || (sa == sb && (a < b || !ties_by_id))) {
            return Err(format!("order broken: ({a}, {sa}) before ({b}, {sb})"));
        }
    }
    if !complete {
        return Ok(());
    }
    if got.len() != k {
        return Err(format!("{} candidates, want {k}", got.len()));
    }
    let decided = best.last().is_some_and(|&(_, e)| e <= lowest + SCORE_TOL);
    let ranking: Vec<(u32, f64)> = if decided {
        best.to_vec()
    } else {
        exact.top(source, exact.num_targets())
    };
    for &(t, e) in &ranking {
        if e <= lowest + SCORE_TOL {
            break;
        }
        if Some(t) != excluded && !got.iter().any(|&(id, _)| id == t) {
            return Err(format!(
                "target {t} (cosine {e}) missing from a top-{k} whose lowest is {lowest}"
            ));
        }
    }
    Ok(())
}

/// Undirected adjacency built straight from a graph's triple list, for
/// hop-distance checks independent of the graph's own indexes.
pub struct HopIndex {
    adjacency: Vec<Vec<u32>>,
    dist: Vec<u32>,
    touched: Vec<u32>,
}

impl HopIndex {
    pub fn new(kg: &KnowledgeGraph) -> HopIndex {
        let n = kg.num_entities();
        let mut adjacency = vec![Vec::new(); n];
        for t in kg.triples() {
            adjacency[t.head.index()].push(t.tail.0);
            adjacency[t.tail.index()].push(t.head.0);
        }
        HopIndex {
            adjacency,
            dist: vec![u32::MAX; n],
            touched: Vec::new(),
        }
    }

    /// Whether every triple lies on a path of at most `hops` edges from
    /// `center`: one of its ends is at most `hops - 1` edges away.
    pub fn all_within(&mut self, center: u32, hops: usize, triples: &[Triple]) -> bool {
        for &t in &self.touched {
            self.dist[t as usize] = u32::MAX;
        }
        self.touched.clear();
        let limit = hops.saturating_sub(1) as u32;
        self.dist[center as usize] = 0;
        self.touched.push(center);
        let mut head = 0;
        while head < self.touched.len() {
            let e = self.touched[head];
            head += 1;
            let d = self.dist[e as usize];
            if d >= limit {
                continue;
            }
            for i in 0..self.adjacency[e as usize].len() {
                let n = self.adjacency[e as usize][i];
                if self.dist[n as usize] == u32::MAX {
                    self.dist[n as usize] = d + 1;
                    self.touched.push(n);
                }
            }
        }
        triples
            .iter()
            .all(|t| self.dist[t.head.index()] <= limit || self.dist[t.tail.index()] <= limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One source along x; four targets at falling cosines 1, 0.8, 0.6, 0.
    fn scorer() -> ExactScorer {
        let unit = |a: f64| [a, (1.0 - a * a).sqrt()];
        ExactScorer {
            dim: 2,
            sources: vec![1.0, 0.0],
            targets: [1.0, 0.8, 0.6, 0.0].iter().flat_map(|&a| unit(a)).collect(),
        }
    }

    fn check(got: &[(u32, f32)], excluded: Option<u32>, complete: bool) -> Result<(), String> {
        let exact = scorer();
        let best = exact.top(0, 2);
        let want = Want {
            k: 2,
            excluded,
            complete,
            ties_by_id: true,
        };
        check_candidates(&exact, 0, &best, got, want)
    }

    #[test]
    fn the_exact_top_k_passes() {
        assert_eq!(check(&[(0, 1.0), (1, 0.8)], None, true), Ok(()));
        assert_eq!(check(&[(1, 0.8), (2, 0.6)], Some(0), true), Ok(()));
    }

    #[test]
    fn a_missing_better_target_fails_only_when_complete() {
        assert!(check(&[(0, 1.0), (2, 0.6)], None, true).is_err());
        assert_eq!(check(&[(0, 1.0), (2, 0.6)], None, false), Ok(()));
    }

    #[test]
    fn wrong_scores_order_and_removed_targets_fail() {
        assert!(check(&[(0, 1.0), (1, 0.7)], None, false).is_err());
        assert!(check(&[(1, 0.8), (0, 1.0)], None, false).is_err());
        assert!(check(&[(0, 1.0), (1, 0.8)], Some(0), false).is_err());
        assert!(check(&[(0, 1.0), (0, 1.0)], None, false).is_err());
    }

    #[test]
    fn bit_equal_ties_follow_id_order_only_when_asked() {
        let mut exact = scorer();
        // Target 2 becomes a copy of target 1: cosine 0.8 twice.
        exact.targets[4] = exact.targets[2];
        exact.targets[5] = exact.targets[3];
        let best = exact.top(0, 3);
        let got = [(0, 1.0), (2, 0.8), (1, 0.8)];
        let mut want = Want {
            k: 3,
            excluded: None,
            complete: true,
            ties_by_id: true,
        };
        assert!(check_candidates(&exact, 0, &best, &got, want).is_err());
        want.ties_by_id = false;
        assert_eq!(check_candidates(&exact, 0, &best, &got, want), Ok(()));
    }

    #[test]
    fn hop_distance_counts_edges_from_the_centre() {
        let mut kg = KnowledgeGraph::new();
        let ab = kg.add_triple_by_names("a", "r", "b");
        let bc = kg.add_triple_by_names("b", "r", "c");
        let cd = kg.add_triple_by_names("c", "r", "d");
        let a = kg.entity_by_name("a").expect("a exists").0;
        let mut hops = HopIndex::new(&kg);
        assert!(hops.all_within(a, 1, &[ab]));
        assert!(!hops.all_within(a, 1, &[bc]));
        assert!(hops.all_within(a, 2, &[ab, bc]));
        assert!(!hops.all_within(a, 2, &[cd]));
        assert!(hops.all_within(a, 3, &[cd]));
    }
}
