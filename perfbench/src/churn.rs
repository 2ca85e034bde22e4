//! Seeded cost churn: the `ParamDelta` batches both optimizer engines
//! receive on the TPC-H workloads.
//!
//! Every batch targets one query and mixes all three delta kinds. The
//! parameter is drawn Zipf-skewed over a seeded permutation of that
//! kind's parameters, so a few parameters change often and the rest
//! rarely; which parameters are hot moves every [`PHASE_BATCHES`]
//! batches, so one run samples many hot sets rather than the seed's
//! first draw. Factors are absolute settings from {¼, ½, 1, 2, 4}, so raises,
//! decreases and restores to the base estimate all occur. Batch sizes
//! are one delta, a few deltas, or every parameter of the query at once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reopt_cost::ParamDelta;
use reopt_expr::{EdgeId, LeafId, QuerySpec};
use reopt_workloads::Zipf;

/// Absolute factors relative to the catalog estimate.
pub const FACTORS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// Batches between re-draws of the hot parameters.
pub const PHASE_BATCHES: u64 = 64;

/// Zipf exponent of the parameter choice.
const ZIPF_THETA: f64 = 1.0;

/// Shares of single-delta and few-delta batches; the rest set every
/// parameter of the query.
const P_SINGLE: f64 = 0.5;
const P_FEW: f64 = 0.4;
const FEW_MAX: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Edge,
    Card,
    Scan,
}

struct Params {
    edges: Vec<u32>,
    leaves_card: Vec<u32>,
    leaves_scan: Vec<u32>,
    zipf_edges: Zipf,
    zipf_leaves: Zipf,
}

/// Generates the delta batches of one query.
pub struct ChurnGen {
    rng: StdRng,
    params: Params,
    batches: u64,
}

impl ChurnGen {
    pub fn new(q: &QuerySpec, seed: u64) -> ChurnGen {
        let edges: Vec<u32> = (0..q.edges.len() as u32).collect();
        let leaves: Vec<u32> = (0..q.n_leaves()).collect();
        let params = Params {
            zipf_edges: Zipf::new(edges.len().max(1), ZIPF_THETA),
            zipf_leaves: Zipf::new(leaves.len(), ZIPF_THETA),
            edges,
            leaves_card: leaves.clone(),
            leaves_scan: leaves,
        };
        ChurnGen {
            rng: StdRng::seed_from_u64(seed),
            params,
            batches: 0,
        }
    }

    /// Re-draws which parameters are hot.
    fn new_phase(&mut self) {
        let p = &mut self.params;
        for v in [&mut p.edges, &mut p.leaves_card, &mut p.leaves_scan] {
            shuffle(v, &mut self.rng);
        }
    }

    fn factor(&mut self) -> f64 {
        FACTORS[self.rng.gen_range(0..FACTORS.len())]
    }

    fn delta(kind: Kind, idx: u32, factor: f64) -> ParamDelta {
        match kind {
            Kind::Edge => ParamDelta::EdgeSelectivity(EdgeId(idx), factor),
            Kind::Card => ParamDelta::LeafCardinality(LeafId(idx), factor),
            Kind::Scan => ParamDelta::LeafScanCost(LeafId(idx), factor),
        }
    }

    fn skewed(&mut self) -> ParamDelta {
        let kinds: &[Kind] = if self.params.edges.is_empty() {
            &[Kind::Card, Kind::Scan]
        } else {
            &[Kind::Edge, Kind::Card, Kind::Scan]
        };
        let kind = kinds[self.rng.gen_range(0..kinds.len())];
        let p = &self.params;
        let idx = match kind {
            Kind::Edge => p.edges[p.zipf_edges.sample(&mut self.rng) - 1],
            Kind::Card => p.leaves_card[p.zipf_leaves.sample(&mut self.rng) - 1],
            Kind::Scan => p.leaves_scan[p.zipf_leaves.sample(&mut self.rng) - 1],
        };
        let f = self.factor();
        Self::delta(kind, idx, f)
    }

    /// Parameters of the query: the size of an every-parameter batch.
    pub fn n_params(&self) -> usize {
        let p = &self.params;
        p.edges.len() + p.leaves_card.len() + p.leaves_scan.len()
    }

    /// The next batch.
    pub fn batch(&mut self) -> Vec<ParamDelta> {
        if self.batches.is_multiple_of(PHASE_BATCHES) {
            self.new_phase();
        }
        self.batches += 1;
        let u: f64 = self.rng.gen();
        if u < P_SINGLE {
            vec![self.skewed()]
        } else if u < P_SINGLE + P_FEW {
            let n = self.rng.gen_range(2..=FEW_MAX);
            (0..n).map(|_| self.skewed()).collect()
        } else {
            let mut all = Vec::new();
            for (kind, ids) in [
                (Kind::Edge, self.params.edges.clone()),
                (Kind::Card, self.params.leaves_card.clone()),
                (Kind::Scan, self.params.leaves_scan.clone()),
            ] {
                for idx in ids {
                    let f = self.factor();
                    all.push(Self::delta(kind, idx, f));
                }
            }
            all
        }
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Order-sensitive digest of a batch sequence (determinism checks).
pub fn digest(h: &mut u64, batch: &[ParamDelta]) {
    let mut mix = |v: u64| {
        *h = (*h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(17);
    };
    mix(batch.len() as u64);
    for d in batch {
        let (tag, id, f) = match *d {
            ParamDelta::EdgeSelectivity(e, f) => (0, e.0, f),
            ParamDelta::LeafCardinality(l, f) => (1, l.0, f),
            ParamDelta::LeafScanCost(l, f) => (2, l.0, f),
        };
        mix(tag);
        mix(id as u64);
        mix(f.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_workloads::{QueryId, TpchGen};

    #[test]
    fn batches_cover_every_kind_size_and_factor() {
        let (cat, _) = TpchGen::default().generate();
        let q = QueryId::Q5.build(&cat);
        let mut g = ChurnGen::new(&q, 3);
        let n_params = q.edges.len() + 2 * q.n_leaves() as usize;
        let (mut single, mut few, mut all) = (0, 0, 0);
        let mut kinds = [false; 3];
        let mut factors = [false; FACTORS.len()];
        for _ in 0..400 {
            let b = g.batch();
            match b.len() {
                1 => single += 1,
                n if n == n_params => all += 1,
                _ => few += 1,
            }
            for d in &b {
                let (k, f) = match *d {
                    ParamDelta::EdgeSelectivity(_, f) => (0, f),
                    ParamDelta::LeafCardinality(_, f) => (1, f),
                    ParamDelta::LeafScanCost(_, f) => (2, f),
                };
                kinds[k] = true;
                factors[FACTORS.iter().position(|&x| x == f).unwrap()] = true;
            }
        }
        assert!(single > 0 && few > 0 && all > 0);
        assert!(kinds.iter().all(|&k| k));
        assert!(factors.iter().all(|&f| f));
    }
}
