//! Correctness checkers. Each one compares what the program produced
//! against values the benchmark computes on its own (plain-Rust kernels,
//! its own FNV-1a) or against properties the method must have. A
//! checker returns a [`Verdict`]: operations that never finished
//! (`missing`) apart from operations that finished with a wrong result.

use std::collections::{BTreeMap, HashSet};

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations with no result: a dropped job, an unresolved or open
    /// lookup.
    pub missing: u64,
    /// Operations whose result is wrong.
    pub wrong: u64,
}

impl Verdict {
    /// Every operation the checker counts as failed.
    #[cfg(test)]
    pub fn bad(self) -> u64 {
        self.missing + self.wrong
    }
}

impl std::ops::Add for Verdict {
    type Output = Verdict;
    fn add(self, o: Verdict) -> Verdict {
        Verdict {
            missing: self.missing + o.missing,
            wrong: self.wrong + o.wrong,
        }
    }
}

/// Plain-Rust SPH smoothing weight `w = max(0, 1 - r²)³`, in the same
/// operation order as the farmed kernel.
pub fn sph(r: f64) -> f64 {
    let w = (1.0 - r * r).max(0.0);
    w * (w * w)
}

/// Incremental FNV-1a 64, also used to fingerprint simulated outcomes.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Executed farm: job `i` must have returned exactly `expected[i]`, bit
/// for bit. A missing job or any differing bit fails that job.
pub fn exec_outputs<W>(
    expected: &[Vec<Vec<f64>>],
    results: &BTreeMap<u64, (W, Vec<Vec<f64>>)>,
) -> Verdict {
    let mut v = Verdict::default();
    for (i, want) in expected.iter().enumerate() {
        match results.get(&(i as u64)) {
            Some((_, got)) if same_bits(got, want) => {}
            Some(_) => v.wrong += 1,
            None => v.missing += 1,
        }
    }
    v.wrong += results
        .keys()
        .filter(|&&k| k as usize >= expected.len())
        .count() as u64;
    v
}

/// Module caches: every `(name, version, hash)` a worker reports must
/// carry the FNV-1a hash the benchmark computes over its own copy of that
/// module's bytes. Returns the number of cache entries that do not.
pub fn blob_hashes(
    modules: &[(String, u32, Vec<u8>)],
    caches: &[Vec<(String, u32, u64)>],
) -> Verdict {
    let wrong = caches
        .iter()
        .flatten()
        .filter(|(name, version, hash)| {
            !modules
                .iter()
                .any(|(n, v, bytes)| n == name && v == version && fnv1a64(bytes) == *hash)
        })
        .count() as u64;
    Verdict { missing: 0, wrong }
}

/// One finished lookup as the benchmark sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct Lookup {
    /// Peers the hits came from.
    pub hit_peers: Vec<u32>,
    pub hops: u64,
}

/// Lookups: each must resolve, every hit must come from a peer the
/// benchmark published under the key, and no referral chain may exceed
/// `hop_budget`. `open` lookups (still in flight after the drain) each
/// count as failed too.
pub fn lookups(
    found: &[Lookup],
    published: &HashSet<u32>,
    hop_budget: u64,
    open: usize,
) -> Verdict {
    let mut v = Verdict {
        missing: open as u64,
        wrong: 0,
    };
    for l in found {
        if l.hit_peers.is_empty() {
            v.missing += 1;
        } else if l.hops > hop_budget || l.hit_peers.iter().any(|p| !published.contains(p)) {
            v.wrong += 1;
        }
    }
    v
}

/// One job of the backlog farm as the benchmark sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct BacklogJob {
    pub work_gigacycles: f64,
    /// Submit-to-result latency (simulated seconds); `None` if the job
    /// never completed.
    pub latency_s: Option<f64>,
}

/// Backlog farm: every job completes exactly once (the per-worker
/// completion counts must add up to the number of jobs), no job finishes
/// faster than its compute time on the fastest worker, and the makespan
/// is at least the total work divided by the aggregate worker speed.
pub fn backlog(
    jobs: &[BacklogJob],
    completions: u64,
    worker_ghz: &[f64],
    makespan_s: f64,
) -> Verdict {
    // Simulated time has microsecond resolution.
    const SLACK_S: f64 = 1e-6;
    let fastest = worker_ghz.iter().copied().fold(0.0, f64::max);
    let aggregate: f64 = worker_ghz.iter().sum();
    let mut v = Verdict::default();
    let mut done = 0u64;
    for j in jobs {
        match j.latency_s {
            Some(l) => {
                done += 1;
                if l + SLACK_S < j.work_gigacycles / fastest {
                    v.wrong += 1;
                }
            }
            None => v.missing += 1,
        }
    }
    // A job completed twice (or a completion for no job) is wrong.
    v.wrong += completions.abs_diff(done);
    let total_work: f64 = jobs.iter().map(|j| j.work_gigacycles).sum();
    if makespan_s + SLACK_S < total_work / aggregate {
        v.wrong += 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outputs() -> Vec<Vec<Vec<f64>>> {
        vec![
            vec![[0.1, 0.5, 1.5].iter().map(|&r| sph(r)).collect()],
            vec![vec![2.5 * 3.0]],
        ]
    }

    fn results(out: &[Vec<Vec<f64>>]) -> BTreeMap<u64, ((), Vec<Vec<f64>>)> {
        out.iter()
            .enumerate()
            .map(|(i, o)| (i as u64, ((), o.clone())))
            .collect()
    }

    #[test]
    fn sph_matches_the_closed_form() {
        assert_eq!(sph(0.0), 1.0);
        assert_eq!(sph(1.5), 0.0);
        assert!((sph(0.5) - 0.75f64.powi(3)).abs() < 1e-15);
    }

    #[test]
    fn exec_check_passes_clean_results() {
        let want = outputs();
        assert_eq!(exec_outputs(&want, &results(&want)).bad(), 0);
    }

    #[test]
    fn exec_check_catches_a_flipped_output_bit() {
        let want = outputs();
        let mut got = results(&want);
        let v = &mut got.get_mut(&0).unwrap().1[0][1];
        *v = f64::from_bits(v.to_bits() ^ 1);
        assert_eq!(exec_outputs(&want, &got).bad(), 1);
    }

    #[test]
    fn exec_check_catches_a_dropped_job() {
        let want = outputs();
        let mut got = results(&want);
        got.remove(&1);
        assert_eq!(exec_outputs(&want, &got).bad(), 1);
    }

    #[test]
    fn blob_check_catches_a_wrong_hash() {
        let modules = vec![("A".to_string(), 1, b"alpha".to_vec())];
        let good = vec![vec![("A".to_string(), 1, fnv1a64(b"alpha"))]];
        assert_eq!(blob_hashes(&modules, &good).bad(), 0);
        let bad = vec![vec![("A".to_string(), 1, fnv1a64(b"alpha") ^ 1)]];
        assert_eq!(blob_hashes(&modules, &bad).bad(), 1);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn lookup_check_catches_a_hit_from_a_peer_that_never_published() {
        let published: HashSet<u32> = [3, 7].into_iter().collect();
        let ok = vec![Lookup {
            hit_peers: vec![3],
            hops: 4,
        }];
        assert_eq!(lookups(&ok, &published, 19, 0).bad(), 0);
        let forged = vec![Lookup {
            hit_peers: vec![3, 9],
            hops: 4,
        }];
        assert_eq!(lookups(&forged, &published, 19, 0).bad(), 1);
        let unresolved = vec![Lookup {
            hit_peers: vec![],
            hops: 4,
        }];
        assert_eq!(lookups(&unresolved, &published, 19, 0).bad(), 1);
        let too_long = vec![Lookup {
            hit_peers: vec![7],
            hops: 20,
        }];
        assert_eq!(lookups(&too_long, &published, 19, 0).bad(), 1);
        assert_eq!(lookups(&ok, &published, 19, 2).bad(), 2);
    }

    #[test]
    fn backlog_check_catches_a_dropped_job() {
        let jobs = vec![
            BacklogJob {
                work_gigacycles: 2.0,
                latency_s: Some(5.0),
            },
            BacklogJob {
                work_gigacycles: 2.0,
                latency_s: Some(3.0),
            },
        ];
        assert_eq!(backlog(&jobs, 2, &[1.0, 2.0], 5.0).bad(), 0);
        let mut dropped = jobs.clone();
        dropped[1].latency_s = None;
        assert_eq!(backlog(&dropped, 1, &[1.0, 2.0], 5.0).missing, 1);
        // Faster than the fastest worker could compute it.
        let mut too_fast = jobs.clone();
        too_fast[0].latency_s = Some(0.5);
        assert_eq!(backlog(&too_fast, 2, &[1.0, 2.0], 5.0).bad(), 1);
        // A job counted as completed twice.
        assert_eq!(backlog(&jobs, 3, &[1.0, 2.0], 5.0).bad(), 1);
        // Makespan below total work over aggregate speed.
        assert_eq!(backlog(&jobs, 2, &[1.0, 2.0], 1.0).bad(), 1);
    }
}
