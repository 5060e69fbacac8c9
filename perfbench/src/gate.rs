//! Correctness gate, result digest and simulated-work counts.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use impacc_serve::{run_job, JobSpec};

use crate::drive::{Answer, Outcome};
use crate::workloads::Req;

/// Verdict over every answer of a run.
#[derive(Default, Debug)]
pub struct Gate {
    pub attempted: usize,
    /// Answers that count as failed (refused, failed or wrong).
    pub failed: HashSet<usize>,
    /// Multi-pair spellings refused at parse (the known defect).
    pub spelling_rejected: usize,
    /// Other refusals, by reason prefix.
    pub refused_other: BTreeMap<String, usize>,
    /// Admitted jobs that failed: error, panic or in-job assert.
    pub job_failures: Vec<String>,
    /// Answers whose key differs from their plain form's key.
    pub respell_key_mismatch: usize,
    /// Answers whose bytes differ from the first answer for the key, or
    /// that do not name their own key.
    pub wrong_bytes: usize,
    /// Sampled keys whose re-run through `run_job` gave other bytes.
    pub rerun_mismatch: usize,
    pub rerun_checked: usize,
}

impl Gate {
    /// Outputs are correct: no wrong or mismatched bytes, no failed jobs.
    /// Refusals count as failures but not as wrong outputs.
    pub fn correct(&self) -> bool {
        self.respell_key_mismatch == 0
            && self.wrong_bytes == 0
            && self.rerun_mismatch == 0
            && self.job_failures.is_empty()
    }

    /// Check every answer. `first` maps each key to its first cold
    /// answer and is extended with keys seen here for the first time.
    pub fn check(
        &mut self,
        answers: &[Answer],
        req_of: &dyn Fn(usize) -> Req,
        first: &mut HashMap<String, Arc<String>>,
    ) {
        for a in answers {
            self.attempted += 1;
            let req = req_of(a.idx);
            match &a.outcome {
                Outcome::Refused(why) => {
                    self.failed.insert(a.idx);
                    if req.multi_pair && why.starts_with("invalid") {
                        self.spelling_rejected += 1;
                    } else {
                        let reason = why.split(':').next().unwrap_or("").to_string();
                        *self.refused_other.entry(reason).or_default() += 1;
                    }
                }
                Outcome::Failed { key, why } => {
                    self.failed.insert(a.idx);
                    self.job_failures.push(format!("{key}: {why}"));
                }
                Outcome::Ok { key, bytes, .. } => {
                    if req.plain_key.as_deref().is_some_and(|k| k != key.as_str()) {
                        self.respell_key_mismatch += 1;
                        self.failed.insert(a.idx);
                    }
                    let names_key = bytes.contains(&format!("\"key\":\"{key}\""));
                    let same = match first.get(key) {
                        Some(f) => Arc::ptr_eq(f, bytes) || f == bytes,
                        None => {
                            first.insert(key.clone(), bytes.clone());
                            true
                        }
                    };
                    if !names_key || !same {
                        self.wrong_bytes += 1;
                        self.failed.insert(a.idx);
                    }
                }
            }
        }
    }

    /// Re-run the first `k` executed keys through `run_job`; a key whose
    /// bytes differ fails every answer that carried it.
    pub fn rerun_sample(
        &mut self,
        answers: &[Answer],
        req_of: &dyn Fn(usize) -> Req,
        first: &HashMap<String, Arc<String>>,
        k: usize,
    ) {
        let mut bad: HashSet<String> = HashSet::new();
        for (idx, key, _) in executed(answers).into_iter().take(k) {
            self.rerun_checked += 1;
            let same = JobSpec::parse(&req_of(idx).text)
                .map_err(|e| e.to_string())
                .and_then(|job| run_job(&job))
                .is_ok_and(|out| first.get(&key).is_some_and(|f| **f == out.result));
            if !same {
                self.rerun_mismatch += 1;
                bad.insert(key);
            }
        }
        for a in answers {
            if let Outcome::Ok { key, .. } = &a.outcome {
                if bad.contains(key) {
                    self.failed.insert(a.idx);
                }
            }
        }
    }
}

/// `(idx, key, bytes)` of each executed key's first answer, in stream
/// order: answers that ran the simulation rather than reading the cache.
pub fn executed(answers: &[Answer]) -> Vec<(usize, String, Arc<String>)> {
    let mut seen = HashSet::new();
    answers
        .iter()
        .filter_map(|a| match &a.outcome {
            Outcome::Ok {
                key,
                bytes,
                cache_hit: false,
            } if seen.insert(key.clone()) => Some((a.idx, key.clone(), bytes.clone())),
            _ => None,
        })
        .collect()
}

/// An integer field `"name":N` of a result body.
pub fn field(bytes: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    bytes
        .find(&pat)
        .and_then(|i| {
            let rest = &bytes[i + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0)
}

/// The `"metrics":{...}` counters of a result body.
pub fn metrics(bytes: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Some(i) = bytes.find("\"metrics\":{") else {
        return out;
    };
    let body = &bytes[i + "\"metrics\":{".len()..];
    let body = &body[..body.find('}').unwrap_or(body.len())];
    for pair in body.split(',') {
        if let Some((k, v)) = pair.split_once(':') {
            if let Ok(v) = v.parse::<u64>() {
                out.insert(k.trim_matches('"').to_string(), v);
            }
        }
    }
    out
}

/// Digest of every answer with `idx < prefix`, in stream order, plus
/// the simulated-work counts summed over the distinct keys answered.
pub struct Digest {
    pub hash: u64,
    pub answers: usize,
    pub keys: usize,
    pub counts: BTreeMap<String, u64>,
}

pub fn digest(answers: &[Answer], prefix: usize) -> Digest {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |s: &[u8]| {
        for &b in s {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut seen = HashSet::new();
    let mut n = 0;
    for a in answers.iter().filter(|a| a.idx < prefix) {
        n += 1;
        eat(&(a.idx as u64).to_le_bytes());
        match &a.outcome {
            Outcome::Ok { key, bytes, .. } => {
                eat(bytes.as_bytes());
                if seen.insert(key.clone()) {
                    for f in ["events", "end_ps", "tasks"] {
                        *counts.entry(f.to_string()).or_default() += field(bytes, f);
                    }
                    for (k, v) in metrics(bytes) {
                        *counts.entry(k).or_default() += v;
                    }
                }
            }
            Outcome::Refused(_) => eat(b"refused"),
            Outcome::Failed { .. } => eat(b"failed"),
        }
    }
    Digest {
        hash: h,
        answers: n,
        keys: seen.len(),
        counts,
    }
}
