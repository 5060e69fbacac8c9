//! The three workloads: job shapes, request streams and respellings.
//! Every request is a pure function of the workload seed and its index.

use std::collections::HashSet;
use std::sync::Arc;

use impacc_serve::job::escape_src;
use impacc_serve::JobSpec;

use crate::rng::{mix, Rng};

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, two clients, distinct 1–16 ms jobs on 2×2 machines.
    CampaignCold,
    /// Open loop at a fixed rate, mostly cache hits under respellings.
    CacheMixed,
    /// Closed loop, one client, distinct 50–150 ms jobs.
    WideJobs,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "campaign_cold" => Some(Workload::CampaignCold),
            "cache_mixed" => Some(Workload::CacheMixed),
            "wide_jobs" => Some(Workload::WideJobs),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignCold => "campaign_cold",
            Workload::CacheMixed => "cache_mixed",
            Workload::WideJobs => "wide_jobs",
        }
    }

    /// Latency limit behind `slo_met_frac`, in milliseconds.
    pub fn slo_ms(self) -> f64 {
        match self {
            Workload::CampaignCold => 100.0,
            Workload::CacheMixed => 10.0,
            Workload::WideJobs => 500.0,
        }
    }

    /// Closed-loop client count (the open loop uses one generator
    /// thread).
    pub fn clients(self) -> usize {
        match self {
            Workload::CampaignCold => 2,
            Workload::CacheMixed | Workload::WideJobs => 1,
        }
    }

    /// Most requests per slice of the stream the latency figures are
    /// medians over. Host contention comes and goes within a run, so one
    /// bad stretch must not decide it: `cache_mixed` reports the median
    /// over 0.6 s slices (1200 requests, of which ~1194 answered, so the
    /// tail is p99 with at least 10 beyond) and `campaign_cold` over
    /// slices of about 500 jobs (tail p90); `wide_jobs` has too few jobs
    /// to slice.
    pub fn slice_len(self) -> usize {
        match self {
            Workload::CacheMixed => 1200,
            Workload::CampaignCold => 500,
            Workload::WideJobs => usize::MAX,
        }
    }

    /// Closed-loop runs end on a whole number of these jobs, so every
    /// run sees the same job mix.
    pub fn cycle(self) -> usize {
        match self {
            Workload::CampaignCold => CAMPAIGN_KINDS * CAMPAIGN_VARIANTS,
            Workload::CacheMixed => 1,
            Workload::WideJobs => WIDE_KINDS,
        }
    }

    /// Stream prefix every run completes; the result digest and the
    /// simulated-work counts cover exactly this prefix.
    pub fn digest_prefix(self) -> usize {
        match self {
            Workload::CampaignCold => 10 * self.cycle(),
            Workload::CacheMixed => usize::MAX,
            Workload::WideJobs => 4 * self.cycle(),
        }
    }
}

/// A job as ordered `key=value` pairs; the plain spelling is one pair
/// per line.
pub type Pairs = Vec<(&'static str, String)>;

pub fn plain_text(p: &Pairs) -> String {
    p.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// One request of a stream.
#[derive(Clone, Debug)]
pub struct Req {
    /// Text handed to `JobSpec::parse`.
    pub text: String,
    /// Several pairs per line separated by whitespace: the form
    /// `JobSpec::parse` documents but rejects today.
    pub multi_pair: bool,
    /// Key of the plain form, which every spelling must map to.
    pub plain_key: Option<Arc<str>>,
}

impl Req {
    fn plain(p: &Pairs) -> Req {
        Req {
            text: plain_text(p),
            multi_pair: false,
            plain_key: None,
        }
    }
}

/// Seed field of stream job `i`; warm-up jobs live in a disjoint range.
fn job_seed(seed: u64, i: usize) -> u64 {
    (seed % 100_000) * 1_000_000_000 + i as u64
}

const WARM_BASE: usize = 500_000_000;

fn pairs(kv: &[(&'static str, &str)]) -> Pairs {
    kv.iter().map(|(k, v)| (*k, v.to_string())).collect()
}

// ---------------------------------------------------------------- campaign_cold

const CAMPAIGN_KINDS: usize = 8;
const CAMPAIGN_VARIANTS: usize = 3;

/// Kind `k`, size variant `v` of the 2×2 campaign mix.
fn campaign_job(k: usize, v: usize, job_seed: u64, chaos_seed: u64) -> Pairs {
    let s = job_seed.to_string();
    let mesh = ["48", "64", "80"][v];
    let mut p = match k {
        0 => pairs(&[("workload", "jacobi"), ("n", mesh), ("iters", "4")]),
        1 => pairs(&[
            ("workload", "stencil3d"),
            ("n", ["12", "14", "16"][v]),
            ("iters", "3"),
        ]),
        2 => pairs(&[
            ("workload", "stencil2d"),
            ("n", mesh),
            ("iters", "4"),
            ("halo", "2"),
        ]),
        3 => pairs(&[("workload", "redblack"), ("n", mesh), ("iters", "3")]),
        4 => pairs(&[
            ("workload", "allreduce"),
            ("elems", ["512", "1024", "2048"][v]),
            ("rounds", "4"),
        ]),
        5 => {
            // Exchange needs exactly two tasks.
            let mut p = pairs(&[
                ("workload", "exchange"),
                ("nodes", "2"),
                ("gpus", "1"),
                ("rounds", ["2", "3", "4"][v]),
                ("chaos_rate", "0.02"),
            ]);
            p.push(("chaos_seed", chaos_seed.to_string()));
            p.push(("seed", s));
            return p;
        }
        6 => pairs(&[
            ("workload", "dsl"),
            ("program", "jacobi"),
            ("params", &format!("n:{mesh},iters:4")),
        ]),
        _ => pairs(&[
            ("workload", "dsl"),
            ("program", "dot"),
            ("params", ["n:2048", "n:4096", "n:8192"][v]),
        ]),
    };
    p.push(("nodes", "2".into()));
    p.push(("gpus", "2".into()));
    p.push(("seed", s));
    p
}

fn campaign_req(seed: u64, i: usize) -> Req {
    let cycle = i / CAMPAIGN_KINDS;
    let mut order: Vec<usize> = (0..CAMPAIGN_KINDS).collect();
    Rng::new(seed, mix(1, cycle as u64)).shuffle(&mut order);
    let kind = order[i % CAMPAIGN_KINDS];
    let variant = cycle % CAMPAIGN_VARIANTS;
    Req::plain(&campaign_job(
        kind,
        variant,
        job_seed(seed, i),
        mix(seed, i as u64) % 1000,
    ))
}

// ---------------------------------------------------------------- wide_jobs

const WIDE_KINDS: usize = 5;

fn wide_job(k: usize, job_seed: u64) -> Pairs {
    let mut p = match k {
        0 => pairs(&[
            ("workload", "jacobi"),
            ("nodes", "8"),
            ("gpus", "4"),
            ("n", "256"),
            ("iters", "6"),
        ]),
        1 => pairs(&[
            ("workload", "allreduce"),
            ("nodes", "16"),
            ("gpus", "4"),
            ("elems", "1024"),
            ("rounds", "12"),
        ]),
        2 => pairs(&[
            ("workload", "allreduce"),
            ("spec", "titan"),
            ("nodes", "128"),
            ("elems", "256"),
            ("rounds", "1"),
        ]),
        3 => pairs(&[
            ("workload", "stencil3d"),
            ("nodes", "4"),
            ("gpus", "4"),
            ("n", "32"),
            ("iters", "4"),
        ]),
        _ => pairs(&[
            ("workload", "dsl"),
            ("program", "stencil2d"),
            ("nodes", "8"),
            ("gpus", "2"),
            ("params", "n:128,iters:10,h:2"),
        ]),
    };
    p.push(("seed", job_seed.to_string()));
    p
}

fn wide_req(seed: u64, i: usize) -> Req {
    let cycle = i / WIDE_KINDS;
    let mut order: Vec<usize> = (0..WIDE_KINDS).collect();
    Rng::new(seed, mix(2, cycle as u64)).shuffle(&mut order);
    Req::plain(&wide_job(order[i % WIDE_KINDS], job_seed(seed, i)))
}

/// Request `i` of a closed-loop stream.
pub fn closed_req(w: Workload, seed: u64, i: usize) -> Req {
    match w {
        Workload::CampaignCold => campaign_req(seed, i),
        Workload::WideJobs => wide_req(seed, i),
        Workload::CacheMixed => unreachable!("cache_mixed is an open-loop schedule"),
    }
}

/// Warm-up jobs run during set-up, with seeds outside the stream's
/// range: every kind and size of `campaign_cold`, one `wide_jobs` job.
pub fn closed_warmup(w: Workload, seed: u64) -> Vec<Req> {
    match w {
        Workload::CampaignCold => (0..CAMPAIGN_KINDS * CAMPAIGN_VARIANTS)
            .map(|i| {
                let (k, v) = (i % CAMPAIGN_KINDS, i / CAMPAIGN_KINDS);
                Req::plain(&campaign_job(k, v, job_seed(seed, WARM_BASE + i), 1))
            })
            .collect(),
        Workload::WideJobs => vec![Req::plain(&wide_job(3, job_seed(seed, WARM_BASE)))],
        Workload::CacheMixed => unreachable!(),
    }
}

// ---------------------------------------------------------------- cache_mixed

/// Requests per second of the open loop.
pub const MIXED_RATE: f64 = 2000.0;
/// Distinct keys warmed into the cache before timing.
const MIXED_WORKING_SET: usize = 240;
/// Per block of 200 requests: 20 new keys, each followed by a re-ask
/// half the time, one multi-pair spelling, the rest Zipf re-asks.
const BLOCK: usize = 200;
const BLOCK_NEW: usize = 20;
const BLOCK_REASK_NEW: usize = 10;
const BLOCK_MULTI: usize = 1;
const ZIPF_S: f64 = 1.0;

const SMALL_KINDS: usize = 6;

/// Small 2-rank jobs of the working set; job `i` is of kind
/// `i % SMALL_KINDS`. Only the last kind is a DSL program (dot and
/// jacobi in turn), so DSL keys are about an eighth of the re-asks and
/// the median request is a plain hit.
fn small_job(i: usize, job_seed: u64) -> Pairs {
    let mut p = match i % SMALL_KINDS {
        0 => pairs(&[("workload", "allreduce"), ("elems", "32"), ("rounds", "1")]),
        1 => pairs(&[("workload", "jacobi"), ("n", "16"), ("iters", "2")]),
        2 => pairs(&[
            ("workload", "stencil2d"),
            ("n", "16"),
            ("iters", "2"),
            ("halo", "2"),
        ]),
        3 => pairs(&[("workload", "redblack"), ("n", "16"), ("iters", "1")]),
        4 => pairs(&[("workload", "allreduce"), ("elems", "64"), ("rounds", "1")]),
        _ if (i / SMALL_KINDS).is_multiple_of(2) => {
            pairs(&[("workload", "dsl"), ("program", "dot"), ("params", "n:256")])
        }
        _ => pairs(&[
            ("workload", "dsl"),
            ("program", "jacobi"),
            ("params", "n:16,iters:2"),
        ]),
    };
    p.push(("nodes", "2".into()));
    p.push(("gpus", "1".into()));
    p.push(("seed", job_seed.to_string()));
    p
}

/// New keys: one-round allreduces, the cheapest job there is (about
/// 0.3 ms on one core), so almost no simulation runs.
fn new_job(k: usize, job_seed: u64) -> Pairs {
    let (nodes, gpus) = if k.is_multiple_of(2) {
        ("1", "2")
    } else {
        ("2", "1")
    };
    let mut p = pairs(&[
        ("workload", "allreduce"),
        ("elems", ["16", "32", "64", "128"][k % 4]),
        ("rounds", "1"),
        ("nodes", nodes),
        ("gpus", gpus),
    ]);
    p.push(("seed", job_seed.to_string()));
    p
}

/// The open-loop schedule and the keys warmed before it starts.
pub struct Mixed {
    /// Plain forms run during set-up (the working set).
    pub warm: Vec<Req>,
    /// Request `i` is due `i / MIXED_RATE` seconds after the start.
    pub schedule: Vec<Req>,
}

/// Build the `cache_mixed` stream for `seconds` of traffic. Computes
/// the key of every distinct plain form (part of set-up).
pub fn mixed(seed: u64, seconds: f64) -> Result<Mixed, String> {
    let key_of = |p: &Pairs| -> Result<Arc<str>, String> {
        let text = plain_text(p);
        JobSpec::parse(&text)
            .map(|j| Arc::from(j.key()))
            .map_err(|e| format!("generated job does not parse: {e}: {text}"))
    };
    let warm_pairs: Vec<Pairs> = (0..MIXED_WORKING_SET)
        .map(|i| small_job(i, job_seed(seed, WARM_BASE + i)))
        .collect();
    let warm_keys = warm_pairs
        .iter()
        .map(key_of)
        .collect::<Result<Vec<_>, _>>()?;
    let zipf_cdf: Vec<f64> = {
        let w: Vec<f64> = (0..MIXED_WORKING_SET)
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = w.iter().sum();
        w.iter()
            .scan(0.0, |acc, x| {
                *acc += x / total;
                Some(*acc)
            })
            .collect()
    };
    // Zipf rank -> working-set entry. Rank `r` always lands on a job of
    // kind `r % SMALL_KINDS`, so every seed asks each kind equally often;
    // the seed picks which job of that kind is hot.
    let mut rng = Rng::new(seed, 3);
    let per_kind = MIXED_WORKING_SET / SMALL_KINDS;
    let perms: Vec<Vec<usize>> = (0..SMALL_KINDS)
        .map(|_| {
            let mut p: Vec<usize> = (0..per_kind).collect();
            rng.shuffle(&mut p);
            p
        })
        .collect();
    let hot: Vec<usize> = (0..MIXED_WORKING_SET)
        .map(|r| perms[r % SMALL_KINDS][r / SMALL_KINDS] * SMALL_KINDS + r % SMALL_KINDS)
        .collect();

    let total = (MIXED_RATE * seconds).round() as usize;
    let mut schedule = Vec::with_capacity(total);
    let mut n_new = 0;
    let mut last_new: Option<(Pairs, Arc<str>)> = None;
    let mut seen: HashSet<Arc<str>> = warm_keys.iter().cloned().collect();
    while schedule.len() < total {
        // Slot plan of one block: 'n' new key (optionally followed by a
        // re-ask 'r'), 'm' multi-pair spelling, 'z' Zipf re-ask.
        let mut slots: Vec<Vec<u8>> = Vec::new();
        for j in 0..BLOCK_NEW {
            slots.push(if j < BLOCK_REASK_NEW {
                b"nr".to_vec()
            } else {
                b"n".to_vec()
            });
        }
        slots.extend((0..BLOCK_MULTI).map(|_| b"m".to_vec()));
        let used: usize = slots.iter().map(Vec::len).sum();
        slots.extend((0..BLOCK - used).map(|_| b"z".to_vec()));
        rng.shuffle(&mut slots);
        for slot in slots.iter().flatten() {
            let req = match slot {
                b'n' => {
                    let p = new_job(rng.below(4), job_seed(seed, MIXED_WORKING_SET + n_new));
                    n_new += 1;
                    let key = key_of(&p)?;
                    if !seen.insert(key.clone()) {
                        return Err(format!("new job repeats key {key}"));
                    }
                    let req = Req {
                        text: plain_text(&p),
                        multi_pair: false,
                        plain_key: Some(key.clone()),
                    };
                    last_new = Some((p, key));
                    req
                }
                b'r' => {
                    let (p, key) = last_new.as_ref().expect("a re-ask follows its new key");
                    Req {
                        text: respell(&mut rng, p),
                        multi_pair: false,
                        plain_key: Some(key.clone()),
                    }
                }
                b'm' => {
                    let w = zipf_pick(&mut rng, &zipf_cdf, &hot);
                    Req {
                        text: multi_pair(&mut rng, &warm_pairs[w]),
                        multi_pair: true,
                        plain_key: Some(warm_keys[w].clone()),
                    }
                }
                _ => {
                    let w = zipf_pick(&mut rng, &zipf_cdf, &hot);
                    Req {
                        text: respell(&mut rng, &warm_pairs[w]),
                        multi_pair: false,
                        plain_key: Some(warm_keys[w].clone()),
                    }
                }
            };
            schedule.push(req);
        }
    }
    schedule.truncate(total);
    let warm = warm_pairs
        .iter()
        .zip(&warm_keys)
        .map(|(p, k)| Req {
            text: plain_text(p),
            multi_pair: false,
            plain_key: Some(k.clone()),
        })
        .collect();
    Ok(Mixed { warm, schedule })
}

fn zipf_pick(rng: &mut Rng, cdf: &[f64], hot: &[usize]) -> usize {
    let u = rng.unit();
    let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
    hot[rank]
}

/// Fields whose written-out value equals the default or cannot change
/// the result, so adding them must not move the key.
const NEUTRAL_FIELDS: [(&str, &str); 7] = [
    ("spec", "test_cluster"),
    ("chaos_rate", "0"),
    ("chaos_seed", "0"),
    ("fail_device", ""),
    ("priority", "normal"),
    ("prof", "0"),
    ("campaign", "perfbench"),
];

/// An equivalent spelling of `p`: shuffled field order, whitespace,
/// comments, neutral fields written out, zero-padded numbers, and DSL
/// programs inlined as escaped source with cosmetic edits.
pub fn respell(rng: &mut Rng, p: &Pairs) -> String {
    let mut fields: Vec<(String, String)> =
        p.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
    for (k, v) in fields.iter_mut() {
        if k == "program" && rng.one_in(2) {
            if let Some(src) = impacc_dsl::example(v) {
                *v = escape_src(&cosmetic_source(rng, src));
            }
        } else if k == "params" && rng.one_in(2) {
            let mut parts: Vec<&str> = v.split(',').collect();
            parts.reverse();
            *v = parts.join(", ").replace(':', ": ");
        } else if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) && rng.one_in(3) {
            *v = format!("00{v}");
        }
    }
    for (k, v) in NEUTRAL_FIELDS {
        if rng.one_in(4) && !fields.iter().any(|(f, _)| f == k) {
            fields.push((k.to_string(), v.to_string()));
        }
    }
    rng.shuffle(&mut fields);
    let mut out = String::new();
    if rng.one_in(3) {
        out.push_str("# respelled request\n\n");
    }
    for (k, v) in &fields {
        let line = match rng.below(4) {
            0 => format!("{k}={v}"),
            1 => format!("{k} = {v}"),
            2 => format!("  {k}=\t{v}  "),
            _ => format!("{k} ={v}   # {k}"),
        };
        out.push_str(&line);
        out.push('\n');
        if rng.one_in(6) {
            out.push('\n');
        }
    }
    out
}

/// The same program with comments, blank lines and indentation moved.
fn cosmetic_source(rng: &mut Rng, src: &str) -> String {
    let mut out = String::new();
    if rng.one_in(2) {
        out.push_str("// inlined copy\n\n");
    }
    for line in src.lines() {
        let t = line.trim_start();
        if t.starts_with("//") && rng.one_in(2) {
            continue; // drop a comment line
        }
        if !t.starts_with("#pragma") && !t.is_empty() && rng.one_in(3) {
            out.push_str("    ");
        }
        out.push_str(line);
        out.push('\n');
        if rng.one_in(8) {
            out.push('\n');
        }
    }
    out
}

/// The documented several-pairs-per-line form of `p`.
fn multi_pair(rng: &mut Rng, p: &Pairs) -> String {
    let mut out = String::new();
    for (i, (k, v)) in p.iter().enumerate() {
        if i > 0 {
            out.push_str(if rng.one_in(2) { "   " } else { "\n" });
        }
        out.push_str(&format!("{k}={v}"));
    }
    // At least one line must carry two pairs.
    if !out.lines().any(|l| l.contains("   ")) {
        out = out.replacen('\n', "   ", 1);
    }
    out
}
