//! One benchmark for the `impacc-serve` simulation service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign_cold|cache_mixed|wide_jobs> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives one `Serve` engine (2 workers, default queue cap) from this
//! process with a generated job stream, checks every answer, and prints
//! a report followed by one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md
//! for the workloads and what each metric should move.

mod cpus;
mod direct;
mod drive;
mod gate;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use impacc_serve::{Serve, ServeConfig, Status};

use crate::drive::{Answer, Outcome, Phase};
use crate::gate::Gate;
use crate::stats::{median, percentile, tail};
use crate::trace::{Span, SpanBuf};
use crate::workloads::{Mixed, Req, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const WORKERS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or_else(|| {
                    format!("unknown workload {val:?} (campaign_cold|cache_mixed|wide_jobs)")
                })?)
            }
            "--seed" => {
                seed = Some(
                    val.parse::<u64>()
                        .map_err(|_| format!("bad --seed {val:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {val:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val:?} (0|1)")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Remove every `IMPACC_*` variable so the program runs at its
/// defaults. Runs before any thread starts.
fn clear_impacc_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("IMPACC_"))
        .collect();
    names.sort();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Process high-water mark in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(total, steal)` jiffies of all CPUs from `/proc/stat`, to report how
/// much CPU time the host took away during the measurement.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// A started engine with its inputs generated and warmed.
struct Setup {
    serve: Serve,
    mixed: Option<Mixed>,
    /// First answer per key seen during warm-up.
    first: HashMap<String, Arc<String>>,
    /// Warmed `(key, bytes)` in warm-up order.
    warmed: Vec<(String, Arc<String>)>,
}

/// Start the engine. For the open loop on two or more CPUs, the
/// engine's threads (and the job threads they start) get every CPU but
/// the first, and the calling thread, which becomes the generator,
/// keeps the first to itself.
fn start_engine(w: Workload, cache_dir: &Path) -> Serve {
    let cfg = ServeConfig {
        workers: WORKERS,
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ServeConfig::default()
    };
    let cpus = cpus::at_start();
    if w != Workload::CacheMixed || cpus.len() < 2 {
        return Serve::start(cfg);
    }
    cpus::restrict(&cpus[1..]);
    let serve = Serve::start(cfg);
    cpus::restrict(&cpus[..1]);
    serve
}

fn setup(args: &Args, cache_dir: &Path) -> Result<Setup, String> {
    let serve = start_engine(args.workload, cache_dir);
    let (mixed, warm) = match args.workload {
        Workload::CacheMixed => {
            let m = workloads::mixed(args.seed, args.seconds)?;
            let warm = m.warm.clone();
            (Some(m), warm)
        }
        w => (None, workloads::closed_warmup(w, args.seed)),
    };
    let mut first = HashMap::new();
    let mut warmed = Vec::new();
    for (req, out) in warm.iter().zip(drive::run_all(&serve, &warm)?) {
        match out {
            Outcome::Ok { key, bytes, .. } => {
                if req.plain_key.as_deref().is_some_and(|k| k != key.as_str()) {
                    return Err(format!("warm-up key mismatch for {}", req.text));
                }
                first.insert(key.clone(), bytes.clone());
                warmed.push((key, bytes));
            }
            other => return Err(format!("warm-up job failed: {other:?}: {}", req.text)),
        }
    }
    Ok(Setup {
        serve,
        mixed,
        first,
        warmed,
    })
}

/// Latency of cache hits against executed (or coalesced) answers.
fn hit_miss_line(phase: &Phase) -> String {
    let (mut hit, mut run): (Vec<f64>, Vec<f64>) = (vec![], vec![]);
    for a in &phase.answers {
        if let Outcome::Ok { cache_hit, .. } = &a.outcome {
            if *cache_hit { &mut hit } else { &mut run }.push(a.lat_ms);
        }
    }
    hit.sort_by(f64::total_cmp);
    run.sort_by(f64::total_cmp);
    format!(
        "latency ms: cache hits n={} p50={:.4} p99={:.4}; executed n={} p50={:.4} p99={:.4}; generator lag max {:.3} ms",
        hit.len(),
        percentile(&hit, 50.0),
        percentile(&hit, 99.0),
        run.len(),
        percentile(&run, 50.0),
        percentile(&run, 99.0),
        phase.gen_lag_ms_max
    )
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |m| m.1)
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    fn print(&self, title: &str) {
        println!("{title}");
        for (n, v, u) in &self.0 {
            println!("  {n:<28} {v:>16.6} {u}");
        }
    }
}

/// End-to-end metrics of one load phase. Latency figures are medians
/// over equal slices of the request stream of at most `slice_len`
/// requests; each slice's tail is its highest ladder percentile with ten
/// samples beyond it.
fn phase_stats(phase: &Phase, gate: &Gate, slo_ms: f64, slice_len: usize) -> (Metrics, String) {
    let good = |a: &&Answer| !gate.failed.contains(&a.idx);
    let ok = phase.answers.iter().filter(good).count();
    let attempted = phase.answers.len().max(1) as f64;
    let events: u64 = gate::executed(&phase.answers)
        .iter()
        .map(|(_, _, bytes)| gate::field(bytes, "events"))
        .sum();
    let n = phase.answers.len();
    let chunk = n.div_ceil(n.div_ceil(slice_len).max(1)).max(1);
    let (mut p50s, mut tails, mut slos, mut notes) = (vec![], vec![], vec![], vec![]);
    for win in phase.answers.chunks(chunk) {
        let mut lat: Vec<f64> = win.iter().filter(good).map(|a| a.lat_ms).collect();
        lat.sort_by(f64::total_cmp);
        let (tail_p, tail_v, beyond) = tail(&lat);
        p50s.push(percentile(&lat, 50.0));
        tails.push(tail_v);
        slos.push(lat.iter().filter(|&&l| l <= slo_ms).count() as f64 / win.len() as f64);
        notes.push((tail_p.to_string(), beyond, lat.len()));
    }
    let mut m = Metrics::default();
    m.put("jobs_per_s", ok as f64 / phase.wall_s, "1/s");
    m.put("latency_p50_ms", median(&p50s), "ms");
    m.put("latency_tail_ms", median(&tails), "ms");
    m.put("slo_met_frac", median(&slos), "ratio");
    m.put("sim_events_per_s", events as f64 / phase.wall_s, "1/s");
    m.put("ok_frac", ok as f64 / attempted, "ratio");
    // Per tail percentile: slices using it, samples beyond, slice sizes.
    let mut by_p: BTreeMap<String, (usize, usize, usize, usize, usize)> = BTreeMap::new();
    for (p, beyond, len) in notes {
        let e = by_p.entry(p).or_insert((0, usize::MAX, 0, usize::MAX, 0));
        *e = (
            e.0 + 1,
            e.1.min(beyond),
            e.2.max(beyond),
            e.3.min(len),
            e.4.max(len),
        );
    }
    let tails_note: Vec<String> = by_p
        .iter()
        .map(|(p, (k, b0, b1, l0, l1))| {
            format!("p{p} in {k} slice(s) of {l0}-{l1} samples, {b0}-{b1} beyond")
        })
        .collect();
    let note = format!(
        "latency: medians over {} slice(s); tail is {}; slo {slo_ms} ms; failed_frac {:.6} ({} of {})",
        phase.answers.chunks(chunk).len(),
        tails_note.join("; "),
        1.0 - ok as f64 / attempted,
        phase.answers.len() - ok,
        phase.answers.len()
    );
    (m, note)
}

fn spans_of(spans: &[Span], name: &str) -> Vec<f64> {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn main() {
    let cleared = clear_impacc_env();
    cpus::at_start();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args, &cleared) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args, cleared: &[String]) -> Result<(), String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} workers={WORKERS}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let cpus = cpus::at_start();
    if w == Workload::CacheMixed && cpus.len() >= 2 {
        println!(
            "cpus {cpus:?}: generator on cpu {}, engine on {:?}",
            cpus[0],
            &cpus[1..]
        );
    } else {
        println!("cpus {cpus:?}: shared by the load threads and the engine");
    }
    println!(
        "cleared IMPACC_* environment: {}",
        if cleared.is_empty() {
            "(none set)".to_string()
        } else {
            cleared.join(" ")
        }
    );
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.run"));
    let run_dir = root.join(format!(
        "{}-s{}-p{}",
        w.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = measure(args, &root, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn measure(args: &Args, root: &Path, run_dir: &Path) -> Result<(), String> {
    let w = args.workload;

    // Set-up: engine start, input generation, warm-up — several times.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for k in 0..SETUP_REPEATS {
        let dir = run_dir.join(format!("cache-{k}"));
        let t0 = Instant::now();
        let s = setup(args, &dir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if k + 1 == SETUP_REPEATS {
            kept = Some(s);
        } else {
            drop(s);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let Setup {
        serve,
        mixed,
        mut first,
        warmed,
    } = kept.expect("at least one set-up");

    // Load phases: all of the run untraced, or half untraced and half
    // traced with `--trace 1`.
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let seed = args.seed;
    let req_of: Box<dyn Fn(usize) -> Req + Sync> = match &mixed {
        Some(m) => Box::new(move |i| m.schedule[i].clone()),
        None => Box::new(move |i| workloads::closed_req(w, seed, i)),
    };
    let mut st0: Option<Status> = None;
    let cpu0 = cpu_ticks();
    let (phase_a, phase_b) = match &mixed {
        Some(m) => {
            let split = if args.trace {
                m.schedule.len() / 2
            } else {
                m.schedule.len()
            };
            let a = drive::open(
                &serve,
                &m.schedule[..split],
                0,
                workloads::MIXED_RATE,
                false,
            );
            let b = args.trace.then(|| {
                st0 = Some(serve.status());
                drive::open(
                    &serve,
                    &m.schedule[split..],
                    split,
                    workloads::MIXED_RATE,
                    true,
                )
            });
            (a, b)
        }
        None => {
            let (a, next) = drive::closed(
                &serve,
                &*req_of,
                0,
                w.clients(),
                secs,
                w.cycle(),
                w.digest_prefix(),
                false,
            );
            let b = args.trace.then(|| {
                st0 = Some(serve.status());
                drive::closed(
                    &serve,
                    &*req_of,
                    next,
                    w.clients(),
                    secs,
                    w.cycle(),
                    0,
                    true,
                )
                .0
            });
            (a, b)
        }
    };
    let st1 = serve.status();
    let cpu1 = cpu_ticks();

    // Correctness gate over every answer.
    let mut gate = Gate::default();
    let mut all: Vec<Answer> = phase_a.answers.clone();
    if let Some(b) = &phase_b {
        all.extend(b.answers.iter().cloned());
    }
    gate.check(&all, &*req_of, &mut first);
    let rerun_k = match w {
        Workload::WideJobs => 2,
        _ => 6,
    };
    gate.rerun_sample(&all, &*req_of, &first, rerun_k);
    drop(serve);

    let (e2e, note) = phase_stats(&phase_a, &gate, w.slo_ms(), w.slice_len());
    let dg = gate::digest(&all, w.digest_prefix());
    println!(
        "digest {:016x} over {} answers / {} keys (stream prefix {})",
        dg.hash,
        dg.answers,
        dg.keys,
        if w.digest_prefix() == usize::MAX {
            "all".to_string()
        } else {
            w.digest_prefix().to_string()
        }
    );
    println!(
        "simulated work: {}",
        dg.counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "gate: attempted={} failed={} spelling_rejected={} refused_other={:?} job_failures={} respell_key_mismatch={} wrong_bytes={} rerun={}/{} mismatched",
        gate.attempted,
        gate.failed.len(),
        gate.spelling_rejected,
        gate.refused_other,
        gate.job_failures.len(),
        gate.respell_key_mismatch,
        gate.wrong_bytes,
        gate.rerun_mismatch,
        gate.rerun_checked
    );
    for f in gate.job_failures.iter().take(5) {
        println!("  job failure: {f}");
    }
    println!("{note}");
    println!("{}", hit_miss_line(&phase_a));
    println!(
        "host steal during load: {:.2}% of CPU time",
        100.0 * (cpu1.1 - cpu0.1) as f64 / (cpu1.0 - cpu0.0).max(1) as f64
    );
    println!("setup_s samples: {setup_s:?}");

    let metrics = if let Some(b) = &phase_b {
        layers(
            args,
            root,
            run_dir,
            &phase_a,
            b,
            st0.as_ref(),
            &st1,
            &mut gate,
            &dg,
            &warmed,
            &*req_of,
        )?
    } else {
        let mut m = e2e;
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m
    };
    metrics.print(if args.trace {
        "per-layer metrics"
    } else {
        "end-to-end metrics"
    });
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.correct(),
        gate.attempted,
        gate.failed.len(),
        metrics.json()
    );
    Ok(())
}

/// Per-layer metrics from the traced phase, the direct pass and the
/// cache replay.
#[allow(clippy::too_many_arguments)]
fn layers(
    args: &Args,
    root: &Path,
    run_dir: &Path,
    a: &Phase,
    b: &Phase,
    st0: Option<&Status>,
    st1: &Status,
    gate: &mut Gate,
    dg: &gate::Digest,
    warmed: &[(String, Arc<String>)],
    req_of: &dyn Fn(usize) -> Req,
) -> Result<Metrics, String> {
    let w = args.workload;
    let mut buf = SpanBuf::new(true, 9);
    let mut d = direct::Direct::default();

    // Key and compile probes over the traced phase's request spellings
    // (weight 0: submit already pays for both on the request path).
    for ans in b.answers.iter().take(400) {
        if let Ok(job) = impacc_serve::JobSpec::parse(&req_of(ans.idx).text) {
            let t0 = Instant::now();
            let key = job.key();
            let t1 = Instant::now();
            std::hint::black_box(key);
            buf.record("job", "job.key_probe", ans.idx as u64, 0, t0, t1, 0.0);
            let us = (t1 - t0).as_secs_f64() * 1e6;
            if job.workload == impacc_serve::Workload::Dsl {
                d.key_dsl_us.push(us);
                let t0 = Instant::now();
                let c = job.dsl_compile();
                let t1 = Instant::now();
                std::hint::black_box(c.is_ok());
                buf.record("dsl", "dsl.compile_probe", ans.idx as u64, 0, t0, t1, 0.0);
                d.compile_us.push((t1 - t0).as_secs_f64() * 1e6);
            } else {
                d.key_us.push(us);
            }
        }
    }

    // Direct pass over a deterministic sample of the executed jobs.
    let executed = gate::executed(&b.answers);
    let cap = match w {
        Workload::CampaignCold => 40,
        Workload::CacheMixed => 60,
        Workload::WideJobs => 5,
    };
    let sample: Vec<(String, Arc<String>)> = executed
        .iter()
        .take(cap)
        .map(|(idx, _, bytes)| (req_of(*idx).text, bytes.clone()))
        .collect();
    let weight = executed.len() as f64 / sample.len().max(1) as f64;
    direct::jobs_pass(&sample, weight, &mut buf, &mut d);
    gate.rerun_checked += sample.len();
    gate.rerun_mismatch += d.rerun_mismatch.len();
    for a in &b.answers {
        if let Outcome::Ok { key, .. } = &a.outcome {
            if d.rerun_mismatch.contains(key) {
                gate.failed.insert(a.idx);
            }
        }
    }

    // Cache replay of the traced phase's sequence, disk tier on.
    let seq: Vec<(String, Arc<String>)> = b
        .answers
        .iter()
        .filter_map(|x| match &x.outcome {
            Outcome::Ok { key, bytes, .. } => Some((key.clone(), bytes.clone())),
            _ => None,
        })
        .collect();
    let puts = if w == Workload::CacheMixed {
        warmed
    } else {
        &[][..]
    };
    direct::cache_replay(&run_dir.join("replay"), puts, &seq, &mut buf, &mut d);

    let mut spans = b.spans.clone();
    spans.extend(buf.spans);
    let self_ns = trace::self_time_by_layer(&spans);
    let tsv = root.join(format!("spans_{}.tsv", w.name()));
    trace::write_tsv(&tsv, &spans).map_err(|e| format!("{}: {e}", tsv.display()))?;
    println!("spans: {} written to {}", spans.len(), tsv.display());
    const BUSY: [&str; 6] = ["job", "serve", "cache", "dsl", "exec", "vtime"];
    let busy_total: f64 = BUSY
        .iter()
        .map(|l| self_ns.get(l).copied().unwrap_or(0.0))
        .sum();
    println!("self time by layer (ms, weighted):");
    for (layer, ns) in &self_ns {
        println!("  {layer:<8} {:>12.3}", ns / 1e6);
    }
    if d.launch_mismatch > 0 || !d.rerun_mismatch.is_empty() {
        println!(
            "direct pass: {} launch replicas disagreed with run_job; rerun mismatches: {:?}",
            d.launch_mismatch, d.rerun_mismatch
        );
    }

    let p50 = |v: &[f64]| {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        percentile(&s, 50.0)
    };
    let delta = |f: fn(&Status) -> u64| f(st1).saturating_sub(st0.map_or(0, f)) as f64;
    let hits = delta(|s| s.cache_hits);
    let probes = hits + delta(|s| s.cache_misses);
    let submit = spans_of(&spans, "serve.submit");
    let count = |k: &str| dg.counts.get(k).copied().unwrap_or(0) as f64;
    let chaos: u64 = dg
        .counts
        .iter()
        .filter(|(k, _)| k.starts_with("chaos_"))
        .map(|(_, v)| v)
        .sum();

    // Trace overhead: the traced half against the untraced half.
    let overhead = match w {
        Workload::CacheMixed => {
            let (ma, _) = phase_stats(a, gate, w.slo_ms(), w.slice_len());
            let (mb, _) = phase_stats(b, gate, w.slo_ms(), w.slice_len());
            mb.get("latency_p50_ms") / ma.get("latency_p50_ms") - 1.0
        }
        _ => {
            let jps = |p: &Phase| p.answers.len() as f64 / p.wall_s;
            jps(a) / jps(b) - 1.0
        }
    };

    let mut m = Metrics::default();
    m.put(
        "job.parse_us_p50",
        p50(&spans_of(&spans, "job.parse")),
        "us",
    );
    m.put("job.key_us_p50", p50(&d.key_us), "us");
    m.put("job.key_dsl_us_p50", p50(&d.key_dsl_us), "us");
    m.put(
        "job.respell_key_mismatch",
        gate.respell_key_mismatch as f64,
        "count",
    );
    m.put(
        "job.spelling_rejected",
        gate.spelling_rejected as f64,
        "count",
    );
    m.put("serve.submit_us_p50", percentile(&submit, 50.0), "us");
    m.put("serve.submit_us_p99", percentile(&submit, 99.0), "us");
    m.put(
        "serve.hit_ratio",
        if probes > 0.0 { hits / probes } else { 0.0 },
        "ratio",
    );
    m.put("serve.coalesced", delta(|s| s.coalesced), "count");
    m.put(
        "serve.rejected_queue_full",
        delta(|s| s.rejected_queue_full),
        "count",
    );
    m.put("serve.jobs_failed", delta(|s| s.jobs_failed), "count");
    m.put(
        "serve.busy_frac",
        b.busy_samples.iter().sum::<f64>() / b.busy_samples.len().max(1) as f64,
        "ratio",
    );
    m.put("cache.get_us_p50", p50(&d.get_us), "us");
    m.put("cache.put_us_p50", p50(&d.put_us), "us");
    m.put("cache.entries", d.cache_entries as f64, "count");
    m.put("dsl.compile_us_p50", p50(&d.compile_us), "us");
    m.put("exec.run_job_ms_p50", p50(&d.run_job_ms), "ms");
    m.put(
        "exec.host_ns_per_event",
        d.run_job_ns / d.run_job_events.max(1) as f64,
        "ns/event",
    );
    m.put(
        "exec.tasks_mean",
        d.tasks.iter().sum::<f64>() / d.tasks.len().max(1) as f64,
        "count",
    );
    m.put("vtime.events", d.events as f64, "count");
    m.put("vtime.handoffs_elided", d.handoffs_elided as f64, "count");
    m.put(
        "vtime.elide_ratio",
        d.handoffs_elided as f64 / d.events.max(1) as f64,
        "ratio",
    );
    for (name, key) in [
        ("mpi.bytes_sent", "mpi_bytes_sent"),
        ("mpi.fused_msgs", "fused_msgs"),
        ("mpi.retries", "retries"),
        ("acc.htod", "HtoD"),
        ("acc.dtoh", "DtoH"),
        ("acc.dtod", "DtoD"),
        ("coll.inter_bytes", "coll_inter_bytes"),
        ("coll.intra_bytes", "coll_intra_bytes"),
        ("array.halo_bytes", "array_halo_bytes"),
        ("array.cells", "array_cells"),
    ] {
        m.put(name, count(key), "count");
    }
    m.put("chaos.faults", chaos as f64, "count");
    m.put("bench.gen_lag_ms_max", a.gen_lag_ms_max, "ms");
    m.put("bench.trace_overhead_frac", overhead, "ratio");
    m.put(
        "bench.failed_frac",
        gate.failed.len() as f64 / gate.attempted.max(1) as f64,
        "ratio",
    );
    for layer in BUSY {
        m.put(
            &format!("self.{layer}_frac"),
            self_ns.get(layer).copied().unwrap_or(0.0) / busy_total.max(1.0),
            "ratio",
        );
    }
    Ok(m)
}
