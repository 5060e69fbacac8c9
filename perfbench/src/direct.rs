//! The traced run's direct pass: the benchmark calls each layer's
//! public functions itself, around spans, over a sample of the jobs the
//! traced phase executed, and replays the phase's cache sequence.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use impacc_apps::{run_jacobi_sink, JacobiParams};
use impacc_array::scenarios;
use impacc_core::{Launch, RunSummary, RuntimeOptions, TaskCtx};
use impacc_mpi::ReduceOp;
use impacc_serve::workload::machine_of;
use impacc_serve::{run_job, JobSpec, ResultCache, Workload};

use crate::gate::field;
use crate::trace::SpanBuf;

/// Per-call samples the direct pass measured.
#[derive(Default)]
pub struct Direct {
    pub key_us: Vec<f64>,
    pub key_dsl_us: Vec<f64>,
    pub compile_us: Vec<f64>,
    pub run_job_ms: Vec<f64>,
    pub run_job_ns: f64,
    pub run_job_events: u64,
    pub tasks: Vec<f64>,
    /// Summed over the direct `Launch::run` calls.
    pub events: u64,
    pub handoffs_elided: u64,
    /// Direct runs whose event count or end time differ from the
    /// job's result body.
    pub launch_mismatch: usize,
    /// Keys whose `run_job` bytes differ from the served answer.
    pub rerun_mismatch: Vec<String>,
    pub get_us: Vec<f64>,
    pub put_us: Vec<f64>,
    pub cache_entries: usize,
}

fn us(t0: Instant, t1: Instant) -> f64 {
    (t1 - t0).as_secs_f64() * 1e6
}

/// Run `job`'s simulation through `Launch::run` (or the Jacobi entry
/// point `run_job` uses) without the serve wrapper. `None` for jobs
/// this pass does not replicate (exchange, fault plans, forced algos).
fn launch_direct(job: &JobSpec) -> Option<RunSummary> {
    if job.chaos_rate != 0.0 || !job.fail_device.is_empty() || job.algo.is_some() {
        return None;
    }
    let spec = machine_of(job).ok()?;
    let opts = RuntimeOptions::impacc();
    let (n, iters, halo, elems, rounds, seed) =
        (job.n, job.iters, job.halo, job.elems, job.rounds, job.seed);
    let run = match job.workload {
        Workload::Exchange => return None,
        Workload::Jacobi => run_jacobi_sink(
            spec,
            opts,
            None,
            None,
            JacobiParams {
                n,
                iters,
                verify: false,
            },
        ),
        wl => {
            let dsl = match wl {
                Workload::Dsl => Some(Arc::new(job.dsl_compile().ok()?)),
                _ => None,
            };
            Launch::new(spec, opts).run(move |tc: &TaskCtx| match wl {
                Workload::Allreduce => allreduce_rounds(tc, elems, rounds, seed),
                Workload::Stencil3d => scenarios::stencil3d_task(
                    tc,
                    &scenarios::Stencil3dParams {
                        n,
                        iters,
                        verify: false,
                    },
                    None,
                ),
                Workload::Stencil2d => scenarios::stencil2d_task(
                    tc,
                    &scenarios::Stencil2dParams {
                        n,
                        iters,
                        halo,
                        verify: false,
                    },
                    None,
                ),
                Workload::Redblack => scenarios::redblack_task(
                    tc,
                    &scenarios::RedBlackParams {
                        n,
                        iters,
                        verify: false,
                    },
                    None,
                ),
                Workload::Dsl => {
                    let c = dsl.as_ref().expect("compiled before launch");
                    impacc_dsl::run_program(tc, c, None, false);
                }
                Workload::Jacobi | Workload::Exchange => unreachable!("handled above"),
            })
        }
    };
    run.ok()
}

/// The allreduce job body: integer-valued payloads, so the exact sum is
/// checked in every fold order.
fn allreduce_rounds(tc: &TaskCtx, elems: usize, rounds: u32, seed: u64) {
    let shift = (seed % 1024) as f64;
    for round in 0..rounds {
        let vals = vec![(tc.rank() + round) as f64 + shift; elems];
        let out = tc.mpi_allreduce_f64(&vals, ReduceOp::Sum);
        let expect = (0..tc.size())
            .map(|r| (r + round) as f64 + shift)
            .sum::<f64>();
        assert!(
            out.iter().all(|&x| x == expect),
            "allreduce corrupted: want {expect}"
        );
    }
}

/// Direct pass over `jobs` (plain text and served bytes), each span
/// weighted by `weight` executions.
pub fn jobs_pass(jobs: &[(String, Arc<String>)], weight: f64, buf: &mut SpanBuf, d: &mut Direct) {
    for (i, (text, served)) in jobs.iter().enumerate() {
        let Ok(job) = JobSpec::parse(text) else {
            d.rerun_mismatch.push(format!("unparsable: {text}"));
            continue;
        };
        let req = i as u64;
        let root = buf.reserve();
        let t_root = Instant::now();

        let t0 = Instant::now();
        let key = job.key();
        let t1 = Instant::now();
        buf.record("job", "job.key", req, root, t0, t1, weight);
        if job.workload == Workload::Dsl {
            d.key_dsl_us.push(us(t0, t1));
            let t0 = Instant::now();
            let c = job.dsl_compile();
            let t1 = Instant::now();
            buf.record("dsl", "dsl.compile", req, root, t0, t1, weight);
            d.compile_us.push(us(t0, t1));
            std::hint::black_box(c.is_ok());
        } else {
            d.key_us.push(us(t0, t1));
        }

        let t0 = Instant::now();
        let out = run_job(&job);
        let t1 = Instant::now();
        let run_span = buf.record("exec", "exec.run_job", req, root, t0, t1, weight);
        buf.record_as(root, "bench", "direct", req, t_root, t1, weight);
        let bytes = match out {
            Ok(o) if o.result == **served => o.result,
            _ => {
                d.rerun_mismatch.push(key);
                continue;
            }
        };
        let ev = field(&bytes, "events");
        d.run_job_ms.push(us(t0, t1) / 1e3);
        d.run_job_ns += (t1 - t0).as_nanos() as f64;
        d.run_job_events += ev;
        d.tasks.push(field(&bytes, "tasks") as f64);

        // The engine part of run_job, re-run on its own and recorded as
        // run_job's child.
        let t0 = Instant::now();
        let direct = launch_direct(&job);
        let t1 = Instant::now();
        if let Some(s) = direct {
            buf.record("vtime", "vtime.launch_run", req, run_span, t0, t1, weight);
            d.events += s.report.events;
            d.handoffs_elided += s.report.handoffs_elided;
            if s.report.events != ev || s.report.end_time.0 != field(&bytes, "end_ps") {
                d.launch_mismatch += 1;
            }
        }
    }
}

/// Replay a cache sequence on a fresh two-tier cache rooted at `dir`:
/// `puts` first (the warmed working set), then `get` every key of the
/// sequence and `put` each miss.
pub fn cache_replay(
    dir: &Path,
    puts: &[(String, Arc<String>)],
    seq: &[(String, Arc<String>)],
    buf: &mut SpanBuf,
    d: &mut Direct,
) {
    let cache = ResultCache::new(Some(dir.to_path_buf()));
    let root = buf.reserve();
    let t_root = Instant::now();
    for (key, bytes) in puts {
        timed_put(&cache, key, bytes, root, buf, d);
    }
    for (key, bytes) in seq {
        let t0 = Instant::now();
        let hit = cache.get(key);
        let t1 = Instant::now();
        buf.record("cache", "cache.get", 0, root, t0, t1, 1.0);
        d.get_us.push(us(t0, t1));
        if hit.is_none() {
            timed_put(&cache, key, bytes, root, buf, d);
        }
    }
    buf.record_as(
        root,
        "bench",
        "cache.replay",
        0,
        t_root,
        Instant::now(),
        1.0,
    );
    d.cache_entries = cache.len();
}

fn timed_put(
    cache: &ResultCache,
    key: &str,
    bytes: &Arc<String>,
    root: u64,
    buf: &mut SpanBuf,
    d: &mut Direct,
) {
    let t0 = Instant::now();
    cache.put(key, bytes.clone());
    let t1 = Instant::now();
    buf.record("cache", "cache.put", 0, root, t0, t1, 1.0);
    d.put_us.push(us(t0, t1));
}
