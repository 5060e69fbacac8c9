//! Load generation against one `Serve` engine: closed-loop clients and
//! an open-loop generator that also collects. At most two load threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use impacc_serve::{JobSpec, Reject, Serve, Ticket};

use crate::trace::SpanBuf;
use crate::workloads::Req;

/// Terminal state of one request.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Answered with result bytes.
    Ok {
        key: String,
        bytes: Arc<String>,
        cache_hit: bool,
    },
    /// Refused before admission: parse failure or a `Reject`.
    Refused(String),
    /// Admitted, but the job failed (error or in-job assert).
    Failed { key: String, why: String },
}

/// One request's record.
#[derive(Clone, Debug)]
pub struct Answer {
    pub idx: usize,
    /// Due time (open loop) or submit time (closed loop) to result.
    pub lat_ms: f64,
    pub outcome: Outcome,
}

/// What one load phase produced.
pub struct Phase {
    pub answers: Vec<Answer>,
    /// First due/submit to last resolution.
    pub wall_s: f64,
    /// How late the generator ran (open loop: behind schedule; closed
    /// loop: client time between a result and the next submit).
    pub gen_lag_ms_max: f64,
    /// Sampled busy-worker share (traced phases only).
    pub busy_samples: Vec<f64>,
    pub spans: Vec<crate::trace::Span>,
}

const STATUS_SAMPLE: Duration = Duration::from_millis(5);

/// Parse and submit one request, recording `job.parse`/`serve.submit`
/// spans under `root`. `Err` carries the refusal reason.
fn submit(
    serve: &Serve,
    req: &Req,
    buf: &mut SpanBuf,
    idx: usize,
    root: u64,
) -> Result<Ticket, String> {
    let t0 = Instant::now();
    let job = JobSpec::parse(&req.text);
    let t1 = Instant::now();
    buf.record("job", "job.parse", idx as u64, root, t0, t1, 1.0);
    let job = job.map_err(|e| format!("invalid: {e}"))?;
    let r = serve.submit(job);
    buf.record(
        "serve",
        "serve.submit",
        idx as u64,
        root,
        t1,
        Instant::now(),
        1.0,
    );
    r.map_err(|e| match e {
        Reject::QueueFull { .. } => format!("queue_full: {e}"),
        Reject::Invalid(_) => format!("invalid: {e}"),
        Reject::ShuttingDown => format!("shutdown: {e}"),
    })
}

fn outcome(done: impacc_serve::JobDone) -> Outcome {
    match (done.result, done.error) {
        (Some(bytes), None) => Outcome::Ok {
            key: done.key,
            bytes,
            cache_hit: done.cache_hit,
        },
        (_, why) => Outcome::Failed {
            key: done.key,
            why: why.unwrap_or_else(|| "no result".into()),
        },
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn busy(serve: &Serve) -> f64 {
    let st = serve.status();
    st.workers_busy as f64 / st.workers.max(1) as f64
}

/// Closed loop: `clients` threads each submit request `next++` and wait
/// for it. Stops once `seconds` passed, on a whole `cycle` of requests
/// and not before `min_jobs` requests. Returns the phase and the next
/// unused stream index.
#[allow(clippy::too_many_arguments)]
pub fn closed(
    serve: &Serve,
    gen: &(dyn Fn(usize) -> Req + Sync),
    first: usize,
    clients: usize,
    seconds: f64,
    cycle: usize,
    min_jobs: usize,
    traced: bool,
) -> (Phase, usize) {
    let next = AtomicUsize::new(first);
    let limit = AtomicUsize::new(usize::MAX);
    let start = Instant::now();
    let per_client: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (next, limit) = (&next, &limit);
                s.spawn(move || {
                    let mut buf = SpanBuf::new(traced, c as u64 + 1);
                    let mut answers = Vec::new();
                    let (mut lag_max, mut samples) = (0.0f64, Vec::new());
                    let mut last_sample = start;
                    let mut last_done: Option<Instant> = None;
                    loop {
                        let idx = next.fetch_add(1, Ordering::SeqCst);
                        if idx >= limit.load(Ordering::SeqCst) {
                            break;
                        }
                        let req = gen(idx);
                        let t0 = Instant::now();
                        if let Some(prev) = last_done {
                            lag_max = lag_max.max(ms(t0 - prev));
                        }
                        let root = buf.reserve();
                        let out = match submit(serve, &req, &mut buf, idx, root) {
                            Ok(mut ticket) => {
                                let tw = Instant::now();
                                let done = if traced && c == 0 {
                                    // Poll so the busy-worker share is
                                    // sampled while the job runs.
                                    loop {
                                        if let Some(done) = ticket.try_wait() {
                                            break done;
                                        }
                                        let now = Instant::now();
                                        if now - last_sample >= STATUS_SAMPLE {
                                            samples.push(busy(serve));
                                            last_sample = now;
                                        }
                                        std::thread::sleep(Duration::from_micros(50));
                                    }
                                } else {
                                    ticket.wait()
                                };
                                buf.record(
                                    "wait",
                                    "serve.wait",
                                    idx as u64,
                                    root,
                                    tw,
                                    Instant::now(),
                                    1.0,
                                );
                                outcome(done)
                            }
                            Err(why) => Outcome::Refused(why),
                        };
                        let t1 = Instant::now();
                        buf.record_as(root, "bench", "request", idx as u64, t0, t1, 1.0);
                        answers.push(Answer {
                            idx,
                            lat_ms: ms(t1 - t0),
                            outcome: out,
                        });
                        last_done = Some(Instant::now());
                        if t1 - start >= Duration::from_secs_f64(seconds)
                            && limit.load(Ordering::SeqCst) == usize::MAX
                        {
                            let pulled = next.load(Ordering::SeqCst);
                            let stop = pulled.div_ceil(cycle) * cycle;
                            limit.fetch_min(stop.max(first + min_jobs), Ordering::SeqCst);
                        }
                    }
                    Phase {
                        answers,
                        wall_s: 0.0,
                        gen_lag_ms_max: lag_max,
                        busy_samples: samples,
                        spans: buf.spans,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut phase = Phase {
        answers: Vec::new(),
        wall_s,
        gen_lag_ms_max: 0.0,
        busy_samples: Vec::new(),
        spans: Vec::new(),
    };
    for part in per_client {
        phase.answers.extend(part.answers);
        phase.gen_lag_ms_max = phase.gen_lag_ms_max.max(part.gen_lag_ms_max);
        phase.busy_samples.extend(part.busy_samples);
        phase.spans.extend(part.spans);
    }
    phase.answers.sort_by_key(|a| a.idx);
    let end = limit.load(Ordering::SeqCst);
    (phase, end)
}

/// A submitted ticket that did not resolve at once.
struct Pending {
    idx: usize,
    due: Instant,
    root: u64,
    submitted: Instant,
    ticket: Ticket,
}

/// Stamp every pending ticket that has resolved, at the moment it is
/// seen resolved.
fn collect(pending: &mut Vec<Pending>, answers: &mut Vec<Answer>, buf: &mut SpanBuf) {
    let mut i = 0;
    while i < pending.len() {
        let Some(done) = pending[i].ticket.try_wait() else {
            i += 1;
            continue;
        };
        let now = Instant::now();
        let p = pending.swap_remove(i);
        let req = p.idx as u64;
        buf.record("wait", "serve.wait", req, p.root, p.submitted, now, 1.0);
        buf.record_as(p.root, "bench", "request", req, p.due, now, 1.0);
        answers.push(Answer {
            idx: p.idx,
            lat_ms: ms(now - p.due),
            outcome: outcome(done),
        });
    }
}

/// Open loop: request `i` of `reqs` is due `i / rate` seconds after the
/// start; `idx0` numbers the requests. One thread submits each request
/// when due and, until the next one is due, busy-polls every unresolved
/// ticket, stamping each when it resolves — so a hit queued behind a
/// running miss is not charged the miss's time.
///
/// The thread never sleeps. On a virtual machine a sleeping vCPU can
/// take hundreds of microseconds to be scheduled again when the host is
/// busy, which would be charged to every request; a spinning vCPU is
/// only preempted now and then. It occupies one core, so the workers
/// run on the other.
pub fn open(serve: &Serve, reqs: &[Req], idx0: usize, rate: f64, traced: bool) -> Phase {
    let mut buf = SpanBuf::new(traced, 1);
    let mut answers = Vec::with_capacity(reqs.len());
    let mut pending: Vec<Pending> = Vec::new();
    let (mut lag_max, mut samples) = (0.0f64, Vec::new());
    let start = Instant::now();
    let mut last_sample = start;
    for (i, req) in reqs.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        while Instant::now() < due {
            collect(&mut pending, &mut answers, &mut buf);
            std::hint::spin_loop();
        }
        let now = Instant::now();
        lag_max = lag_max.max(ms(now - due));
        let idx = idx0 + i;
        let root = buf.reserve();
        match submit(serve, req, &mut buf, idx, root) {
            Ok(mut ticket) => match ticket.try_wait() {
                Some(done) => {
                    let t = Instant::now();
                    buf.record_as(root, "bench", "request", idx as u64, due, t, 1.0);
                    answers.push(Answer {
                        idx,
                        lat_ms: ms(t - due),
                        outcome: outcome(done),
                    });
                }
                None => pending.push(Pending {
                    idx,
                    due,
                    root,
                    submitted: Instant::now(),
                    ticket,
                }),
            },
            Err(why) => {
                let t = Instant::now();
                buf.record_as(root, "bench", "request", idx as u64, due, t, 1.0);
                answers.push(Answer {
                    idx,
                    lat_ms: ms(t - due),
                    outcome: Outcome::Refused(why),
                });
            }
        }
        if traced && now - last_sample >= STATUS_SAMPLE {
            samples.push(busy(serve));
            last_sample = now;
        }
    }
    while !pending.is_empty() {
        collect(&mut pending, &mut answers, &mut buf);
        std::hint::spin_loop();
    }
    answers.sort_by_key(|a| a.idx);
    Phase {
        answers,
        wall_s: start.elapsed().as_secs_f64(),
        gen_lag_ms_max: lag_max,
        busy_samples: samples,
        spans: buf.spans,
    }
}

/// Submit `reqs` and wait for all of them, keeping at most 16
/// outstanding (set-up warm-up; the default queue cap is 64).
pub fn run_all(serve: &Serve, reqs: &[Req]) -> Result<Vec<Outcome>, String> {
    const WINDOW: usize = 16;
    let mut out = Vec::with_capacity(reqs.len());
    let mut inflight: std::collections::VecDeque<Ticket> = Default::default();
    let mut off = SpanBuf::new(false, 0);
    for (i, req) in reqs.iter().enumerate() {
        if inflight.len() >= WINDOW {
            out.push(outcome(inflight.pop_front().expect("non-empty").wait()));
        }
        inflight.push_back(submit(serve, req, &mut off, i, 0)?);
    }
    out.extend(inflight.into_iter().map(|t| outcome(t.wait())));
    Ok(out)
}
