//! Engine fast-path determinism: baton-handoff elision, sharded metric
//! accounting, and zero-copy send buffers are wall-clock optimizations
//! only. Running the same workload with elision on and forced off must
//! produce bit-identical virtual-time observables — end time, event
//! counts, engine metrics, per-actor tag breakdowns, and the recorded
//! span stream.

use impacc_apps::{jacobi_task, JacobiParams};
use impacc_bench::specs::psg_tasks;
use impacc_core::{Launch, MpiOpts, RunSummary, RuntimeOptions};
use impacc_machine::KernelCost;
use impacc_obs::Recorder;

fn assert_bit_identical(on: &RunSummary, off: &RunSummary) {
    assert_eq!(
        off.report.handoffs_elided, 0,
        "forced-off run must not elide"
    );
    assert_eq!(on.report.end_time, off.report.end_time, "virtual end time");
    assert_eq!(on.report.events, off.report.events, "dispatch count");
    assert_eq!(on.report.metrics, off.report.metrics, "engine metrics");
    assert_eq!(
        on.report.actors, off.report.actors,
        "per-actor tag breakdown"
    );
}

/// Figure-13-sized Jacobi (timing-only, phys-capped like the figure runs):
/// the full stack — ranks, queue daemons, node handlers, MPI matching.
#[test]
fn jacobi_is_bit_identical_with_and_without_elision() {
    let run = |elide: bool| -> (RunSummary, Vec<impacc_obs::Span>) {
        let rec = Recorder::new();
        let params = JacobiParams {
            n: 512,
            iters: 10,
            verify: false,
        };
        let s = Launch::new(psg_tasks(4), RuntimeOptions::impacc())
            .phys_cap(4096)
            .elide_handoff(elide)
            .span_sink(rec.sink())
            .run(move |tc| jacobi_task(tc, &params))
            .expect("jacobi run");
        (s, rec.spans())
    };
    let (on, spans_on) = run(true);
    let (off, spans_off) = run(false);
    assert!(
        on.report.handoffs_elided > 0,
        "a jacobi run should hit the fast path at least once"
    );
    assert_bit_identical(&on, &off);
    assert_eq!(spans_on, spans_off, "span streams must match exactly");
}

/// Figure-5-sized exchange: kernel → device send → device recv on the
/// unified activity queue, repeated; exercises the COW send-buffer path
/// under both elision settings.
#[test]
fn unified_queue_exchange_is_bit_identical_with_and_without_elision() {
    const N: usize = 1 << 12;
    let run = |elide: bool| -> (RunSummary, Vec<impacc_obs::Span>) {
        let rec = Recorder::new();
        let s = Launch::new(psg_tasks(2), RuntimeOptions::impacc())
            .phys_cap(4096)
            .elide_handoff(elide)
            .recorder(&rec)
            .run(move |tc| {
                let peer = 1 - tc.rank();
                let buf0 = tc.malloc_f64(N);
                let buf1 = tc.malloc_f64(N);
                tc.acc_create(&buf0);
                tc.acc_create(&buf1);
                let cost = KernelCost::new(10.0 * N as f64, 16.0 * N as f64);
                for i in 0..8 {
                    tc.acc_kernel(Some(1), cost, || {});
                    tc.mpi_send(&buf0, 0, buf0.len, peer, i, MpiOpts::device().on_queue(1));
                    tc.mpi_recv(&buf1, 0, buf1.len, peer, i, MpiOpts::device().on_queue(1));
                    tc.acc_wait(1);
                }
            })
            .expect("exchange run");
        (s, rec.spans())
    };
    let (on, spans_on) = run(true);
    let (off, spans_off) = run(false);
    assert_bit_identical(&on, &off);
    assert_eq!(spans_on, spans_off, "span streams must match exactly");
}
