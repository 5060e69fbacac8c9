//! Self-verifying micro-workloads: the collective and point-to-point
//! bodies behind `bench_coll`, `bench_chaos` and the serving layer's
//! `allreduce`/`exchange` jobs. Each rank asserts what it receives, so a
//! run that completes is also a correctness result.
//!
//! `seed` shifts every payload value by `seed % 1024`, so distinct seeds
//! move distinct bytes while the values stay integers (every fold order
//! stays bit-identical). Seed 0 leaves the payloads unshifted.

use impacc_core::{MpiOpts, TaskCtx};
use impacc_machine::KernelCost;
use impacc_mpi::ReduceOp;

use crate::common::math_ok;

fn shift(seed: u64) -> f64 {
    (seed % 1024) as f64
}

/// `rounds` exact Sum-allreduces of `elems` f64s; every rank asserts the
/// reduced vector.
pub fn allreduce_rounds(tc: &TaskCtx, elems: usize, rounds: u32, seed: u64) {
    let size = tc.size();
    let shift = shift(seed);
    for round in 0..rounds {
        let vals = vec![(tc.rank() + round) as f64 + shift; elems];
        let out = tc.mpi_allreduce_f64(&vals, ReduceOp::Sum);
        let expect = (0..size).map(|r| (r + round) as f64 + shift).sum::<f64>();
        assert!(
            out.len() == elems && out.iter().all(|&x| x == expect),
            "allreduce corrupted: got {:?}.., want {expect}",
            &out[..1.min(out.len())]
        );
    }
}

/// The fig-5-class two-rank exchange over `n`-f64 buffers: kernel →
/// copyout → send/recv → copyin → kernel, `rounds` times, every consume
/// kernel asserting its input (`math_ok` guards phys-capped runs).
pub fn exchange(tc: &TaskCtx, n: usize, rounds: u32, seed: u64) {
    let peer = 1 - tc.rank();
    let shift = shift(seed);
    let me = tc.rank() as f64 + shift;
    let buf0 = tc.malloc_f64(n);
    let buf1 = tc.malloc_f64(n);
    tc.acc_create(&buf0);
    tc.acc_create(&buf1);
    let cost = KernelCost::new(10.0 * n as f64, 16.0 * n as f64);
    for round in 0..rounds {
        let produce = {
            let d = tc.dev_view(&buf0);
            let v = me + round as f64;
            move || {
                if math_ok(&d) {
                    d.write_f64s(0, &vec![v; n]);
                }
            }
        };
        let consume = {
            let d = tc.dev_view(&buf1);
            let expect = peer as f64 + shift + round as f64;
            move || {
                if math_ok(&d) {
                    let got = d.read_f64s(0, n);
                    assert!(
                        got.iter().all(|&x| x == expect),
                        "round {round}: corrupted payload after recovery"
                    );
                }
            }
        };
        tc.acc_kernel(None, cost, produce);
        tc.acc_update_host(&buf0, 0, buf0.len, None);
        let sreq = tc.mpi_isend(&buf0, 0, buf0.len, peer, round as i32, MpiOpts::host());
        tc.mpi_recv(&buf1, 0, buf1.len, peer, round as i32, MpiOpts::host());
        sreq.wait(tc.ctx());
        tc.acc_update_device(&buf1, 0, buf1.len, None);
        tc.acc_kernel(None, cost, consume);
    }
}
