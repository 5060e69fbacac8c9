//! Key soundness: the cache may answer any job with the bytes stored
//! under its key, so two jobs with equal keys must run to byte-identical
//! result bodies. Sweeps every workload × forced collective algorithm ×
//! chaos on/off and checks that no two runs share a key but differ in
//! bytes — a job field the launch reads but the key omits shows up here.

use std::collections::BTreeMap;

use impacc_serve::{run_job, JobSpec};

const SHAPES: [&str; 8] = [
    "workload=allreduce\nelems=64\nrounds=1",
    "workload=exchange\nnodes=2\ngpus=1\nrounds=1",
    "workload=jacobi\nn=16\niters=2",
    "workload=stencil3d\nn=8\niters=2",
    "workload=stencil2d\nn=16\niters=2\nhalo=1",
    "workload=redblack\nn=16\niters=1",
    "workload=dsl\nprogram=dot\nparams=n:256",
    "workload=dsl\nprogram=jacobi\nparams=n:16,iters:2",
];

#[test]
fn equal_keys_run_to_identical_bytes() {
    let mut by_key: BTreeMap<String, (String, String)> = BTreeMap::new();
    let mut runs = 0;
    for shape in SHAPES {
        // Two nodes of two GPUs (the exchange pins its own 2×1), so the
        // hierarchical and flat collective paths really differ.
        let machine = if shape.contains("exchange") {
            ""
        } else {
            "\nnodes=2\ngpus=2"
        };
        for algo in ["auto", "ring", "flat"] {
            for chaos in ["", "\nchaos_rate=0.05\nchaos_seed=11"] {
                let text = format!("{shape}{machine}\nalgo={algo}{chaos}");
                let job = JobSpec::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
                let body = run_job(&job)
                    .unwrap_or_else(|e| panic!("{text}: {e}"))
                    .result;
                runs += 1;
                if let Some((first, bytes)) = by_key.get(&job.key()) {
                    assert_eq!(
                        bytes,
                        &body,
                        "key {} is shared by\n{first}\nand\n{text}\nbut their results differ",
                        job.key()
                    );
                } else {
                    by_key.insert(job.key(), (text, body));
                }
            }
        }
    }
    assert_eq!(runs, SHAPES.len() * 3 * 2);
}
