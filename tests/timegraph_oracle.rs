//! Machine-state oracle for memoized timing-graph replay.
//!
//! After every slice, the whole `PimMachine` of a backend replaying
//! through the timing graph (task memo included) must equal the machine
//! of an object-walk backend fed the same loads: every bank, PE and
//! controller, every counter, energy accumulator, memory byte,
//! accumulator and clock. Report equality alone could miss state the
//! reports never read (port busy totals, head accumulators, occupancy);
//! this test cannot.

use hhpim::{Architecture, CycleBackend, ExecMode, ExecutionBackend};
use hhpim_nn::TinyMlModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ARCHS: [Architecture; 4] = [
    Architecture::HhPim,
    Architecture::Baseline,
    Architecture::Hybrid,
    Architecture::Heterogeneous,
];

const MODELS: [TinyMlModel; 3] = [
    TinyMlModel::MobileNetV2,
    TinyMlModel::EfficientNetB0,
    TinyMlModel::ResNet18,
];

/// A load sequence mixing random queue lengths, max-load runs (whose
/// work overruns the slice and delays the next one), single-task slices
/// and back-to-back re-placements (1 ↔ max alternation).
fn loads(seed: u64, max: u32, slices: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(slices);
    while out.len() < slices {
        match rng.gen_range(0..4u32) {
            0 => out.push(rng.gen_range(0..=max)),
            1 => out.extend([max, max, 2 * max]),
            2 => out.extend([1, 1]),
            _ => out.extend([1, max, 1, max]),
        }
    }
    out.truncate(slices);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn memoized_replay_leaves_the_object_walk_machine(seed in any::<u64>()) {
        let mut hits = 0;
        for arch in ARCHS {
            for model in MODELS {
                let mut graph = CycleBackend::new(arch, model).unwrap();
                let mut object = CycleBackend::new(arch, model).unwrap();
                object.set_exec_mode(ExecMode::ObjectWalk);
                let max = graph.runtime_config().max_tasks;
                graph.begin_stream().unwrap();
                object.begin_stream().unwrap();
                for (slice, n) in loads(seed, max, 14).into_iter().enumerate() {
                    let g = graph.step_slice(n).unwrap();
                    let o = object.step_slice(n).unwrap();
                    prop_assert_eq!(&g, &o, "{:?}/{:?} slice {} (n = {})", arch, model, slice, n);
                    // Not `assert_eq!`: a machine's Debug output spans
                    // megabytes of bank contents.
                    prop_assert!(
                        graph.machine() == object.machine(),
                        "{:?}/{:?}: machines diverged after slice {} (n = {}, seed {})",
                        arch, model, slice, n, seed
                    );
                }
                prop_assert_eq!(graph.finish_stream().unwrap(), object.finish_stream().unwrap());
                hits += graph.timegraph().memo_stats().hits;
            }
        }
        prop_assert!(hits > 0, "no task was served from the memo");
    }
}
