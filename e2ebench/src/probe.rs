//! The traced run's layer probes: each layer's public entry point
//! timed in isolation over the workload's own inputs, after the
//! measured phase. They give the per-call host times that spans around
//! a whole op cannot separate (backend slices, artifact I/O,
//! `Processor::run_trace`), plus the timing-graph sizes and the
//! per-NN-layer-kind breakdown.

use crate::report::Metric;
use crate::stats::median;
use hhpim::session::SessionBuilder;
use hhpim::{
    default_policy, Architecture, ArtifactStore, CostParams, ExecutionBackend, ExecutionReport,
    OptimizerConfig, PlacementKey, PlacementStore, Processor,
};
use hhpim_nn::{Layer, TinyMlModel};
use hhpim_workload::{LoadTrace, Scenario, ScenarioParams};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum host time spent in each repeated micro-probe.
const PROBE_TIME: Duration = Duration::from_millis(100);

/// Replays `trace` as one stream, slice by slice; returns host ns and
/// the report.
fn replay(backend: &mut dyn ExecutionBackend, trace: &LoadTrace) -> (u64, ExecutionReport) {
    backend.begin_stream().expect("probe stream opens");
    let counts = trace.task_counts(backend.runtime_config().max_tasks);
    let t = Instant::now();
    for n in counts {
        backend.step_slice(n).expect("probe slice runs");
    }
    let ns = t.elapsed().as_nanos() as u64;
    (ns, backend.finish_stream().expect("probe stream closes"))
}

/// Backend probes over `traces`: one cycle and one analytic backend
/// per distinct model, each replaying that model's traces.
fn backends(
    traces: &[(TinyMlModel, LoadTrace)],
    store: &Arc<PlacementStore>,
    optimizer: OptimizerConfig,
    l: &mut Vec<Metric>,
) {
    let (mut cycle_ns, mut analytic_ns, mut slices) = (0u64, 0u64, 0u64);
    let (mut instructions, mut macs, mut programs, mut nodes) = (0u64, 0u64, 0usize, 0usize);
    for model in TinyMlModel::ALL {
        let mine: Vec<&LoadTrace> = traces
            .iter()
            .filter(|(m, _)| *m == model)
            .map(|(_, t)| t)
            .collect();
        if mine.is_empty() {
            continue;
        }
        let builder = SessionBuilder::new()
            .model(model)
            .store(Arc::clone(store))
            .optimizer(optimizer);
        let mut cycle = builder.build_cycle().expect("cycle backend builds");
        let mut analytic = builder.build_analytic().expect("analytic backend builds");
        for trace in mine {
            let (ns, report) = replay(&mut cycle, trace);
            cycle_ns += ns;
            instructions += report.instructions;
            macs += report.macs;
            analytic_ns += replay(&mut analytic, trace).0;
            slices += trace.len() as u64;
        }
        // Programs lowered for every placement the replay visited.
        programs += cycle.timegraph().program_count();
        nodes += cycle.timegraph().node_count();
    }
    let per_slice_us = |ns: u64| ns as f64 / slices.max(1) as f64 / 1e3;
    l.push(Metric::new("cycle.slice_us", per_slice_us(cycle_ns), "us").note("probe"));
    l.push(
        Metric::new(
            "cycle.host_ns_per_kmac",
            cycle_ns as f64 / (macs as f64 / 1e3).max(1.0),
            "ns",
        )
        .note("probe"),
    );
    l.push(Metric::new("cycle.instructions", instructions as f64, "count").note("probe"));
    l.push(Metric::new("cycle.macs", macs as f64, "count").note("probe"));
    l.push(Metric::new("timegraph.programs", programs as f64, "count").note("probe"));
    l.push(Metric::new("timegraph.nodes", nodes as f64, "count").note("probe"));
    l.push(Metric::new("analytic.slice_us", per_slice_us(analytic_ns), "us").note("probe"));
}

/// HH-PIM processors for every model, drawing LUTs from `store`.
fn processors(
    archs: &[Architecture],
    optimizer: OptimizerConfig,
    store: &PlacementStore,
) -> Vec<(Architecture, TinyMlModel, Processor)> {
    archs
        .iter()
        .flat_map(|&arch| TinyMlModel::ALL.map(|m| (arch, m)))
        .map(|(arch, model)| {
            let p = Processor::with_policy_in(
                arch,
                model,
                CostParams::default(),
                optimizer,
                default_policy(arch),
                store,
            )
            .expect("every model fits every architecture");
            (arch, model, p)
        })
        .collect()
}

/// `Processor::run_trace` per architecture × model over the Fig. 5
/// scenario traces; returns the HH-PIM reports for the NN breakdown.
fn run_trace(
    params: ScenarioParams,
    optimizer: OptimizerConfig,
    store: &PlacementStore,
    l: &mut Vec<Metric>,
) -> Vec<(TinyMlModel, ExecutionReport)> {
    let procs = processors(&Architecture::ALL, optimizer, store);
    let traces: Vec<LoadTrace> = Scenario::ALL
        .iter()
        .map(|&s| LoadTrace::try_generate(s, params).expect("valid scenario params"))
        .collect();
    let mut hh = Vec::new();
    let (mut calls, start) = (0u64, Instant::now());
    while start.elapsed() < PROBE_TIME || hh.is_empty() {
        for (arch, model, p) in &procs {
            for trace in &traces {
                let report = std::hint::black_box(p.run_trace(trace));
                calls += 1;
                if *arch == Architecture::HhPim && hh.len() < procs.len() * traces.len() {
                    hh.push((*model, report));
                }
            }
        }
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / calls as f64;
    l.push(Metric::new("analytic.run_trace_us", us, "us").note("probe"));
    hh
}

/// `ArtifactStore::{save_lut, load_lut}` on each model's HH-PIM LUT.
fn artifacts(optimizer: OptimizerConfig, store: &PlacementStore, dir: &Path, l: &mut Vec<Metric>) {
    let disk = ArtifactStore::new(dir);
    let luts: Vec<_> = processors(&[Architecture::HhPim], optimizer, store)
        .into_iter()
        .map(|(_, _, p)| {
            let (cost, runtime, opt) = (p.cost(), p.runtime(), p.optimizer_config());
            (
                PlacementKey::for_lut(cost, runtime, opt),
                store.lut(cost, runtime, opt),
            )
        })
        .collect();
    let (mut save, mut load) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < PROBE_TIME || save.is_empty() {
        for (key, lut) in &luts {
            let t = Instant::now();
            disk.save_lut(key, lut).expect("probe artifact saves");
            save.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let back = disk.load_lut(key).expect("probe artifact loads");
            load.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(back == **lut, "artifact round trip changed the LUT");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    l.push(Metric::new("artifact.save_us", median(&save), "us").note("probe"));
    l.push(Metric::new("artifact.load_us", median(&load), "us").note("probe"));
}

/// The NN-layer kinds the breakdown groups by.
const KINDS: [&str; 4] = ["conv", "depthwise", "pointwise", "linear"];

fn kind(layer: &Layer) -> Option<usize> {
    match *layer {
        Layer::Conv2d { groups, .. } if groups > 1 => Some(1),
        Layer::Conv2d { kernel: 1, .. } => Some(2),
        Layer::Conv2d { .. } => Some(0),
        Layer::Linear { .. } => Some(3),
        _ => None,
    }
}

/// Modelled MACs, time share and energy share per NN-layer kind,
/// summed over `reports` (from `LayerRecord`s).
pub fn nn_layers(reports: &[(TinyMlModel, &ExecutionReport)], l: &mut Vec<Metric>) {
    let mut macs = [0u64; 4];
    let mut time = [0f64; 4];
    let mut energy = [0f64; 4];
    for (model, report) in reports {
        let built = model.build();
        for rec in &report.layers {
            let Some(k) = built.layers().get(rec.layer).and_then(|i| kind(&i.layer)) else {
                continue;
            };
            macs[k] += rec.macs;
            time[k] += rec.time.as_ns_f64();
            energy[k] += rec.energy.as_pj();
        }
    }
    let (t_all, e_all): (f64, f64) = (time.iter().sum(), energy.iter().sum());
    for (k, name) in KINDS.iter().enumerate() {
        l.push(Metric::new(
            format!("nn.{name}.macs"),
            macs[k] as f64,
            "count",
        ));
        l.push(Metric::new(
            format!("nn.{name}.sim_time_share"),
            time[k] / t_all.max(f64::MIN_POSITIVE),
            "ratio",
        ));
        l.push(Metric::new(
            format!("nn.{name}.sim_energy_share"),
            energy[k] / e_all.max(f64::MIN_POSITIVE),
            "ratio",
        ));
    }
}

/// Runs every probe. `traces` feed the backend probes; `params` set
/// the scenario traces for `run_trace`; `optimizer` matches the
/// workload's so `store` is already warm. Returns the HH-PIM
/// `run_trace` reports.
pub fn run(
    traces: &[(TinyMlModel, LoadTrace)],
    params: ScenarioParams,
    optimizer: OptimizerConfig,
    store: &Arc<PlacementStore>,
    dir: &Path,
    l: &mut Vec<Metric>,
) -> Vec<(TinyMlModel, ExecutionReport)> {
    backends(traces, store, optimizer, l);
    artifacts(optimizer, store, dir, l);
    run_trace(params, optimizer, store, l)
}
