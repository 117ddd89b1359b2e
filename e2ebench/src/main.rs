//! End-to-end benchmark for the HH-PIM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <serve_cycle_mixed|serve_analytic_coalesce> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's input summary, a table of every metric with its
//! unit and every output check, then one JSON object as the last line
//! of stdout. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! records spans, writes them to `e2ebench/out/` and reports the
//! per-layer metrics. Exits non-zero when any output check fails.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --parity-seeds <lo>-<hi>
//! ```
//!
//! runs only `serve_cycle_mixed`'s cycle↔analytic energy check, on
//! every seed in the range, for its tenant mix and for the same mix
//! with `cam-b` at the low rate, and exits non-zero if any breaks the
//! bound.
//! See `e2ebench/README.md`.

mod calib;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use report::Outcome;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;
use trace::Recorder;
use workloads::Workload;

/// Every per-layer metric, in report order; a traced run must print
/// each of them.
const LAYER_METRICS: &[&str] = &[
    "traced.sim_slices_per_s",
    "trace.unattributed_pct",
    "traffic.gen_us",
    "traffic.slices",
    "traffic.mean_load",
    "store.lookups",
    "store.hits",
    "store.disk_hits",
    "store.lut_builds",
    "store.disk_writes",
    "store.hit_ratio",
    "dp.build_s",
    "setup.backend_s",
    "artifact.save_us",
    "artifact.load_us",
    "timegraph.programs",
    "timegraph.nodes",
    "server.rounds",
    "server.admitted",
    "server.deferred",
    "server.coalesced",
    "server.shed",
    "server.qos_missed",
    "server.max_starvation",
    "server.admit_us",
    "server.quantum_us",
    "engine.slices",
    "engine.step_n_calls",
    "engine.events",
    "engine.events_dropped",
    "engine.replacements",
    "engine.migration_bytes",
    "cycle.slice_us",
    "cycle.host_ns_per_kmac",
    "cycle.instructions",
    "cycle.macs",
    "analytic.slice_us",
    "analytic.run_trace_us",
    "nn.conv.macs",
    "nn.conv.sim_time_share",
    "nn.conv.sim_energy_share",
    "nn.depthwise.macs",
    "nn.depthwise.sim_time_share",
    "nn.depthwise.sim_energy_share",
    "nn.pointwise.macs",
    "nn.pointwise.sim_time_share",
    "nn.pointwise.sim_energy_share",
    "nn.linear.macs",
    "nn.linear.sim_time_share",
    "nn.linear.sim_energy_share",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Prints what the run is fed, so a claim can be re-checked on
/// another seed.
fn print_inputs(args: &Args) {
    println!(
        "# {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for t in &workloads::serve_input(args.workload, args.seed).tenants {
        let source = hhpim::TrafficSource::new(t.traffic.clone(), t.slices);
        let trace = hhpim::TraceSource::trace(&source).expect("benchmark traffic generates");
        let mean = trace.loads().iter().sum::<f64>() / trace.len() as f64;
        println!(
            "# tenant {:<9} {:<15} {} | offered {} slices, mean load {:.4} | \
             priority {} queue {} slo {:.0} ms",
            t.name,
            format!("{:?}", t.model),
            hhpim::TraceSource::label(&source),
            trace.len(),
            mean,
            t.qos.priority,
            t.qos.queue_cap,
            t.qos.deadline.as_ms_f64()
        );
    }
}

/// `--parity-seeds <lo>-<hi>`: `Some(seeds)` when the parity sweep
/// was asked for.
fn parse_parity() -> Result<Option<Vec<u64>>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, range] if flag == "--parity-seeds" => {
            let bad = || format!("bad value for --parity-seeds: {range}");
            let (lo, hi) = range.split_once('-').ok_or_else(bad)?;
            let lo: u64 = lo.parse().map_err(|_| bad())?;
            let hi: u64 = hi.parse().map_err(|_| bad())?;
            Ok(Some((lo..=hi).collect()))
        }
        _ if args.iter().any(|a| a == "--parity-seeds") => {
            Err("--parity-seeds takes a range and no other flag".to_string())
        }
        _ => Ok(None),
    }
}

fn main() {
    match parse_parity() {
        Ok(Some(seeds)) => {
            let mut failed = false;
            for rate in [workloads::CAM_B_RATE, workloads::CAM_B_LOW_RATE] {
                println!("# parity sweep: serve_cycle_mixed mix, cam-b at poisson(λ={rate})");
                let failing = serve::parity_sweep(&seeds, rate);
                println!(
                    "# {} of {} seeds break the bound{}",
                    failing.len(),
                    seeds.len(),
                    if failing.is_empty() {
                        String::new()
                    } else {
                        format!(": {failing:?}")
                    }
                );
                failed |= !failing.is_empty();
            }
            exit(i32::from(failed));
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("e2ebench: {e}");
            exit(2);
        }
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}");
        exit(2);
    });
    print_inputs(&args);
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    let mut recorder = args.trace.then(|| Recorder::new(Instant::now()));
    let mut outcome = Outcome::default();
    let input = workloads::serve_input(args.workload, args.seed);
    let layers = serve::run(&input, args.seconds, recorder.as_mut(), &mut outcome);
    if let Some(rec) = &recorder {
        probe::run(
            &layers.traces,
            workloads::scenario_params(args.seed),
            hhpim::OptimizerConfig::default(),
            &layers.store,
            &scratch.join("probe"),
            &mut outcome.layers,
        );
        let reports: Vec<_> = layers
            .traces
            .iter()
            .map(|(m, _)| *m)
            .zip(&layers.reports)
            .collect();
        probe::nn_layers(&reports, &mut outcome.layers);
        let _ = std::fs::remove_dir_all(&scratch);
        finish_trace(&args, rec, &out_dir, &mut outcome);
    }
    outcome.print(args.trace);
    exit(if outcome.correct() { 0 } else { 1 });
}

/// Checks that every per-layer metric is present, orders them and
/// writes the span file.
fn finish_trace(args: &Args, rec: &Recorder, out_dir: &std::path::Path, outcome: &mut Outcome) {
    let missing: Vec<&str> = LAYER_METRICS
        .iter()
        .copied()
        .filter(|n| !outcome.layers.iter().any(|m| m.name == *n))
        .collect();
    outcome.check(
        "every per-layer metric reported",
        missing.is_empty(),
        missing.join(" "),
    );
    outcome.layers.sort_by_key(|m| {
        LAYER_METRICS
            .iter()
            .position(|n| *n == m.name)
            .unwrap_or(usize::MAX)
    });
    let path = out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match rec.write(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => outcome.check("span file written", false, e.to_string()),
    }
}
