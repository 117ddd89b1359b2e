//! The two serve workloads: set-up, measured rounds, output checks and
//! (traced) per-round spans.
//!
//! Every pass serves the workload's full traffic on a fresh `Server`
//! built over the warm `PlacementStore`, so each pass is an
//! independent repeat of the same seed and must produce bit-identical
//! reports. An op is one `Server::round`.

use crate::calib::Calibration;
use crate::report::{Metric, Outcome};
use crate::stats::{self, median};
use crate::trace::{Recorder, Span, SETUP_OP};
use crate::workloads::{Admission, ServeInput};
use hhpim::server::{
    AdmissionDecision, AdmissionPolicy, ServeReport, Server, ServerBuilder, ServerEvent,
    TenantSnapshot, TenantSpec,
};
use hhpim::session::{SessionError, TraceSource};
use hhpim::{
    default_policy, AlwaysAdmit, Architecture, BackendKind, BatchCoalesce, CostModel,
    CostModelError, EngineEvent, ExecutionReport, OptimizerConfig, Placement, PlacementPolicy,
    PlacementStore, RuntimeConfig, TrafficSource,
};
use hhpim_nn::TinyMlModel;
use hhpim_workload::LoadTrace;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Cold set-ups per run; `setup_s` is their median. One set-up's time
/// varies by up to 1.8× within a run, so it takes nine.
const SETUPS: usize = 9;

/// The cycle↔analytic total-energy bound per tenant, as stated in
/// `tests/backend_parity.rs`.
const PARITY_BOUND: f64 = 0.10;

/// Share of an op's host time its measured stages may leave
/// unexplained.
const UNATTRIBUTED_BOUND_PCT: f64 = 5.0;

// ---------------------------------------------------------------------
// Admission tally: which offered loads each executed slice carries.
// ---------------------------------------------------------------------

/// Per-tenant admission ledger, written only by the serving thread
/// and read after the pass (the atomics are there because admission
/// policies must be `Send`; they publish no other data).
#[derive(Debug)]
struct TenantTally {
    /// Loads absorbed into a merged slice not yet enqueued.
    absorbed: AtomicU32,
    shed: AtomicU64,
    /// Offered loads carried by each enqueued slice, in queue order.
    carried: Vec<AtomicU32>,
    len: AtomicUsize,
    overflow: AtomicU32,
}

impl TenantTally {
    fn new(offered: usize) -> Self {
        TenantTally {
            absorbed: AtomicU32::new(0),
            shed: AtomicU64::new(0),
            carried: (0..offered + 8).map(|_| AtomicU32::new(0)).collect(),
            len: AtomicUsize::new(0),
            overflow: AtomicU32::new(0),
        }
    }

    fn enqueue(&self, extra: u32) {
        let carried = self.absorbed.load(Relaxed) + extra;
        self.absorbed.store(0, Relaxed);
        let i = self.len.load(Relaxed);
        match self.carried.get(i) {
            Some(slot) => {
                slot.store(carried, Relaxed);
                self.len.store(i + 1, Relaxed);
            }
            None => self.overflow.store(1, Relaxed),
        }
    }

    fn carried(&self) -> Vec<u32> {
        self.carried[..self.len.load(Relaxed)]
            .iter()
            .map(|c| c.load(Relaxed))
            .collect()
    }
}

/// An admission-policy decorator that records, per tenant, how many
/// offered loads each enqueued slice carries. Decisions pass through
/// unchanged.
/// In traced runs it also timestamps the entry and exit of every
/// policy call.
#[derive(Debug, Clone)]
struct Tallied {
    inner: Box<dyn AdmissionPolicy>,
    tally: Arc<Vec<TenantTally>>,
    timeline: Option<Timeline>,
}

impl AdmissionPolicy for Tallied {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn admit(&mut self, tenant: &TenantSnapshot, load: f64) -> AdmissionDecision {
        mark(&self.timeline, Mark::AdmitStart);
        let decision = self.inner.admit(tenant, load);
        mark(&self.timeline, Mark::AdmitEnd);
        let t = &self.tally[tenant.id.index()];
        match decision {
            // The server defers an `Admit` when the queue is full.
            AdmissionDecision::Admit if tenant.queue_depth < tenant.qos.queue_cap => t.enqueue(1),
            AdmissionDecision::AdmitMerged { .. } => t.enqueue(1),
            AdmissionDecision::Coalesce => {
                t.absorbed.store(t.absorbed.load(Relaxed) + 1, Relaxed);
            }
            AdmissionDecision::Shed => t.shed.store(t.shed.load(Relaxed) + 1, Relaxed),
            _ => {}
        }
        decision
    }

    fn flush(&mut self, tenant: &TenantSnapshot) -> Option<f64> {
        mark(&self.timeline, Mark::AdmitStart);
        let load = self.inner.flush(tenant);
        mark(&self.timeline, Mark::AdmitEnd);
        if load.is_some() {
            self.tally[tenant.id.index()].enqueue(0);
        }
        load
    }

    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------
// Traced-run timeline: timestamps taken where the program calls out
// (trace source, admission policy, placement policy) and where it
// reports (`ServerObserver`).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    TrafficStart,
    TrafficEnd,
    /// Entry and exit of an admission-policy call.
    AdmitStart,
    AdmitEnd,
    /// A tenant's backend asked its placement policy for a slice's
    /// placement (the cycle backend does so at the start of every
    /// slice).
    Place(usize),
    /// The observer saw one of the tenant's engine events.
    Engine(usize),
}

/// Shared with the admission and placement policies, which must be
/// `Send`.
type Timeline = Arc<Mutex<Vec<(Instant, Mark)>>>;

fn mark(timeline: &Option<Timeline>, m: Mark) {
    if let Some(timeline) = timeline {
        timeline
            .lock()
            .expect("timeline lock")
            .push((Instant::now(), m));
    }
}

/// A placement policy that timestamps every placement query, then
/// answers with the architecture's default policy.
#[derive(Debug, Clone)]
struct TimedPolicy {
    inner: Box<dyn PlacementPolicy>,
    tenant: usize,
    timeline: Option<Timeline>,
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(
        &mut self,
        cost: &CostModel,
        runtime: &RuntimeConfig,
        opt: &OptimizerConfig,
        store: &PlacementStore,
    ) -> Result<(), CostModelError> {
        self.inner.prepare(cost, runtime, opt, store)
    }

    fn placement_for(&self, cost: &CostModel, n_tasks: u32) -> Placement {
        mark(&self.timeline, Mark::Place(self.tenant));
        self.inner.placement_for(cost, n_tasks)
    }

    fn boot_placement(&self, cost: &CostModel) -> Placement {
        self.inner.boot_placement(cost)
    }

    fn is_adaptive(&self) -> bool {
        self.inner.is_adaptive()
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

/// A `TrafficSource` whose `trace` calls are timestamped.
#[derive(Debug)]
struct TimedSource {
    inner: TrafficSource,
    timeline: Timeline,
}

impl TraceSource for TimedSource {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn trace(&self) -> Result<LoadTrace, SessionError> {
        let timeline = Some(Arc::clone(&self.timeline));
        mark(&timeline, Mark::TrafficStart);
        let trace = self.inner.trace();
        mark(&timeline, Mark::TrafficEnd);
        trace
    }
}

// ---------------------------------------------------------------------
// Building and serving.
// ---------------------------------------------------------------------

fn build(
    input: &ServeInput,
    backend: BackendKind,
    store: &Arc<PlacementStore>,
    timeline: Option<&Timeline>,
) -> (Server, Arc<Vec<TenantTally>>) {
    let tally: Arc<Vec<TenantTally>> = Arc::new(
        input
            .tenants
            .iter()
            .map(|t| TenantTally::new(t.slices))
            .collect(),
    );
    let inner: Box<dyn AdmissionPolicy> = match input.admission {
        Admission::AlwaysAdmit => Box::new(AlwaysAdmit),
        Admission::Coalesce { backlog } => Box::new(BatchCoalesce::new().with_pressure(backlog)),
    };
    let mut builder = ServerBuilder::new()
        .backend(backend)
        .store(Arc::clone(store))
        .admission(Tallied {
            inner,
            tally: Arc::clone(&tally),
            timeline: timeline.cloned(),
        });
    for (i, t) in input.tenants.iter().enumerate() {
        let source = TrafficSource::new(t.traffic.clone(), t.slices);
        let spec = match timeline {
            Some(timeline) => TenantSpec::new(
                t.name.clone(),
                t.model,
                TimedSource {
                    inner: source,
                    timeline: Arc::clone(timeline),
                },
            )
            .policy(TimedPolicy {
                inner: default_policy(Architecture::HhPim),
                tenant: i,
                timeline: Some(Arc::clone(timeline)),
            }),
            None => TenantSpec::new(t.name.clone(), t.model, source),
        };
        builder = builder.tenant(spec.qos(t.qos));
    }
    let mut server = builder.build().expect("benchmark tenant mix always builds");
    if let Some(timeline) = timeline {
        let timeline = Some(Arc::clone(timeline));
        server.observe(move |event: &ServerEvent| {
            if let ServerEvent::Engine { tenant, .. } | ServerEvent::QosMiss { tenant, .. } = event
            {
                mark(&timeline, Mark::Engine(tenant.index()));
            }
        });
    }
    (server, tally)
}

/// Event counters of one pass (traced runs only).
#[derive(Debug, Default, Clone, Copy)]
struct EventCounts {
    events: u64,
    step_n_calls: u64,
    replacements: u64,
    migration_bytes: u64,
}

/// One served pass.
struct Pass {
    report: ServeReport,
    /// Round durations, ns.
    ops: Vec<u64>,
    /// Host time of all rounds plus the final drain, ns.
    serve_ns: u64,
    events: EventCounts,
    events_dropped: u64,
}

/// Traced-run state carried across the measured passes.
struct Tracing<'a> {
    timeline: &'a Timeline,
    recorder: &'a mut Recorder,
    /// Id of the next op (round).
    op: i64,
    /// Tenant quanta seen, and how many of them began at an observed
    /// placement query.
    quanta: u64,
    observed_starts: u64,
}

/// Serves every tenant's traffic to completion, timing each round.
/// Counts engine events when `count` is set or the pass is traced;
/// traced, turns each round's timeline into spans.
fn serve_pass(
    server: &mut Server,
    count: bool,
    mut tracing: Option<&mut Tracing>,
) -> Result<Pass, (u64, String)> {
    let mut ops = Vec::with_capacity(4096);
    let mut events = EventCounts::default();
    let start = Instant::now();
    while !server.finished() {
        let t0 = Instant::now();
        let result = server.round();
        let t1 = Instant::now();
        ops.push((t1 - t0).as_nanos() as u64);
        match result {
            Err(e) => return Err((ops.len() as u64, format!("round failed: {e}"))),
            Ok(false) if !server.finished() => {
                return Err((ops.len() as u64, "round made no progress".to_string()))
            }
            Ok(_) => {}
        }
        if let Some(tracing) = tracing.as_deref_mut() {
            round_spans(tracing, t0, t1);
        }
        if count || tracing.is_some() {
            count_events(server, &mut events);
        } else {
            server.events().for_each(drop);
        }
    }
    let events_dropped = server.events_dropped();
    let report = server
        .run()
        .map_err(|e| (0, format!("drain failed: {e}")))?;
    Ok(Pass {
        report,
        serve_ns: start.elapsed().as_nanos() as u64,
        ops,
        events,
        events_dropped,
    })
}

fn count_events(server: &mut Server, counts: &mut EventCounts) {
    let mut last_tenant = None;
    for event in server.events() {
        if let ServerEvent::Engine { tenant, event } = event {
            counts.events += 1;
            // The server steps each backed-up tenant once per round
            // through one `Engine::step_n` call; its events arrive
            // contiguously.
            if last_tenant != Some(tenant) {
                counts.step_n_calls += 1;
                last_tenant = Some(tenant);
            }
            match event {
                EngineEvent::Replacement { .. } => counts.replacements += 1,
                EngineEvent::Migration { record, .. } => {
                    counts.migration_bytes += record.bytes as u64
                }
                _ => {}
            }
        }
    }
}

/// Splits one round into spans, each from a timestamp taken at the
/// start of its stage to one taken at its end, so time between stages
/// stays with the round itself:
/// - `traffic.gen`: entry to exit of a `TrafficSource::trace` call;
/// - `server.admit`: entry of the round's first admission-policy call
///   to exit of its last;
/// - `server.quantum`, one per tenant whose engine ran: its first
///   placement query (or, where the backend made none, its first
///   engine event) to its last engine event.
fn round_spans(tracing: &mut Tracing, t0: Instant, t1: Instant) {
    let marks = std::mem::take(&mut *tracing.timeline.lock().expect("timeline lock"));
    let rec = &mut *tracing.recorder;
    let op = tracing.op;
    tracing.op += 1;
    let child = |name, start, end| Span {
        name,
        start,
        end,
        parent: Some(0),
        op,
    };
    let mut spans = vec![Span {
        name: "server.round",
        start: rec.ns(t0),
        end: rec.ns(t1),
        parent: None,
        op,
    }];
    let (mut traffic_start, mut admit, mut after_admit) = (None, None, 0);
    for (i, &(t, m)) in marks.iter().enumerate() {
        let t = rec.ns(t);
        match m {
            Mark::TrafficStart => traffic_start = Some(t),
            Mark::TrafficEnd => {
                if let Some(start) = traffic_start.take() {
                    spans.push(child("traffic.gen", start, t));
                }
            }
            Mark::AdmitStart => admit = Some(admit.map_or((t, t), |(s, _)| (s, t))),
            Mark::AdmitEnd => {
                admit = admit.map(|(s, _)| (s, t));
                after_admit = i + 1;
            }
            _ => {}
        }
    }
    if let Some((start, end)) = admit {
        spans.push(child("server.admit", start, end));
    }
    // (tenant, start, start observed, end)
    let mut group: Option<(usize, u64, bool, u64)> = None;
    let mut close = |g: (usize, u64, bool, u64), spans: &mut Vec<Span>| {
        spans.push(child("server.quantum", g.1, g.3));
        tracing.quanta += 1;
        tracing.observed_starts += u64::from(g.2);
    };
    for &(t, m) in &marks[after_admit..] {
        let (tenant, place) = match m {
            Mark::Place(i) => (i, true),
            Mark::Engine(i) => (i, false),
            _ => continue,
        };
        let t = rec.ns(t);
        match group.as_mut() {
            Some(g) if g.0 == tenant => g.3 = t,
            _ => {
                if let Some(g) = group.take() {
                    close(g, &mut spans);
                }
                group = Some((tenant, t, place, t));
            }
        }
    }
    if let Some(g) = group {
        close(g, &mut spans);
    }
    rec.add_op(&spans);
}

// ---------------------------------------------------------------------
// Output checks and the modelled (`sim_*`) metrics.
// ---------------------------------------------------------------------

/// The modelled outcome of one pass; bit-identical across repeats.
#[derive(Debug, Clone, PartialEq)]
struct Sim {
    energy_per_inference_uj: f64,
    slo_miss_frac: f64,
    slices: u64,
}

/// Checks that every offered load is accounted for (executed, shed or
/// coalesced into an executed slice) and computes the pass's `sim_*`
/// metrics.
fn account(input: &ServeInput, pass: &Pass, tally: &[TenantTally]) -> Result<Sim, String> {
    let (mut energy_uj, mut tasks, mut offered, mut lost, mut slices) =
        (0.0, 0u64, 0u64, 0u64, 0u64);
    for ((t, tr), tl) in input.tenants.iter().zip(&pass.report.tenants).zip(tally) {
        let report = tr.primary();
        let carried = tl.carried();
        let shed = tl.shed.load(Relaxed);
        let s = tr.stats;
        let carried_total: u64 = carried.iter().map(|&c| u64::from(c)).sum();
        if tl.overflow.load(Relaxed) != 0
            || s.submitted != t.slices as u64
            || s.shed != shed
            || s.executed != s.admitted
            || report.records.len() as u64 != s.executed
            || carried.len() as u64 != s.executed
            || carried_total + shed != t.slices as u64
        {
            return Err(format!(
                "{}: offered {} submitted {} shed {} admitted {} executed {} records {} \
                 carried {} in {} slices",
                t.name,
                t.slices,
                s.submitted,
                s.shed,
                s.admitted,
                s.executed,
                report.records.len(),
                carried_total,
                carried.len()
            ));
        }
        for (record, &c) in report.records.iter().zip(&carried) {
            if !record.deadline_met || record.task_time > t.qos.deadline {
                lost += u64::from(c);
            }
            tasks += u64::from(record.n_tasks);
        }
        lost += shed;
        offered += t.slices as u64;
        slices += s.executed;
        energy_uj += report.total_energy().as_uj();
    }
    Ok(Sim {
        energy_per_inference_uj: energy_uj / tasks.max(1) as f64,
        slo_miss_frac: lost as f64 / offered.max(1) as f64,
        slices,
    })
}

fn reports(pass: &Pass) -> Vec<&ExecutionReport> {
    pass.report.tenants.iter().map(|t| t.primary()).collect()
}

/// Serves `input` again on the analytic backend and compares each
/// tenant's total energy with the cycle pass `cycle` against
/// [`PARITY_BOUND`]; returns whether every tenant is within it, and the
/// per-tenant relative differences.
fn parity(input: &ServeInput, store: &Arc<PlacementStore>, cycle: &Pass) -> (bool, String) {
    let (mut analytic, _) = build(input, BackendKind::Analytic, store, None);
    let detail = match serve_pass(&mut analytic, false, None) {
        Ok(pass) => reports(cycle)
            .iter()
            .zip(reports(&pass))
            .zip(&input.tenants)
            .map(|((c, a), t)| {
                let (c, a) = (c.total_energy().as_pj(), a.total_energy().as_pj());
                (t.name.clone(), (c - a).abs() / a)
            })
            .collect::<Vec<_>>(),
        Err((_, e)) => vec![(e, f64::INFINITY)],
    };
    let worst = detail.iter().map(|(_, r)| *r).fold(0.0, f64::max);
    (
        worst < PARITY_BOUND,
        format!(
            "worst rel diff {worst:.4} (bound {PARITY_BOUND}): {}",
            detail
                .iter()
                .map(|(n, r)| format!("{n} {r:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    )
}

/// The cycle↔analytic parity check alone, on `serve_cycle_mixed`'s mix
/// with `cam-b` at `cam_b_rate`, for every seed in `seeds` (one warm
/// store for all). Prints one line per seed; returns the failing seeds.
pub fn parity_sweep(seeds: &[u64], cam_b_rate: f64) -> Vec<u64> {
    let store = PlacementStore::shared();
    let mut failing = Vec::new();
    for &seed in seeds {
        let input = crate::workloads::cycle_mixed(seed, cam_b_rate);
        let (mut server, _) = build(&input, BackendKind::Cycle, &store, None);
        let (ok, detail) = match serve_pass(&mut server, false, None) {
            Ok(cycle) => parity(&input, &store, &cycle),
            Err((_, e)) => (false, format!("cycle pass failed: {e}")),
        };
        println!(
            "  seed {seed:<6} {:<4} {detail}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failing.push(seed);
        }
    }
    failing
}

// ---------------------------------------------------------------------
// The workload run.
// ---------------------------------------------------------------------

/// Checks the properties each workload is built to have on the
/// reference pass; the detail records the values either way.
fn properties(
    input: &ServeInput,
    sim: &Sim,
    stats: &[hhpim::TenantStats],
    events: EventCounts,
) -> (bool, String) {
    let sum = |f: fn(&hhpim::TenantStats) -> u64| stats.iter().map(f).sum::<u64>();
    let (deferred, coalesced) = (sum(|s| s.deferred), sum(|s| s.coalesced));
    let mut ok = true;
    // Above capacity under `BatchCoalesce`: some slices miss their
    // deadline but not all, and the server defers and coalesces.
    if let Admission::Coalesce { .. } = input.admission {
        ok &= sim.slo_miss_frac > 0.0 && sim.slo_miss_frac < 1.0 && deferred > 0 && coalesced > 0;
    }
    // The cycle mix's load changes make the LUT re-place weights.
    if input.backend == BackendKind::Cycle {
        ok &= events.replacements > 0;
    }
    (
        ok,
        format!(
            "slo_miss_frac {:.4} deferred {deferred} coalesced {coalesced} qos_missed {} \
             replacements {}",
            sim.slo_miss_frac,
            sum(|s| s.missed),
            events.replacements
        ),
    )
}

/// Checks that the measured stages explain each round — made only when
/// every quantum's start was observed: a backend that asks its
/// placement policy at every slice (the cycle backend) gives one, while
/// the analytic backend memoizes placements per stream, so most of its
/// quanta show only their events and their stepping stays in the
/// remainder.
fn stage_check(out: &mut Outcome, unattributed: f64, tracing: &Tracing) {
    let (quanta, observed) = (tracing.quanta, tracing.observed_starts);
    if observed == quanta {
        out.check(
            "stage self-times add up to op time",
            unattributed <= UNATTRIBUTED_BOUND_PCT,
            format!(
                "{unattributed:.3}% of {} rounds' time outside measured stages \
                 (bound {UNATTRIBUTED_BOUND_PCT}%)",
                tracing.op
            ),
        );
    } else {
        println!(
            "# stage check not made: {} of {quanta} quanta began without an observable \
             start; {unattributed:.3}% of round time is outside measured stages",
            quanta - observed
        );
    }
}

/// Layer data a traced serve run hands to the probe phase.
pub struct ServeLayers {
    pub store: Arc<PlacementStore>,
    /// `(model, trace)` per tenant, for the backend probes.
    pub traces: Vec<(TinyMlModel, LoadTrace)>,
    /// The reference pass's reports (for the NN-layer breakdown).
    pub reports: Vec<ExecutionReport>,
}

pub fn run(
    input: &ServeInput,
    seconds: f64,
    recorder: Option<&mut Recorder>,
    out: &mut Outcome,
) -> ServeLayers {
    // Set-up: from nothing to a ready server, on a fresh store each
    // time (cold DP LUT builds included). Not host-scaled: set-up time
    // did not follow the calibration kernel (scaled, five runs spread by
    // 41 % where raw they spread by 6 %).
    let mut setup_s = Vec::new();
    let mut dp_s = Vec::new();
    let mut setup_spans = Vec::new();
    let mut store = PlacementStore::shared();
    for _ in 0..SETUPS {
        store = PlacementStore::shared();
        let t0 = Instant::now();
        let server = build(input, input.backend, &store, None).0;
        let t1 = Instant::now();
        drop(server);
        setup_s.push((t1 - t0).as_secs_f64());
        dp_s.push(store.stats().build_time.as_secs_f64());
        setup_spans.push((t0, t1));
    }

    // Reference pass (untimed warm-up): every later pass must repeat it
    // bit for bit, traced or not.
    let (mut server, tally) = build(input, input.backend, &store, None);
    let reference = match serve_pass(&mut server, true, None) {
        Ok(pass) => pass,
        Err((_, e)) => {
            out.attempted = 1;
            out.failed = 1;
            out.check("reference pass", false, e);
            return ServeLayers {
                store,
                traces: Vec::new(),
                reports: Vec::new(),
            };
        }
    };
    let ref_sim = account(input, &reference, &tally);
    out.check(
        "accounting (reference pass)",
        ref_sim.is_ok(),
        ref_sim.as_ref().err().cloned().unwrap_or_default(),
    );
    let ref_sim = ref_sim.unwrap_or(Sim {
        energy_per_inference_uj: 0.0,
        slo_miss_frac: 0.0,
        slices: 0,
    });
    let ref_stats = server.stats();
    let store_after = store.stats();
    let (ok, detail) = properties(input, &ref_sim, &ref_stats, reference.events);
    out.check("workload properties (reference pass)", ok, detail);

    // Measured phase.
    let traced = recorder.is_some();
    let timeline: Timeline = Arc::new(Mutex::new(Vec::new()));
    let mut tracing = recorder.map(|recorder| {
        for &(t0, t1) in &setup_spans {
            recorder.add_op(&[Span {
                name: "setup.server_build",
                start: recorder.ns(t0),
                end: recorder.ns(t1),
                parent: None,
                op: SETUP_OP,
            }]);
        }
        Tracing {
            timeline: &timeline,
            recorder,
            op: 0,
            quanta: 0,
            observed_starts: 0,
        }
    });
    let (mut serve_ns, mut passes) = (0u64, 0u64);
    let mut mismatches = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let mut windows = stats::Windows::default();
    let mut cal = Calibration::default();
    while Duration::from_nanos(serve_ns) < budget {
        let (mut server, tally) = build(input, input.backend, &store, traced.then_some(&timeline));
        // Placement queries made while the server was built belong to
        // no round.
        timeline.lock().expect("timeline lock").clear();
        let pass = match serve_pass(&mut server, false, tracing.as_mut()) {
            Ok(pass) => pass,
            Err((attempted, e)) => {
                out.attempted += attempted;
                out.failed += attempted.max(1);
                mismatches.push(e);
                break;
            }
        };
        out.attempted += pass.ops.len() as u64;
        let checked = account(input, &pass, &tally).and_then(|sim| {
            if sim != ref_sim || reports(&pass) != reports(&reference) {
                Err(format!("pass {passes} differs from the reference pass"))
            } else {
                Ok(())
            }
        });
        if let Err(e) = checked {
            out.failed += pass.ops.len() as u64;
            mismatches.push(e);
        }
        serve_ns += pass.serve_ns;
        windows.add(
            pass.serve_ns,
            ref_sim.slices,
            &pass.ops,
            cal.sample() as f64,
        );
        passes += 1;
    }
    out.check(
        if traced {
            "traced passes == untraced reference"
        } else {
            "repeats bit-identical + accounting"
        },
        mismatches.is_empty(),
        if mismatches.is_empty() {
            format!("{passes} passes, each a fresh server over the warm store")
        } else {
            mismatches.join("; ")
        },
    );

    // Cycle↔analytic parity (outside the timed phase).
    if input.backend == BackendKind::Cycle {
        let (ok, detail) = parity(input, &store, &reference);
        out.check("cycle vs analytic energy per tenant", ok, detail);
    }

    // Metrics.
    let setup_median = median(&setup_s);
    let dp_median = median(&dp_s);
    let (timing, p50) = stats::timing_metrics(windows, "rounds");
    out.workload = vec![
        p50,
        Metric::new(
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "sim_energy_per_inference_uj",
            ref_sim.energy_per_inference_uj,
            "uJ",
        ),
        Metric::new("sim_slo_miss_frac", ref_sim.slo_miss_frac, "ratio"),
    ];
    if let Some(tracing) = tracing {
        let rec = &*tracing.recorder;
        let (counts, dropped) = (reference.events, reference.events_dropped);
        let round = rec.stage("server.round");
        let unattributed = 100.0 * round.self_ns as f64 / round.total_ns.max(1) as f64;
        stage_check(out, unattributed, &tracing);
        let stats_sum = |f: fn(&hhpim::TenantStats) -> u64| -> f64 {
            ref_stats.iter().map(f).sum::<u64>() as f64
        };
        let offered: usize = input.tenants.iter().map(|t| t.slices).sum();
        let traces: Vec<(TinyMlModel, LoadTrace)> = input
            .tenants
            .iter()
            .map(|t| {
                let trace = TrafficSource::new(t.traffic.clone(), t.slices)
                    .trace()
                    .expect("benchmark traffic always generates");
                (t.model, trace)
            })
            .collect();
        let mean_load = traces
            .iter()
            .map(|(_, tr)| tr.loads().iter().sum::<f64>())
            .sum::<f64>()
            / offered as f64;
        let l = &mut out.layers;
        l.push(Metric::new(
            "traced.sim_slices_per_s",
            timing[0].value,
            "slices/s",
        ));
        l.push(Metric::new("trace.unattributed_pct", unattributed, "%"));
        l.push(Metric::new("traffic.gen_us", rec.mean_self_us("traffic.gen"), "us").note("span"));
        l.push(Metric::new("traffic.slices", offered as f64, "count"));
        l.push(Metric::new("traffic.mean_load", mean_load, "load"));
        push_store_counts(store_after, l);
        l.push(Metric::new("dp.build_s", dp_median, "s"));
        l.push(Metric::new(
            "setup.backend_s",
            median(
                &setup_s
                    .iter()
                    .zip(&dp_s)
                    .map(|(s, d)| s - d)
                    .collect::<Vec<_>>(),
            ),
            "s",
        ));
        l.push(Metric::new(
            "server.rounds",
            reference.ops.len() as f64,
            "count",
        ));
        l.push(Metric::new(
            "server.admitted",
            stats_sum(|s| s.admitted),
            "count",
        ));
        l.push(Metric::new(
            "server.deferred",
            stats_sum(|s| s.deferred),
            "count",
        ));
        l.push(Metric::new(
            "server.coalesced",
            stats_sum(|s| s.coalesced),
            "count",
        ));
        l.push(Metric::new("server.shed", stats_sum(|s| s.shed), "count"));
        l.push(Metric::new(
            "server.qos_missed",
            stats_sum(|s| s.missed),
            "count",
        ));
        l.push(Metric::new(
            "server.max_starvation",
            ref_stats
                .iter()
                .map(|s| s.max_starvation)
                .max()
                .unwrap_or(0) as f64,
            "slices",
        ));
        l.push(Metric::new("server.admit_us", rec.mean_self_us("server.admit"), "us").note("span"));
        l.push(
            Metric::new(
                "server.quantum_us",
                rec.mean_self_us("server.quantum"),
                "us",
            )
            .note("span"),
        );
        l.push(Metric::new("engine.slices", ref_sim.slices as f64, "count"));
        l.push(Metric::new(
            "engine.step_n_calls",
            counts.step_n_calls as f64,
            "count",
        ));
        l.push(Metric::new("engine.events", counts.events as f64, "count"));
        l.push(Metric::new(
            "engine.events_dropped",
            dropped as f64,
            "count",
        ));
        l.push(Metric::new(
            "engine.replacements",
            counts.replacements as f64,
            "count",
        ));
        l.push(Metric::new(
            "engine.migration_bytes",
            counts.migration_bytes as f64,
            "B",
        ));
        return ServeLayers {
            store,
            traces,
            reports: reports(&reference).into_iter().cloned().collect(),
        };
    }
    out.end_to_end =
        vec![Metric::new("setup_s", setup_median, "s")
            .note(format!("median of {SETUPS} cold set-ups"))];
    out.end_to_end.extend(timing);
    out.end_to_end.push(Metric::new(
        "peak_rss_mb",
        stats::peak_rss_mib().unwrap_or(f64::NAN),
        "MB",
    ));
    ServeLayers {
        store,
        traces: Vec::new(),
        reports: Vec::new(),
    }
}

/// The placement store's counters as per-layer metrics.
fn push_store_counts(s: hhpim::CacheStats, l: &mut Vec<Metric>) {
    let lookups = s.hits + s.misses;
    l.push(Metric::new("store.lookups", lookups as f64, "count"));
    l.push(Metric::new("store.hits", s.hits as f64, "count"));
    l.push(Metric::new("store.disk_hits", s.disk_hits as f64, "count"));
    l.push(Metric::new(
        "store.lut_builds",
        s.lut_builds as f64,
        "count",
    ));
    l.push(Metric::new(
        "store.disk_writes",
        s.disk_writes as f64,
        "count",
    ));
    // Useful lookups: served without a DP build.
    l.push(Metric::new(
        "store.hit_ratio",
        (s.hits + s.disk_hits) as f64 / lookups.max(1) as f64,
        "ratio",
    ));
}
