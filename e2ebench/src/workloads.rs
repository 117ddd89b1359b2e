//! The two workloads and the inputs each makes from the run seed.
//!
//! Only generated inputs cross into the program: traffic configs, QoS
//! classes and scenario parameters. The seed picks every tenant's
//! traffic RNG seed (and the Fig. 5 Random scenario's seed for the
//! traced run's `run_trace` probe); rates, models and trace lengths
//! are fixed, so work per run stays comparable across seeds.

use crate::stats::splitmix64;
use hhpim::server::QosClass;
use hhpim::{BackendKind, LoadDistribution, TrafficConfig};
use hhpim_nn::TinyMlModel;
use hhpim_sim::SimDuration;
use hhpim_workload::ScenarioParams;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeCycleMixed,
    ServeAnalyticCoalesce,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeCycleMixed, Workload::ServeAnalyticCoalesce];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCycleMixed => "serve_cycle_mixed",
            Workload::ServeAnalyticCoalesce => "serve_analytic_coalesce",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which admission policy a serve workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Admission {
    AlwaysAdmit,
    /// `BatchCoalesce::with_pressure(backlog)`.
    Coalesce {
        backlog: usize,
    },
}

/// One tenant's generated inputs.
#[derive(Debug, Clone)]
pub struct TenantInput {
    pub name: String,
    pub model: TinyMlModel,
    pub traffic: TrafficConfig,
    pub slices: usize,
    pub qos: QosClass,
}

/// A serve workload's generated inputs.
#[derive(Debug, Clone)]
pub struct ServeInput {
    pub backend: BackendKind,
    pub admission: Admission,
    pub tenants: Vec<TenantInput>,
}

fn ms(v: f64) -> SimDuration {
    SimDuration::from_ns_f64(v * 1e6)
}

/// Per-task SLOs between each model's fastest and slowest LUT
/// placement, so lightly loaded slices (which the LUT runs on slower,
/// cheaper placements) miss and busy ones meet it.
fn slo(model: TinyMlModel) -> SimDuration {
    match model {
        TinyMlModel::MobileNetV2 => ms(40.0),
        TinyMlModel::EfficientNetB0 => ms(55.0),
        TinyMlModel::ResNet18 => ms(400.0),
    }
}

/// Poisson rate of `serve_cycle_mixed`'s `cam-b` tenant.
pub const CAM_B_RATE: f64 = 6.0;

/// `cam-b`'s low rate, checked only by the parity sweep
/// (`--parity-seeds`): there the cycle↔analytic energy gap is largest.
pub const CAM_B_LOW_RATE: f64 = 3.0;

/// `serve_cycle_mixed`: four tenants on the cycle backend under
/// `AlwaysAdmit` — two Poisson-fed MobileNetV2 cameras (`cam-b` at
/// `cam_b_rate` arrivals per slice), a bursty (MMPP-2) EfficientNet-B0
/// and a bursty ResNet-18.
pub fn cycle_mixed(seed: u64, cam_b_rate: f64) -> ServeInput {
    let tenant_seed = |i: u64| splitmix64(seed ^ (i << 32));
    let tenants = vec![
        (
            "cam-a",
            TinyMlModel::MobileNetV2,
            TrafficConfig::poisson(5.0),
            2,
        ),
        (
            "cam-b",
            TinyMlModel::MobileNetV2,
            TrafficConfig::poisson(cam_b_rate),
            1,
        ),
        (
            "detect",
            TinyMlModel::EfficientNetB0,
            TrafficConfig::bursty(9.0, 1.0, 8.0, 16.0),
            1,
        ),
        (
            "classify",
            TinyMlModel::ResNet18,
            TrafficConfig::bursty(8.0, 0.5, 5.0, 20.0),
            1,
        ),
    ];
    ServeInput {
        backend: BackendKind::Cycle,
        admission: Admission::AlwaysAdmit,
        tenants: tenants
            .into_iter()
            .enumerate()
            .map(|(i, (name, model, traffic, priority))| TenantInput {
                name: name.to_string(),
                model,
                traffic: traffic.with_seed(tenant_seed(i as u64)),
                slices: 1000,
                qos: QosClass::default()
                    .with_priority(priority)
                    .with_deadline(slo(model)),
            })
            .collect(),
    }
}

/// `serve_analytic_coalesce`: eight tenants of mixed models and
/// priorities on the analytic backend under `BatchCoalesce`. The four
/// heavy tenants offer a long, high-rate backlog far above their small
/// queues (so it is coalesced); the four light ones are short enough
/// to stay under the coalescing pressure, so they are admitted one
/// load at a time and deferred whenever their queue is full.
fn analytic_coalesce(seed: u64) -> ServeInput {
    const MODELS: [TinyMlModel; 3] = [
        TinyMlModel::MobileNetV2,
        TinyMlModel::EfficientNetB0,
        TinyMlModel::ResNet18,
    ];
    let tenants = (0..8u64)
        .map(|i| {
            let heavy = i % 2 == 0;
            let model = MODELS[i as usize % 3];
            let traffic = if heavy {
                TrafficConfig::poisson(8.0)
            } else {
                TrafficConfig::bursty(6.0, 1.0, 6.0, 12.0)
            };
            TenantInput {
                name: format!("{}-{i}", if heavy { "heavy" } else { "light" }),
                model,
                traffic: traffic
                    .with_load(LoadDistribution::Uniform {
                        low: 0.05,
                        high: 0.15,
                    })
                    .with_seed(splitmix64(seed ^ (i << 32))),
                slices: if heavy { 4000 } else { 500 },
                qos: QosClass::default()
                    .with_priority(1 + (i % 4) as u32)
                    .with_queue_cap(2 + (i % 3) as usize)
                    .with_deadline(slo(model)),
            }
        })
        .collect();
    ServeInput {
        backend: BackendKind::Analytic,
        admission: Admission::Coalesce { backlog: 600 },
        tenants,
    }
}

/// The inputs of `workload`.
pub fn serve_input(workload: Workload, seed: u64) -> ServeInput {
    match workload {
        Workload::ServeCycleMixed => cycle_mixed(seed, CAM_B_RATE),
        Workload::ServeAnalyticCoalesce => analytic_coalesce(seed),
    }
}

/// The Fig. 5 scenario settings at `sweep_farm`'s defaults (12
/// slices), with the Random scenario seeded from the run seed; the
/// traced run's `Processor::run_trace` probe replays them.
pub fn scenario_params(seed: u64) -> ScenarioParams {
    ScenarioParams {
        slices: 12,
        seed: splitmix64(seed),
        ..ScenarioParams::default()
    }
}
