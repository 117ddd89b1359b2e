//! The dynamic data-placement optimizer (Algorithms 1 and 2).
//!
//! The paper reduces weight placement to a knapsack hybrid (unbounded ×
//! multi-choice): minimize per-task energy `Σ e_i·x_i` subject to
//! `Σ t_i·x_i ≤ t_constraint` per cluster and `Σ x_i = K`, solved by a
//! bottom-up DP per cluster (Algorithm 1) whose tables are then combined
//! across clusters (Algorithm 2) into a placement LUT.
//!
//! Faithfulness notes:
//! * the recurrence implemented is exactly Eq. (2), including the
//!   `count[i][t][k]` path-tracing array, which we additionally use to
//!   enforce per-space capacity (finite banks);
//! * `e_i` is per-task energy. When static amortization is enabled
//!   (the default), `e_i = e_dyn_i + P_static_i · t_constraint`: a
//!   weight resident in space *i* leaks for the task's whole time
//!   window. This is what makes LP-MRAM win at relaxed deadlines, the
//!   effect Fig. 6 reports;
//! * the time axis is bucketed (`time_buckets`), the resolution-limiting
//!   measure §III-B prescribes so table construction stays far below 1 %
//!   of a time slice.
//!
//! # Chain evaluation
//!
//! Algorithm 2 reads each cluster's table in one row only, the full
//! budget `t = buckets`. Algorithm 1 is therefore solved for that row
//! alone, never for the whole `(buckets+1) × (K+1)` table. With the two
//! spaces of a cluster, `[MRAM, SRAM]`, the recurrence splits:
//!
//! * layer 0 (MRAM) has a closed form: `E0(t, k)` is `e_m` added `k`
//!   times, left to right, when `k ≤ cap_m` and `k·t_m ≤ t`, and `+∞`
//!   otherwise; its MRAM count is `k` (0 when infeasible);
//! * layer 1 (SRAM) reads only `(t − t_s, k − 1)`, so `E1(buckets, k)`
//!   depends on exactly one diagonal chain of cells,
//!   `(buckets − j·t_s, k − j)`.
//!
//! Each chain is walked from its deepest cell, `j = min(k,
//! ⌊buckets/t_s⌋)`, up to `j = 0`. All chains of a cluster climb in
//! lockstep, one level `j` at a time, so the inner loop runs over
//! independent chains rather than along one serial dependency. That
//! costs `O(K · min(K, buckets/t_s))` time and `O(K)` memory per
//! cluster, against `O(K · buckets)` time and memory for the full
//! table.
//!
//! The walk is bit-identical to the table DP, which the tests keep as
//! the oracle. Three rules make it so: MRAM energies are the same
//! sequential f64 sum (never `k·e_m`); the add-one branch wins only on
//! a strict `<`, so a tie keeps the skip branch and its MRAM count; and
//! the `count < cap_s` guard reads the predecessor's SRAM path count.

use crate::cost::CostModel;
use crate::space::{Placement, StorageSpace};
use hhpim_mem::{ClusterClass, Energy};
use hhpim_sim::SimDuration;

/// Optimizer tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Buckets on the DP time axis (resolution limiter, §III-B).
    pub time_buckets: usize,
    /// Fold per-task leakage (`P_static · t_constraint`) into `e_i`.
    pub amortize_static: bool,
    /// Ratio of the SRAM retention window to `t_constraint`. Volatile
    /// weights leak for the whole slice share `T / n`, which exceeds
    /// `t_constraint = (T - movement) / n`; the default compensates for
    /// the runtime's 5 % movement margin.
    pub retention_factor: f64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            time_buckets: 2_000,
            amortize_static: true,
            retention_factor: 1.0 / 0.95,
        }
    }
}

impl OptimizerConfig {
    /// The configuration's canonical, hashable identity — the exact
    /// bit patterns of every field, so a [`crate::PlacementStore`] key
    /// distinguishes any two configurations that could build different
    /// LUTs. Returns `(time_buckets, amortize_static,
    /// retention_factor_bits)`.
    pub fn canonical_bits(&self) -> (usize, bool, u64) {
        (
            self.time_buckets,
            self.amortize_static,
            self.retention_factor.to_bits(),
        )
    }
}

/// The optimizer's answer for one `t_constraint`.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalPlacement {
    /// The chosen placement.
    pub placement: Placement,
    /// Objective value: per-task energy (dynamic + amortized static).
    pub energy_per_task: Energy,
    /// Exact task latency of the placement.
    pub task_time: SimDuration,
}

/// Algorithm 1 over one cluster's `[MRAM, SRAM]` spaces, at the full
/// time budget `t = buckets`: the only row Algorithm 2 reads.
///
/// The row carries columns only up to the `k_max` it was built with.
/// The caller caps that at the cluster's capacity and at what fits the
/// time budget; columns beyond it are infeasible, so
/// [`ClusterDp::energy_at`] answers `f64::INFINITY` for them without
/// computing anything.
#[derive(Debug, Clone)]
struct ClusterDp {
    /// `energy[k]`, pJ, for `k` groups; `f64::INFINITY` = infeasible.
    energy: Vec<f64>,
    /// Groups placed in MRAM on the optimal path for `k` groups.
    mram: Vec<u32>,
}

/// An Algorithm 1 solver: `(k_max, buckets, t_bucketed, e_pj, caps)` →
/// the cluster's `t = buckets` row.
type Algorithm1 = fn(usize, usize, [usize; 2], [f64; 2], [usize; 2]) -> ClusterDp;

impl ClusterDp {
    fn energy_at(&self, k: usize) -> f64 {
        self.energy.get(k).copied().unwrap_or(f64::INFINITY)
    }

    fn mram_at(&self, k: usize) -> u32 {
        self.mram.get(k).copied().unwrap_or(0)
    }

    /// Algorithm 1 for one cluster by chain evaluation (module docs):
    /// `energy[k]`, `mram[k]` and `count[k]` hold chain k's current
    /// cell, its SRAM path count included.
    ///
    /// `t_i` in buckets (`≥ 1`), `e_i` in pJ, `cap_i` in groups, each
    /// ordered `[MRAM, SRAM]`.
    fn build(
        k_max: usize,
        buckets: usize,
        t_bucketed: [usize; 2],
        e_pj: [f64; 2],
        caps: [usize; 2],
    ) -> Self {
        let [t_m, t_s] = t_bucketed;
        let [e_m, e_s] = e_pj;
        let [cap_m, cap_s] = caps;
        // Layer 0: `mram_sum[k]` is `e_m` added k times left to right,
        // the order the table DP adds in.
        let mut mram_sum = vec![0.0];
        for k in 1..=k_max.min(cap_m) {
            mram_sum.push(mram_sum[k - 1] + e_m);
        }
        // Chain k's deepest cell is j = min(k, D), D = ⌊buckets/t_s⌋:
        // (buckets − k·t_s, 0) = 0 pJ when k ≤ D, else the MRAM-only
        // cell (buckets − D·t_s, k − D).
        let d = buckets / t_s;
        // Layer 0 holds k groups at time t iff k ≤ limit(t).
        let limit = |t: usize| (mram_sum.len() - 1).min(t / t_m);
        let mut energy = vec![0.0; k_max + 1];
        let mut mram = vec![0u32; k_max + 1];
        let mut count = vec![0u32; k_max + 1];
        let deep = limit(buckets - d * t_s);
        for k in d + 1..=k_max {
            (energy[k], mram[k]) = if k - d <= deep {
                (mram_sum[k - d], (k - d) as u32)
            } else {
                (f64::INFINITY, 0)
            };
        }
        // Walk every chain one level up at a time: level j updates
        // chains k > j at their cell (buckets − j·t_s, k − j), whose
        // MRAM-only skip branch is finite for k − j ≤ limit.
        for j in (0..k_max.min(d)).rev() {
            let split = (j + limit(buckets - j * t_s)).min(k_max);
            let (finite, infinite) = (j + 1..split + 1, split + 1..k_max + 1);
            for (((e, m), c), (&skip_e, skip_m)) in energy[finite.clone()]
                .iter_mut()
                .zip(&mut mram[finite.clone()])
                .zip(&mut count[finite])
                .zip(mram_sum[1..].iter().zip(1u32..))
            {
                climb(e, m, c, e_s, cap_s, skip_e, skip_m);
            }
            for ((e, m), c) in energy[infinite.clone()]
                .iter_mut()
                .zip(&mut mram[infinite.clone()])
                .zip(&mut count[infinite])
            {
                climb(e, m, c, e_s, cap_s, f64::INFINITY, 0);
            }
        }
        ClusterDp { energy, mram }
    }
}

/// One step up an SRAM chain: add one more SRAM group to the cell
/// below (`e`, `m`, `count`) when capacity allows and that is strictly
/// cheaper than the skip branch, else restart from the skip branch.
#[inline(always)]
fn climb(
    e: &mut f64,
    m: &mut u32,
    count: &mut u32,
    e_s: f64,
    cap_s: usize,
    skip_e: f64,
    skip_m: u32,
) {
    let cand = *e + e_s;
    let take = ((*count as usize) < cap_s) & (cand < skip_e);
    *e = if take { cand } else { skip_e };
    *m = if take { *m } else { skip_m };
    *count = if take { *count + 1 } else { 0 };
}

/// The placement optimizer over a [`CostModel`].
#[derive(Debug, Clone)]
pub struct PlacementOptimizer<'a> {
    cost: &'a CostModel,
    config: OptimizerConfig,
}

impl<'a> PlacementOptimizer<'a> {
    /// Creates an optimizer over `cost`.
    pub fn new(cost: &'a CostModel, config: OptimizerConfig) -> Self {
        PlacementOptimizer { cost, config }
    }

    /// Leakage residency of one group in `space` within a task window of
    /// `t_constraint`: volatile SRAM must stay powered for the whole
    /// window, while an MRAM bank is gated except while streaming its
    /// own weights (≈ its per-group processing time).
    fn static_residency(&self, space: StorageSpace, t_constraint: SimDuration) -> SimDuration {
        match space.kind() {
            hhpim_mem::MemKind::Sram => t_constraint.mul_f64(self.config.retention_factor),
            hhpim_mem::MemKind::Mram => self.cost.time_per_group(space).min(t_constraint),
        }
    }

    /// Per-task energy of `placement` under this optimizer's objective
    /// (dynamic + amortized static if enabled).
    pub fn objective(&self, placement: &Placement, t_constraint: SimDuration) -> Energy {
        let mut total = self.cost.dynamic_energy_per_task(placement);
        if self.config.amortize_static {
            for (s, n) in placement.occupied() {
                total += (self.cost.static_power_per_group(s) * n as f64)
                    * self.static_residency(s, t_constraint);
            }
        }
        total
    }

    fn e_pj(&self, space: StorageSpace, t_constraint: SimDuration) -> f64 {
        let mut e = self.cost.energy_per_group(space).as_pj();
        if self.config.amortize_static {
            e += (self.cost.static_power_per_group(space)
                * self.static_residency(space, t_constraint))
            .as_pj();
        }
        e
    }

    /// Minimum-energy placement ignoring the time constraint: fill the
    /// cheapest spaces to capacity (the relaxed optimum; the far-right
    /// plateau of Fig. 6).
    pub fn relaxed_optimal(&self, t_constraint: SimDuration) -> Placement {
        let mut spaces: Vec<StorageSpace> = StorageSpace::ALL
            .into_iter()
            .filter(|&s| self.cost.capacity_groups(s) > 0)
            .collect();
        spaces.sort_by(|&a, &b| {
            self.e_pj(a, t_constraint)
                .partial_cmp(&self.e_pj(b, t_constraint))
                .expect("energies are finite")
        });
        let mut placement = Placement::empty();
        let mut remaining = self.cost.k_groups();
        for s in spaces {
            let take = remaining.min(self.cost.capacity_groups(s));
            placement.set(s, take);
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
        placement
    }

    /// Runs Algorithms 1 + 2 for one `t_constraint`; `None` when no
    /// placement can meet the deadline (the gray region of Fig. 6).
    pub fn optimize(&self, t_constraint: SimDuration) -> Option<OptimalPlacement> {
        self.optimize_with(t_constraint, ClusterDp::build)
    }

    /// [`PlacementOptimizer::optimize`] with the Algorithm 1 solver as a
    /// parameter, so the tests can run the table-DP oracle through the
    /// same Algorithm 2.
    fn optimize_with(
        &self,
        t_constraint: SimDuration,
        algorithm1: Algorithm1,
    ) -> Option<OptimalPlacement> {
        let k = self.cost.k_groups();
        if k == 0 {
            return Some(OptimalPlacement {
                placement: Placement::empty(),
                energy_per_task: Energy::ZERO,
                task_time: SimDuration::ZERO,
            });
        }
        // Shortcut: if the relaxed optimum already meets the deadline it
        // is the answer (min-energy regardless of time).
        let relaxed = self.relaxed_optimal(t_constraint);
        if self.cost.task_time(&relaxed) <= t_constraint && self.cost.is_valid(&relaxed) {
            return Some(OptimalPlacement {
                energy_per_task: self.objective(&relaxed, t_constraint),
                task_time: self.cost.task_time(&relaxed),
                placement: relaxed,
            });
        }
        // Infeasibility: even the fastest placement misses the deadline.
        let fastest = self.cost.fastest_placement();
        if self.cost.task_time(&fastest) > t_constraint {
            return None;
        }

        let buckets = self.config.time_buckets.max(8);
        let bucket_ps = (t_constraint.as_ps() / buckets as u64).max(1);
        // Ceiling quantization: the DP never underestimates a group's
        // time, so every recovered placement is exactly feasible (the
        // boundary pessimism is absorbed by the fastest-placement
        // candidate below).
        let quantize =
            |d: SimDuration| -> usize { (d.as_ps().div_ceil(bucket_ps) as usize).max(1) };

        let build_cluster = |cluster: ClusterClass| -> Option<ClusterDp> {
            if self.cost.arch().modules_in(cluster) == 0 {
                return None;
            }
            let [m, s] = StorageSpace::of_cluster(cluster);
            let t_bucketed = [
                quantize(self.cost.time_per_group(m)),
                quantize(self.cost.time_per_group(s)),
            ];
            let e_pj = [self.e_pj(m, t_constraint), self.e_pj(s, t_constraint)];
            let caps = [self.cost.capacity_groups(m), self.cost.capacity_groups(s)];
            // Columns the cluster can never populate are not computed:
            // beyond its capacity, and beyond what fits the full time
            // budget (every selection costs ≥ min(t_i) buckets). Both
            // caps only remove infeasible columns, so results are
            // bit-identical to the uncapped build.
            let k_cap = k
                .min(caps[0] + caps[1])
                .min(buckets / t_bucketed[0].min(t_bucketed[1]));
            Some(algorithm1(k_cap, buckets, t_bucketed, e_pj, caps))
        };
        let hp = build_cluster(ClusterClass::HighPerformance);
        let lp = build_cluster(ClusterClass::LowPower);

        // Algorithm 2: scan k_hp at the full budget t = buckets.
        let mut best: Option<(f64, Placement)> = None;
        match (&hp, &lp) {
            (Some(hp), Some(lp)) => {
                for k_hp in 0..=k {
                    let k_lp = k - k_hp;
                    let e = hp.energy_at(k_hp) + lp.energy_at(k_lp);
                    if e.is_finite() && best.as_ref().is_none_or(|(b, _)| e < *b) {
                        let hp_m = hp.mram_at(k_hp) as usize;
                        let lp_m = lp.mram_at(k_lp) as usize;
                        let placement =
                            Placement::from_counts([hp_m, k_hp - hp_m, lp_m, k_lp - lp_m]);
                        best = Some((e, placement));
                    }
                }
            }
            (Some(single), None) | (None, Some(single)) => {
                let e = single.energy_at(k);
                if e.is_finite() {
                    let m = single.mram_at(k) as usize;
                    let counts = if hp.is_some() {
                        [m, k - m, 0, 0]
                    } else {
                        [0, 0, m, k - m]
                    };
                    best = Some((e, Placement::from_counts(counts)));
                }
            }
            (None, None) => {}
        }
        // The bucketed DP can be slightly pessimistic at the feasibility
        // boundary (round-up of t_i); the exact-arithmetic fastest
        // placement is always a valid candidate there. Take whichever
        // candidate has the lower objective, validating exact task time.
        let mut candidates: Vec<Placement> = Vec::new();
        if let Some((_, p)) = best {
            candidates.push(p);
        }
        candidates.push(fastest);
        let chosen = candidates
            .into_iter()
            .filter(|p| self.cost.is_valid(p) && self.cost.task_time(p) <= t_constraint)
            .min_by(|a, b| {
                self.objective(a, t_constraint)
                    .partial_cmp(&self.objective(b, t_constraint))
                    .expect("objectives are finite")
            })?;
        Some(OptimalPlacement {
            energy_per_task: self.objective(&chosen, t_constraint),
            task_time: self.cost.task_time(&chosen),
            placement: chosen,
        })
    }

    /// Exhaustive reference optimizer (small `K` only), used by tests to
    /// verify DP optimality.
    ///
    /// # Panics
    ///
    /// Panics if `K > 24` (search space too large).
    pub fn brute_force(&self, t_constraint: SimDuration) -> Option<OptimalPlacement> {
        let k = self.cost.k_groups();
        assert!(k <= 24, "brute force limited to small instances");
        let mut best: Option<OptimalPlacement> = None;
        for a in 0..=k {
            for b in 0..=(k - a) {
                for c in 0..=(k - a - b) {
                    let d = k - a - b - c;
                    let p = Placement::from_counts([a, b, c, d]);
                    if !self.cost.is_valid(&p) {
                        continue;
                    }
                    let time = self.cost.task_time(&p);
                    if time > t_constraint {
                        continue;
                    }
                    let e = self.objective(&p, t_constraint);
                    if best.as_ref().is_none_or(|x| e < x.energy_per_task) {
                        best = Some(OptimalPlacement {
                            placement: p,
                            energy_per_task: e,
                            task_time: time,
                        });
                    }
                }
            }
        }
        best
    }
}

/// The allocation-state look-up table: optimal placements indexed by
/// per-slice task count (the runtime's only decision points), built once
/// at application initialization as §III-B prescribes.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationLut {
    entries: Vec<Option<OptimalPlacement>>,
    t_constraints: Vec<SimDuration>,
}

impl AllocationLut {
    /// Builds the LUT for task counts `1..=max_tasks`, each with its
    /// `t_constraint = usable_slice / n`.
    pub fn build(
        optimizer: &PlacementOptimizer<'_>,
        usable_slice: SimDuration,
        max_tasks: u32,
    ) -> Self {
        let t_constraints: Vec<SimDuration> =
            (1..=max_tasks).map(|n| usable_slice / n as u64).collect();
        AllocationLut {
            entries: t_constraints
                .iter()
                .map(|&t| optimizer.optimize(t))
                .collect(),
            t_constraints,
        }
    }

    /// Placement for `n_tasks` (clamped to the table's range).
    ///
    /// Task counts above the built range clamp onto the largest entry.
    /// When that clamped entry is itself infeasible (its `t_constraint`
    /// sits in the gray region), the lookup falls back to the largest
    /// *feasible* entry below it rather than returning `None`: the
    /// paper's runtime never stalls on a full queue — it serves an
    /// over-full slice with the most load-tolerant placement it knows.
    /// Within the built range an infeasible entry still returns `None`
    /// (the caller decides its own fallback, e.g. the fastest
    /// placement).
    pub fn lookup(&self, n_tasks: u32) -> Option<&OptimalPlacement> {
        if self.entries.is_empty() {
            return None;
        }
        let idx = (n_tasks.max(1) as usize - 1).min(self.entries.len() - 1);
        if self.entries[idx].is_some() || (n_tasks as usize) <= self.entries.len() {
            return self.entries[idx].as_ref();
        }
        self.entries[..idx].iter().rev().find_map(|e| e.as_ref())
    }

    /// The `t_constraint` associated with `n_tasks`.
    pub fn t_constraint(&self, n_tasks: u32) -> Option<SimDuration> {
        if self.t_constraints.is_empty() {
            return None;
        }
        let idx = (n_tasks.max(1) as usize - 1).min(self.t_constraints.len() - 1);
        Some(self.t_constraints[idx])
    }

    /// Number of entries (max task count covered).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the LUT is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The table's entries in task-count order (`entries()[n-1]` is
    /// the answer for `n` tasks; `None` = infeasible). Exposed for the
    /// [`crate::artifact`] serializer; runtime lookups should go
    /// through [`AllocationLut::lookup`], which adds the over-range
    /// clamping and feasibility fallback.
    pub fn entries(&self) -> &[Option<OptimalPlacement>] {
        &self.entries
    }

    /// The per-entry deadline budgets, parallel to
    /// [`AllocationLut::entries`].
    pub fn t_constraints(&self) -> &[SimDuration] {
        &self.t_constraints
    }

    /// Reassembles a LUT from its parts — the inverse of
    /// [`AllocationLut::entries`] / [`AllocationLut::t_constraints`],
    /// used by the [`crate::artifact`] loader. A deserialized table is
    /// indistinguishable from the build that produced it (`PartialEq`
    /// over every entry).
    ///
    /// # Panics
    ///
    /// Panics when the two vectors disagree in length — a LUT always
    /// carries exactly one `t_constraint` per entry.
    pub fn from_parts(
        entries: Vec<Option<OptimalPlacement>>,
        t_constraints: Vec<SimDuration>,
    ) -> Self {
        assert_eq!(
            entries.len(),
            t_constraints.len(),
            "one t_constraint per LUT entry"
        );
        AllocationLut {
            entries,
            t_constraints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::cost::{CostModel, CostParams, WorkloadProfile};
    use hhpim_nn::TinyMlModel;
    use proptest::prelude::*;

    fn small_cost(weight_bytes: usize) -> CostModel {
        // Small K for brute-force comparisons.
        CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile {
                weight_bytes,
                pim_macs: weight_bytes as u64 * 20,
            },
            CostParams {
                group_size: 512,
                ..CostParams::default()
            },
        )
        .unwrap()
    }

    fn effnet_cost() -> CostModel {
        CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile::from_spec(&TinyMlModel::EfficientNetB0.spec()),
            CostParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn relaxed_optimum_is_lp_mram() {
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        // Generous deadline: everything belongs in LP-MRAM (minimal
        // leakage dominates), exactly the paper's most-efficient region.
        let p = opt.relaxed_optimal(SimDuration::from_ms(400));
        assert_eq!(p.get(StorageSpace::LpMram), cost.k_groups());
    }

    #[test]
    fn tight_deadline_forces_sram_mix() {
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let peak = cost.peak_task_time();
        let result = opt.optimize(peak).expect("peak must be feasible");
        // At the peak deadline, SRAM must carry (nearly) everything.
        let sram =
            result.placement.get(StorageSpace::HpSram) + result.placement.get(StorageSpace::LpSram);
        assert!(
            sram as f64 >= 0.9 * cost.k_groups() as f64,
            "placement {} not SRAM-heavy",
            result.placement
        );
        assert!(result.task_time <= peak + SimDuration::from_ms(2));
    }

    #[test]
    fn infeasible_below_peak() {
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let too_tight = cost.peak_task_time().mul_f64(0.5);
        assert!(
            opt.optimize(too_tight).is_none(),
            "gray region must be detected"
        );
    }

    #[test]
    fn energy_decreases_with_relaxed_deadlines() {
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let peak = cost.peak_task_time();
        // Normalized per-task energy must be non-increasing in
        // t_constraint at fixed t... note the objective includes
        // t-amortized leakage so compare *dynamic* energies of chosen
        // placements at increasing deadlines.
        let mut last_dyn = f64::INFINITY;
        for factor in [1.0, 1.5, 2.5, 4.0, 8.0] {
            let r = opt.optimize(peak.mul_f64(factor)).expect("feasible");
            let dyn_e = cost.dynamic_energy_per_task(&r.placement).as_pj();
            // Dynamic energy may rise as weights move to MRAM, but the
            // *objective at its own deadline* must beat keeping the peak
            // placement at that deadline.
            let keep_peak = opt.objective(&cost.fastest_placement(), peak.mul_f64(factor));
            assert!(
                r.energy_per_task.as_pj() <= keep_peak.as_pj() + 1e-6,
                "optimized {} must beat static peak {} at {}x",
                r.energy_per_task,
                keep_peak,
                factor
            );
            last_dyn = last_dyn.min(dyn_e);
        }
    }

    #[test]
    fn dp_matches_brute_force_small() {
        let cost = small_cost(6 * 512);
        let opt = PlacementOptimizer::new(
            &cost,
            OptimizerConfig {
                time_buckets: 800,
                ..OptimizerConfig::default()
            },
        );
        for ms in [1u64, 2, 3, 5, 8, 15, 40] {
            let t = SimDuration::from_ms(ms);
            let dp = opt.optimize(t);
            let bf = opt.brute_force(t);
            match (dp, bf) {
                (None, None) => {}
                (Some(d), Some(b)) => {
                    let rel = (d.energy_per_task.as_pj() - b.energy_per_task.as_pj()).abs()
                        / b.energy_per_task.as_pj().max(1.0);
                    assert!(
                        rel < 0.02,
                        "t={ms}ms: dp {} vs bf {} ({} vs {})",
                        d.energy_per_task,
                        b.energy_per_task,
                        d.placement,
                        b.placement
                    );
                }
                (d, b) => panic!("feasibility mismatch at t={ms}ms: dp={d:?} bf={b:?}"),
            }
        }
    }

    #[test]
    fn lut_lookup_clamps() {
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let slice = cost.peak_task_time() * 10;
        let lut = AllocationLut::build(&opt, slice, 10);
        assert_eq!(lut.len(), 10);
        assert!(lut.lookup(1).is_some());
        assert!(lut.lookup(10).is_some());
        // Beyond the table: clamps to the 10-task entry.
        assert_eq!(
            lut.lookup(25).map(|p| p.placement),
            lut.lookup(10).map(|p| p.placement)
        );
        assert_eq!(lut.t_constraint(10), Some(slice / 10));
    }

    #[test]
    fn lut_above_range_falls_back_to_largest_feasible_entry() {
        // Slice sized so the largest task counts are infeasible (their
        // t_constraint falls below the architectural peak) while small
        // counts remain feasible.
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let slice = cost.peak_task_time() * 4;
        let lut = AllocationLut::build(&opt, slice, 10);
        assert!(lut.lookup(4).is_some(), "4 tasks fit in 4 peak times");
        assert!(
            lut.lookup(10).is_none(),
            "10 tasks cannot fit in 4 peak times"
        );
        // A full queue beyond the table must not stall: it clamps onto
        // the infeasible 10-task entry and then falls back to the
        // largest feasible one.
        let over = lut.lookup(25).expect("over-full queue must not stall");
        let largest_feasible = (1..=10)
            .rev()
            .find_map(|n| lut.lookup(n))
            .expect("some entry is feasible");
        assert_eq!(over.placement, largest_feasible.placement);
    }

    /// The bit-identity oracle: Algorithm 1 as the full 2-D table DP
    /// (`energy[t * (k_max+1) + k]`, both layers), from which only the
    /// `t = buckets` row is kept.
    fn table_dp(
        k_max: usize,
        buckets: usize,
        t_bucketed: [usize; 2],
        e_pj: [f64; 2],
        caps: [usize; 2],
    ) -> ClusterDp {
        let cells = (buckets + 1) * (k_max + 1);
        // Layer i-1 = "no spaces considered": only k = 0 is feasible.
        let mut prev_energy = vec![f64::INFINITY; cells];
        let mut prev_mram = vec![0u32; cells];
        for t in 0..=buckets {
            prev_energy[t * (k_max + 1)] = 0.0;
        }
        let mut energy = prev_energy.clone();
        let mut mram = prev_mram.clone();

        for (i, ((ti, ei), cap)) in t_bucketed.into_iter().zip(e_pj).zip(caps).enumerate() {
            // `count` of space-i selections on the optimal path, used both
            // for path recovery and capacity enforcement.
            let mut count = vec![0u32; cells];
            energy.copy_from_slice(&prev_energy);
            mram.copy_from_slice(&prev_mram);
            for k in 1..=k_max {
                for t in 0..=buckets {
                    let cell = t * (k_max + 1) + k;
                    // Skip branch: dp[i-1][t][k].
                    let mut best = prev_energy[cell];
                    let mut best_count = 0u32;
                    let mut best_mram = prev_mram[cell];
                    // Add-one branch: dp[i][t - ti][k - 1] + ei, guarded
                    // by the time budget and the space capacity.
                    if ti <= t {
                        let pred = (t - ti) * (k_max + 1) + (k - 1);
                        let pred_count = count[pred];
                        if (pred_count as usize) < cap {
                            let cand = energy[pred] + ei;
                            if cand < best {
                                best = cand;
                                best_count = pred_count + 1;
                                best_mram = if i == 0 { mram[pred] + 1 } else { mram[pred] };
                            }
                        }
                    }
                    energy[cell] = best;
                    count[cell] = best_count;
                    mram[cell] = best_mram;
                }
            }
            prev_energy.copy_from_slice(&energy);
            prev_mram.copy_from_slice(&mram);
        }
        let row = buckets * (k_max + 1);
        ClusterDp {
            energy: energy[row..].to_vec(),
            mram: mram[row..].to_vec(),
        }
    }

    /// Compares the chain kernel against [`table_dp`] bit for bit.
    fn assert_chain_matches_table(
        k_max: usize,
        buckets: usize,
        t_bucketed: [usize; 2],
        e_pj: [f64; 2],
        caps: [usize; 2],
    ) {
        let chain = ClusterDp::build(k_max, buckets, t_bucketed, e_pj, caps);
        let table = table_dp(k_max, buckets, t_bucketed, e_pj, caps);
        let bits = |dp: &ClusterDp| dp.energy.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let inputs = format!(
            "k_max {k_max}, buckets {buckets}, t {t_bucketed:?}, e {e_pj:?}, caps {caps:?}"
        );
        assert_eq!(bits(&chain), bits(&table), "energy row: {inputs}");
        assert_eq!(chain.mram, table.mram, "mram row: {inputs}");
    }

    #[test]
    fn chain_kernel_matches_table_oracle_on_edge_cases() {
        // Heterogeneous-PIM: no MRAM.
        assert_chain_matches_table(20, 40, [3, 2], [0.3, 1.1], [0, 64]);
        // No SRAM.
        assert_chain_matches_table(20, 40, [2, 1], [0.3, 1.1], [64, 0]);
        // SRAM slower than the whole budget.
        assert_chain_matches_table(20, 40, [3, 41], [0.3, 1.1], [64, 64]);
        // Equal times, then equal energies (ties keep the skip branch).
        assert_chain_matches_table(25, 50, [2, 2], [0.7, 0.4], [9, 64]);
        assert_chain_matches_table(25, 50, [4, 1], [0.1, 0.1], [9, 64]);
        // k_max = 0.
        assert_chain_matches_table(0, 30, [3, 1], [0.3, 1.1], [5, 5]);
        // Capacities binding on both spaces; 0.1 sums are inexact.
        assert_chain_matches_table(30, 60, [3, 1], [0.1, 0.2], [4, 7]);
        // Single bucket.
        assert_chain_matches_table(5, 1, [1, 1], [0.5, 0.25], [3, 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The chain kernel's row equals the table DP's `t = buckets`
        /// row, over random instances biased toward the boundaries:
        /// empty spaces, slow spaces, equal times and energy ties.
        #[test]
        fn chain_kernel_matches_table_oracle(
            k_max in prop_oneof![Just(0usize), 0usize..12, 0usize..80],
            buckets in prop_oneof![1usize..16, 1usize..160],
            t_bucketed in (1usize..24, prop_oneof![1usize..6, 1usize..200]),
            e_pj in (prop_oneof![Just(0.1), 0.0f64..3.0], prop_oneof![Just(0.1), 0.0f64..3.0]),
            caps in (prop_oneof![Just(0usize), 0usize..10, 0usize..200],
                     prop_oneof![Just(0usize), 0usize..10, 0usize..200]),
            same_t in any::<bool>(),
        ) {
            let t_s = if same_t { t_bucketed.0 } else { t_bucketed.1 };
            assert_chain_matches_table(
                k_max,
                buckets,
                [t_bucketed.0, t_s],
                [e_pj.0, e_pj.1],
                [caps.0, caps.1],
            );
        }

        /// Whole LUTs built through the chain kernel equal LUTs built
        /// through the table oracle, for every architecture and model,
        /// across resolutions, group sizes and objectives.
        #[test]
        fn lut_matches_table_oracle_lut(
            arch in proptest::sample::select(Architecture::ALL.to_vec()),
            model in proptest::sample::select(TinyMlModel::ALL.to_vec()),
            time_buckets in proptest::sample::select(vec![8usize, 37, 97, 160]),
            group_size in proptest::sample::select(vec![256usize, 512, 1024, 2048]),
            amortize_static in any::<bool>(),
            slice_factor in 2u64..12,
        ) {
            let cost = CostModel::new(
                arch.spec(),
                WorkloadProfile::from_spec(&model.spec()),
                CostParams { group_size, ..CostParams::default() },
            )
            .unwrap();
            let opt = PlacementOptimizer::new(
                &cost,
                OptimizerConfig { time_buckets, amortize_static, ..OptimizerConfig::default() },
            );
            let usable = cost.peak_task_time() * slice_factor;
            let lut = AllocationLut::build(&opt, usable, 10);
            let oracle = AllocationLut::from_parts(
                lut.t_constraints().iter().map(|&t| opt.optimize_with(t, table_dp)).collect(),
                lut.t_constraints().to_vec(),
            );
            prop_assert_eq!(lut, oracle);
        }
    }

    #[test]
    fn lut_low_load_prefers_lp_mram_high_load_prefers_sram() {
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let slice = cost.peak_task_time() * 10;
        let lut = AllocationLut::build(&opt, slice, 10);
        let low = lut.lookup(1).expect("1 task feasible");
        let high = lut.lookup(10).expect("10 tasks feasible");
        assert!(
            low.placement.get(StorageSpace::LpMram) > high.placement.get(StorageSpace::LpMram),
            "low {} vs high {}",
            low.placement,
            high.placement
        );
        let sram = |p: &Placement| p.get(StorageSpace::HpSram) + p.get(StorageSpace::LpSram);
        assert!(sram(&high.placement) > sram(&low.placement));
    }

    #[test]
    fn single_cluster_architectures_optimize() {
        for arch in [Architecture::Baseline, Architecture::Hybrid] {
            let cost = CostModel::new(
                arch.spec(),
                WorkloadProfile::from_spec(&TinyMlModel::MobileNetV2.spec()),
                CostParams::default(),
            )
            .unwrap();
            let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
            let r = opt
                .optimize(cost.peak_task_time().mul_f64(2.0))
                .expect("feasible");
            assert!(cost.is_valid(&r.placement), "{arch}: {}", r.placement);
            assert_eq!(r.placement.cluster_total(ClusterClass::LowPower), 0);
        }
    }

    #[test]
    fn objective_includes_static_when_enabled() {
        let cost = effnet_cost();
        let with = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let without = PlacementOptimizer::new(
            &cost,
            OptimizerConfig {
                amortize_static: false,
                ..OptimizerConfig::default()
            },
        );
        let p = Placement::all_in(StorageSpace::LpMram, cost.k_groups());
        let t = SimDuration::from_ms(100);
        assert!(with.objective(&p, t) > without.objective(&p, t));
        assert_eq!(without.objective(&p, t), cost.dynamic_energy_per_task(&p));
    }
}
