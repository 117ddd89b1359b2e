//! Layer-to-PIM compilation: maps quantized model layers onto the
//! cycle-level machine, distributing work across PIM modules exactly as
//! the paper distributes "each layer of a neural network across HP-PIM
//! and LP-PIM modules for parallel computation, with the final output
//! obtained by aggregating results from each module" (§III).
//!
//! Two fidelities coexist, per layer kind:
//!
//! * **Bit-exact heads** — a narrow final linear layer (≤ 255 input
//!   features) lowers via [`compile_linear`]/[`HeadPlan`] into real
//!   INT8 MAC bursts whose accumulators are checked against the
//!   software reference, the functional-verification role of the
//!   paper's FPGA prototype.
//! * **Traffic-accurate schedules** — every other PIM layer
//!   (convolutions, wide linears) lowers into a per-layer MAC *schedule*
//!   ([`CompiledProgram`]): the layer's PIM MACs are striped over the
//!   modules that hold its weights, issuing genuine `ClearAcc`/`Mac`
//!   bursts whose timing and energy come from per-access bank/PE
//!   metering. Operand values are irrelevant to timing and energy (the
//!   machine is data-independent), so schedules carry counts, not
//!   weights.
//!
//! [`CycleBackend`](crate::CycleBackend) executes one
//! [`CompiledProgram`] per inference task, splitting each layer across
//! storage spaces according to the placement currently in effect.

use hhpim_isa::{MemSelect, ModuleMask, PimInstruction};
use hhpim_nn::{Layer, QuantizedModel};
use hhpim_pim::{MachineError, PimMachine};
use std::fmt;

/// Where compiled weights are placed inside each module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightHome {
    /// Non-volatile MRAM (the H-PIM default).
    Mram,
    /// SRAM (the peak-performance choice).
    Sram,
}

impl WeightHome {
    pub(crate) fn mem(self) -> MemSelect {
        match self {
            WeightHome::Mram => MemSelect::Mram,
            WeightHome::Sram => MemSelect::Sram,
        }
    }
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The layer at the given index is not a Linear layer.
    NotLinear {
        /// Offending layer index.
        layer: usize,
    },
    /// The layer has no materialized weights.
    NoWeights {
        /// Offending layer index.
        layer: usize,
    },
    /// A row is too long for a single module pass (> activation region).
    RowTooLong {
        /// Input features required.
        in_features: usize,
    },
    /// The underlying machine rejected a preload or instruction.
    Machine(MachineError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotLinear { layer } => write!(f, "layer {layer} is not linear"),
            CompileError::NoWeights { layer } => write!(f, "layer {layer} has no weights"),
            CompileError::RowTooLong { in_features } => {
                write!(f, "{in_features} input features exceed one module pass")
            }
            CompileError::Machine(e) => write!(f, "machine: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<MachineError> for CompileError {
    fn from(e: MachineError) -> Self {
        CompileError::Machine(e)
    }
}

/// A linear layer lowered onto a PIM machine.
#[derive(Debug, Clone)]
pub struct CompiledLinear {
    /// Which module computes each output neuron (round-robin).
    assignment: Vec<usize>,
    /// Per-neuron i32 bias, applied host-side at aggregation.
    bias: Vec<i32>,
    /// Input feature count (MACs per neuron).
    in_features: usize,
    home: WeightHome,
}

impl CompiledLinear {
    /// Number of output neurons.
    pub fn out_features(&self) -> usize {
        self.assignment.len()
    }

    /// The module computing neuron `o`.
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range.
    pub fn module_of(&self, o: usize) -> usize {
        self.assignment[o]
    }
}

/// Lowers linear layer `layer_idx` of `qm` onto `machine`: weight rows
/// stripe round-robin over all modules in `home`, one row per
/// "wave" per module.
///
/// # Errors
///
/// See [`CompileError`].
pub fn compile_linear(
    qm: &QuantizedModel,
    layer_idx: usize,
    machine: &mut PimMachine,
    home: WeightHome,
) -> Result<CompiledLinear, CompileError> {
    let info = qm
        .model()
        .layers()
        .get(layer_idx)
        .ok_or(CompileError::NotLinear { layer: layer_idx });
    let info = info?;
    let Layer::Linear { out_features } = info.layer else {
        return Err(CompileError::NotLinear { layer: layer_idx });
    };
    let lw = qm
        .layer_weights(layer_idx)
        .ok_or(CompileError::NoWeights { layer: layer_idx })?;
    let (c, h, w) = info.input;
    let in_features = c * h * w;
    if in_features > 255 {
        // A MAC burst carries at most 255 operations; multi-burst rows
        // are possible but the activation region must also fit.
        return Err(CompileError::RowTooLong { in_features });
    }
    let modules = machine.module_count();
    let mut assignment = Vec::with_capacity(out_features);
    for o in 0..out_features {
        let module = o % modules;
        assignment.push(module);
        // Each wave stores its row behind the previous one.
        let wave = o / modules;
        let addr = wave * in_features;
        let row: Vec<u8> = lw.weights[o * in_features..(o + 1) * in_features]
            .iter()
            .map(|&v| v as u8)
            .collect();
        machine.preload(module, home.mem(), addr, &row)?;
    }
    Ok(CompiledLinear {
        assignment,
        bias: lw.bias.clone(),
        in_features,
        home,
    })
}

/// Executes a compiled layer on `machine` for one input vector and
/// returns the raw i32 accumulators (bias applied, no requantization).
///
/// # Errors
///
/// Propagates machine errors.
///
/// # Panics
///
/// Panics if `input` length differs from the compiled `in_features`.
pub fn run_linear(
    machine: &mut PimMachine,
    compiled: &CompiledLinear,
    input: &[i8],
) -> Result<Vec<i32>, CompileError> {
    assert_eq!(input.len(), compiled.in_features, "input length mismatch");
    let modules = machine.module_count();
    let acts: Vec<u8> = input.iter().map(|&v| v as u8).collect();
    for m in 0..modules {
        machine.preload_activations(m, &acts)?;
    }
    let mut outputs = vec![0i32; compiled.out_features()];
    let waves = compiled.out_features().div_ceil(modules);
    for wave in 0..waves {
        let lo = wave * modules;
        let hi = (lo + modules).min(compiled.out_features());
        let mut mask = ModuleMask::empty();
        for o in lo..hi {
            mask = mask.union(ModuleMask::single(compiled.assignment[o] as u8));
        }
        let addr = (wave * compiled.in_features) as u16;
        machine.execute(PimInstruction::ClearAcc { modules: mask })?;
        machine.execute(PimInstruction::Mac {
            modules: mask,
            mem: compiled.home.mem(),
            addr,
            count: compiled.in_features as u8,
        })?;
        machine.execute(PimInstruction::Barrier)?;
        // Aggregate: the host reads each module's accumulator (the
        // paper's "final output obtained by aggregating results").
        for o in lo..hi {
            let acc = machine.module(compiled.assignment[o]).pe().accumulator();
            outputs[o] = acc + compiled.bias[o];
        }
    }
    Ok(outputs)
}

/// How one model layer executes on the cycle machine.
#[derive(Debug, Clone)]
pub enum LayerOp {
    /// Traffic-accurate MAC schedule: `macs_per_task` multiply-
    /// accumulates issued as real bursts, striped across the modules of
    /// whichever spaces hold the weights at execution time.
    Schedule {
        /// PIM MACs this layer contributes per inference task.
        macs_per_task: u64,
    },
    /// Bit-exact classifier head executed through [`HeadPlan::run`].
    Head(HeadPlan),
}

/// One lowered layer of a [`CompiledProgram`].
#[derive(Debug, Clone)]
pub struct CompiledLayer {
    /// Index of the layer in the source model.
    pub layer: usize,
    /// Human-readable layer label (e.g. `"conv3x3 -> 16 (s1 p0 g1)"`).
    pub label: String,
    /// How the layer executes.
    pub op: LayerOp,
}

/// A whole quantized model lowered for per-task execution on the cycle
/// machine: one entry per PIM layer (host-side layers — pooling,
/// activations, residual adds — run outside the machine, as in the
/// paper's prototype).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    layers: Vec<CompiledLayer>,
    scheduled_macs: u64,
}

impl CompiledProgram {
    /// The lowered PIM layers in execution order.
    pub fn layers(&self) -> &[CompiledLayer] {
        &self.layers
    }

    /// Total scheduled (traffic-level) MACs per task, excluding the
    /// bit-exact head.
    pub fn scheduled_macs(&self) -> u64 {
        self.scheduled_macs
    }

    /// The bit-exact head, if the model has one.
    pub fn head(&self) -> Option<&HeadPlan> {
        self.layers.iter().find_map(|l| match &l.op {
            LayerOp::Head(h) => Some(h),
            LayerOp::Schedule { .. } => None,
        })
    }
}

/// Lowers every PIM layer of `qm` into a [`CompiledProgram`].
///
/// `pim_macs_per_task` is the workload profile's per-task PIM MAC count
/// (Table IV `#MAC × PIM-op ratio`); the built model's per-layer MAC
/// counts are scaled so the program's total matches it, keeping cycle
/// and analytic backends on the same MAC basis. The last linear layer
/// with ≤ 255 input features becomes the bit-exact [`HeadPlan`]; all
/// other conv/linear layers become traffic schedules.
///
/// # Errors
///
/// Returns [`CompileError::NotLinear`] if the model has no PIM layer at
/// all.
pub fn compile_model(
    qm: &QuantizedModel,
    pim_macs_per_task: u64,
) -> Result<CompiledProgram, CompileError> {
    let infos = qm.model().layers();
    let pim_layers: Vec<usize> = (0..infos.len())
        .filter(|&i| infos[i].layer.is_pim_layer())
        .collect();
    if pim_layers.is_empty() {
        return Err(CompileError::NotLinear { layer: 0 });
    }
    let head_idx = pim_layers.iter().rev().copied().find(|&i| {
        let (c, h, w) = infos[i].input;
        matches!(infos[i].layer, Layer::Linear { .. }) && (1..=255).contains(&(c * h * w))
    });
    let built_total: u64 = pim_layers.iter().map(|&i| infos[i].macs).sum();
    let scale = pim_macs_per_task as f64 / built_total.max(1) as f64;

    let mut layers = Vec::with_capacity(pim_layers.len());
    let mut scheduled = 0u64;
    for &i in &pim_layers {
        let op = if Some(i) == head_idx {
            LayerOp::Head(lower_head(qm, i)?)
        } else {
            let macs_per_task = (infos[i].macs as f64 * scale).round() as u64;
            scheduled += macs_per_task;
            LayerOp::Schedule { macs_per_task }
        };
        layers.push(CompiledLayer {
            layer: i,
            label: infos[i].layer.to_string(),
            op,
        });
    }
    Ok(CompiledProgram {
        layers,
        scheduled_macs: scheduled,
    })
}

/// A bit-exact classifier head, relocatable between memories: the rows
/// are kept host-side so the head can be re-installed after every
/// re-placement (the runtime's data allocator re-homes the whole
/// network, head included).
#[derive(Debug, Clone)]
pub struct HeadPlan {
    rows: Vec<Vec<u8>>,
    bias: Vec<i32>,
    in_features: usize,
}

impl HeadPlan {
    /// Input feature count (MACs per output neuron).
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output neuron count.
    pub fn out_features(&self) -> usize {
        self.rows.len()
    }

    /// Writes the head's weight rows into `home` of each module in
    /// `modules`, round-robin by neuron (host-side preload, untimed —
    /// the timed bulk movement is the migration traffic itself; the
    /// head is ~1 kB).
    ///
    /// # Errors
    ///
    /// Propagates machine range errors.
    pub fn install(
        &self,
        machine: &mut PimMachine,
        modules: &[usize],
        home: WeightHome,
    ) -> Result<(), CompileError> {
        assert!(!modules.is_empty(), "head needs at least one module");
        for (o, row) in self.rows.iter().enumerate() {
            let module = modules[o % modules.len()];
            let wave = o / modules.len();
            machine.preload(module, home.mem(), wave * self.in_features, row)?;
        }
        Ok(())
    }

    /// Executes the head for one input vector, returning the raw i32
    /// accumulators (bias applied). [`HeadPlan::install`] must have run
    /// for the same `(modules, home)` first.
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    ///
    /// # Panics
    ///
    /// Panics if `input` length differs from `in_features` or `modules`
    /// is empty.
    pub fn run(
        &self,
        machine: &mut PimMachine,
        modules: &[usize],
        home: WeightHome,
        input: &[i8],
    ) -> Result<Vec<i32>, CompileError> {
        assert_eq!(input.len(), self.in_features, "input length mismatch");
        assert!(!modules.is_empty(), "head needs at least one module");
        let acts: Vec<u8> = input.iter().map(|&v| v as u8).collect();
        for &m in modules {
            machine.preload_activations(m, &acts)?;
        }
        let mut outputs = vec![0i32; self.out_features()];
        let waves = self.out_features().div_ceil(modules.len());
        for wave in 0..waves {
            let lo = wave * modules.len();
            let hi = (lo + modules.len()).min(self.out_features());
            let mut mask = ModuleMask::empty();
            for o in lo..hi {
                mask = mask.union(ModuleMask::single(modules[o % modules.len()] as u8));
            }
            machine.execute(PimInstruction::ClearAcc { modules: mask })?;
            machine.execute(PimInstruction::Mac {
                modules: mask,
                mem: home.mem(),
                addr: (wave * self.in_features) as u16,
                count: self.in_features as u8,
            })?;
            machine.execute(PimInstruction::Barrier)?;
            for o in lo..hi {
                let acc = machine
                    .module(modules[o % modules.len()])
                    .pe()
                    .accumulator();
                outputs[o] = acc + self.bias[o];
            }
        }
        Ok(outputs)
    }
}

/// Lowers linear layer `layer_idx` of `qm` into a relocatable
/// [`HeadPlan`].
///
/// # Errors
///
/// See [`CompileError`].
pub fn lower_head(qm: &QuantizedModel, layer_idx: usize) -> Result<HeadPlan, CompileError> {
    let info = qm
        .model()
        .layers()
        .get(layer_idx)
        .ok_or(CompileError::NotLinear { layer: layer_idx })?;
    let Layer::Linear { out_features } = info.layer else {
        return Err(CompileError::NotLinear { layer: layer_idx });
    };
    let lw = qm
        .layer_weights(layer_idx)
        .ok_or(CompileError::NoWeights { layer: layer_idx })?;
    let (c, h, w) = info.input;
    let in_features = c * h * w;
    if in_features > 255 {
        return Err(CompileError::RowTooLong { in_features });
    }
    let rows = (0..out_features)
        .map(|o| {
            lw.weights[o * in_features..(o + 1) * in_features]
                .iter()
                .map(|&v| v as u8)
                .collect()
        })
        .collect();
    Ok(HeadPlan {
        rows,
        bias: lw.bias.clone(),
        in_features,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhpim_nn::Model;
    use hhpim_pim::MachineConfig;

    fn fc_model(inf: usize, outf: usize) -> QuantizedModel {
        let model = Model::new(
            "fc",
            (inf, 1, 1),
            vec![Layer::Linear { out_features: outf }],
        )
        .unwrap();
        QuantizedModel::random(model, 77)
    }

    fn reference(qm: &QuantizedModel, input: &[i8]) -> Vec<i32> {
        let lw = qm.layer_weights(0).unwrap();
        let n = input.len();
        (0..lw.bias.len())
            .map(|o| {
                lw.bias[o]
                    + input
                        .iter()
                        .enumerate()
                        .map(|(j, &a)| lw.weights[o * n + j] as i32 * a as i32)
                        .sum::<i32>()
            })
            .collect()
    }

    #[test]
    fn compiled_layer_matches_reference_across_all_modules() {
        let qm = fc_model(32, 20); // 20 neurons over 8 modules: 3 waves
        let mut machine = PimMachine::new(MachineConfig::default());
        let compiled = compile_linear(&qm, 0, &mut machine, WeightHome::Mram).unwrap();
        let input: Vec<i8> = (0..32).map(|i| ((i * 11) % 63) as i8 - 31).collect();
        let got = run_linear(&mut machine, &compiled, &input).unwrap();
        assert_eq!(got, reference(&qm, &input));
    }

    #[test]
    fn sram_home_gives_same_results_faster() {
        let qm = fc_model(24, 8);
        let input: Vec<i8> = (0..24).map(|i| i as i8 - 12).collect();

        let mut m1 = PimMachine::new(MachineConfig::default());
        let c1 = compile_linear(&qm, 0, &mut m1, WeightHome::Mram).unwrap();
        let r1 = run_linear(&mut m1, &c1, &input).unwrap();
        let t_mram = m1.report().finished_at;

        let mut m2 = PimMachine::new(MachineConfig::default());
        let c2 = compile_linear(&qm, 0, &mut m2, WeightHome::Sram).unwrap();
        let r2 = run_linear(&mut m2, &c2, &input).unwrap();
        let t_sram = m2.report().finished_at;

        assert_eq!(r1, r2, "placement must not change results");
        assert!(
            t_sram < t_mram,
            "SRAM weights must be faster: {t_sram} vs {t_mram}"
        );
    }

    #[test]
    fn round_robin_spreads_neurons() {
        let qm = fc_model(8, 10);
        let mut machine = PimMachine::new(MachineConfig::default());
        let compiled = compile_linear(&qm, 0, &mut machine, WeightHome::Sram).unwrap();
        assert_eq!(compiled.module_of(0), 0);
        assert_eq!(compiled.module_of(7), 7);
        assert_eq!(compiled.module_of(8), 0, "wraps to module 0");
        assert_eq!(compiled.out_features(), 10);
    }

    #[test]
    fn rejects_non_linear_and_long_rows() {
        let model = Model::new("r", (4, 1, 1), vec![Layer::Relu]).unwrap();
        let qm = QuantizedModel::random(model, 1);
        let mut machine = PimMachine::new(MachineConfig::default());
        assert!(matches!(
            compile_linear(&qm, 0, &mut machine, WeightHome::Mram),
            Err(CompileError::NotLinear { layer: 0 })
        ));
        let wide = fc_model(300, 2);
        assert!(matches!(
            compile_linear(&wide, 0, &mut machine, WeightHome::Mram),
            Err(CompileError::RowTooLong { in_features: 300 })
        ));
    }

    #[test]
    fn multiple_inputs_reuse_compiled_weights() {
        let qm = fc_model(16, 6);
        let mut machine = PimMachine::new(MachineConfig::default());
        let compiled = compile_linear(&qm, 0, &mut machine, WeightHome::Mram).unwrap();
        for seed in 0..4i8 {
            let input: Vec<i8> = (0..16).map(|i| (i as i8).wrapping_mul(seed + 1)).collect();
            let got = run_linear(&mut machine, &compiled, &input).unwrap();
            assert_eq!(got, reference(&qm, &input), "seed {seed}");
        }
    }

    #[test]
    fn zoo_classifier_head_runs_on_machine() {
        // The real MobileNetV2-tiny classifier head (88 -> 10) executed
        // on the cycle-level machine, cross-checked with the reference.
        let model = hhpim_nn::zoo::mobilenet_v2_tiny();
        let head_idx = model.layers().len() - 1;
        let qm = QuantizedModel::random(model, 3);
        let (c, h, w) = qm.model().layers()[head_idx].input;
        let in_features = c * h * w;
        let mut machine = PimMachine::new(MachineConfig::default());
        let compiled = compile_linear(&qm, head_idx, &mut machine, WeightHome::Mram).unwrap();
        let input: Vec<i8> = (0..in_features)
            .map(|i| ((i * 29) % 100) as i8 - 50)
            .collect();
        let got = run_linear(&mut machine, &compiled, &input).unwrap();
        let lw = qm.layer_weights(head_idx).unwrap();
        let expect: Vec<i32> = (0..10)
            .map(|o| {
                lw.bias[o]
                    + input
                        .iter()
                        .enumerate()
                        .map(|(j, &a)| lw.weights[o * in_features + j] as i32 * a as i32)
                        .sum::<i32>()
            })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn compile_model_scales_schedule_to_profile_macs() {
        let model = hhpim_nn::TinyMlModel::MobileNetV2;
        let qm = QuantizedModel::random(model.build(), 3);
        let pim_macs = model.spec().pim_macs();
        let program = compile_model(&qm, pim_macs).unwrap();
        assert!(program.head().is_some(), "MobileNet has a narrow head");
        let head_macs = {
            let h = program.head().unwrap();
            (h.in_features() * h.out_features()) as u64
        };
        // Scheduled MACs + (scaled) head MACs land on the profile total
        // within per-layer rounding.
        let total = program.scheduled_macs() + head_macs;
        let rel = (total as f64 - pim_macs as f64).abs() / pim_macs as f64;
        assert!(rel < 0.01, "program {total} vs profile {pim_macs}");
        // Layers come out in model order and are all PIM layers.
        let idxs: Vec<usize> = program.layers().iter().map(|l| l.layer).collect();
        assert!(idxs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn head_plan_matches_reference_and_relocates() {
        let qm = fc_model(32, 10);
        let head = lower_head(&qm, 0).unwrap();
        let input: Vec<i8> = (0..32).map(|i| ((i * 13) % 64) as i8 - 32).collect();
        let expect = reference(&qm, &input);
        let mut machine = PimMachine::new(MachineConfig::default());
        let modules: Vec<usize> = (0..machine.module_count()).collect();
        head.install(&mut machine, &modules, WeightHome::Mram)
            .unwrap();
        let got = head
            .run(&mut machine, &modules, WeightHome::Mram, &input)
            .unwrap();
        assert_eq!(got, expect);
        // Re-home into SRAM on a subset of modules: same results.
        let subset = [0usize, 1, 2, 3];
        head.install(&mut machine, &subset, WeightHome::Sram)
            .unwrap();
        let got2 = head
            .run(&mut machine, &subset, WeightHome::Sram, &input)
            .unwrap();
        assert_eq!(got2, expect, "placement must not change results");
    }

    #[test]
    fn compile_model_rejects_host_only_stacks() {
        let model = Model::new("r", (4, 1, 1), vec![Layer::Relu]).unwrap();
        let qm = QuantizedModel::random(model, 1);
        assert!(matches!(
            compile_model(&qm, 1000),
            Err(CompileError::NotLinear { layer: 0 })
        ));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            CompileError::RowTooLong { in_features: 300 }.to_string(),
            "300 input features exceed one module pass"
        );
        assert!(CompileError::NotLinear { layer: 2 }
            .to_string()
            .contains("layer 2"));
    }
}
