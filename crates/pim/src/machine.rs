//! The full PIM machine: instruction queue, one or two clusters, and
//! the energy/latency report.
//!
//! Global module indices span both clusters: with `n_hp` HP modules and
//! `n_lp` LP modules, mask bit `i < n_hp` selects HP module `i` and bit
//! `n_hp <= i < n_hp+n_lp` selects LP module `i - n_hp`. This matches
//! Table I, where every architecture has 8 modules total.

use crate::cluster::{Cluster, ControllerConfig};
use crate::module::{ModuleConfig, ModuleError, PimModule};
use hhpim_isa::{
    DecodeError, InstructionQueue, MemSelect, ModuleMask, PimInstruction, QueueFullError,
};
use hhpim_mem::{ClusterClass, Energy, EnergyAccumulator, EnergyLedger, MemKind};
use hhpim_sim::{Scalar, SimTime};
use std::fmt;

/// Energy-report category for the machine ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EnergyCat {
    /// Dynamic access energy of a memory type.
    MemDynamic(ClusterClass, MemKind),
    /// Leakage of a memory type.
    MemStatic(ClusterClass, MemKind),
    /// Power-gating wake-up charges of a memory type.
    MemWake(ClusterClass, MemKind),
    /// PE compute energy.
    PeDynamic(ClusterClass),
    /// PE leakage.
    PeStatic(ClusterClass),
    /// Controller issue + leakage energy.
    Controller(ClusterClass),
}

/// Errors surfaced while running a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A queue word failed to decode.
    Decode(DecodeError),
    /// A module rejected an operation (global module index attached).
    Module {
        /// Global module index.
        module: usize,
        /// Underlying error.
        error: ModuleError,
    },
    /// The instruction queue overflowed.
    QueueFull(QueueFullError),
    /// An instruction selected module indices beyond the configuration.
    NoSuchModule {
        /// The offending mask.
        mask: u8,
        /// Total modules configured.
        modules: usize,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Decode(e) => write!(f, "decode error: {e}"),
            MachineError::Module { module, error } => {
                write!(f, "module {module}: {error}")
            }
            MachineError::QueueFull(e) => write!(f, "{e}"),
            MachineError::NoSuchModule { mask, modules } => {
                write!(
                    f,
                    "mask {mask:#010b} selects modules beyond the {modules} configured"
                )
            }
        }
    }
}

impl std::error::Error for MachineError {}

impl From<DecodeError> for MachineError {
    fn from(e: DecodeError) -> Self {
        MachineError::Decode(e)
    }
}

impl From<QueueFullError> for MachineError {
    fn from(e: QueueFullError) -> Self {
        MachineError::QueueFull(e)
    }
}

/// Machine shape: module counts and per-module memory sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of HP-PIM modules.
    pub hp_modules: usize,
    /// Number of LP-PIM modules (0 for homogeneous machines).
    pub lp_modules: usize,
    /// Per-module memory configuration.
    pub module: ModuleConfig,
    /// Controller parameters (shared by both controllers).
    pub controller: ControllerConfig,
    /// Instruction queue depth.
    pub queue_depth: usize,
}

impl Default for MachineConfig {
    /// The paper's HH-PIM: 4 HP + 4 LP modules, 64 kB MRAM + 64 kB SRAM
    /// each (Table I).
    fn default() -> Self {
        MachineConfig {
            hp_modules: 4,
            lp_modules: 4,
            module: ModuleConfig::default(),
            controller: ControllerConfig::default(),
            queue_depth: 1024,
        }
    }
}

/// Allocation-free snapshot of the machine's observable totals, for
/// tight replay loops that only need deltas between instants.
///
/// [`PimMachine::probe`] performs the same static-energy accrual and
/// the same per-module, then per-category f64 additions as
/// [`PimMachine::report`], so `total` is bit-identical to
/// `report().total_energy()` — without building a ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProbe {
    /// Total energy across every category, bit-identical to
    /// `report().total_energy()`.
    pub total: Energy,
    /// MAC operations retired across all PEs.
    pub macs: u64,
    /// Dynamic memory energy indexed `[class as usize][kind as usize]`;
    /// `None` where `report()` records no such category.
    mem_dynamic: [[Option<Energy>; 2]; 2],
}

impl MachineProbe {
    /// Dynamic access energy of one memory technology in one cluster,
    /// bit-identical to `report().energy.get(EnergyCat::MemDynamic(class,
    /// kind))`; `None` exactly when the report's ledger lacks that
    /// category (no such cluster, or an SRAM-only cluster's MRAM).
    pub fn mem_dynamic(&self, class: ClusterClass, kind: MemKind) -> Option<Energy> {
        self.mem_dynamic[class as usize][kind as usize]
    }
}

/// Lanes per row of an [`EnergyView`]: one per module (the ISA
/// addresses at most 8).
const LANES: usize = 8;
/// Per-module accumulator rows of an [`EnergyView`] (the controller
/// rows follow).
const MODULE_ROWS: usize = 8;
/// Per-cluster sums of [`PimMachine::fold_sums`]: the six memory
/// categories, PE dynamic, PE static and the controller.
const CLUSTER_SUMS: usize = MODULE_ROWS + 1;

/// Number of slots in an [`EnergyView`].
pub const ENERGY_SLOTS: usize = (MODULE_ROWS + 2) * LANES;

/// A flat copy of every energy accumulator of a [`PimMachine`], the
/// view [`PimMachine::probe`] folds its total from.
///
/// The view has ten rows of eight lanes; slot `8k + i` is accumulator
/// `k` of lane `i`. Rows `0..8` hold, for every global module `i`: SRAM
/// dynamic, MRAM dynamic, SRAM static, MRAM static, SRAM wake, MRAM
/// wake, PE dynamic and PE static energy (MRAM rows stay zero on
/// SRAM-only modules). Rows 8 and 9 hold the controllers' dynamic and
/// static energy, lane `i` being cluster class `i`. A row keeps one
/// accumulator of a cluster's modules contiguous, so memoized replay
/// can apply one addend to all of them as a slice. It applies recorded
/// addends to a view, folds it with [`PimMachine::fold_total`] where the
/// machine would probe, and writes it back with
/// [`PimMachine::set_energy_view`].
///
/// Slots hold picojoules as plain `f64` — exactly the value inside each
/// [`Energy`], whose arithmetic is plain `f64` arithmetic — so folding
/// and replaying a view costs no conversion per addition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyView(pub [f64; ENERGY_SLOTS]);

/// Outcome of [`PimMachine::run_program`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Instant the last operation retired.
    pub finished_at: SimTime,
    /// Per-category energy breakdown.
    pub energy: EnergyLedger<EnergyCat>,
    /// Instructions executed.
    pub instructions: u64,
    /// MAC operations retired across all PEs.
    pub macs: u64,
}

impl RunReport {
    /// Total energy across all categories.
    pub fn total_energy(&self) -> Energy {
        self.energy.total()
    }
}

/// A complete PIM machine (see module docs).
///
/// # Examples
///
/// ```
/// use hhpim_pim::{PimMachine, MachineConfig};
/// use hhpim_isa::{assemble, MemSelect};
///
/// let mut machine = PimMachine::new(MachineConfig::default());
/// machine.preload(0, MemSelect::Mram, 0, &[2, 3]).unwrap();
/// machine.preload_activations(0, &[10, 10]).unwrap();
/// let program = assemble("
///     clr m0
///     mac m0 mram @0 x2
///     barrier
///     halt
/// ").unwrap();
/// let report = machine.run_program(&program).unwrap();
/// assert_eq!(machine.module(0).pe().accumulator(), 50);
/// assert!(report.total_energy().as_pj() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PimMachine {
    config: MachineConfig,
    hp: Option<Cluster>,
    lp: Option<Cluster>,
    queue: InstructionQueue,
    now: SimTime,
    halted: bool,
    instructions: u64,
}

impl PimMachine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if both module counts are zero or if more than 8 total
    /// modules are requested (the ISA's mask width).
    pub fn new(config: MachineConfig) -> Self {
        let total = config.hp_modules + config.lp_modules;
        assert!(total > 0, "machine needs at least one module");
        assert!(total <= 8, "ISA module mask addresses at most 8 modules");
        let hp = (config.hp_modules > 0).then(|| {
            Cluster::new(
                ClusterClass::HighPerformance,
                config.hp_modules,
                config.module,
                config.controller,
            )
        });
        let lp = (config.lp_modules > 0).then(|| {
            Cluster::new(
                ClusterClass::LowPower,
                config.lp_modules,
                config.module,
                config.controller,
            )
        });
        PimMachine {
            config,
            hp,
            lp,
            queue: InstructionQueue::new(config.queue_depth),
            now: SimTime::ZERO,
            halted: false,
            instructions: 0,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Total number of modules.
    pub fn module_count(&self) -> usize {
        self.config.hp_modules + self.config.lp_modules
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether a `halt` has been executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Advances the machine clock to `t` without dispatching work.
    ///
    /// Static energy accrues across the idle span (respecting each
    /// bank's gating state) the next time the machine reports. Times
    /// in the past are ignored, so callers may pass slice boundaries
    /// unconditionally even when work overran them.
    #[inline]
    pub fn idle_until(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Counts one executed instruction without dispatching work — the
    /// timing-graph replay issues controller/module operations itself
    /// (through [`Cluster::issue`] and the resolved module primitives)
    /// and charges the machine-level counter through this hook, exactly
    /// as [`PimMachine::execute`]/[`PimMachine::mac_stream`] would.
    #[inline]
    pub fn note_instruction(&mut self) {
        self.instructions += 1;
    }

    /// Shared access to a cluster, `None` when the machine has no
    /// modules of that class.
    #[inline]
    pub fn cluster(&self, class: ClusterClass) -> Option<&Cluster> {
        match class {
            ClusterClass::HighPerformance => self.hp.as_ref(),
            ClusterClass::LowPower => self.lp.as_ref(),
        }
    }

    /// Exclusive access to a cluster, `None` when the machine has no
    /// modules of that class. Lowered timing-graph replay drives
    /// dispatch through this handle ([`Cluster::issue`] +
    /// [`Cluster::module_mut`]) instead of the interpretive
    /// mask-splitting path.
    #[inline]
    pub fn cluster_mut(&mut self, class: ClusterClass) -> Option<&mut Cluster> {
        match class {
            ClusterClass::HighPerformance => self.hp.as_mut(),
            ClusterClass::LowPower => self.lp.as_mut(),
        }
    }

    fn locate(&self, global: usize) -> (ClusterClass, usize) {
        if global < self.config.hp_modules {
            (ClusterClass::HighPerformance, global)
        } else {
            (ClusterClass::LowPower, global - self.config.hp_modules)
        }
    }

    /// Shared access to a module by global index.
    ///
    /// # Panics
    ///
    /// Panics if `global` is out of range.
    pub fn module(&self, global: usize) -> &PimModule {
        assert!(global < self.module_count(), "module index out of range");
        let (class, local) = self.locate(global);
        match class {
            ClusterClass::HighPerformance => self.hp.as_ref().expect("hp exists").module(local),
            ClusterClass::LowPower => self.lp.as_ref().expect("lp exists").module(local),
        }
    }

    /// Exclusive access to a module by global index.
    ///
    /// # Panics
    ///
    /// Panics if `global` is out of range.
    pub fn module_mut(&mut self, global: usize) -> &mut PimModule {
        assert!(global < self.module_count(), "module index out of range");
        let (class, local) = self.locate(global);
        match class {
            ClusterClass::HighPerformance => self.hp.as_mut().expect("hp exists").module_mut(local),
            ClusterClass::LowPower => self.lp.as_mut().expect("lp exists").module_mut(local),
        }
    }

    /// Exclusive access to two distinct modules at once (a split
    /// borrow across or within clusters).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `a == b`.
    fn module_pair_mut(&mut self, a: usize, b: usize) -> (&mut PimModule, &mut PimModule) {
        assert_ne!(a, b, "module pair must be distinct");
        let hp = self
            .hp
            .as_mut()
            .map(Cluster::modules_mut)
            .unwrap_or_default();
        let lp = self
            .lp
            .as_mut()
            .map(Cluster::modules_mut)
            .unwrap_or_default();
        // Global indices run over the HP modules, then the LP modules.
        let mut modules = hp.iter_mut().chain(lp.iter_mut());
        let (lo, hi) = (a.min(b), a.max(b));
        let first = modules.nth(lo).expect("module index out of range");
        let second = modules.nth(hi - lo - 1).expect("module index out of range");
        if a < b {
            (first, second)
        } else {
            (second, first)
        }
    }

    /// Copies `count` bytes at `addr` from module `src`'s `src_mem`
    /// bank into module `dst`'s `dst_mem` bank, dispatched at the
    /// current time: exactly [`PimModule::read_words`] on the source
    /// followed by [`PimModule::write_words`] at the read's completion
    /// (same burst timing, energy, occupancy and bytes), without
    /// staging the payload in a heap buffer. Returns the write's
    /// completion instant.
    ///
    /// # Errors
    ///
    /// Module errors carry the global index of the module that raised
    /// them (the source for the read burst, the destination for the
    /// write burst).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `src == dst`.
    pub fn copy_words(
        &mut self,
        src: usize,
        src_mem: MemSelect,
        dst: usize,
        dst_mem: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<SimTime, MachineError> {
        let at = self.now;
        let (from, to) = self.module_pair_mut(src, dst);
        let (read_done, bytes) = from
            .read_burst(at, src_mem, addr, count)
            .map_err(|error| MachineError::Module { module: src, error })?;
        to.write_words(read_done, dst_mem, addr, bytes)
            .map_err(|error| MachineError::Module { module: dst, error })
    }

    /// Host-side preload of weights into a module bank.
    ///
    /// # Errors
    ///
    /// Propagates module range errors.
    pub fn preload(
        &mut self,
        global: usize,
        mem: MemSelect,
        addr: usize,
        bytes: &[u8],
    ) -> Result<(), MachineError> {
        self.module_mut(global)
            .preload(mem, addr, bytes)
            .map_err(|error| MachineError::Module {
                module: global,
                error,
            })
    }

    /// Host-side preload of activations into a module's SRAM activation
    /// region.
    ///
    /// # Errors
    ///
    /// Propagates module range errors.
    pub fn preload_activations(&mut self, global: usize, bytes: &[u8]) -> Result<(), MachineError> {
        let act_base = self.config.module.act_base;
        self.preload(global, MemSelect::Sram, act_base, bytes)
    }

    fn split_mask(&self, mask: ModuleMask) -> Result<(u8, u8), MachineError> {
        let bits = mask.bits();
        let total = self.module_count();
        if total < 8 && bits >> total != 0 {
            return Err(MachineError::NoSuchModule {
                mask: bits,
                modules: total,
            });
        }
        let hp = self.config.hp_modules;
        let hp_bits = bits & (((1u16 << hp) - 1) as u8);
        let lp_bits = if hp >= 8 { 0 } else { bits >> hp };
        Ok((hp_bits, lp_bits))
    }

    fn module_offset(&self, class: ClusterClass) -> usize {
        match class {
            ClusterClass::HighPerformance => 0,
            ClusterClass::LowPower => self.config.hp_modules,
        }
    }

    fn run_on_clusters<F>(&mut self, mask: ModuleMask, mut op: F) -> Result<SimTime, MachineError>
    where
        F: FnMut(&mut PimModule, SimTime) -> Result<SimTime, ModuleError>,
    {
        let (hp_bits, lp_bits) = self.split_mask(mask)?;
        let now = self.now;
        let mut latest = now;
        if hp_bits != 0 {
            let c = self.hp.as_mut().ok_or(MachineError::NoSuchModule {
                mask: mask.bits(),
                modules: 0,
            })?;
            let done = c
                .for_selected(now, hp_bits, &mut op)
                .map_err(|(local, error)| MachineError::Module {
                    module: local,
                    error,
                })?;
            latest = latest.max(done);
        }
        if lp_bits != 0 {
            let offset = self.module_offset(ClusterClass::LowPower);
            let c = self.lp.as_mut().ok_or(MachineError::NoSuchModule {
                mask: mask.bits(),
                modules: offset,
            })?;
            let done = c
                .for_selected(now, lp_bits, &mut op)
                .map_err(|(local, error)| MachineError::Module {
                    module: offset + local,
                    error,
                })?;
            latest = latest.max(done);
        }
        Ok(latest)
    }

    /// Executes one instruction immediately (bypassing the queue).
    ///
    /// The machine clock only advances on `Barrier`/`Halt`; other
    /// instructions dispatch at the current time and retire in the
    /// background via per-module `free_at`, mirroring the pipelined
    /// controller.
    ///
    /// # Errors
    ///
    /// Propagates decode, routing and module errors.
    pub fn execute(&mut self, inst: PimInstruction) -> Result<(), MachineError> {
        use PimInstruction::*;
        self.instructions += 1;
        match inst {
            Mac {
                modules,
                mem,
                addr,
                count,
            } => {
                self.run_on_clusters(modules, |m, at| {
                    m.mac(at, mem, addr as usize, count as usize)
                })?;
            }
            WriteBack { modules, mem, addr } => {
                self.run_on_clusters(modules, |m, at| m.write_back(at, mem, addr as usize))?;
            }
            ClearAcc { modules } => {
                self.run_on_clusters(modules, |m, at| {
                    m.clear_acc();
                    Ok(at)
                })?;
            }
            MoveIntra {
                modules,
                mem,
                addr,
                count,
            } => {
                self.run_on_clusters(modules, |m, at| {
                    m.move_intra(at, mem, addr as usize, count as usize)
                })?;
            }
            MoveInter {
                modules,
                mem,
                addr,
                count,
            } => {
                self.move_inter(modules, mem, addr as usize, count as usize)?;
            }
            LoadExt {
                modules,
                mem,
                addr,
                count,
            } => {
                // External data arrives over the host interface; the
                // machine charges the write burst into the bank.
                self.run_on_clusters(modules, |m, at| {
                    let zeros = vec![0u8; count as usize];
                    m.write_words(at, mem, addr as usize, &zeros)
                })?;
            }
            StoreExt {
                modules,
                mem,
                addr,
                count,
            } => {
                self.run_on_clusters(modules, |m, at| {
                    m.read_words(at, mem, addr as usize, count as usize)
                        .map(|(t, _)| t)
                })?;
            }
            GateOff { modules, mem } => {
                self.run_on_clusters(modules, |m, at| m.set_gated(at, mem, true))?;
            }
            GateOn { modules, mem } => {
                self.run_on_clusters(modules, |m, at| m.set_gated(at, mem, false))?;
            }
            Barrier => {
                let mut t = self.now;
                if let Some(c) = &self.hp {
                    t = t.max(c.all_free_at());
                }
                if let Some(c) = &self.lp {
                    t = t.max(c.all_free_at());
                }
                self.now = t;
            }
            Halt => {
                self.halted = true;
            }
            Nop => {}
        }
        Ok(())
    }

    /// Streams `count` traffic-level MACs on every module selected by
    /// `mask` (weights from `mem` at `addr`, activations from SRAM),
    /// charging controller issue overhead like any other instruction.
    /// The machine clock advances on the next `Barrier`, as with
    /// [`PimInstruction::Mac`]; unlike the ISA path, `count` is not
    /// limited to 255 and the PE accumulators are untouched — this is
    /// the execution primitive for compiled multi-layer schedules.
    ///
    /// # Errors
    ///
    /// Propagates routing and module errors.
    pub fn mac_stream(
        &mut self,
        mask: ModuleMask,
        mem: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<(), MachineError> {
        self.instructions += 1;
        self.run_on_clusters(mask, |m, at| m.mac_stream(at, mem, addr, count))?;
        Ok(())
    }

    /// Inter-cluster transfer through the Data Allocator: reads from the
    /// selected source modules (whichever cluster each belongs to),
    /// buffers chunks, and writes them into the *opposite* cluster.
    fn move_inter(
        &mut self,
        modules: ModuleMask,
        mem: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<(), MachineError> {
        let (hp_bits, lp_bits) = self.split_mask(modules)?;
        let now = self.now;
        // HP sources → LP destinations.
        if hp_bits != 0 {
            let (Some(hp), Some(lp)) = (self.hp.as_mut(), self.lp.as_mut()) else {
                return Err(MachineError::NoSuchModule {
                    mask: modules.bits(),
                    modules: 0,
                });
            };
            let chunks =
                hp.export_chunks(now, hp_bits, mem, addr, count)
                    .map_err(|(local, error)| MachineError::Module {
                        module: local,
                        error,
                    })?;
            let offset = self.config.hp_modules;
            lp.import_chunks(&chunks, mem)
                .map_err(|(local, error)| MachineError::Module {
                    module: offset + local,
                    error,
                })?;
        }
        // LP sources → HP destinations.
        if lp_bits != 0 {
            let (Some(hp), Some(lp)) = (self.hp.as_mut(), self.lp.as_mut()) else {
                return Err(MachineError::NoSuchModule {
                    mask: modules.bits(),
                    modules: 0,
                });
            };
            let offset = self.config.hp_modules;
            let chunks =
                lp.export_chunks(now, lp_bits, mem, addr, count)
                    .map_err(|(local, error)| MachineError::Module {
                        module: offset + local,
                        error,
                    })?;
            hp.import_chunks(&chunks, mem)
                .map_err(|(local, error)| MachineError::Module {
                    module: local,
                    error,
                })?;
        }
        Ok(())
    }

    /// Enqueues and runs a program until the queue drains or `halt`.
    ///
    /// # Errors
    ///
    /// Propagates queue, decode and module errors.
    pub fn run_program(&mut self, program: &[PimInstruction]) -> Result<RunReport, MachineError> {
        for &inst in program {
            self.queue.push(inst)?;
        }
        while !self.halted {
            let Some(decoded) = self.queue.pop() else {
                break;
            };
            self.execute(decoded?)?;
        }
        // Drain: wait for everything in flight, then accrue statics.
        self.execute(PimInstruction::Barrier)?;
        Ok(self.report())
    }

    /// Builds the current energy/latency report (accruing static energy
    /// up to `now`).
    pub fn report(&mut self) -> RunReport {
        let now = self.now;
        if let Some(c) = self.hp.as_mut() {
            c.advance_to(now);
        }
        if let Some(c) = self.lp.as_mut() {
            c.advance_to(now);
        }
        let mut energy = EnergyLedger::new();
        let mut macs = 0;
        for cluster in [self.hp.as_ref(), self.lp.as_ref()].into_iter().flatten() {
            let class = cluster.class();
            for m in cluster.modules() {
                if m.has_mram() {
                    let b = m.bank(MemSelect::Mram);
                    energy.add(
                        EnergyCat::MemDynamic(class, MemKind::Mram),
                        b.dynamic_energy(),
                    );
                    energy.add(
                        EnergyCat::MemStatic(class, MemKind::Mram),
                        b.static_energy(),
                    );
                    energy.add(EnergyCat::MemWake(class, MemKind::Mram), b.wake_energy());
                }
                let s = m.bank(MemSelect::Sram);
                energy.add(
                    EnergyCat::MemDynamic(class, MemKind::Sram),
                    s.dynamic_energy(),
                );
                energy.add(
                    EnergyCat::MemStatic(class, MemKind::Sram),
                    s.static_energy(),
                );
                energy.add(EnergyCat::MemWake(class, MemKind::Sram), s.wake_energy());
                energy.add(EnergyCat::PeDynamic(class), m.pe().dynamic_energy());
                energy.add(EnergyCat::PeStatic(class), m.pe().static_energy());
                macs += m.pe().macs_retired();
            }
            energy.add(
                EnergyCat::Controller(class),
                cluster.controller_dynamic_energy() + cluster.controller_static_energy(),
            );
        }
        RunReport {
            finished_at: now,
            energy,
            instructions: self.instructions,
            macs,
        }
    }

    /// Snapshots total energy and retired MACs without allocating.
    ///
    /// Performs [`PimMachine::report`]'s static-energy accrual, then
    /// folds the [`EnergyView`]: each ledger category summed over its
    /// modules in order, the categories in the ledger's key order — so
    /// `total` is bit-identical to `report().total_energy()` while the
    /// hot replay loop pays neither `BTreeMap` nor `Vec`.
    pub fn probe(&mut self) -> MachineProbe {
        let now = self.now;
        if let Some(c) = self.hp.as_mut() {
            c.advance_to(now);
        }
        if let Some(c) = self.lp.as_mut() {
            c.advance_to(now);
        }
        let sums = self.fold_sums(&self.energy_view());
        let mut mem_dynamic = [[None; 2]; 2];
        for (ci, present) in self.clusters_present().into_iter().enumerate() {
            if present {
                mem_dynamic[ci][0] = Some(Energy::from_pj(sums[ci][0]));
                if self.has_mram() {
                    mem_dynamic[ci][1] = Some(Energy::from_pj(sums[ci][1]));
                }
            }
        }
        let mut macs = 0;
        for cluster in [self.hp.as_ref(), self.lp.as_ref()].into_iter().flatten() {
            for m in cluster.modules() {
                macs += m.pe().macs_retired();
            }
        }
        MachineProbe {
            total: Energy::from_pj(self.total_of(&sums)),
            macs,
            mem_dynamic,
        }
    }

    /// The probe total of `view`, bit-identical to
    /// `report().total_energy()` on a machine whose accumulators hold
    /// `view` and have accrued statics up to `now`.
    #[inline]
    pub fn fold_total(&self, view: &EnergyView) -> Energy {
        Energy::from_pj(self.total_of(&self.fold_sums(view)))
    }

    /// Whether the HP and LP clusters exist, indexed by class.
    fn clusters_present(&self) -> [bool; 2] {
        [self.config.hp_modules > 0, self.config.lp_modules > 0]
    }

    fn has_mram(&self) -> bool {
        self.config.module.mram_bytes > 0
    }

    /// Per cluster class, every ledger category summed over the
    /// cluster's modules in module order (the controller's dynamic
    /// plus static energy as one term), as `report()` accumulates them.
    #[inline]
    fn fold_sums(&self, view: &EnergyView) -> [[f64; CLUSTER_SUMS]; 2] {
        let hp = self.config.hp_modules;
        let lanes = [0..hp, hp..hp + self.config.lp_modules];
        let mut sums = [[0.0; CLUSTER_SUMS]; 2];
        for (ci, lanes) in lanes.into_iter().enumerate() {
            // Modules outer, categories inner: eight independent sums,
            // each still taken over the cluster's modules in order.
            for lane in lanes {
                for row in 0..MODULE_ROWS {
                    sums[ci][row] += view.0[row * LANES + lane];
                }
            }
            let ctrl = MODULE_ROWS * LANES + ci;
            sums[ci][MODULE_ROWS] += view.0[ctrl] + view.0[ctrl + LANES];
        }
        sums
    }

    /// Folds per-cluster category sums into the total exactly as
    /// `EnergyLedger::total` walks its keys (HP before LP, SRAM before
    /// MRAM), skipping the categories `report()` never inserts.
    #[inline]
    fn total_of(&self, sums: &[[f64; CLUSTER_SUMS]; 2]) -> f64 {
        let present = self.clusters_present();
        let mram = self.has_mram();
        let mut total = 0.0;
        for cat in [0, 2, 4] {
            for ci in 0..2 {
                if present[ci] {
                    total += sums[ci][cat];
                    if mram {
                        total += sums[ci][cat + 1];
                    }
                }
            }
        }
        for cat in MODULE_ROWS - 2..CLUSTER_SUMS {
            for ci in 0..2 {
                if present[ci] {
                    total += sums[ci][cat];
                }
            }
        }
        total
    }

    /// Calls `f` with every energy accumulator and its [`EnergyView`]
    /// slot.
    #[inline]
    fn for_each_accumulator(&mut self, mut f: impl FnMut(usize, &mut EnergyAccumulator)) {
        let hp = self.config.hp_modules;
        for (cluster, offset) in [(self.hp.as_mut(), 0), (self.lp.as_mut(), hp)] {
            let Some(cluster) = cluster else {
                continue;
            };
            let ctrl = MODULE_ROWS * LANES + cluster.class() as usize;
            for (local, m) in cluster.modules_mut().iter_mut().enumerate() {
                for (row, acc) in m.accumulators_mut().into_iter().enumerate() {
                    if let Some(acc) = acc {
                        f(row * LANES + offset + local, acc);
                    }
                }
            }
            let [dynamic, stat] = cluster.controller_accumulators_mut();
            f(ctrl, dynamic);
            f(ctrl + LANES, stat);
        }
    }

    /// Copies every energy accumulator into a view: the totals
    /// [`Self::set_energy_view`] writes, slot for slot.
    #[inline]
    pub fn energy_view(&self) -> EnergyView {
        let mut view = EnergyView([0.0; ENERGY_SLOTS]);
        let hp = self.config.hp_modules;
        for (cluster, offset) in [(self.hp.as_ref(), 0), (self.lp.as_ref(), hp)] {
            let Some(cluster) = cluster else {
                continue;
            };
            let ctrl = MODULE_ROWS * LANES + cluster.class() as usize;
            for (local, m) in cluster.modules().enumerate() {
                let energies = m.energy_row();
                for row in 0..MODULE_ROWS {
                    view.0[row * LANES + offset + local] = energies[row].as_pj();
                }
            }
            view.0[ctrl] = cluster.controller_dynamic_energy().as_pj();
            view.0[ctrl + LANES] = cluster.controller_static_energy().as_pj();
        }
        view
    }

    /// Overwrites every energy accumulator from a view.
    #[inline]
    pub fn set_energy_view(&mut self, view: &EnergyView) {
        self.for_each_accumulator(|slot, acc| acc.set(Energy::from_pj(view.0[slot])));
    }

    /// Switches addend recording on or off on every energy accumulator
    /// (see [`EnergyAccumulator`]).
    pub fn set_energy_recording(&mut self, on: bool) {
        self.for_each_accumulator(|_, acc| acc.set_recording(on));
    }

    /// Hands every accumulator's addends recorded since the last drain
    /// to `f` with its [`EnergyView`] slot (slots without addends are
    /// skipped), then empties the records.
    pub fn drain_energy_record(&mut self, mut f: impl FnMut(usize, &[Energy])) {
        self.for_each_accumulator(|slot, acc| {
            if !acc.recorded().is_empty() {
                f(slot, acc.recorded());
                acc.clear_recorded();
            }
        });
    }

    /// Walks the machine's timing state and counters: the HP cluster,
    /// the LP cluster (see [`Cluster::visit_scalars`]), then the clock
    /// (as a [`Scalar::Free`]) and the executed-instruction counter.
    /// Energy lives in the [`EnergyView`]; memory contents, occupancy,
    /// gating, accumulators and the instruction queue are not walked.
    pub fn visit_scalars(&mut self, f: &mut impl FnMut(Scalar<'_>)) {
        for c in [self.hp.as_mut(), self.lp.as_mut()].into_iter().flatten() {
            c.visit_scalars(f);
        }
        f(Scalar::Free(&mut self.now));
        f(Scalar::Count(&mut self.instructions));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhpim_isa::assemble;

    fn machine() -> PimMachine {
        PimMachine::new(MachineConfig::default())
    }

    #[test]
    fn runs_simple_program() {
        let mut m = machine();
        m.preload(0, MemSelect::Mram, 0, &[1, 2, 3, 4]).unwrap();
        m.preload_activations(0, &[1, 1, 1, 1]).unwrap();
        let prog = assemble("clr m0\nmac m0 mram @0 x4\nbarrier\nhalt").unwrap();
        let report = m.run_program(&prog).unwrap();
        assert_eq!(m.module(0).pe().accumulator(), 10);
        assert_eq!(report.macs, 4);
        assert!(report.finished_at > SimTime::ZERO);
        assert!(m.is_halted());
    }

    #[test]
    fn mask_routes_across_clusters() {
        let mut m = machine();
        for g in [0usize, 5] {
            m.preload(g, MemSelect::Sram, 0, &[2, 2]).unwrap();
            m.preload_activations(g, &[3, 3]).unwrap();
        }
        // m0 is HP module 0; m5 is LP module 1.
        let prog = assemble("clr m0,m5\nmac m0,m5 sram @0 x2\nbarrier\nhalt").unwrap();
        m.run_program(&prog).unwrap();
        assert_eq!(m.module(0).pe().accumulator(), 12);
        assert_eq!(m.module(5).pe().accumulator(), 12);
        assert_eq!(m.module(1).pe().accumulator(), 0);
    }

    #[test]
    fn hp_finishes_before_lp() {
        let mut m = machine();
        m.preload(0, MemSelect::Sram, 0, &[1u8; 64]).unwrap();
        m.preload(4, MemSelect::Sram, 0, &[1u8; 64]).unwrap();
        m.execute(PimInstruction::Mac {
            modules: ModuleMask::single(0),
            mem: MemSelect::Sram,
            addr: 0,
            count: 64,
        })
        .unwrap();
        m.execute(PimInstruction::Mac {
            modules: ModuleMask::single(4),
            mem: MemSelect::Sram,
            addr: 0,
            count: 64,
        })
        .unwrap();
        let hp_done = m.module(0).free_at();
        let lp_done = m.module(4).free_at();
        assert!(hp_done < lp_done, "HP {hp_done} should beat LP {lp_done}");
    }

    #[test]
    fn mac_stream_matches_mac_timing_and_energy() {
        // The traffic-level stream must meter exactly like the ISA MAC
        // path for the same operation count.
        let mut a = machine();
        a.preload(0, MemSelect::Mram, 0, &[1u8; 128]).unwrap();
        a.preload_activations(0, &[1u8; 128]).unwrap();
        a.execute(PimInstruction::Mac {
            modules: ModuleMask::single(0),
            mem: MemSelect::Mram,
            addr: 0,
            count: 128,
        })
        .unwrap();
        a.execute(PimInstruction::Barrier).unwrap();
        let ra = a.report();

        let mut b = machine();
        b.mac_stream(ModuleMask::single(0), MemSelect::Mram, 0, 128)
            .unwrap();
        b.execute(PimInstruction::Barrier).unwrap();
        let rb = b.report();

        assert_eq!(ra.macs, rb.macs);
        assert_eq!(ra.finished_at, rb.finished_at);
        let (ea, eb) = (ra.total_energy().as_pj(), rb.total_energy().as_pj());
        assert!((ea - eb).abs() < 1e-6, "stream {eb} vs mac {ea}");
        // The stream leaves the accumulator untouched.
        assert_eq!(b.module(0).pe().accumulator(), 0);
    }

    #[test]
    fn mac_stream_exceeds_isa_burst_limit() {
        let mut m = machine();
        m.mac_stream(ModuleMask::all(), MemSelect::Sram, 0, 20_000)
            .unwrap();
        m.execute(PimInstruction::Barrier).unwrap();
        let r = m.report();
        assert_eq!(r.macs, 8 * 20_000);
        assert!(r.finished_at > SimTime::ZERO);
    }

    #[test]
    fn inter_cluster_move_transfers_weights() {
        let mut m = machine();
        m.preload(0, MemSelect::Sram, 32, &[42u8; 8]).unwrap();
        let prog = assemble("movx m0 sram @32 x8\nbarrier\nhalt").unwrap();
        m.run_program(&prog).unwrap();
        // HP module 0 exports; LP module 0 (global 4) receives.
        assert_eq!(
            m.module(4).read_back(MemSelect::Sram, 32, 8).unwrap(),
            &[42u8; 8]
        );
    }

    #[test]
    fn gating_program_cuts_static_power() {
        let mut a = machine();
        let mut b = machine();
        let gated = assemble("gateoff all mram\nbarrier\nhalt").unwrap();
        a.run_program(&gated).unwrap();
        b.run_program(&assemble("barrier\nhalt").unwrap()).unwrap();
        // Let both idle for 1 ms, then compare MRAM static energy.
        for mm in [&mut a, &mut b] {
            mm.idle_until(SimTime::from_ns(1_000_000));
        }
        let ra = a.report();
        let rb = b.report();
        let cat = EnergyCat::MemStatic(ClusterClass::HighPerformance, MemKind::Mram);
        assert!(ra.energy.get(cat).as_pj() < rb.energy.get(cat).as_pj());
    }

    #[test]
    fn rejects_mask_beyond_configuration() {
        let cfg = MachineConfig {
            hp_modules: 2,
            lp_modules: 2,
            ..MachineConfig::default()
        };
        let mut m = PimMachine::new(cfg);
        let err = m
            .execute(PimInstruction::ClearAcc {
                modules: ModuleMask::all(),
            })
            .unwrap_err();
        assert!(matches!(err, MachineError::NoSuchModule { .. }));
    }

    #[test]
    fn baseline_shape_runs_without_lp() {
        // Baseline-PIM: 8 HP modules, SRAM only (Table I).
        let cfg = MachineConfig {
            hp_modules: 8,
            lp_modules: 0,
            module: ModuleConfig {
                mram_bytes: 0,
                sram_bytes: 128 * 1024,
                act_base: 96 * 1024,
            },
            ..MachineConfig::default()
        };
        let mut m = PimMachine::new(cfg);
        m.preload(7, MemSelect::Sram, 0, &[1, 1]).unwrap();
        m.preload_activations(7, &[5, 5]).unwrap();
        let prog = assemble("clr m7\nmac m7 sram @0 x2\nbarrier\nhalt").unwrap();
        m.run_program(&prog).unwrap();
        assert_eq!(m.module(7).pe().accumulator(), 10);
    }

    #[test]
    fn report_energy_breakdown_has_all_active_categories() {
        let mut m = machine();
        m.preload(0, MemSelect::Mram, 0, &[1, 1]).unwrap();
        m.preload_activations(0, &[1, 1]).unwrap();
        let prog = assemble("clr m0\nmac m0 mram @0 x2\nbarrier\nhalt").unwrap();
        let report = m.run_program(&prog).unwrap();
        use ClusterClass::*;
        use MemKind::*;
        assert!(
            report
                .energy
                .get(EnergyCat::MemDynamic(HighPerformance, Mram))
                .as_pj()
                > 0.0
        );
        assert!(
            report
                .energy
                .get(EnergyCat::MemDynamic(HighPerformance, Sram))
                .as_pj()
                > 0.0
        );
        assert!(
            report
                .energy
                .get(EnergyCat::PeDynamic(HighPerformance))
                .as_pj()
                > 0.0
        );
        assert!(
            report
                .energy
                .get(EnergyCat::Controller(HighPerformance))
                .as_pj()
                > 0.0
        );
        assert!(
            report
                .energy
                .get(EnergyCat::MemStatic(HighPerformance, Sram))
                .as_pj()
                > 0.0
        );
    }

    /// `probe()` must agree with `report()` bit for bit: the total, the
    /// MAC count and every per-`[class][kind]` dynamic memory energy,
    /// each present exactly when the ledger records its category.
    fn assert_probe_matches_report(m: &mut PimMachine, when: &str) {
        let p = m.probe();
        let r = m.report();
        let cfg = *m.config();
        assert_eq!(
            p.total.as_pj().to_bits(),
            r.total_energy().as_pj().to_bits(),
            "probe must reproduce the ledger fold bit for bit ({when}, {cfg:?})"
        );
        assert_eq!(p.macs, r.macs);
        for class in ClusterClass::ALL {
            for kind in [MemKind::Sram, MemKind::Mram] {
                let cat = EnergyCat::MemDynamic(class, kind);
                let probed = p.mem_dynamic(class, kind);
                assert_eq!(
                    probed.is_some(),
                    r.energy.slot_of(&cat).is_some(),
                    "{cat:?} present in only one of probe/ledger ({when}, {cfg:?})"
                );
                if let Some(e) = probed {
                    assert_eq!(
                        e.as_pj().to_bits(),
                        r.energy.get(cat).as_pj().to_bits(),
                        "{cat:?} diverged ({when}, {cfg:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_total_is_bit_identical_to_report_total() {
        let shapes = [
            MachineConfig::default(),
            // HP-only, SRAM-only (Baseline shape).
            MachineConfig {
                hp_modules: 8,
                lp_modules: 0,
                module: ModuleConfig {
                    mram_bytes: 0,
                    sram_bytes: 128 * 1024,
                    act_base: 96 * 1024,
                },
                ..MachineConfig::default()
            },
            // LP-present, asymmetric counts.
            MachineConfig {
                hp_modules: 2,
                lp_modules: 5,
                ..MachineConfig::default()
            },
        ];
        for cfg in shapes {
            let mut m = PimMachine::new(cfg);
            m.mac_stream(ModuleMask::single(0), MemSelect::Sram, 0, 700)
                .unwrap();
            m.execute(PimInstruction::Barrier).unwrap();
            m.idle_until(m.now() + hhpim_sim::SimDuration::from_ns(12_345));
            assert_probe_matches_report(&mut m, "after a stream");
            // Probing performs the same accrual side effects as
            // reporting: a second pair still agrees.
            assert_probe_matches_report(&mut m, "on a repeated probe");

            // Gate → wake: wake charges and gated (non-accruing) spans.
            let last = m.module_count() - 1;
            let mask = ModuleMask::single(last as u8);
            let mut mems = vec![MemSelect::Sram];
            if cfg.module.mram_bytes > 0 {
                mems.push(MemSelect::Mram);
            }
            for &mem in &mems {
                m.execute(PimInstruction::GateOff { modules: mask, mem })
                    .unwrap();
            }
            m.idle_until(m.now() + hhpim_sim::SimDuration::from_ns(5_000));
            for &mem in &mems {
                m.execute(PimInstruction::GateOn { modules: mask, mem })
                    .unwrap();
            }
            m.execute(PimInstruction::Barrier).unwrap();
            assert_probe_matches_report(&mut m, "after a gate/wake cycle");

            // A move: across clusters where the shape has both, else
            // between two modules of the one cluster.
            m.preload(0, MemSelect::Sram, 0, &[7u8; 64]).unwrap();
            if cfg.lp_modules > 0 {
                m.execute(PimInstruction::MoveInter {
                    modules: ModuleMask::single(0),
                    mem: MemSelect::Sram,
                    addr: 0,
                    count: 64,
                })
                .unwrap();
            }
            m.copy_words(0, MemSelect::Sram, last, MemSelect::Sram, 0, 64)
                .unwrap();
            m.execute(PimInstruction::Barrier).unwrap();
            assert_probe_matches_report(&mut m, "after a module-to-module move");
        }
    }

    /// `energy_view` (read through module energy rows) and
    /// `set_energy_view` (written through the accumulator walk) agree
    /// on every slot: a view written back reads back unchanged on the
    /// slots the machine has, and zero on the rest; writing back a
    /// machine's own view changes nothing.
    #[test]
    fn energy_view_round_trips_through_every_accumulator() {
        let shapes = [
            MachineConfig::default(),
            MachineConfig {
                hp_modules: 8,
                lp_modules: 0,
                module: ModuleConfig {
                    mram_bytes: 0,
                    sram_bytes: 128 * 1024,
                    act_base: 96 * 1024,
                },
                ..MachineConfig::default()
            },
            MachineConfig {
                hp_modules: 2,
                lp_modules: 5,
                ..MachineConfig::default()
            },
        ];
        for cfg in shapes {
            let mut m = PimMachine::new(cfg);
            let last = (m.module_count() - 1) as u8;
            m.mac_stream(ModuleMask::range(0, last), MemSelect::Sram, 0, 300)
                .unwrap();
            m.execute(PimInstruction::Barrier).unwrap();
            m.probe();
            let before = m.clone();
            let own = m.energy_view();
            m.set_energy_view(&own);
            assert!(m == before, "writing back a machine's own view changed it");

            let distinct = EnergyView(std::array::from_fn(|i| i as f64 + 1.0));
            m.set_energy_view(&distinct);
            let back = m.energy_view();
            let modules = cfg.hp_modules + cfg.lp_modules;
            let rows = if cfg.module.mram_bytes > 0 { 8 } else { 5 };
            let mut mapped = 0;
            for (i, (&w, &r)) in distinct.0.iter().zip(&back.0).enumerate() {
                if r == 0.0 {
                    continue;
                }
                assert_eq!(w, r, "slot {i} read back a different accumulator");
                mapped += 1;
            }
            let clusters = usize::from(cfg.hp_modules > 0) + usize::from(cfg.lp_modules > 0);
            assert_eq!(mapped, modules * rows + 2 * clusters, "{cfg:?}");
        }
    }

    /// Two machines with identical preloaded contents, for comparing a
    /// copy path against its reference.
    fn twin_machines(cfg: MachineConfig) -> (PimMachine, PimMachine) {
        let mut m = PimMachine::new(cfg);
        let payload: Vec<u8> = (0..3000).map(|i| (i * 7 + 3) as u8).collect();
        for g in 0..m.module_count() {
            m.preload(g, MemSelect::Sram, 0, &payload).unwrap();
            if cfg.module.mram_bytes > 0 {
                m.preload(g, MemSelect::Mram, 0, &payload[..2000]).unwrap();
            }
        }
        (m.clone(), m)
    }

    #[test]
    fn copy_words_matches_read_then_write() {
        // (src, dst) pairs: HP → LP, LP → HP and within one cluster.
        let legs = [
            (1, 6, MemSelect::Mram, MemSelect::Sram),
            (5, 2, MemSelect::Sram, MemSelect::Mram),
            (0, 3, MemSelect::Sram, MemSelect::Sram),
        ];
        for (src, dst, src_mem, dst_mem) in legs {
            let (mut a, mut b) = twin_machines(MachineConfig::default());
            // Stagger the modules' completion times so the read/write
            // bursts queue behind earlier work.
            for m in [&mut a, &mut b] {
                m.mac_stream(ModuleMask::single(dst as u8), MemSelect::Sram, 0, 300)
                    .unwrap();
                m.idle_until(SimTime::from_ns(40));
            }
            let mut done = SimTime::ZERO;
            for count in [1500, 1500, 17] {
                let at = a.now();
                let (read_done, bytes) =
                    a.module_mut(src).read_words(at, src_mem, 0, count).unwrap();
                let expected = a
                    .module_mut(dst)
                    .write_words(read_done, dst_mem, 0, &bytes)
                    .unwrap();
                done = b.copy_words(src, src_mem, dst, dst_mem, 0, count).unwrap();
                assert_eq!(done, expected);
            }
            for g in [src, dst] {
                let (ma, mb) = (a.module(g), b.module(g));
                assert_eq!(ma.free_at(), mb.free_at());
                for mem in [MemSelect::Sram, MemSelect::Mram] {
                    let (ba, bb) = (ma.bank(mem), mb.bank(mem));
                    assert_eq!(ba.live_bytes(), bb.live_bytes());
                    assert_eq!(ba.counters(), bb.counters());
                    assert_eq!(
                        ba.dynamic_energy().as_pj().to_bits(),
                        bb.dynamic_energy().as_pj().to_bits()
                    );
                    let cap = ba.capacity();
                    assert_eq!(
                        ma.read_back(mem, 0, cap).unwrap(),
                        mb.read_back(mem, 0, cap).unwrap()
                    );
                }
            }
            a.idle_until(done);
            b.idle_until(done);
            assert_eq!(
                a.report().total_energy().as_pj().to_bits(),
                b.report().total_energy().as_pj().to_bits()
            );
        }
    }

    #[test]
    fn copy_words_errors_carry_the_failing_side() {
        let (mut m, _) = twin_machines(MachineConfig::default());
        // Read side out of range: the source's global index.
        let err = m
            .copy_words(1, MemSelect::Mram, 6, MemSelect::Sram, 64 * 1024, 1)
            .unwrap_err();
        assert!(
            matches!(err, MachineError::Module { module: 1, .. }),
            "{err:?}"
        );
        // Write side gated: the destination's global index.
        m.module_mut(6)
            .set_gated(SimTime::ZERO, MemSelect::Mram, true)
            .unwrap();
        let err = m
            .copy_words(1, MemSelect::Sram, 6, MemSelect::Mram, 0, 16)
            .unwrap_err();
        assert!(
            matches!(err, MachineError::Module { module: 6, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn split_mask_rejects_bits_beyond_hp_only_machine() {
        let mut m = PimMachine::new(MachineConfig {
            hp_modules: 4,
            lp_modules: 0,
            ..MachineConfig::default()
        });
        let err = m
            .mac_stream(ModuleMask::single(5), MemSelect::Sram, 0, 8)
            .unwrap_err();
        assert_eq!(
            err,
            MachineError::NoSuchModule {
                mask: 0b0010_0000,
                modules: 4
            }
        );
    }

    #[test]
    fn lp_only_machine_routes_module_errors_with_global_index() {
        // With no HP modules the LP cluster owns global indices 0..n;
        // errors must carry the global index, not a shifted one.
        let mut m = PimMachine::new(MachineConfig {
            hp_modules: 0,
            lp_modules: 4,
            ..MachineConfig::default()
        });
        m.module_mut(2)
            .set_gated(SimTime::ZERO, MemSelect::Mram, true)
            .unwrap();
        let err = m
            .mac_stream(ModuleMask::single(2), MemSelect::Mram, 0, 4)
            .unwrap_err();
        assert!(
            matches!(err, MachineError::Module { module: 2, .. }),
            "{err:?}"
        );
        // Bits beyond the configuration still fail with the total.
        let err = m
            .mac_stream(ModuleMask::single(6), MemSelect::Sram, 0, 1)
            .unwrap_err();
        assert_eq!(
            err,
            MachineError::NoSuchModule {
                mask: 0b0100_0000,
                modules: 4
            }
        );
    }

    #[test]
    fn mac_stream_over_empty_mask_is_a_counted_noop() {
        let mut m = machine();
        let before = m.report();
        m.mac_stream(ModuleMask::empty(), MemSelect::Sram, 0, 1000)
            .unwrap();
        m.execute(PimInstruction::Barrier).unwrap();
        let after = m.report();
        assert_eq!(after.macs, before.macs, "no module was selected");
        assert_eq!(
            after.instructions,
            before.instructions + 2,
            "the stream and the barrier are still fetched and decoded"
        );
        assert_eq!(after.finished_at, before.finished_at);
    }

    #[test]
    fn lp_cluster_module_errors_carry_offset_global_index() {
        let mut m = machine();
        // Gate LP module 1 (global 5): the MAC against it must surface
        // global index 5, not the cluster-local 1.
        m.module_mut(5)
            .set_gated(SimTime::ZERO, MemSelect::Mram, true)
            .unwrap();
        let err = m
            .mac_stream(ModuleMask::single(5), MemSelect::Mram, 0, 4)
            .unwrap_err();
        assert!(
            matches!(err, MachineError::Module { module: 5, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn corrupted_queue_word_errors() {
        let mut m = machine();
        m.queue.push_word(u64::MAX).unwrap();
        let mut failed = false;
        while let Some(w) = m.queue.pop() {
            if w.is_err() {
                failed = true;
            }
        }
        assert!(failed);
    }

    #[test]
    #[should_panic(expected = "at most 8")]
    fn too_many_modules_rejected() {
        PimMachine::new(MachineConfig {
            hp_modules: 6,
            lp_modules: 6,
            ..Default::default()
        });
    }
}
