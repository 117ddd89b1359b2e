//! The flat, arena-allocated timing graph behind the cycle backend.
//!
//! The object-hierarchy execution path
//! (`CycleBackend`'s task loop over [`crate::CompiledProgram`]) is
//! faithful but interpretive: every task re-walks the compiled layers,
//! re-splits every schedule across the placement's occupied spaces,
//! re-resolves memory technologies per access, and pays a full
//! [`hhpim_pim::PimMachine::report`] (a `BTreeMap` ledger) per layer
//! for per-layer accounting. None of that varies between tasks of the
//! same slice — or between slices that share a placement.
//!
//! [`TimeGraph`] lowers the whole per-task instruction stream **once
//! per placement** into one contiguous node arena: a `Vec<Node>` whose
//! entries carry pre-split per-cluster module bits, pre-resolved
//! per-word latency/energy coefficients (via
//! [`hhpim_mem::ResolvedAccess`], looked up from the machine's banks at
//! build time), and pre-computed burst lengths. Replaying a task is a
//! pointer-bump walk over that arena driving the *same*
//! [`hhpim_pim::PimMachine`] through arithmetically identical
//! operations:
//!
//! * schedule streams run through
//!   `PimModule::mac_stream_resolved` — the allocation-free twin of the
//!   interpreted `PimMachine::mac_stream` path,
//! * the bit-exact head folds its INT8 products straight out of bank
//!   storage (`PimModule::mac_resolved` →
//!   `ProcessingElement::mac_burst_prefolded`, bit-identical by i32
//!   wrapping associativity),
//! * barriers resynchronize against a flat [`hhpim_sim::TimeQueue`]
//!   (one slot per module `free_at` plus one per cluster issue
//!   pipeline) instead of re-scanning the module hierarchy,
//! * per-layer accounting uses [`hhpim_pim::PimMachine::probe`], whose
//!   total is bit-identical to `report().total_energy()` without
//!   building a ledger.
//!
//! Because every replayed operation performs the same floating-point
//! additions in the same order as the object walk, the resulting
//! [`crate::ExecutionReport`]s are **bit-identical** — the equivalence
//! suite in this module asserts full `PartialEq` on reports and engine
//! event streams, keeping the object path alive as the oracle.
//!
//! Per-slice dynamic inputs do not invalidate the graph: the task count
//! only changes how many times the arena is replayed, and a
//! re-placement selects a different cached program (programs are keyed
//! by [`Placement`] in a small map). Only machine *geometry* would
//! invalidate lowering, and a backend's machine geometry is fixed at
//! construction.
//!
//! Most tasks need not walk the arena at all. A task's effect depends
//! only on its program and on the machine's state *relative to `now`*,
//! and most tasks start from the same few relative states (usually a
//! fully settled machine). Tasks are therefore memoized as tapes: the
//! first task from a given (placement, relative start state) runs node
//! by node with every energy accumulator recording its addends, and
//! files a tape — the ordered f64 addends per accumulator between probe
//! points, plus the integer effects (end instants, counter deltas, head
//! state). A later task with the same key applies the addends in the
//! same order, folds the total where the machine probed (through the
//! same [`hhpim_pim::PimMachine::fold_total`] the probe uses) and
//! restores the integer state, so every f64 operation is the node
//! replay's and reports stay bit-identical.
//!
//! Tapes live in a tape tier shared by every graph that simulates
//! the same machine: the [`crate::PlacementStore`] keeps one tier per
//! machine identity beside its LUTs, so a tape is recorded once per
//! process, not once per backend. A graph locks its tier once per
//! slice. A tape whose end state keys to its own start key is
//! *self-looping*: every remaining task of the slice would replay it
//! again, so its addends and folds are applied that many times over
//! one energy view and its integer effects are composed once. See
//! [`MemoStats`] and `docs/timegraph.md`.

use crate::arch::ArchSpec;
use crate::backend::BackendError;
use crate::compile::{CompileError, CompiledProgram, LayerOp, WeightHome};
use crate::engine::LayerAcc;
use crate::space::{Placement, StorageSpace};
use hhpim_isa::{MemSelect, ModuleMask};
use hhpim_mem::{AccessKind, ClusterClass, MemKind, ResolvedAccess};
use hhpim_pim::{MachineError, PimMachine, ENERGY_SLOTS};
use hhpim_sim::{Scalar, SimDuration, SimTime, TimeQueue};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// Kind of one lowered node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeOp {
    /// A traffic-level MAC stream on every selected module of one
    /// cluster (one compiled schedule split).
    Stream,
    /// Host-side preload of the head's activation vector into every
    /// head module (untimed, but byte-identical to the object path).
    HeadActs,
    /// Accumulator clear across one head wave's modules (controller
    /// issue charged, zero module latency).
    HeadClear,
    /// One head wave's bit-exact INT8 MAC burst.
    HeadMac,
    /// Clock resynchronization: the machine's `now` joins the time
    /// queue's maximum (both the head's per-wave barrier and the
    /// per-layer barrier lower to this).
    Barrier,
}

/// One pre-resolved operation of the arena. Module selections are
/// stored pre-split per cluster (the interpreter's `split_mask` done at
/// build time); burst parameters are already clamped/truncated exactly
/// as the ISA encoding would (`addr as u16`, `count as u8` for the
/// head), so replay reproduces the object path's arithmetic verbatim.
#[derive(Debug, Clone, Copy)]
struct Node {
    op: NodeOp,
    /// HP-cluster local module bits.
    hp_bits: u8,
    /// LP-cluster local module bits.
    lp_bits: u8,
    /// Weight memory the burst reads from.
    mem: MemSelect,
    /// Weight base address.
    addr: u32,
    /// Words per selected module.
    count: u32,
}

const NO_MEM: MemSelect = MemSelect::Sram;

impl Node {
    fn sync(op: NodeOp) -> Self {
        Node {
            op,
            hp_bits: 0,
            lp_bits: 0,
            mem: NO_MEM,
            addr: 0,
            count: 0,
        }
    }
}

/// Per-word read coefficients resolved once per `(cluster, memory)`
/// pair from the live banks — every module of a cluster shares one
/// technology, so two entries per cluster cover the whole machine.
#[derive(Debug, Clone, Copy, Default)]
struct ResolvedTable {
    read: [[Option<ResolvedAccess>; 2]; 2],
}

fn class_index(class: ClusterClass) -> usize {
    match class {
        ClusterClass::HighPerformance => 0,
        ClusterClass::LowPower => 1,
    }
}

fn mem_index(mem: MemSelect) -> usize {
    match mem {
        MemSelect::Sram => 0,
        MemSelect::Mram => 1,
    }
}

impl ResolvedTable {
    fn from_machine(machine: &PimMachine) -> Self {
        let mut table = ResolvedTable::default();
        for class in [ClusterClass::HighPerformance, ClusterClass::LowPower] {
            let Some(cluster) = machine.cluster(class) else {
                continue;
            };
            let Some(module) = cluster.modules().next() else {
                continue;
            };
            let ci = class_index(class);
            table.read[ci][mem_index(MemSelect::Sram)] =
                Some(module.bank(MemSelect::Sram).resolve(AccessKind::Read));
            if module.has_mram() {
                table.read[ci][mem_index(MemSelect::Mram)] =
                    Some(module.bank(MemSelect::Mram).resolve(AccessKind::Read));
            }
        }
        table
    }

    fn read(&self, class: ClusterClass, mem: MemSelect) -> ResolvedAccess {
        self.read[class_index(class)][mem_index(mem)]
            .expect("coefficients resolved for every bank the lowering references")
    }
}

/// One placement's lowered per-task program: the node arena plus the
/// shared head state the arena references.
#[derive(Debug, Clone)]
struct NodeProgram {
    nodes: Vec<Node>,
    /// Node range per compiled layer, for per-layer probe accounting.
    layer_spans: Vec<Range<usize>>,
    /// The head's activation bytes (preloaded per task).
    acts: Vec<u8>,
    /// Global indices of the modules hosting the head.
    head_modules: Vec<usize>,
    /// Whether the program runs the bit-exact head (and so leaves
    /// accumulator state behind on `head_modules`).
    has_head: bool,
    /// The placement's group counts, packed as the first words of a
    /// task key.
    key: [u64; 2],
}

/// The cycle backend's flat timing graph: cached lowered programs (one
/// per placement seen), the shared resolved-coefficient table, the
/// indexed time queue barriers resynchronize against, and the tape
/// tier of its machine identity. See the [module docs](self) for the
/// design and equivalence contract.
#[derive(Debug)]
pub struct TimeGraph {
    programs: Vec<NodeProgram>,
    by_placement: HashMap<Placement, usize>,
    table: Option<ResolvedTable>,
    queue: TimeQueue,
    hp_modules: usize,
    module_count: usize,
    tier: Arc<TapeTier>,
    /// Tasks this graph served from a tape.
    hits: u64,
    /// Tasks this graph replayed node by node.
    misses: u64,
}

impl TimeGraph {
    /// An empty graph drawing tapes from `tier`; programs are lowered
    /// lazily per placement.
    pub(crate) fn new(tier: Arc<TapeTier>) -> Self {
        TimeGraph {
            programs: Vec::new(),
            by_placement: HashMap::new(),
            table: None,
            queue: TimeQueue::default(),
            hp_modules: 0,
            module_count: 0,
            tier,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of lowered (cached) per-placement programs.
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }

    /// Total nodes across every cached program.
    pub fn node_count(&self) -> usize {
        self.programs.iter().map(|p| p.nodes.len()).sum()
    }

    /// Task-memo counters: this graph's tasks served from a tape and
    /// replayed node by node, and the tapes (and their bytes) its
    /// shared tier holds.
    pub fn memo_stats(&self) -> MemoStats {
        let memo = self.tier.lock();
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            tapes: memo.tapes.len(),
            bytes: memo.bytes(),
        }
    }

    /// Drops every cached program (queue geometry survives; tapes live
    /// in the shared tier and survive too); the next replay lowers
    /// afresh. Exists so builds can be measured in isolation.
    pub fn clear(&mut self) {
        self.programs.clear();
        self.by_placement.clear();
        self.table = None;
    }

    /// Returns the cached program index for `placement`, lowering it
    /// first if this placement has not been seen. Lowering mirrors the
    /// object path exactly: schedule layers split by group share across
    /// the placement's occupied spaces (in [`Placement::occupied`]
    /// order), the head lowers wave by wave with the ISA's `u16`/`u8`
    /// truncation, and every layer closes with a barrier node.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn ensure_program(
        &mut self,
        machine: &PimMachine,
        spec: &ArchSpec,
        program: &CompiledProgram,
        placement: &Placement,
        head_modules: &[usize],
        head_home: WeightHome,
        input: &[i8],
    ) -> usize {
        if let Some(&idx) = self.by_placement.get(placement) {
            return idx;
        }
        if self.table.is_none() {
            self.table = Some(ResolvedTable::from_machine(machine));
        }
        let hp = machine.config().hp_modules;
        let k = placement.total().max(1);
        let mut nodes = Vec::new();
        let mut layer_spans = Vec::with_capacity(program.layers().len());
        let mut acts = Vec::new();
        let mut has_head = false;
        for layer in program.layers() {
            let start = nodes.len();
            match &layer.op {
                LayerOp::Schedule { macs_per_task } => {
                    for (space, groups) in placement.occupied() {
                        let cluster = space.cluster();
                        let modules = spec.modules_in(cluster);
                        if modules == 0 {
                            continue;
                        }
                        let share = *macs_per_task as f64 * groups as f64 / k as f64;
                        let per_module = (share / modules as f64).ceil() as usize;
                        if per_module == 0 {
                            continue;
                        }
                        let bits = ((1u16 << modules) - 1) as u8;
                        let (hp_bits, lp_bits) = match cluster {
                            ClusterClass::HighPerformance => (bits, 0),
                            ClusterClass::LowPower => (0, bits),
                        };
                        nodes.push(Node {
                            op: NodeOp::Stream,
                            hp_bits,
                            lp_bits,
                            mem: match space.kind() {
                                MemKind::Mram => MemSelect::Mram,
                                MemKind::Sram => MemSelect::Sram,
                            },
                            addr: 0,
                            count: u32::try_from(per_module)
                                .expect("per-module burst fits the node arena"),
                        });
                    }
                }
                LayerOp::Head(plan) => {
                    has_head = true;
                    acts = input.iter().map(|&v| v as u8).collect();
                    nodes.push(Node::sync(NodeOp::HeadActs));
                    let waves = plan.out_features().div_ceil(head_modules.len());
                    for wave in 0..waves {
                        let lo = wave * head_modules.len();
                        let hi = (lo + head_modules.len()).min(plan.out_features());
                        let mut mask = ModuleMask::empty();
                        for o in lo..hi {
                            mask = mask.union(ModuleMask::single(
                                head_modules[o % head_modules.len()] as u8,
                            ));
                        }
                        let bits = mask.bits();
                        let hp_bits = bits & (((1u16 << hp) - 1) as u8);
                        let lp_bits = if hp >= 8 { 0 } else { bits >> hp };
                        nodes.push(Node {
                            op: NodeOp::HeadClear,
                            hp_bits,
                            lp_bits,
                            mem: NO_MEM,
                            addr: 0,
                            count: 0,
                        });
                        nodes.push(Node {
                            op: NodeOp::HeadMac,
                            hp_bits,
                            lp_bits,
                            mem: head_home.mem(),
                            // The ISA encodes these as u16/u8; replicate
                            // the truncation so replay matches even at
                            // the encoding boundary.
                            addr: (wave * plan.in_features()) as u16 as u32,
                            count: plan.in_features() as u8 as u32,
                        });
                        nodes.push(Node::sync(NodeOp::Barrier));
                    }
                }
            }
            // The object path closes every layer with an explicit
            // barrier (layers consume their predecessor's outputs).
            nodes.push(Node::sync(NodeOp::Barrier));
            layer_spans.push(start..nodes.len());
        }
        let idx = self.programs.len();
        self.programs.push(NodeProgram {
            nodes,
            layer_spans,
            acts,
            head_modules: head_modules.to_vec(),
            has_head,
            key: placement_words(placement),
        });
        self.by_placement.insert(*placement, idx);
        idx
    }

    /// (Re)seeds the time queue from the machine's live completion
    /// state: one slot per module `free_at`, plus one per cluster issue
    /// pipeline. Runs once per slice, after any migration traffic and
    /// before the task loop — replay keeps the queue in lockstep from
    /// then on.
    fn seed(&mut self, machine: &PimMachine) {
        let module_count = machine.module_count();
        if self.queue.len() != module_count + 2 {
            self.queue = TimeQueue::new(module_count + 2);
            self.hp_modules = machine.config().hp_modules;
            self.module_count = module_count;
        }
        for g in 0..module_count {
            self.queue.seed(g, machine.module(g).free_at());
        }
        for (slot, class) in [
            (module_count, ClusterClass::HighPerformance),
            (module_count + 1, ClusterClass::LowPower),
        ] {
            self.queue.seed(
                slot,
                machine
                    .cluster(class)
                    .map(|c| c.issue_free_at())
                    .unwrap_or(SimTime::ZERO),
            );
        }
    }

    /// Runs one slice's `n_tasks` tasks of `program` on `machine`,
    /// accumulating per-layer accounting into `accs` exactly as the
    /// object path's task loop does (probe-chained deltas per layer).
    ///
    /// The tier is locked once for the slice. Each task is looked up by
    /// its key (placement and machine state relative to `now`; see
    /// [`TaskMemo`]): a hit replays its tape instead of its nodes — a
    /// self-looping tape replays once for every task left — and a miss
    /// runs the nodes, recording them as a new tape while the tier has
    /// room.
    ///
    /// # Errors
    ///
    /// Wraps module errors with the same global indices and error
    /// envelopes as the interpreted path: schedule streams surface as
    /// [`BackendError::Machine`], head operations as
    /// [`BackendError::Compile`].
    pub(crate) fn replay_tasks(
        &mut self,
        machine: &mut PimMachine,
        program: usize,
        n_tasks: u32,
        accs: &mut [LayerAcc],
    ) -> Result<(), BackendError> {
        self.seed(machine);
        let table = self.table.expect("ensure_program ran before replay");
        let prog = &self.programs[program];
        let queue = &mut self.queue;
        let (hp_modules, module_count) = (self.hp_modules, self.module_count);
        let mut memo = self.tier.lock();
        let memo = &mut *memo;
        let mut left = u64::from(n_tasks);
        while left > 0 {
            load_key(&mut memo.key, machine, queue, prog.key);
            if let Some(&id) = memo.index.get(&memo.key[..]) {
                let reps = if memo.tapes[id].self_looping { left } else { 1 };
                memo.apply(id, reps, machine, queue, prog, accs)?;
                self.hits += reps;
                left -= reps;
                continue;
            }
            self.misses += 1;
            left -= 1;
            if memo.full {
                run_nodes(
                    machine,
                    queue,
                    &table,
                    prog,
                    hp_modules,
                    module_count,
                    accs,
                    None,
                )?;
                continue;
            }
            let start = machine.now();
            memo.load_scalars(machine, queue, false);
            let mut recorder = TapeRecorder::default();
            machine.set_energy_recording(true);
            let result = run_nodes(
                machine,
                queue,
                &table,
                prog,
                hp_modules,
                module_count,
                accs,
                Some(&mut recorder),
            );
            machine.set_energy_recording(false);
            result?;
            memo.load_scalars(machine, queue, true);
            load_key(&mut memo.end_key, machine, queue, prog.key);
            if let Some(task) = recorder.finish(memo, machine, prog, start) {
                memo.insert(task);
            }
        }
        Ok(())
    }
}

/// Runs one task's nodes on `machine`, accumulating per-layer accounting
/// into `accs` (probe-chained deltas per layer). With a recorder, every
/// probe point — the task-start probe and each layer's closing probe —
/// also closes one tape layer.
#[allow(clippy::too_many_arguments)]
fn run_nodes(
    machine: &mut PimMachine,
    queue: &mut TimeQueue,
    table: &ResolvedTable,
    prog: &NodeProgram,
    hp_modules: usize,
    module_count: usize,
    accs: &mut [LayerAcc],
    mut rec: Option<&mut TapeRecorder>,
) -> Result<(), BackendError> {
    let mut probe = machine.probe();
    if let Some(rec) = rec.as_deref_mut() {
        rec.close_layer(machine);
    }
    for (i, span) in prog.layer_spans.iter().enumerate() {
        let t0 = machine.now();
        for node in &prog.nodes[span.clone()] {
            match node.op {
                NodeOp::Stream | NodeOp::HeadClear | NodeOp::HeadMac => {
                    dispatch(machine, queue, table, node, hp_modules, module_count)?;
                }
                NodeOp::HeadActs => preload_head(machine, prog)?,
                NodeOp::Barrier => {
                    machine.note_instruction();
                    machine.idle_until(queue.max());
                }
            }
        }
        let done = machine.probe();
        let macs = done.macs - probe.macs;
        let time = machine.now().saturating_since(t0);
        accs[i].macs += macs;
        accs[i].time += time;
        accs[i].energy_pj += done.total.as_pj() - probe.total.as_pj();
        if let Some(rec) = rec.as_deref_mut() {
            rec.close_layer(machine);
            rec.note_layer(macs, time);
        }
        probe = done;
    }
    Ok(())
}

/// The head's untimed activation preload into every head module.
fn preload_head(machine: &mut PimMachine, prog: &NodeProgram) -> Result<(), BackendError> {
    for &g in &prog.head_modules {
        machine
            .preload_activations(g, &prog.acts)
            .map_err(|e| BackendError::Compile(CompileError::Machine(e)))?;
    }
    Ok(())
}

/// Byte budget of one tier's tapes. Past it, unseen start states replay
/// node by node without being recorded.
const MEMO_BUDGET_BYTES: usize = 64 * 1024;

/// Counters of a [`TimeGraph`]'s task memo (see
/// [`TimeGraph::memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Tasks this graph replayed from a recorded tape.
    pub hits: u64,
    /// Tasks this graph replayed node by node (recorded while the tier
    /// had room).
    pub misses: u64,
    /// Tapes held by the graph's tier, which every graph of the same
    /// machine identity shares.
    pub tapes: usize,
    /// Bytes held by the tier's tapes, their keys and their shared
    /// blocks.
    pub bytes: usize,
}

/// The tapes of one machine identity, shared through the
/// [`crate::PlacementStore`] by every [`TimeGraph`] that simulates that
/// machine (see [`crate::PlacementStore`]'s tape tiers). A graph locks
/// it once per slice.
#[derive(Default)]
pub(crate) struct TapeTier {
    memo: Mutex<TaskMemo>,
}

impl TapeTier {
    /// Locks the tier. Tapes are a cache: if a panic poisoned the lock,
    /// a tape may be half filed, so the tier drops every tape and
    /// carries on empty.
    fn lock(&self) -> MutexGuard<'_, TaskMemo> {
        self.memo.lock().unwrap_or_else(|poisoned| {
            let mut memo = poisoned.into_inner();
            *memo = TaskMemo::default();
            self.memo.clear_poison();
            memo
        })
    }
}

impl std::fmt::Debug for TapeTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = f.debug_struct("TapeTier");
        if let Ok(memo) = self.memo.try_lock() {
            out.field("tapes", &memo.tapes.len())
                .field("bytes", &memo.bytes());
        }
        out.finish_non_exhaustive()
    }
}

/// Tapes of recorded tasks, keyed by placement and start state.
///
/// A task's effect on the machine is a function of its program and of
/// the machine's state *relative to `now`*: every operation starts at
/// or after `now`, so absolute time only shifts the result. Within one
/// machine identity the placement fixes the program, so the key holds,
/// besides the placement's group counts:
///
/// * every power flag (which banks, PEs and controllers accrue static
///   energy — also which banks reject accesses as gated);
/// * every free instant (bank ports, PE units, modules, issue
///   pipelines, the machine clock and the time-queue slots) clamped at
///   `now`, since work never starts earlier;
/// * every powered component's accrual mark as a signed offset from
///   `now` (it sizes the static-energy addend); unpowered marks are
///   clamped like free instants, since they accrue nothing.
///
/// Counters, occupancy and memory contents are not in the key: counters
/// change by fixed deltas, host preloads are re-executed on a hit, and
/// the bytes a task reads (the head's rows and activations) are fixed
/// by its program.
///
/// Storage is deduplicated: a tape is a list of [`Block`]s (one per
/// probe point), and tapes of one placement that started from
/// different states share every block past the point where they
/// converge — as do layers of one program that do the same work.
#[derive(Debug, Default)]
struct TaskMemo {
    /// Key → tape.
    index: HashMap<Box<[u64]>, usize>,
    tapes: Vec<Tape>,
    blocks: Vec<Block>,
    /// Content hash per block, for deduplication.
    block_hashes: Vec<u64>,
    /// Addend groups of every block.
    groups: Vec<Group>,
    /// Addends of every group, in picojoules (the `f64` inside each
    /// [`hhpim_mem::Energy`]).
    addends: Vec<f64>,
    /// Set once a tape did not fit the budget: recording stops.
    full: bool,
    /// The current task's key (a reused buffer).
    key: Vec<u64>,
    /// The key of a recorded task's end state (a reused buffer).
    end_key: Vec<u64>,
    /// Scalar state at the start of a recorded task (a reused buffer).
    start: Vec<u64>,
    /// Scalar state at its end (a reused buffer).
    end: Vec<u64>,
    /// Per scalar, whether it is an instant (a reused buffer, filled
    /// with `start`).
    instants: Vec<bool>,
}

/// The placement's group counts as the two leading words of a task
/// key.
fn placement_words(placement: &Placement) -> [u64; 2] {
    let [a, b, c, d] = StorageSpace::ALL.map(|space| {
        u64::from(u32::try_from(placement.get(space)).expect("group counts fit 32 bits"))
    });
    [a | b << 32, c | d << 32]
}

/// Builds the key of a task of the program with placement words
/// `placement` starting from `machine`'s current state into `key`: the
/// placement, the power flags, then `(index, offset)` for every instant
/// whose offset from `now` is not zero — instants are walked in a fixed
/// order, so the pairs spell out the whole relative state while a
/// settled machine (the common case) keys in three words. A powered
/// component's accrual mark may lie on either side of `now`; its offset
/// wraps.
#[inline]
fn load_key(
    key: &mut Vec<u64>,
    machine: &mut PimMachine,
    queue: &mut TimeQueue,
    placement: [u64; 2],
) {
    let now = machine.now().as_ps();
    key.clear();
    key.extend_from_slice(&placement);
    key.push(0);
    let mut flags = 0u64;
    let mut bit = 0u32;
    let mut index = 0u64;
    let mut visit = |scalar: Scalar<'_>| {
        let offset = match scalar {
            Scalar::Free(t) => t.as_ps().max(now) - now,
            Scalar::Accrual(t, powered) => {
                flags |= u64::from(powered) << bit;
                bit += 1;
                if powered {
                    t.as_ps().wrapping_sub(now)
                } else {
                    t.as_ps().max(now) - now
                }
            }
            Scalar::Busy(_) | Scalar::Count(_) => return,
        };
        if offset != 0 {
            key.push(index);
            key.push(offset);
        }
        index += 1;
    };
    // At most 26 flags: three per module (of at most eight), one per
    // controller.
    machine.visit_scalars(&mut visit);
    queue.visit_scalars(&mut visit);
    key[2] = flags;
}

impl TaskMemo {
    /// Copies every scalar of `machine` and `queue` into `self.start`
    /// (or `self.end`), in walk order.
    fn load_scalars(&mut self, machine: &mut PimMachine, queue: &mut TimeQueue, end: bool) {
        let out = if end { &mut self.end } else { &mut self.start };
        let instants = &mut self.instants;
        out.clear();
        if !end {
            instants.clear();
        }
        let mut visit = |scalar: Scalar<'_>| {
            let (value, instant) = match scalar {
                Scalar::Free(t) | Scalar::Accrual(t, _) => (t.as_ps(), true),
                Scalar::Busy(d) => (d.as_ps(), false),
                Scalar::Count(c) => (*c, false),
            };
            out.push(value);
            if !end {
                instants.push(instant);
            }
        };
        machine.visit_scalars(&mut visit);
        queue.visit_scalars(&mut visit);
    }

    /// Bytes held: the key index, the tapes, the blocks and their
    /// groups and addends. Arenas are counted by length: they grow
    /// geometrically, so their capacity holds at most as much again.
    fn bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        self.index.len() * (size_of::<(Box<[u64]>, usize)>() + 1)
            + self.index.keys().map(|k| size_of_val(&**k)).sum::<usize>()
            + self.tapes.len() * size_of::<Tape>()
            + self.tapes.iter().map(Tape::heap_bytes).sum::<usize>()
            + self.blocks.len() * (size_of::<Block>() + size_of::<u64>())
            + self.groups.len() * size_of::<Group>()
            + self.addends.len() * size_of::<f64>()
    }

    /// Returns the id of a block equal to `block` (over `groups` and
    /// `addends`), appending it first if none exists.
    fn intern(&mut self, block: &RecordedBlock) -> u16 {
        let mut hasher = DefaultHasher::new();
        block.groups.hash(&mut hasher);
        for a in &block.addends {
            a.to_bits().hash(&mut hasher);
        }
        (block.macs, block.time).hash(&mut hasher);
        let hash = hasher.finish();
        let same = |b: &Block| {
            let groups = &self.groups[b.groups.0 as usize..b.groups.1 as usize];
            let addends =
                &self.addends[b.addends as usize..b.addends as usize + block.addends.len()];
            b.macs == block.macs
                && b.time == block.time
                && groups == &block.groups[..]
                && same_bits(addends, &block.addends)
        };
        let existing = (0..self.blocks.len()).find(|&i| {
            self.block_hashes[i] == hash
                && self.addends.len() >= self.blocks[i].addends as usize + block.addends.len()
                && same(&self.blocks[i])
        });
        let id = existing.unwrap_or_else(|| {
            let first_group = to_u32(self.groups.len());
            self.groups.extend_from_slice(&block.groups);
            let first_addend = to_u32(self.addends.len());
            self.addends.extend_from_slice(&block.addends);
            self.blocks.push(Block {
                groups: (first_group, to_u32(self.groups.len())),
                addends: first_addend,
                macs: block.macs,
                time: block.time,
            });
            self.block_hashes.push(hash);
            self.blocks.len() - 1
        });
        u16::try_from(id).expect("block ids fit 16 bits")
    }

    /// Files a recorded task under the current key — self-looping when
    /// its end state keys to that same key — unless that would take the
    /// tier past its budget (recording then stops for good).
    fn insert(&mut self, recorded: RecordedTask) {
        let lens = (self.blocks.len(), self.groups.len(), self.addends.len());
        let blocks = recorded.blocks.iter().map(|b| self.intern(b)).collect();
        let tape = Tape {
            blocks,
            effects: recorded.effects.into_boxed_slice(),
            values: recorded.values.into_boxed_slice(),
            heads: recorded.heads.into_boxed_slice(),
            advance: recorded.advance,
            self_looping: self.end_key == self.key,
        };
        self.index
            .insert(self.key.clone().into_boxed_slice(), self.tapes.len());
        self.tapes.push(tape);
        if self.bytes() > MEMO_BUDGET_BYTES {
            self.index.remove(&self.key[..]);
            self.tapes.pop();
            self.blocks.truncate(lens.0);
            self.block_hashes.truncate(lens.0);
            self.groups.truncate(lens.1);
            self.addends.truncate(lens.2);
            self.full = true;
        }
    }

    /// Replays tape `id` `reps` times back to back on `machine` (`reps`
    /// is 1 unless the tape is self-looping): each block's addends into
    /// one energy view, the view folded at every probe point for the
    /// per-layer deltas, then the view written back and the integer
    /// effects composed once — the instants the last replay sets, `reps`
    /// times every busy-time and counter delta, the head state — and
    /// the host preload repeated per replay.
    fn apply(
        &self,
        id: usize,
        reps: u64,
        machine: &mut PimMachine,
        queue: &mut TimeQueue,
        prog: &NodeProgram,
        accs: &mut [LayerAcc],
    ) -> Result<(), BackendError> {
        let tape = &self.tapes[id];
        let start = machine.now().as_ps();
        let mut view = machine.energy_view();
        for _ in 0..reps {
            let mut prev = 0.0;
            for (layer, &block) in tape.blocks.iter().enumerate() {
                let block = &self.blocks[usize::from(block)];
                let mut addend = block.addends as usize;
                for group in &self.groups[block.groups.0 as usize..block.groups.1 as usize] {
                    let row = &mut view.0[usize::from(group.kind) * 8..][..8];
                    let len = usize::from(group.len);
                    if group.paired {
                        add_paired(row, &self.addends[addend..addend + 2 * len]);
                        addend += 2 * len;
                    } else {
                        add_in_order(
                            &mut row[usize::from(group.lo)..usize::from(group.hi)],
                            &self.addends[addend..addend + len],
                        );
                        addend += len;
                    }
                }
                let total = machine.fold_total(&view).as_pj();
                if let Some(i) = layer.checked_sub(1) {
                    accs[i].macs += block.macs;
                    accs[i].time += block.time;
                    accs[i].energy_pj += total - prev;
                }
                prev = total;
            }
        }
        machine.set_energy_view(&view);
        // Each replay starts `advance` after the one before it.
        let last_start = start + (reps - 1) * tape.advance;
        let mut effects = tape.effects.iter();
        let mut visit = |scalar: Scalar<'_>| {
            let effect = tape.values[usize::from(*effects.next().expect("one effect per scalar"))];
            match scalar {
                Scalar::Free(t) | Scalar::Accrual(t, _) => {
                    if effect != 0 {
                        *t = SimTime::from_ps(last_start + effect - 1);
                    }
                }
                Scalar::Busy(d) => *d += SimDuration::from_ps(effect.wrapping_mul(reps)),
                Scalar::Count(c) => *c = c.wrapping_add(effect.wrapping_mul(reps)),
            }
        };
        machine.visit_scalars(&mut visit);
        queue.visit_scalars(&mut visit);
        for (&g, &(acc, act_ptr)) in prog.head_modules.iter().zip(&*tape.heads) {
            machine.module_mut(g).set_acc_state((acc, act_ptr as usize));
        }
        if prog.has_head {
            for _ in 0..reps {
                preload_head(machine, prog)?;
            }
        }
        Ok(())
    }
}

/// Adds `adds`, in order, to every lane. The common shapes — a whole
/// row, one cluster's four modules or the two controllers, taking one
/// or two addends — are spelled out at fixed width, which compiles to
/// straight-line code instead of a loop nest whose trip counts change
/// from group to group.
#[inline]
fn add_in_order(lanes: &mut [f64], adds: &[f64]) {
    match (lanes, adds) {
        ([a, b, c, d], &[x]) => {
            for acc in [a, b, c, d] {
                *acc += x;
            }
        }
        ([a, b, c, d], &[x, y]) => {
            for acc in [a, b, c, d] {
                *acc += x;
                *acc += y;
            }
        }
        ([a, b], &[x]) => {
            *a += x;
            *b += x;
        }
        ([a, b, c, d, e, f, g, h], adds) => {
            for &x in adds {
                for acc in [
                    &mut *a, &mut *b, &mut *c, &mut *d, &mut *e, &mut *f, &mut *g, &mut *h,
                ] {
                    *acc += x;
                }
            }
        }
        (lanes, adds) => {
            for acc in lanes {
                for &x in adds {
                    *acc += x;
                }
            }
        }
    }
}

/// Applies a paired group to a whole row: `adds` interleaves the
/// sequence of lanes `0..4` with the equally long sequence of lanes
/// `4..8`, and every lane takes its own sequence in order.
#[inline]
fn add_paired(row: &mut [f64], adds: &[f64]) {
    let [a, b, c, d, e, f, g, h] = row else {
        unreachable!("a view row has eight lanes")
    };
    for pair in adds.chunks_exact(2) {
        let (x, y) = (pair[0], pair[1]);
        for acc in [&mut *a, &mut *b, &mut *c, &mut *d] {
            *acc += x;
        }
        for acc in [&mut *e, &mut *f, &mut *g, &mut *h] {
            *acc += y;
        }
    }
}

/// One recorded task. Energy is kept as the f64 addends each
/// accumulator received, one [`Block`] per probe point (block 0 is the
/// task-start probe, block `i + 1` ends with program layer `i`'s closing
/// probe). Replaying the addends in order per accumulator and folding
/// the view where the machine probed performs the same f64 operations as
/// the node replay.
#[derive(Debug)]
struct Tape {
    blocks: Box<[u16]>,
    /// One effect per scalar in walk order, as an index into `values`.
    /// For instants the value is `0` when untouched, else one more than
    /// the end instant's offset from the start `now`; for busy times and
    /// counters it is the delta. A task's effects take few distinct
    /// values (every accrual mark ends at the same instant, most
    /// counters move by the same few amounts).
    effects: Box<[u8]>,
    values: Box<[u64]>,
    /// Accumulator and activation pointer of every head module.
    heads: Box<[(i32, u32)]>,
    /// How far the task moves the machine clock, in picoseconds.
    advance: u64,
    /// Whether the task's end state keys to its start key, so the next
    /// task of the slice replays this tape again.
    self_looping: bool,
}

impl Tape {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.blocks)
            + self.effects.len()
            + std::mem::size_of_val(&*self.values)
            + std::mem::size_of_val(&*self.heads)
    }
}

/// The addends one probe point's span left in the machine, plus the
/// layer's MACs and time.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Range of this block's groups in [`TaskMemo::groups`].
    groups: (u32, u32),
    /// First addend of this block in [`TaskMemo::addends`].
    addends: u32,
    macs: u64,
    time: SimDuration,
}

/// `len` addends applied, in order, to lanes `lo..hi` of row `kind` of
/// the [`EnergyView`](hhpim_pim::EnergyView): one accumulator of a run
/// of modules (rows `0..8`) or of controllers (rows 8 and 9). A
/// `paired` group covers the whole row with `2 × len` interleaved
/// addends (see [`add_paired`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Group {
    kind: u8,
    lo: u8,
    hi: u8,
    len: u8,
    paired: bool,
}

/// A block as recorded, before interning.
#[derive(Debug, Default)]
struct RecordedBlock {
    groups: Vec<Group>,
    addends: Vec<f64>,
    macs: u64,
    time: SimDuration,
}

/// A task as recorded, before interning.
#[derive(Debug)]
struct RecordedTask {
    blocks: Vec<RecordedBlock>,
    effects: Vec<u8>,
    values: Vec<u64>,
    heads: Vec<(i32, u32)>,
    advance: u64,
}

/// Collects a tape's blocks while a task runs node by node with energy
/// recording on.
#[derive(Debug)]
struct TapeRecorder {
    blocks: Vec<RecordedBlock>,
    /// This block's addends per energy-view slot, as a range of
    /// `sequences`, empty when the slot received none (a reused
    /// buffer, as is `sequences`).
    by_slot: [(u32, u32); ENERGY_SLOTS],
    sequences: Vec<f64>,
}

impl Default for TapeRecorder {
    fn default() -> Self {
        TapeRecorder {
            blocks: Vec::new(),
            by_slot: [(0, 0); ENERGY_SLOTS],
            sequences: Vec::new(),
        }
    }
}

impl TapeRecorder {
    /// Closes one block: drains every accumulator's recorded addends
    /// and groups runs of lanes of one row whose addend sequences are
    /// bit-equal (the modules of a cluster usually are). A run over
    /// lanes `0..4` and one over lanes `4..8` taking equally many
    /// addends become one paired group.
    fn close_layer(&mut self, machine: &mut PimMachine) {
        let (by_slot, sequences) = (&mut self.by_slot, &mut self.sequences);
        by_slot.fill((0, 0));
        sequences.clear();
        machine.drain_energy_record(|slot, adds| {
            let from = to_u32(sequences.len());
            sequences.extend(adds.iter().map(|a| a.as_pj()));
            by_slot[slot] = (from, to_u32(sequences.len()));
        });
        let seq = |(from, to): (u32, u32)| &sequences[from as usize..to as usize];
        let mut block = RecordedBlock::default();
        for (kind, row) in by_slot.chunks_exact(8).enumerate() {
            let kind = kind as u8;
            let mut runs = Vec::new();
            let mut done = 0u8;
            for (lane, &range) in row.iter().enumerate() {
                if range.0 == range.1 || done >> lane & 1 == 1 {
                    continue;
                }
                let adds = seq(range);
                let mut lanes = 0u8;
                for (other, &other_range) in row.iter().enumerate().skip(lane) {
                    if other_range.0 != other_range.1 && same_bits(adds, seq(other_range)) {
                        lanes |= 1 << other;
                    }
                }
                done |= lanes;
                while lanes != 0 {
                    let lo = lanes.trailing_zeros() as u8;
                    let hi = lo + (lanes >> lo).trailing_ones() as u8;
                    lanes &= !(((1u16 << hi) - (1u16 << lo)) as u8);
                    runs.push((lo, hi, adds));
                }
            }
            let hp = runs.iter().position(|&(lo, hi, _)| (lo, hi) == (0, 4));
            let lp = runs.iter().position(|&(lo, hi, _)| (lo, hi) == (4, 8));
            if let (Some(h), Some(l)) = (hp, lp) {
                let (xs, ys) = (runs[h].2, runs[l].2);
                if xs.len() == ys.len() {
                    // One group per 255 pairs.
                    for (xs, ys) in xs
                        .chunks(usize::from(u8::MAX))
                        .zip(ys.chunks(usize::from(u8::MAX)))
                    {
                        block.groups.push(Group {
                            kind,
                            lo: 0,
                            hi: 8,
                            len: xs.len() as u8,
                            paired: true,
                        });
                        for (&x, &y) in xs.iter().zip(ys) {
                            block.addends.extend_from_slice(&[x, y]);
                        }
                    }
                    runs.retain(|&(lo, hi, _)| (lo, hi) != (0, 4) && (lo, hi) != (4, 8));
                }
            }
            // One group per run, and per 255 addends.
            for (lo, hi, adds) in runs {
                for chunk in adds.chunks(usize::from(u8::MAX)) {
                    block.groups.push(Group {
                        kind,
                        lo,
                        hi,
                        len: chunk.len() as u8,
                        paired: false,
                    });
                    block.addends.extend_from_slice(chunk);
                }
            }
        }
        self.blocks.push(block);
    }

    /// The MACs and time of the program layer the last block closed.
    fn note_layer(&mut self, macs: u64, time: SimDuration) {
        let block = self.blocks.last_mut().expect("a block was closed");
        block.macs = macs;
        block.time = time;
    }

    /// Completes the task from the memo's start/end scalar snapshots;
    /// `None` when an instant moved without landing at or after the
    /// start `now` (never expected), or the effects take over 256
    /// distinct values — the task is then simply not memoized.
    fn finish(
        self,
        memo: &TaskMemo,
        machine: &PimMachine,
        prog: &NodeProgram,
        start: SimTime,
    ) -> Option<RecordedTask> {
        let start_ps = start.as_ps();
        let mut effects = Vec::with_capacity(memo.start.len());
        let mut values = Vec::new();
        for ((&from, &to), &instant) in memo.start.iter().zip(&memo.end).zip(&memo.instants) {
            let effect = if !instant {
                to.wrapping_sub(from)
            } else if to == from {
                0
            } else {
                to.checked_sub(start_ps)? + 1
            };
            let index = values.iter().position(|&v| v == effect).unwrap_or_else(|| {
                values.push(effect);
                values.len() - 1
            });
            effects.push(u8::try_from(index).ok()?);
        }
        let heads = if prog.has_head {
            prog.head_modules
                .iter()
                .map(|&g| {
                    let (acc, act_ptr) = machine.module(g).acc_state();
                    u32::try_from(act_ptr).map(|p| (acc, p)).ok()
                })
                .collect::<Option<_>>()?
        } else {
            Vec::new()
        };
        Some(RecordedTask {
            blocks: self.blocks,
            effects,
            values,
            heads,
            advance: machine.now().as_ps() - start_ps,
        })
    }
}

/// Whether two addend sequences are equal bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("memo arenas fit 32-bit indices")
}

/// Issues one dispatching node: per selected cluster (HP first, then
/// LP, both launched at the same `now` — the interpreter's
/// `run_on_clusters` order), charge controller issue, then drive every
/// selected module in ascending local index. Completion instants feed
/// the time queue so the next barrier is an `O(1)` lookup.
fn dispatch(
    machine: &mut PimMachine,
    queue: &mut TimeQueue,
    table: &ResolvedTable,
    node: &Node,
    hp_modules: usize,
    module_count: usize,
) -> Result<(), BackendError> {
    machine.note_instruction();
    let now = machine.now();
    for (class, bits, offset, cluster_len, issue_slot) in [
        (
            ClusterClass::HighPerformance,
            node.hp_bits,
            0usize,
            hp_modules,
            module_count,
        ),
        (
            ClusterClass::LowPower,
            node.lp_bits,
            hp_modules,
            module_count - hp_modules,
            module_count + 1,
        ),
    ] {
        if bits == 0 {
            continue;
        }
        let cluster = machine
            .cluster_mut(class)
            .expect("lowered from live geometry");
        let dispatched = cluster.issue(now, bits.count_ones() as usize);
        queue.raise(issue_slot, dispatched);
        match node.op {
            NodeOp::HeadClear => {
                for idx in 0..cluster_len.min(8) {
                    if (bits >> idx) & 1 == 1 {
                        cluster.module_mut(idx).clear_acc();
                    }
                }
            }
            NodeOp::Stream => {
                let weights = table.read(class, node.mem);
                let acts = table.read(class, MemSelect::Sram);
                for idx in 0..cluster_len.min(8) {
                    if (bits >> idx) & 1 == 1 {
                        let done = cluster
                            .module_mut(idx)
                            .mac_stream_resolved(
                                dispatched,
                                node.mem,
                                &weights,
                                &acts,
                                node.addr as usize,
                                node.count as usize,
                            )
                            .map_err(|error| {
                                BackendError::Machine(MachineError::Module {
                                    module: offset + idx,
                                    error,
                                })
                            })?;
                        queue.raise(offset + idx, done);
                    }
                }
            }
            NodeOp::HeadMac => {
                let weights = table.read(class, node.mem);
                let acts = table.read(class, MemSelect::Sram);
                for idx in 0..cluster_len.min(8) {
                    if (bits >> idx) & 1 == 1 {
                        let done = cluster
                            .module_mut(idx)
                            .mac_resolved(
                                dispatched,
                                node.mem,
                                &weights,
                                &acts,
                                node.addr as usize,
                                node.count as usize,
                            )
                            .map_err(|error| {
                                BackendError::Compile(CompileError::Machine(MachineError::Module {
                                    module: offset + idx,
                                    error,
                                }))
                            })?;
                        queue.raise(offset + idx, done);
                    }
                }
            }
            NodeOp::HeadActs | NodeOp::Barrier => unreachable!("non-dispatching op"),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendKind, CycleBackend, ExecMode, ExecutionBackend};
    use crate::policy::{FixedHome, GreedyBaseline, LutAdaptive, PlacementPolicy};
    use crate::runtime::RuntimeConfig;
    use crate::Architecture;
    use hhpim_nn::TinyMlModel;
    use hhpim_workload::{LoadTrace, Scenario, ScenarioParams};

    type PolicyCtor = fn() -> Box<dyn PlacementPolicy>;

    fn policies() -> Vec<(&'static str, PolicyCtor)> {
        vec![
            ("lut", || Box::new(LutAdaptive::new())),
            ("fixed", || Box::new(FixedHome::arch_default())),
            ("greedy", || Box::new(GreedyBaseline::new())),
        ]
    }

    fn pair(arch: Architecture, policy: &PolicyCtor) -> (CycleBackend, CycleBackend) {
        let graph = CycleBackend::with_policy(arch, TinyMlModel::MobileNetV2, policy()).unwrap();
        let mut object =
            CycleBackend::with_policy(arch, TinyMlModel::MobileNetV2, policy()).unwrap();
        object.set_exec_mode(ExecMode::ObjectWalk);
        assert_eq!(graph.exec_mode(), ExecMode::TimingGraph);
        (graph, object)
    }

    #[test]
    fn reports_bit_identical_across_scenarios_and_policies() {
        for (name, policy) in policies() {
            for scenario in Scenario::ALL {
                let trace = LoadTrace::generate(
                    scenario,
                    ScenarioParams {
                        slices: 8,
                        ..ScenarioParams::default()
                    },
                );
                let (mut graph, mut object) = pair(Architecture::HhPim, &policy);
                let g = graph.execute(&trace).unwrap();
                let o = object.execute(&trace).unwrap();
                // Full structural equality: records, layers, migrations,
                // the energy ledger (every category, every f64 bit),
                // elapsed, instructions and MACs.
                assert_eq!(g, o, "graph != object for {scenario:?}/{name}");
            }
        }
    }

    #[test]
    fn reports_bit_identical_on_other_architectures() {
        for arch in [
            Architecture::Baseline,
            Architecture::Heterogeneous,
            Architecture::Hybrid,
        ] {
            let trace = LoadTrace::generate(
                Scenario::HighLowPulsing,
                ScenarioParams {
                    slices: 6,
                    ..ScenarioParams::default()
                },
            );
            let mut graph = CycleBackend::new(arch, TinyMlModel::MobileNetV2).unwrap();
            let mut object = CycleBackend::new(arch, TinyMlModel::MobileNetV2).unwrap();
            object.set_exec_mode(ExecMode::ObjectWalk);
            assert_eq!(
                graph.execute(&trace).unwrap(),
                object.execute(&trace).unwrap(),
                "graph != object on {arch:?}"
            );
        }
    }

    #[test]
    fn mid_stream_replacement_splices_match() {
        let policy: fn() -> Box<dyn PlacementPolicy> = || Box::new(LutAdaptive::new());
        let (mut graph, mut object) = pair(Architecture::HhPim, &policy);
        let max = graph.runtime_config().max_tasks;
        graph.begin_stream().unwrap();
        object.begin_stream().unwrap();
        // Oscillating queue depth forces LUT re-placements (Replacement
        // legs + migration traffic) mid-stream; outcomes must splice
        // identically.
        let mut saw_replacement = false;
        for n in [1, max, max, 1, max, 1, 3, max] {
            let g = graph.step_slice(n).unwrap();
            let o = object.step_slice(n).unwrap();
            saw_replacement |= g.replacement.is_some();
            assert_eq!(g, o, "outcome diverged at n_tasks={n}");
        }
        assert!(saw_replacement, "test never exercised a re-placement");
        assert_eq!(
            graph.finish_stream().unwrap(),
            object.finish_stream().unwrap()
        );
        // Programs were lowered once per distinct placement, then
        // reused across slices and tasks.
        assert!(graph.timegraph().program_count() >= 2);
        assert!(graph.timegraph().node_count() > 0);
    }

    #[test]
    fn restarted_streams_reuse_the_graph_and_stay_identical() {
        let policy: fn() -> Box<dyn PlacementPolicy> = || Box::new(LutAdaptive::new());
        let (mut graph, mut object) = pair(Architecture::HhPim, &policy);
        let trace = LoadTrace::generate(
            Scenario::PeriodicSpike,
            ScenarioParams {
                slices: 6,
                ..ScenarioParams::default()
            },
        );
        let g1 = graph.execute(&trace).unwrap();
        let o1 = object.execute(&trace).unwrap();
        assert_eq!(g1, o1);
        let lowered = graph.timegraph().program_count();
        // A second stream on the same backends replays cached programs
        // (no re-lowering) and still matches the oracle bit for bit.
        let g2 = graph.execute(&trace).unwrap();
        let o2 = object.execute(&trace).unwrap();
        assert_eq!(g2, o2);
        assert_eq!(graph.timegraph().program_count(), lowered);
    }

    #[test]
    fn engine_event_streams_identical() {
        use crate::engine::Engine;
        let policy: fn() -> Box<dyn PlacementPolicy> = || Box::new(LutAdaptive::new());
        let (graph, object) = pair(Architecture::HhPim, &policy);
        let mut ge = Engine::new(graph);
        let mut oe = Engine::new(object);
        let trace = LoadTrace::generate(
            Scenario::PeriodicSpikeFrequent,
            ScenarioParams {
                slices: 10,
                ..ScenarioParams::default()
            },
        );
        ge.ingest(&trace).unwrap();
        oe.ingest(&trace).unwrap();
        while ge.step().unwrap().is_some() {}
        while oe.step().unwrap().is_some() {}
        let g_events: Vec<_> = ge.events().collect();
        let o_events: Vec<_> = oe.events().collect();
        assert_eq!(g_events, o_events);
        assert!(!g_events.is_empty());
        assert_eq!(ge.drain().unwrap(), oe.drain().unwrap());
    }

    #[test]
    fn memo_serves_most_tasks_within_its_budget() {
        let mut backend = CycleBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
        let trace = LoadTrace::generate(
            Scenario::PeriodicSpike,
            ScenarioParams {
                slices: 200,
                ..ScenarioParams::default()
            },
        );
        let report = backend.execute(&trace).unwrap();
        let tasks: u64 = report.records.iter().map(|r| u64::from(r.n_tasks)).sum();
        let stats = backend.timegraph().memo_stats();
        assert_eq!(
            stats.hits + stats.misses,
            tasks,
            "every task consults the memo"
        );
        assert!(
            stats.hits * 100 >= tasks * 95,
            "memo served {} of {tasks} tasks",
            stats.hits
        );
        assert!(stats.tapes > 0);
        assert!(stats.bytes <= 64 * 1024, "memo holds {} bytes", stats.bytes);
    }

    /// A cycle backend over `store` (HH-PIM, LUT placement).
    fn over(
        store: &Arc<crate::PlacementStore>,
        arch: Architecture,
        model: TinyMlModel,
        head: Option<WeightHome>,
    ) -> CycleBackend {
        let mut builder = crate::session::SessionBuilder::new()
            .architecture(arch)
            .model(model)
            .store(Arc::clone(store));
        if let Some(home) = head {
            builder = builder.head_home(home);
        }
        builder.build_cycle().unwrap()
    }

    /// A 24-slice stream alternating full and single-task queues, so
    /// slices re-place and run self-looping batches.
    fn full_single(backend: &mut CycleBackend) -> ExecutionReport {
        let full = backend.runtime_config().max_tasks;
        backend.begin_stream().unwrap();
        for slice in 0..24 {
            backend
                .step_slice(if slice % 2 == 0 { full } else { 1 })
                .unwrap();
        }
        backend.finish_stream().unwrap()
    }

    #[test]
    fn a_second_backend_over_a_warm_store_records_no_tapes() {
        let store = crate::PlacementStore::shared();
        let mut first = over(&store, Architecture::HhPim, TinyMlModel::MobileNetV2, None);
        let cold = full_single(&mut first);
        let recorded = first.timegraph().memo_stats();
        assert!(recorded.misses > 0 && recorded.tapes > 0, "{recorded:?}");
        let mut second = over(&store, Architecture::HhPim, TinyMlModel::MobileNetV2, None);
        assert_eq!(full_single(&mut second), cold);
        let warm = second.timegraph().memo_stats();
        assert_eq!(warm.misses, 0, "{warm:?}");
        assert_eq!(warm.hits, recorded.hits + recorded.misses);
        assert_eq!(warm.tapes, recorded.tapes, "no tape was added");
        // Per-graph counters: the first backend's did not move.
        assert_eq!(first.timegraph().memo_stats().misses, recorded.misses);
    }

    #[test]
    fn distinct_machine_identities_never_share_tapes() {
        use TinyMlModel::{MobileNetV2, ResNet18};
        let mbv2 = (Architecture::HhPim, MobileNetV2, None);
        for (a, b) in [
            (mbv2, (Architecture::Hybrid, MobileNetV2, None)),
            (mbv2, (Architecture::HhPim, ResNet18, None)),
            (
                mbv2,
                (Architecture::HhPim, MobileNetV2, Some(WeightHome::Mram)),
            ),
        ] {
            let shared = crate::PlacementStore::shared();
            full_single(&mut over(&shared, a.0, a.1, a.2));
            let mut after = over(&shared, b.0, b.1, b.2);
            let mut alone = over(&crate::PlacementStore::shared(), b.0, b.1, b.2);
            assert_eq!(full_single(&mut after), full_single(&mut alone), "{b:?}");
            // Recording as much as a backend over an empty store: no
            // tape of `a` served `b`.
            assert_eq!(
                after.timegraph().memo_stats(),
                alone.timegraph().memo_stats(),
                "{a:?} shared tapes with {b:?}"
            );
        }
    }

    #[test]
    fn a_panic_under_the_tier_lock_drops_its_tapes() {
        let store = crate::PlacementStore::shared();
        let mut first = over(&store, Architecture::HhPim, TinyMlModel::MobileNetV2, None);
        let reference = full_single(&mut first);
        let tier = Arc::clone(&first.timegraph().tier);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut memo = tier.memo.lock().unwrap();
            // A tape half filed: its key is in, the tape is not.
            memo.index.values_mut().for_each(|tape| *tape = usize::MAX);
            panic!("panic while filing a tape");
        }));
        assert!(caught.is_err() && tier.memo.is_poisoned());
        let mut later = over(&store, Architecture::HhPim, TinyMlModel::MobileNetV2, None);
        assert_eq!(full_single(&mut later), reference);
        assert!(!tier.memo.is_poisoned());
        let stats = later.timegraph().memo_stats();
        assert!(
            stats.misses > 0 && stats.tapes > 0,
            "tapes re-recorded: {stats:?}"
        );
    }

    /// Delegates to a real cycle backend but fails one chosen slice —
    /// the poison-path probe.
    struct FailingAt {
        inner: CycleBackend,
        fail_on: usize,
        stepped: usize,
    }

    impl ExecutionBackend for FailingAt {
        fn kind(&self) -> BackendKind {
            self.inner.kind()
        }
        fn architecture(&self) -> Architecture {
            self.inner.architecture()
        }
        fn runtime_config(&self) -> &RuntimeConfig {
            self.inner.runtime_config()
        }
        fn begin_stream(&mut self) -> Result<(), BackendError> {
            self.inner.begin_stream()
        }
        fn step_slice(&mut self, n_tasks: u32) -> Result<SliceOutcome, BackendError> {
            let step = self.stepped;
            self.stepped += 1;
            if step == self.fail_on {
                return Err(BackendError::NoPimLayer {
                    model: TinyMlModel::MobileNetV2,
                });
            }
            self.inner.step_slice(n_tasks)
        }
        fn finish_stream(&mut self) -> Result<ExecutionReport, BackendError> {
            self.inner.finish_stream()
        }
    }

    use crate::backend::ExecutionReport;
    use crate::engine::SliceOutcome;

    #[test]
    fn poison_and_restart_stay_identical() {
        use crate::engine::Engine;
        let policy: fn() -> Box<dyn PlacementPolicy> = || Box::new(LutAdaptive::new());
        let (graph, object) = pair(Architecture::HhPim, &policy);
        let mut ge = Engine::new(FailingAt {
            inner: graph,
            fail_on: 3,
            stepped: 0,
        });
        let mut oe = Engine::new(FailingAt {
            inner: object,
            fail_on: 3,
            stepped: 0,
        });
        let loads = [0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.9, 0.1];
        let mut g_events = Vec::new();
        let mut o_events = Vec::new();
        let mut g_errors = 0usize;
        let mut o_errors = 0usize;
        for &load in &loads {
            ge.submit(load).unwrap();
            if ge.step().is_err() {
                g_errors += 1;
            }
            g_events.extend(ge.events());
            oe.submit(load).unwrap();
            if oe.step().is_err() {
                o_errors += 1;
            }
            o_events.extend(oe.events());
        }
        // Both poisoned at the same slice, restarted on the next
        // submit, and emitted identical event streams throughout.
        assert_eq!(g_errors, 1);
        assert_eq!(o_errors, 1);
        assert_eq!(g_events, o_events);
        assert_eq!(ge.drain().unwrap(), oe.drain().unwrap());
    }
}
