//! 64-lane batched simulation: one kernel dispatch evaluates 64 stimuli.
//!
//! [`LaneSim`] runs the same flat [`Module`] as [`crate::Simulator`], but
//! holds every signal in **lane-transposed (bit-sliced) form**: a `w`-bit
//! signal occupies `w` limbs, and limb `i` packs bit `i` of 64 independent
//! scenarios — bit `l` of limb `i` is bit `i` of lane `l`'s value (see
//! `dfv_bits::limbs::lane_insert`). Logic, mux, compare, add/sub, and all
//! the wiring ops (slice/concat/zext/sext) then evaluate all 64 lanes with
//! ordinary word instructions, so a campaign that batches 64 scenarios pays
//! ~1/64th of the scalar engine's `node_evals`.
//!
//! # Scheduling
//!
//! `LaneSim` reuses the scalar engine's [`SimSchedule`] — the same
//! levelized order, static fanout map, and per-level dirty buckets — but
//! compiles its own kernels, because lane slots are `width` limbs wide
//! (one limb per *bit*) instead of `limbs_for(width)`. Dirty tracking is
//! shared across lanes: a node is re-evaluated if *any* lane's fan-in
//! changed, and one dispatch then refreshes all 64 lanes. The batched
//! dirty cone is therefore the union of the per-lane cones, which is
//! exactly what keeps per-lane results identical to 64 scalar runs.
//!
//! # Hard ops
//!
//! Every kernel evaluates in the lane domain — there is no per-lane
//! scalar fallback left. Multiplication is a shift-add kernel (slice `i`
//! of `b` masks the lanes where `a << i` enters the accumulator), the
//! shifts are lane-masked barrel shifters, and division/remainder run a
//! bit-serial restoring divider over the bit slices (`w` subtract/select
//! steps divide all 64 lanes; signed variants divide magnitudes and
//! patch signs per lane — see [`lane_udivrem`]). Divide-by-zero lanes
//! follow the `Bv` oracle's semantics (all-ones quotient, dividend
//! remainder) by construction. [`LaneStats::lane_fallback_evals`] is
//! retained for report compatibility and is now always zero.
//!
//! # Determinism
//!
//! Evaluation order is the schedule's levelized order; lanes never
//! interact except through explicit per-lane state (memories, fallback
//! ops), which is visited in ascending lane order. For a fixed per-lane
//! stimulus, every per-lane output, register, and trace value is
//! bit-identical to a scalar [`crate::Simulator`] run of that stimulus —
//! the differential property suite in `crates/designs` pins this.

use dfv_bits::limbs::{lane_extract, lane_insert, lane_splat, limbs_for, LANES};
use dfv_bits::Bv;

use crate::check::check_module;
use crate::ir::{BinOp, Module, Node, NodeId, UnOp};
use crate::schedule::SimSchedule;
use crate::sim::TraceStep;
use crate::RtlError;

/// Cumulative work counters for one [`LaneSim`]. Monotonic across the
/// simulator's lifetime (reset clears state, not these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Completed clock cycles ([`LaneSim::step`] calls).
    pub steps: u64,
    /// Combinational evaluation passes actually run.
    pub eval_passes: u64,
    /// Kernel dispatches across all passes. One dispatch evaluates all 64
    /// lanes, so this is the number to compare against 64 scalar runs'
    /// `node_evals`.
    pub node_evals: u64,
    /// Per-lane scalar-oracle evaluations. Since the restoring divider
    /// moved division into the lane domain no kernel falls back, so this
    /// is always zero; the field stays so work-ratio reports keep their
    /// shape.
    pub lane_fallback_evals: u64,
}

/// One lane-arena slot: `width` limbs at `off`, limb `i` = bit `i` across
/// all 64 lanes.
#[derive(Debug, Clone, Copy)]
struct LaneSlot {
    off: u32,
    width: u32,
}

/// A compiled lane kernel: the node's operator with operands resolved to
/// lane-arena offsets. Mirrors the scalar `Kernel`, but offsets index the
/// bit-sliced arena.
#[derive(Debug, Clone)]
enum LaneKernel {
    Input(usize),
    /// Written once at reset (splatted across lanes); never changes.
    Const,
    Copy {
        a: u32,
    },
    Un {
        op: UnOp,
        a: u32,
        aw: u32,
    },
    Bin {
        op: BinOp,
        a: u32,
        aw: u32,
        b: u32,
        bw: u32,
    },
    Mux {
        sel: u32,
        t: u32,
        f: u32,
    },
    Slice {
        a: u32,
        lo: u32,
    },
    Concat {
        a: u32,
        b: u32,
        bw: u32,
    },
    Zext {
        a: u32,
        aw: u32,
    },
    Sext {
        a: u32,
        aw: u32,
    },
}

/// The lane-arena layout plus compiled lane kernels — built once per
/// module, immutable afterwards (the lane analogue of [`SimSchedule`],
/// which it sits beside rather than replaces: levels, order, and fanout
/// still come from the schedule).
#[derive(Debug, Clone)]
struct LaneProgram {
    node_slots: Vec<LaneSlot>,
    reg_slots: Vec<LaneSlot>,
    mem_rd_slots: Vec<Vec<LaneSlot>>,
    /// Per memory: (base offset into the lane memory arena, per-word
    /// stride in limbs, per-lane stride in limbs = word stride * depth).
    mem_layout: Vec<(u32, u32, u32)>,
    kernels: Vec<LaneKernel>,
    state_len: usize,
    arena_len: usize,
    mem_arena_len: usize,
    /// Widest node in bits (scratch sizing: lane scratch is `width` limbs).
    max_width: usize,
    /// Widest node in value-form limbs (fallback buffer sizing).
    max_limbs: usize,
}

impl LaneProgram {
    fn build(module: &Module) -> Self {
        let mut off = 0u32;
        let mut max_width = 1usize;
        let mut max_limbs = 1usize;
        let mut slot_at = |width: u32, off: &mut u32| {
            let s = LaneSlot { off: *off, width };
            *off += width;
            max_width = max_width.max(width as usize);
            max_limbs = max_limbs.max(limbs_for(width));
            s
        };
        // Same layout discipline as the scalar arena: registers and memory
        // read registers first, then nodes in id order, so every operand
        // sits strictly below its consumer and `split_at_mut` hands out
        // reads and the result write simultaneously.
        let reg_slots: Vec<LaneSlot> = module
            .regs
            .iter()
            .map(|r| slot_at(r.width, &mut off))
            .collect();
        let mem_rd_slots: Vec<Vec<LaneSlot>> = module
            .mems
            .iter()
            .map(|m| {
                m.read_ports
                    .iter()
                    .map(|_| slot_at(m.data_width, &mut off))
                    .collect()
            })
            .collect();
        let state_len = off as usize;
        let node_slots: Vec<LaneSlot> = module
            .node_widths
            .iter()
            .map(|&w| slot_at(w, &mut off))
            .collect();
        let arena_len = off as usize;

        // Per-lane memories stay in value form (addresses diverge across
        // lanes), laid out lane-major: lane l's copy of memory m starts at
        // base + l * lane_stride.
        let mut mem_layout = Vec::with_capacity(module.mems.len());
        let mut mem_off = 0u32;
        for m in &module.mems {
            let stride = limbs_for(m.data_width) as u32;
            let lane_stride = stride * m.depth as u32;
            mem_layout.push((mem_off, stride, lane_stride));
            mem_off += lane_stride * LANES as u32;
            max_limbs = max_limbs.max(stride as usize);
        }
        let mem_arena_len = mem_off as usize;

        let so = |id: &NodeId| node_slots[id.index()].off;
        let sw = |id: &NodeId| node_slots[id.index()].width;
        let kernels = module
            .nodes
            .iter()
            .map(|node| match node {
                Node::Input(idx) => LaneKernel::Input(*idx),
                Node::Const(_) => LaneKernel::Const,
                Node::RegQ(r) => LaneKernel::Copy {
                    a: reg_slots[r.index()].off,
                },
                Node::MemReadData(m, p) => LaneKernel::Copy {
                    a: mem_rd_slots[m.index()][*p].off,
                },
                Node::InstOut(..) => unreachable!("lane sim requires a flat module"),
                Node::Un(op, a) => LaneKernel::Un {
                    op: *op,
                    a: so(a),
                    aw: sw(a),
                },
                Node::Bin(op, a, b) => LaneKernel::Bin {
                    op: *op,
                    a: so(a),
                    aw: sw(a),
                    b: so(b),
                    bw: sw(b),
                },
                Node::Mux { sel, t, f } => LaneKernel::Mux {
                    sel: so(sel),
                    t: so(t),
                    f: so(f),
                },
                Node::Slice { src, lo, .. } => LaneKernel::Slice {
                    a: so(src),
                    lo: *lo,
                },
                Node::Concat(a, b) => LaneKernel::Concat {
                    a: so(a),
                    b: so(b),
                    bw: sw(b),
                },
                Node::Zext(a, _) => LaneKernel::Zext {
                    a: so(a),
                    aw: sw(a),
                },
                Node::Sext(a, _) => LaneKernel::Sext {
                    a: so(a),
                    aw: sw(a),
                },
            })
            .collect();

        LaneProgram {
            node_slots,
            reg_slots,
            mem_rd_slots,
            mem_layout,
            kernels,
            state_len,
            arena_len,
            mem_arena_len,
            max_width,
            max_limbs,
        }
    }

    /// Evaluates node `n` for all 64 lanes. Returns `(changed,
    /// fallback_lanes)` where `fallback_lanes` is 64 for the per-lane
    /// oracle kernels and 0 otherwise.
    fn eval_node(
        &self,
        n: usize,
        arena: &mut [u64],
        inputs: &[Vec<u64>],
        scratch: &mut Vec<u64>,
        fb: &mut DivBufs,
    ) -> (bool, u64) {
        let slot = self.node_slots[n];
        let ow = slot.width;
        let (lo, hi) = arena.split_at_mut(slot.off as usize);
        let out = &mut hi[..ow as usize];
        let rd = |off: u32, w: u32| &lo[off as usize..(off + w) as usize];
        let changed = match &self.kernels[n] {
            LaneKernel::Input(idx) => write_diff(out, &inputs[*idx]),
            LaneKernel::Const => false,
            LaneKernel::Copy { a } => write_diff(out, rd(*a, ow)),
            LaneKernel::Un { op, a, aw } => {
                let av = rd(*a, *aw);
                sized(scratch, ow);
                match op {
                    UnOp::Not => {
                        for (d, x) in scratch.iter_mut().zip(av) {
                            *d = !x;
                        }
                    }
                    UnOp::Neg => lane_neg(scratch, av),
                    UnOp::RedAnd => scratch[0] = av.iter().fold(u64::MAX, |m, &x| m & x),
                    UnOp::RedOr => scratch[0] = av.iter().fold(0, |m, &x| m | x),
                    UnOp::RedXor => scratch[0] = av.iter().fold(0, |m, &x| m ^ x),
                }
                write_diff(out, scratch)
            }
            LaneKernel::Bin { op, a, aw, b, bw } => {
                let (av, bv) = (
                    &lo[*a as usize..(*a + *aw) as usize],
                    &lo[*b as usize..(*b + *bw) as usize],
                );
                sized(scratch, ow);
                match op {
                    BinOp::And => {
                        for (d, (x, y)) in scratch.iter_mut().zip(av.iter().zip(bv)) {
                            *d = x & y;
                        }
                    }
                    BinOp::Or => {
                        for (d, (x, y)) in scratch.iter_mut().zip(av.iter().zip(bv)) {
                            *d = x | y;
                        }
                    }
                    BinOp::Xor => {
                        for (d, (x, y)) in scratch.iter_mut().zip(av.iter().zip(bv)) {
                            *d = x ^ y;
                        }
                    }
                    BinOp::Add => lane_add(scratch, av, bv),
                    BinOp::Sub => lane_sub(scratch, av, bv),
                    BinOp::Mul => lane_mul(scratch, av, bv),
                    BinOp::Eq => scratch[0] = !lane_ne(av, bv),
                    BinOp::Ne => scratch[0] = lane_ne(av, bv),
                    BinOp::ULt => scratch[0] = lane_ult(av, bv),
                    BinOp::ULe => scratch[0] = !lane_ult(bv, av),
                    BinOp::SLt => scratch[0] = lane_slt(av, bv),
                    BinOp::SLe => scratch[0] = !lane_slt(bv, av),
                    BinOp::Shl | BinOp::LShr | BinOp::AShr => {
                        scratch.copy_from_slice(av);
                        lane_shift(*op, scratch, bv);
                    }
                    BinOp::UDiv | BinOp::URem => {
                        // Restoring division in the lane domain: one
                        // bit-serial pass divides all 64 lanes at once.
                        fb.sized(ow);
                        lane_udivrem(av, bv, &mut fb.quo, &mut fb.rem, &mut fb.diff);
                        scratch.copy_from_slice(if *op == BinOp::UDiv { &fb.quo } else { &fb.rem });
                    }
                    BinOp::SDiv | BinOp::SRem => {
                        fb.sized(ow);
                        lane_sdivrem(*op, av, bv, scratch, fb);
                    }
                }
                write_diff(out, scratch)
            }
            LaneKernel::Mux { sel, t, f } => {
                let s = lo[*sel as usize];
                let (tv, fv) = (rd(*t, ow), rd(*f, ow));
                sized(scratch, ow);
                for (d, (x, y)) in scratch.iter_mut().zip(tv.iter().zip(fv)) {
                    *d = (s & x) | (!s & y);
                }
                write_diff(out, scratch)
            }
            LaneKernel::Slice { a, lo: low } => write_diff(out, rd(*a + *low, ow)),
            LaneKernel::Concat { a, b, bw } => {
                sized(scratch, ow);
                scratch[..*bw as usize].copy_from_slice(rd(*b, *bw));
                scratch[*bw as usize..].copy_from_slice(rd(*a, ow - *bw));
                write_diff(out, scratch)
            }
            LaneKernel::Zext { a, aw } => {
                sized(scratch, ow);
                scratch[..*aw as usize].copy_from_slice(rd(*a, *aw));
                write_diff(out, scratch)
            }
            LaneKernel::Sext { a, aw } => {
                let av = rd(*a, *aw);
                sized(scratch, ow);
                scratch[..*aw as usize].copy_from_slice(av);
                let sign = av[*aw as usize - 1];
                for d in scratch[*aw as usize..].iter_mut() {
                    *d = sign;
                }
                write_diff(out, scratch)
            }
        };
        (changed, 0)
    }
}

/// Bit-sliced scratch groups for the lane-domain divider (quotient,
/// remainder, subtract scratch, and the two signed-magnitude operands).
#[derive(Debug, Clone, Default)]
struct DivBufs {
    quo: Vec<u64>,
    rem: Vec<u64>,
    diff: Vec<u64>,
    ma: Vec<u64>,
    mb: Vec<u64>,
}

impl DivBufs {
    fn sized(&mut self, w: u32) {
        for v in [
            &mut self.quo,
            &mut self.rem,
            &mut self.diff,
            &mut self.ma,
            &mut self.mb,
        ] {
            v.clear();
            v.resize(w as usize, 0);
        }
    }
}

/// One recorded cycle of watched outputs, in lane form.
#[derive(Debug, Clone)]
struct LaneTraceStep {
    cycle: u64,
    /// Per watch: the driver's lane group (`width` limbs).
    values: Vec<Vec<u64>>,
}

/// A 64-lane batched simulator for a flat [`Module`]: every input, state
/// element, and node holds 64 independent scenarios, and one kernel
/// dispatch advances all of them. See the module docs for the lane
/// layout, scheduling, and fallback rules.
///
/// # Example
///
/// ```
/// use dfv_bits::Bv;
/// use dfv_rtl::{LaneSim, ModuleBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ModuleBuilder::new("addc");
/// let x = b.input("x", 8);
/// let y = b.input("y", 8);
/// let s = b.add(x, y);
/// b.output("s", s);
/// let mut sim = LaneSim::new(b.finish()?)?;
/// for lane in 0..64 {
///     sim.poke_lane("x", lane, Bv::from_u64(8, lane as u64));
///     sim.poke_lane("y", lane, Bv::from_u64(8, 100));
/// }
/// assert_eq!(sim.output_lane("s", 63).to_u64(), 163);
/// assert_eq!(sim.stats().node_evals, sim.module().nodes.len() as u64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LaneSim {
    module: Module,
    sched: SimSchedule,
    prog: LaneProgram,
    /// Lane-transposed value arena: `[reg][mem read reg][node]` slots,
    /// each `width` limbs.
    arena: Vec<u64>,
    /// Per-lane memory contents, value form, lane-major.
    mem_arena: Vec<u64>,
    /// Current input values, lane form (`width` limbs per port).
    input_vals: Vec<Vec<u64>>,
    dirty_levels: Vec<Vec<u32>>,
    in_dirty: Vec<bool>,
    full_dirty: bool,
    dirty: bool,
    scratch: Vec<u64>,
    fb: DivBufs,
    /// Value-form scratch for pokes/reads/memory stepping.
    val_buf: Vec<u64>,
    cycle: u64,
    watches: Vec<usize>,
    trace: Vec<LaneTraceStep>,
    stats: LaneStats,
}

impl LaneSim {
    /// Creates a 64-lane simulator for `module`, validating it first. The
    /// module must be flat; all lanes start at the reset state.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError`] if validation fails or the module has
    /// instances.
    pub fn new(module: Module) -> Result<Self, RtlError> {
        check_module(&module)?;
        if !module.instances.is_empty() {
            return Err(RtlError::NotFlat {
                module: module.name.clone(),
            });
        }
        let sched = SimSchedule::build(&module);
        let prog = LaneProgram::build(&module);
        let input_vals = module
            .inputs
            .iter()
            .map(|p| vec![0u64; p.width as usize])
            .collect();
        let mut sim = LaneSim {
            arena: vec![0; prog.arena_len],
            mem_arena: vec![0; prog.mem_arena_len],
            input_vals,
            dirty_levels: vec![Vec::new(); sched.num_levels() as usize],
            in_dirty: vec![false; module.nodes.len()],
            full_dirty: true,
            dirty: true,
            scratch: Vec::with_capacity(prog.max_width),
            fb: DivBufs::default(),
            val_buf: vec![0; prog.max_limbs],
            cycle: 0,
            watches: Vec::new(),
            trace: Vec::new(),
            stats: LaneStats::default(),
            prog,
            sched,
            module,
        };
        sim.reset();
        Ok(sim)
    }

    /// The simulated module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The shared evaluation schedule (levels, fanout edges).
    pub fn schedule(&self) -> &SimSchedule {
        &self.sched
    }

    /// The current cycle count (completed [`LaneSim::step`]s since reset).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cumulative work counters (monotonic; not cleared by reset).
    pub fn stats(&self) -> LaneStats {
        self.stats
    }

    /// Resets every lane: registers to init, memories to initial contents,
    /// inputs to zero, cycle to 0. The trace is cleared; stats are not.
    pub fn reset(&mut self) {
        self.arena.fill(0);
        self.mem_arena.fill(0);
        for (i, r) in self.module.regs.iter().enumerate() {
            let s = self.prog.reg_slots[i];
            lane_splat(
                &mut self.arena[s.off as usize..][..s.width as usize],
                s.width,
                r.init.limbs(),
            );
        }
        for (mi, m) in self.module.mems.iter().enumerate() {
            let (base, stride, lane_stride) = self.prog.mem_layout[mi];
            for lane in 0..LANES {
                let lb = base as usize + lane * lane_stride as usize;
                for (a, w) in m.init.iter().enumerate() {
                    self.mem_arena[lb + a * stride as usize..][..stride as usize]
                        .copy_from_slice(w.limbs());
                }
            }
        }
        // Constants are splatted once here; their kernels are no-ops.
        for (i, node) in self.module.nodes.iter().enumerate() {
            if let Node::Const(c) = node {
                let s = self.prog.node_slots[i];
                lane_splat(
                    &mut self.arena[s.off as usize..][..s.width as usize],
                    s.width,
                    c.limbs(),
                );
            }
        }
        for v in &mut self.input_vals {
            v.fill(0);
        }
        for b in &mut self.dirty_levels {
            b.clear();
        }
        self.in_dirty.fill(false);
        self.full_dirty = true;
        self.cycle = 0;
        self.dirty = true;
        self.trace.clear();
    }

    /// Sets an input port for one lane. Re-poking the value the lane
    /// already holds is free: nothing is marked dirty.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist, the width differs, or
    /// `lane >= 64`.
    pub fn poke_lane(&mut self, port: &str, lane: usize, value: Bv) {
        let idx = self.input_index(port, &value);
        let w = self.module.inputs[idx].width;
        lane_extract(
            &self.input_vals[idx],
            w,
            lane,
            &mut self.val_buf[..limbs_for(w)],
        );
        if self.val_buf[..limbs_for(w)] == *value.limbs() {
            return;
        }
        lane_insert(&mut self.input_vals[idx], w, lane, value.limbs());
        self.mark_input_dirty(idx);
    }

    /// Sets an input port to the same value on every lane.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or the width differs.
    pub fn poke_splat(&mut self, port: &str, value: Bv) {
        let idx = self.input_index(port, &value);
        let w = self.module.inputs[idx].width;
        sized(&mut self.scratch, w);
        lane_splat(&mut self.scratch, w, value.limbs());
        if self.input_vals[idx] == self.scratch {
            return;
        }
        self.input_vals[idx].copy_from_slice(&self.scratch);
        self.mark_input_dirty(idx);
    }

    fn input_index(&self, port: &str, value: &Bv) -> usize {
        let idx = self
            .module
            .input_index(port)
            .unwrap_or_else(|| panic!("no input port named {port:?}"));
        assert_eq!(
            value.width(),
            self.module.inputs[idx].width,
            "poke width mismatch on {port:?}"
        );
        idx
    }

    fn mark_input_dirty(&mut self, idx: usize) {
        let (in_dirty, buckets, sched) = (&mut self.in_dirty, &mut self.dirty_levels, &self.sched);
        for &n in sched.input_nodes(idx) {
            if !in_dirty[n as usize] {
                in_dirty[n as usize] = true;
                buckets[sched.level_raw(n) as usize].push(n);
            }
        }
        self.dirty = true;
    }

    /// Evaluates combinational logic if any lane's inputs or state changed
    /// since the last evaluation.
    pub fn eval(&mut self) {
        if !self.dirty {
            return;
        }
        let (evaled, fallbacks) = if self.full_dirty {
            self.full_pass()
        } else {
            self.dirty_pass()
        };
        self.dirty = false;
        self.stats.eval_passes += 1;
        self.stats.node_evals += evaled;
        self.stats.lane_fallback_evals += fallbacks;
    }

    fn full_pass(&mut self) -> (u64, u64) {
        let mut fallbacks = 0u64;
        for &n in self.sched.order() {
            let (_, fb) = self.prog.eval_node(
                n as usize,
                &mut self.arena,
                &self.input_vals,
                &mut self.scratch,
                &mut self.fb,
            );
            fallbacks += fb;
        }
        let in_dirty = &mut self.in_dirty;
        for b in &mut self.dirty_levels {
            for &n in b.iter() {
                in_dirty[n as usize] = false;
            }
            b.clear();
        }
        self.full_dirty = false;
        (self.module.nodes.len() as u64, fallbacks)
    }

    fn dirty_pass(&mut self) -> (u64, u64) {
        let mut evaled = 0u64;
        let mut fallbacks = 0u64;
        for lvl in 0..self.dirty_levels.len() {
            if self.dirty_levels[lvl].is_empty() {
                continue;
            }
            let mut bucket = std::mem::take(&mut self.dirty_levels[lvl]);
            bucket.sort_unstable();
            for &n in &bucket {
                self.in_dirty[n as usize] = false;
                evaled += 1;
                let (changed, fb) = self.prog.eval_node(
                    n as usize,
                    &mut self.arena,
                    &self.input_vals,
                    &mut self.scratch,
                    &mut self.fb,
                );
                fallbacks += fb;
                if changed {
                    let (in_dirty, buckets, sched) =
                        (&mut self.in_dirty, &mut self.dirty_levels, &self.sched);
                    for f in sched.fanouts(n) {
                        let fi = f.index();
                        if !in_dirty[fi] {
                            in_dirty[fi] = true;
                            buckets[sched.level_raw(fi as u32) as usize].push(fi as u32);
                        }
                    }
                }
            }
            bucket.clear();
            self.dirty_levels[lvl] = bucket;
        }
        (evaled, fallbacks)
    }

    fn node_lane_bv(&mut self, n: usize, lane: usize) -> Bv {
        let s = self.prog.node_slots[n];
        lane_extract(
            &self.arena[s.off as usize..][..s.width as usize],
            s.width,
            lane,
            &mut self.val_buf[..limbs_for(s.width)],
        );
        Bv::from_limbs(s.width, &self.val_buf[..limbs_for(s.width)])
    }

    /// Reads an output port's value on one lane (after evaluating).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `lane >= 64`.
    pub fn output_lane(&mut self, port: &str, lane: usize) -> Bv {
        assert!(lane < LANES, "lane {lane} out of range");
        let idx = self
            .module
            .output_index(port)
            .unwrap_or_else(|| panic!("no output port named {port:?}"));
        self.eval();
        self.node_lane_bv(self.module.output_drivers[idx].index(), lane)
    }

    /// Reads an arbitrary node's value on one lane (after evaluating).
    pub fn peek_lane(&mut self, node: NodeId, lane: usize) -> Bv {
        assert!(lane < LANES, "lane {lane} out of range");
        self.eval();
        self.node_lane_bv(node.index(), lane)
    }

    /// Reads a register's current value on one lane.
    ///
    /// # Panics
    ///
    /// Panics if no register has that name or `lane >= 64`.
    pub fn reg_value_lane(&mut self, name: &str, lane: usize) -> Bv {
        assert!(lane < LANES, "lane {lane} out of range");
        let r = self
            .module
            .reg_index(name)
            .unwrap_or_else(|| panic!("no register named {name:?}"));
        let s = self.prog.reg_slots[r.index()];
        lane_extract(
            &self.arena[s.off as usize..][..s.width as usize],
            s.width,
            lane,
            &mut self.val_buf[..limbs_for(s.width)],
        );
        Bv::from_limbs(s.width, &self.val_buf[..limbs_for(s.width)])
    }

    /// Advances one clock cycle on all 64 lanes: evaluates, then commits
    /// registers (with per-lane enable masking) and memories (read-first,
    /// per lane) at the rising edge.
    pub fn step(&mut self) {
        self.eval();
        self.record_trace();
        let base = self.prog.state_len;
        let (state, nodes) = self.arena.split_at_mut(base);
        let prog = &self.prog;
        let sched = &self.sched;
        let in_dirty = &mut self.in_dirty;
        let buckets = &mut self.dirty_levels;
        let mut any = false;
        let mut mark_all = |ids: &[u32], any: &mut bool| {
            for &n in ids {
                if !in_dirty[n as usize] {
                    in_dirty[n as usize] = true;
                    buckets[sched.level_raw(n) as usize].push(n);
                }
            }
            *any = true;
        };
        // Registers: per-lane enable masking — lane l loads D iff its
        // enable bit is set, otherwise keeps its current value.
        for (i, reg) in self.module.regs.iter().enumerate() {
            let en = reg
                .en
                .map(|en| nodes[prog.node_slots[en.index()].off as usize - base])
                .unwrap_or(u64::MAX);
            if en == 0 {
                continue;
            }
            let ns = prog.node_slots[reg.next.expect("checked: connected").index()];
            let d = &nodes[ns.off as usize - base..][..ns.width as usize];
            let rs = prog.reg_slots[i];
            let cur = &mut state[rs.off as usize..][..rs.width as usize];
            let mut changed = false;
            for (c, &dv) in cur.iter_mut().zip(d) {
                let new = (en & dv) | (!en & *c);
                if new != *c {
                    *c = new;
                    changed = true;
                }
            }
            if changed {
                mark_all(sched.reg_nodes(i), &mut any);
            }
        }
        // Memories: sample read addresses (read-first), then write — each
        // lane addresses its own copy of the memory.
        for (mi, mem) in self.module.mems.iter().enumerate() {
            let (mbase, stride, lane_stride) = prog.mem_layout[mi];
            let (mbase, stride, lane_stride) =
                (mbase as usize, stride as usize, lane_stride as usize);
            for (pi, rp) in mem.read_ports.iter().enumerate() {
                let aslot = prog.node_slots[rp.addr.index()];
                let aslices = &nodes[aslot.off as usize - base..][..aslot.width as usize];
                let rs = prog.mem_rd_slots[mi][pi];
                sized(&mut self.scratch, rs.width);
                for lane in 0..LANES {
                    let addr = lane_u64(aslices, lane) as usize % mem.depth;
                    let word =
                        &self.mem_arena[mbase + lane * lane_stride + addr * stride..][..stride];
                    lane_insert(&mut self.scratch, rs.width, lane, word);
                }
                let cur = &mut state[rs.off as usize..][..rs.width as usize];
                if *cur != self.scratch[..] {
                    cur.copy_from_slice(&self.scratch);
                    mark_all(sched.mem_read_nodes(mi, pi), &mut any);
                }
            }
            for wp in &mem.write_ports {
                let en = nodes[prog.node_slots[wp.en.index()].off as usize - base];
                if en == 0 {
                    continue;
                }
                let aslot = prog.node_slots[wp.addr.index()];
                let aslices = &nodes[aslot.off as usize - base..][..aslot.width as usize];
                let ds = prog.node_slots[wp.data.index()];
                let dslices = &nodes[ds.off as usize - base..][..ds.width as usize];
                for lane in 0..LANES {
                    if (en >> lane) & 1 == 0 {
                        continue;
                    }
                    let addr = lane_u64(aslices, lane) as usize % mem.depth;
                    lane_extract(dslices, ds.width, lane, &mut self.val_buf[..stride]);
                    self.mem_arena[mbase + lane * lane_stride + addr * stride..][..stride]
                        .copy_from_slice(&self.val_buf[..stride]);
                }
            }
        }
        self.cycle += 1;
        if any {
            self.dirty = true;
        }
        self.stats.steps += 1;
    }

    /// Watches an output port; all 64 lanes' values are recorded at every
    /// step.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn watch_output(&mut self, port: &str) {
        let idx = self
            .module
            .output_index(port)
            .unwrap_or_else(|| panic!("no output port named {port:?}"));
        self.watches.push(idx);
    }

    /// The recorded trace of one lane, in the scalar simulator's
    /// [`TraceStep`] form (so per-lane traces compare directly against
    /// a scalar run's trace).
    pub fn trace_lane(&self, lane: usize) -> Vec<TraceStep> {
        assert!(lane < LANES, "lane {lane} out of range");
        self.trace
            .iter()
            .map(|t| TraceStep {
                cycle: t.cycle,
                values: t
                    .values
                    .iter()
                    .zip(&self.watches)
                    .map(|(group, &idx)| {
                        let w = self.module.outputs[idx].width;
                        let mut buf = vec![0u64; limbs_for(w)];
                        lane_extract(group, w, lane, &mut buf);
                        Bv::from_limbs(w, &buf)
                    })
                    .collect(),
            })
            .collect()
    }

    fn record_trace(&mut self) {
        if self.watches.is_empty() {
            return;
        }
        let values: Vec<Vec<u64>> = self
            .watches
            .iter()
            .map(|&idx| {
                let s = self.prog.node_slots[self.module.output_drivers[idx].index()];
                self.arena[s.off as usize..][..s.width as usize].to_vec()
            })
            .collect();
        self.trace.push(LaneTraceStep {
            cycle: self.cycle,
            values,
        });
    }
}

/// Extracts lane `lane`'s value from a lane group as a `u64` (the low 64
/// bits — enough for memory addressing, where widths are small).
fn lane_u64(slices: &[u64], lane: usize) -> u64 {
    let mut v = 0u64;
    for (i, s) in slices.iter().take(64).enumerate() {
        v |= ((s >> lane) & 1) << i;
    }
    v
}

/// Lane-parallel ripple-carry add: `out = a + b` per lane, one full-adder
/// step per bit slice.
fn lane_add(out: &mut [u64], a: &[u64], b: &[u64]) {
    let mut c = 0u64;
    for (d, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        let axb = x ^ y;
        *d = axb ^ c;
        c = (x & y) | (c & axb);
    }
}

/// Lane-parallel subtract: `out = a - b` per lane, as `a + !b + 1`.
fn lane_sub(out: &mut [u64], a: &[u64], b: &[u64]) {
    let mut c = u64::MAX;
    for (d, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        let s = !y;
        let axs = x ^ s;
        *d = axs ^ c;
        c = (x & s) | (c & axs);
    }
}

/// Lane-parallel truncated multiply: shift-add over `b`'s bit slices.
/// Slice `i` of `b` is a 64-lane mask selecting the lanes where `a << i`
/// enters the accumulator, so one call is 64 multiplies; truncation to
/// the output width makes the signed and unsigned products coincide, as
/// in the scalar `wrapping_mul`. O(w^2) slice ops, but with no `b` bit
/// set above slice `i` the inner loop never runs past `i` — multiplies
/// by small constants (filter taps) stay cheap.
fn lane_mul(out: &mut [u64], a: &[u64], b: &[u64]) {
    out.fill(0);
    let w = out.len();
    for (i, &mask) in b.iter().enumerate().take(w) {
        if mask == 0 {
            continue;
        }
        let mut c = 0u64;
        for j in i..w {
            let x = out[j];
            let y = a[j - i] & mask;
            let axb = x ^ y;
            out[j] = axb ^ c;
            c = (x & y) | (c & axb);
        }
    }
}

/// Lane-parallel barrel shift, in place: `out` holds the value group on
/// entry and `amt` is the shift-amount group. Stage `k` shifts by `2^k`
/// slice positions exactly in the lanes where bit `k` of the amount is
/// set; bits shifted past the width drop out, so amounts `>= width`
/// converge to all-zeros (`Shl`/`LShr`) or all-sign (`AShr`) — the `Bv`
/// oracle's semantics. A stage whose step reaches or exceeds the width
/// cannot move bits at all and only zero-/sign-fills its lanes.
fn lane_shift(op: BinOp, out: &mut [u64], amt: &[u64]) {
    let w = out.len();
    for (k, &m) in amt.iter().enumerate() {
        if m == 0 {
            continue;
        }
        let step = 1usize.checked_shl(k as u32).unwrap_or(usize::MAX);
        let sgn = out[w - 1];
        match op {
            BinOp::Shl => {
                for j in (step.min(w)..w).rev() {
                    out[j] = (out[j - step] & m) | (out[j] & !m);
                }
                for s in out[..step.min(w)].iter_mut() {
                    *s &= !m;
                }
            }
            BinOp::LShr | BinOp::AShr => {
                let fill = if op == BinOp::AShr { sgn & m } else { 0 };
                for j in 0..w - step.min(w) {
                    out[j] = (out[j + step] & m) | (out[j] & !m);
                }
                for s in out[w - step.min(w)..].iter_mut() {
                    *s = fill | (*s & !m);
                }
            }
            _ => unreachable!("lane_shift only handles shift ops"),
        }
    }
}

/// Lane-parallel restoring division: for every lane, `quo = a / b` and
/// `rem = a % b`, computed entirely in the bit-sliced domain. Classic
/// bit-serial restoring division, one subtract/select step per bit: the
/// remainder shifts left absorbing the next dividend bit, lanes where it
/// reached the divisor subtract it and set the quotient bit. The bit
/// shifted out of the remainder (`top`) stands in for the `w+1`-th
/// compare bit, so a `w`-limb remainder suffices.
///
/// Divide-by-zero lanes get the oracle semantics for free: `rem < 0` is
/// never true, so every quotient bit sets (all-ones) and nothing is ever
/// subtracted (the remainder ends as the dividend).
///
/// `diff` is scratch; all slices are `a.len()` limbs.
fn lane_udivrem(a: &[u64], b: &[u64], quo: &mut [u64], rem: &mut [u64], diff: &mut [u64]) {
    let w = a.len();
    rem.fill(0);
    for i in (0..w).rev() {
        let top = rem[w - 1];
        for j in (1..w).rev() {
            rem[j] = rem[j - 1];
        }
        rem[0] = a[i];
        // Lanes where the (top:rem) value is >= b: top set means the
        // shifted remainder overflowed w bits and certainly exceeds b.
        let ge = top | !lane_ult(rem, b);
        lane_sub(diff, rem, b);
        for (r, &d) in rem.iter_mut().zip(diff.iter()) {
            *r = (ge & d) | (!ge & *r);
        }
        quo[i] = ge;
    }
}

/// Lane-parallel signed division/remainder via magnitudes: divide
/// `|a| / |b|` with [`lane_udivrem`], then negate the quotient in lanes
/// with differing operand signs (patching divide-by-zero lanes to the
/// all-ones quotient) and the remainder in lanes with a negative
/// dividend (by-zero lanes come out as the dividend automatically).
fn lane_sdivrem(op: BinOp, a: &[u64], b: &[u64], out: &mut [u64], fb: &mut DivBufs) {
    let w = a.len();
    let (sa, sb) = (a[w - 1], b[w - 1]);
    lane_neg(&mut fb.diff, a);
    for (m, (&n, &x)) in fb.ma.iter_mut().zip(fb.diff.iter().zip(a)) {
        *m = (sa & n) | (!sa & x);
    }
    lane_neg(&mut fb.diff, b);
    for (m, (&n, &x)) in fb.mb.iter_mut().zip(fb.diff.iter().zip(b)) {
        *m = (sb & n) | (!sb & x);
    }
    // Split borrows: the divider writes quo/rem with ma/mb as inputs.
    let (ma, mb) = (std::mem::take(&mut fb.ma), std::mem::take(&mut fb.mb));
    lane_udivrem(&ma, &mb, &mut fb.quo, &mut fb.rem, &mut fb.diff);
    fb.ma = ma;
    fb.mb = mb;
    let bz = !fb.mb.iter().fold(0u64, |m, &x| m | x);
    let (src, flip) = match op {
        BinOp::SDiv => (&fb.quo, sa ^ sb),
        _ => (&fb.rem, sa),
    };
    lane_neg(&mut fb.diff, src);
    for (o, (&v, &n)) in out.iter_mut().zip(src.iter().zip(fb.diff.iter())) {
        *o = (flip & n) | (!flip & v);
    }
    if op == BinOp::SDiv {
        // sdiv by zero is all-ones regardless of the dividend's sign.
        for o in out.iter_mut() {
            *o |= bz;
        }
    }
}

/// Lane-parallel negate: `out = -a` per lane, as `!a + 1`.
fn lane_neg(out: &mut [u64], a: &[u64]) {
    let mut c = u64::MAX;
    for (d, &x) in out.iter_mut().zip(a) {
        let s = !x;
        *d = s ^ c;
        c &= s;
    }
}

/// Per-lane `a != b` mask.
fn lane_ne(a: &[u64], b: &[u64]) -> u64 {
    a.iter().zip(b).fold(0, |m, (&x, &y)| m | (x ^ y))
}

/// Per-lane unsigned `a < b` mask, LSB-to-MSB.
fn lane_ult(a: &[u64], b: &[u64]) -> u64 {
    let mut lt = 0u64;
    for (&x, &y) in a.iter().zip(b) {
        lt = (!x & y) | (!(x ^ y) & lt);
    }
    lt
}

/// Per-lane signed `a < b` mask (two's complement).
fn lane_slt(a: &[u64], b: &[u64]) -> u64 {
    let (sa, sb) = (a[a.len() - 1], b[b.len() - 1]);
    (sa & !sb) | (!(sa ^ sb) & lane_ult(a, b))
}

fn sized(scratch: &mut Vec<u64>, width: u32) {
    scratch.clear();
    scratch.resize(width as usize, 0);
}

fn write_diff(out: &mut [u64], new: &[u64]) -> bool {
    if out == new {
        false
    } else {
        out.copy_from_slice(new);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::sim::Simulator;
    use dfv_bits::SplitMix64;

    fn counter_with_enable() -> Module {
        let mut b = ModuleBuilder::new("ctr");
        let en = b.input("en", 1);
        let r = b.reg("count", 8, Bv::zero(8));
        let q = b.reg_q(r);
        let one = b.lit(8, 1);
        let next = b.add(q, one);
        b.connect_reg(r, next);
        b.reg_enable(r, en);
        b.output("count", q);
        b.finish().unwrap()
    }

    #[test]
    fn lanes_count_independently() {
        let mut sim = LaneSim::new(counter_with_enable()).unwrap();
        // Even lanes enabled, odd lanes disabled.
        for lane in 0..LANES {
            sim.poke_lane("en", lane, Bv::from_bool(lane % 2 == 0));
        }
        for _ in 0..5 {
            sim.step();
        }
        for lane in 0..LANES {
            let expect = if lane % 2 == 0 { 5 } else { 0 };
            assert_eq!(
                sim.output_lane("count", lane).to_u64(),
                expect,
                "lane {lane}"
            );
        }
    }

    #[test]
    fn one_dispatch_covers_all_lanes() {
        let mut sim = LaneSim::new(counter_with_enable()).unwrap();
        sim.poke_splat("en", Bv::from_bool(true));
        sim.step();
        let evals = sim.stats().node_evals;
        // The batched engine never exceeds one dispatch per node per pass,
        // regardless of how many lanes are active.
        assert!(evals <= sim.stats().eval_passes * sim.module().nodes.len() as u64);
        assert_eq!(sim.stats().lane_fallback_evals, 0);
    }

    #[test]
    fn idle_lanes_cost_nothing() {
        let mut sim = LaneSim::new(counter_with_enable()).unwrap();
        sim.poke_splat("en", Bv::from_bool(false));
        assert_eq!(sim.output_lane("count", 0).to_u64(), 0);
        let settled = sim.stats().node_evals;
        for _ in 0..50 {
            sim.step();
        }
        assert_eq!(sim.stats().node_evals, settled, "idle lanes re-evaluated");
        // Re-poking the same per-lane value is also free.
        sim.poke_lane("en", 7, Bv::from_bool(false));
        sim.eval();
        assert_eq!(sim.stats().node_evals, settled);
    }

    #[test]
    fn division_ops_match_scalar_per_lane() {
        // All four division-class ops now run the lane-domain restoring
        // divider — no per-lane oracle fallback remains. Check every op
        // against 64 scalar runs, with divide-by-zero lanes included.
        let mut b = ModuleBuilder::new("hard");
        let x = b.input("x", 32);
        let y = b.input("y", 32);
        let m = b.mul(x, y);
        let ud = b.udiv(x, y);
        let ur = b.urem(x, y);
        let sd = b.sdiv(x, y);
        let sr = b.srem(x, y);
        let sh = b.shl(x, y);
        b.output("m", m);
        b.output("ud", ud);
        b.output("ur", ur);
        b.output("sd", sd);
        b.output("sr", sr);
        b.output("sh", sh);
        let module = b.finish().unwrap();

        let mut rng = SplitMix64::new(0x1A7E);
        let mut lane_sim = LaneSim::new(module.clone()).unwrap();
        let stim: Vec<(Bv, Bv)> = (0..LANES)
            .map(|lane| {
                let y = match lane % 4 {
                    0 => 0, // divide-by-zero lanes
                    1 => rng.next_u64() & 0x3F,
                    _ => rng.next_u64() & 0xFFFF_FFFF, // incl. negatives
                };
                (
                    Bv::from_u64(32, rng.next_u64() & 0xFFFF_FFFF),
                    Bv::from_u64(32, y),
                )
            })
            .collect();
        for (lane, (xv, yv)) in stim.iter().enumerate() {
            lane_sim.poke_lane("x", lane, xv.clone());
            lane_sim.poke_lane("y", lane, yv.clone());
        }
        lane_sim.eval();
        assert_eq!(
            lane_sim.stats().lane_fallback_evals,
            0,
            "division must slice"
        );
        for (lane, (xv, yv)) in stim.iter().enumerate() {
            let mut scalar = Simulator::new(module.clone()).unwrap();
            scalar.poke("x", xv.clone());
            scalar.poke("y", yv.clone());
            for port in ["m", "ud", "ur", "sd", "sr", "sh"] {
                assert_eq!(
                    lane_sim.output_lane(port, lane),
                    scalar.output(port),
                    "{port} lane {lane}: {xv} op {yv}"
                );
            }
        }
    }

    #[test]
    fn lane_divider_corner_cases_match_bv_oracle() {
        // INT_MIN / -1, x / 0, 0 / x, x % larger — the divider's signed
        // patch-up and the overflow-bit compare, pinned against eval_bin
        // at a width that crosses a limb boundary on the magnitude path.
        let mut b = ModuleBuilder::new("corners");
        let x = b.input("x", 8);
        let y = b.input("y", 8);
        for (name, n) in [
            ("ud", b.udiv(x, y)),
            ("ur", b.urem(x, y)),
            ("sd", b.sdiv(x, y)),
            ("sr", b.srem(x, y)),
        ] {
            b.output(name, n);
        }
        let module = b.finish().unwrap();
        let cases: [(u64, u64); 8] = [
            (0x80, 0xFF), // INT_MIN / -1 wraps
            (0x80, 0x01),
            (0x7F, 0x80),
            (0xAB, 0x00), // by zero
            (0x00, 0x00),
            (0x00, 0xC3),
            (0x05, 0x0D), // dividend < divisor
            (0xFE, 0x02),
        ];
        let mut sim = LaneSim::new(module).unwrap();
        for (lane, &(xv, yv)) in cases.iter().cycle().take(LANES).enumerate() {
            sim.poke_lane("x", lane, Bv::from_u64(8, xv));
            sim.poke_lane("y", lane, Bv::from_u64(8, yv));
        }
        for (lane, &(xv, yv)) in cases.iter().cycle().take(LANES).enumerate() {
            let (a, b) = (Bv::from_u64(8, xv), Bv::from_u64(8, yv));
            for (port, op) in [
                ("ud", BinOp::UDiv),
                ("ur", BinOp::URem),
                ("sd", BinOp::SDiv),
                ("sr", BinOp::SRem),
            ] {
                assert_eq!(
                    sim.output_lane(port, lane),
                    crate::sim::eval_bin(op, &a, &b),
                    "{port} lane {lane}: {xv:#x} op {yv:#x}"
                );
            }
        }
        assert_eq!(sim.stats().lane_fallback_evals, 0);
    }

    #[test]
    fn sliced_multiply_matches_scalar_across_limb_boundaries() {
        // The shift-add mul kernel is a lane-able fast path, not an
        // oracle call — pin it against the scalar engine at a width that
        // crosses a limb boundary, with full-width random operands.
        let mut b = ModuleBuilder::new("widemul");
        let x = b.input("x", 70);
        let y = b.input("y", 70);
        let m = b.mul(x, y);
        b.output("m", m);
        let module = b.finish().unwrap();

        let mut rng = SplitMix64::new(0x070D_5EED);
        let rand_bv = |rng: &mut SplitMix64| {
            let lo = Bv::from_u64(64, rng.next_u64());
            Bv::from_u64(6, rng.next_u64() & 0x3F).concat(&lo)
        };
        let mut lane_sim = LaneSim::new(module.clone()).unwrap();
        let stim: Vec<(Bv, Bv)> = (0..LANES)
            .map(|_| (rand_bv(&mut rng), rand_bv(&mut rng)))
            .collect();
        for (lane, (xv, yv)) in stim.iter().enumerate() {
            lane_sim.poke_lane("x", lane, xv.clone());
            lane_sim.poke_lane("y", lane, yv.clone());
        }
        lane_sim.eval();
        assert_eq!(lane_sim.stats().lane_fallback_evals, 0, "mul must slice");
        for (lane, (xv, yv)) in stim.iter().enumerate() {
            let mut scalar = Simulator::new(module.clone()).unwrap();
            scalar.poke("x", xv.clone());
            scalar.poke("y", yv.clone());
            assert_eq!(
                lane_sim.output_lane("m", lane),
                scalar.output("m"),
                "lane {lane}: {} * {}",
                xv,
                yv
            );
        }
    }

    #[test]
    fn per_lane_memories_are_independent() {
        let mut b = ModuleBuilder::new("memtest");
        let we = b.input("we", 1);
        let waddr = b.input("waddr", 4);
        let wdata = b.input("wdata", 8);
        let raddr = b.input("raddr", 4);
        let mem = b.mem("m", 4, 8, 16);
        b.mem_write(mem, we, waddr, wdata);
        let rdata = b.mem_read(mem, raddr);
        b.output("rdata", rdata);
        let mut sim = LaneSim::new(b.finish().unwrap()).unwrap();

        // Each lane writes its own value to its own address.
        for lane in 0..LANES {
            sim.poke_lane("we", lane, Bv::from_bool(true));
            sim.poke_lane("waddr", lane, Bv::from_u64(4, lane as u64 % 16));
            sim.poke_lane("wdata", lane, Bv::from_u64(8, lane as u64 + 1));
            sim.poke_lane("raddr", lane, Bv::from_u64(4, lane as u64 % 16));
        }
        sim.step();
        // Read-first: the same-edge read saw the old (zero) word.
        for lane in 0..LANES {
            assert_eq!(sim.output_lane("rdata", lane).to_u64(), 0, "lane {lane}");
        }
        sim.poke_splat("we", Bv::from_bool(false));
        sim.step();
        for lane in 0..LANES {
            assert_eq!(
                sim.output_lane("rdata", lane).to_u64(),
                lane as u64 + 1,
                "lane {lane}"
            );
        }
    }

    #[test]
    fn lane_sim_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<LaneSim>();
    }
}
