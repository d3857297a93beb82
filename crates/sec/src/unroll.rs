//! Symbolic simulation: executing a flat module over SAT literals.
//!
//! [`SymbolicSim`] mirrors `dfv_rtl::Simulator` cycle for cycle, but every
//! word is a vector of literals, so one symbolic run covers *all* concrete
//! runs. Unrolling a transaction is just stepping the symbolic simulator
//! `k` times.

use dfv_bits::Bv;
use dfv_rtl::ir::{Module, Node};
use dfv_sat::Lit;

use crate::bitblast::BitBlaster;
use crate::spec::{InitState, SecError};

/// The largest memory depth the bit-blaster will expand word-by-word.
pub const MEM_BLAST_LIMIT: usize = 256;

/// Symbolic (literal-vector) state of a flat module.
#[derive(Debug)]
pub struct SymbolicSim<'m> {
    module: &'m Module,
    regs: Vec<Vec<Lit>>,
    mems: Vec<Vec<Vec<Lit>>>,
    mem_read_regs: Vec<Vec<Vec<Lit>>>,
}

/// The per-cycle result of a symbolic step: every node's literal vector.
#[derive(Debug, Clone)]
pub struct SymbolicCycle {
    /// Node values, indexed by node id.
    pub nodes: Vec<Vec<Lit>>,
}

impl SymbolicCycle {
    /// The word for a named output port.
    ///
    /// # Panics
    ///
    /// Panics if the module has no such output (validated specs never hit
    /// this).
    pub fn output(&self, module: &Module, name: &str) -> Vec<Lit> {
        let idx = module
            .output_index(name)
            .unwrap_or_else(|| panic!("no output port {name:?}"));
        self.nodes[module.output_drivers[idx].index()].clone()
    }
}

impl<'m> SymbolicSim<'m> {
    /// Creates symbolic state for `module` with the given initial-state
    /// convention.
    ///
    /// # Errors
    ///
    /// Returns [`SecError`] if the module is not flat or a memory exceeds
    /// [`MEM_BLAST_LIMIT`].
    pub fn new(
        bb: &mut BitBlaster<'_>,
        module: &'m Module,
        init: InitState,
    ) -> Result<Self, SecError> {
        if !module.instances.is_empty() {
            return Err(SecError::Rtl(dfv_rtl::RtlError::NotFlat {
                module: module.name.clone(),
            }));
        }
        for m in &module.mems {
            if m.depth > MEM_BLAST_LIMIT {
                return Err(SecError::MemTooLarge {
                    mem: m.name.clone(),
                    depth: m.depth,
                    limit: MEM_BLAST_LIMIT,
                });
            }
        }
        let regs = module
            .regs
            .iter()
            .map(|r| match init {
                InitState::Reset => bb.constant(&r.init),
                InitState::Free => bb.fresh_word(r.width),
            })
            .collect();
        let mems = module
            .mems
            .iter()
            .map(|m| {
                (0..m.depth)
                    .map(|i| {
                        let word = m
                            .init
                            .get(i)
                            .cloned()
                            .unwrap_or_else(|| Bv::zero(m.data_width));
                        match init {
                            InitState::Reset => bb.constant(&word),
                            InitState::Free => bb.fresh_word(m.data_width),
                        }
                    })
                    .collect()
            })
            .collect();
        let mem_read_regs = module
            .mems
            .iter()
            .map(|m| {
                m.read_ports
                    .iter()
                    .map(|_| match init {
                        InitState::Reset => bb.constant(&Bv::zero(m.data_width)),
                        InitState::Free => bb.fresh_word(m.data_width),
                    })
                    .collect()
            })
            .collect();
        Ok(SymbolicSim {
            module,
            regs,
            mems,
            mem_read_regs,
        })
    }

    /// The module being simulated.
    pub fn module(&self) -> &Module {
        self.module
    }

    /// Current symbolic register state (for induction-style checks).
    pub fn reg_state(&self) -> &[Vec<Lit>] {
        &self.regs
    }

    /// Evaluates one cycle's combinational logic from the given input words
    /// (in input-port order) and then commits the clock edge.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the module's input ports in count
    /// or width — the caller (the checker) constructs them from a validated
    /// spec.
    pub fn step(&mut self, bb: &mut BitBlaster<'_>, inputs: &[Vec<Lit>]) -> SymbolicCycle {
        let m = self.module;
        assert_eq!(inputs.len(), m.inputs.len(), "input count mismatch");
        let mut nodes: Vec<Vec<Lit>> = Vec::with_capacity(m.nodes.len());
        for (i, node) in m.nodes.iter().enumerate() {
            let w = m.node_widths[i];
            let v: Vec<Lit> = match node {
                Node::Input(idx) => {
                    assert_eq!(inputs[*idx].len(), w as usize, "input width mismatch");
                    inputs[*idx].clone()
                }
                Node::Const(c) => bb.constant(c),
                Node::RegQ(r) => self.regs[r.index()].clone(),
                Node::MemReadData(mm, p) => self.mem_read_regs[mm.index()][*p].clone(),
                Node::InstOut(..) => unreachable!("module is flat"),
                Node::Un(op, a) => bb.un_op(*op, &nodes[a.index()]),
                Node::Bin(op, a, b) => bb.bin_op(*op, &nodes[a.index()], &nodes[b.index()]),
                Node::Mux { sel, t, f } => {
                    let s = nodes[sel.index()][0];
                    bb.mux_word(s, &nodes[t.index()], &nodes[f.index()])
                }
                Node::Slice { src, hi, lo } => {
                    nodes[src.index()][*lo as usize..=*hi as usize].to_vec()
                }
                Node::Concat(hi, lo) => {
                    let mut v = nodes[lo.index()].clone();
                    v.extend_from_slice(&nodes[hi.index()]);
                    v
                }
                Node::Zext(a, tw) => {
                    let mut v = nodes[a.index()].clone();
                    v.resize(*tw as usize, bb.false_lit());
                    v
                }
                Node::Sext(a, tw) => {
                    let mut v = nodes[a.index()].clone();
                    let sign = *v.last().expect("nonzero width");
                    v.resize(*tw as usize, sign);
                    v
                }
            };
            debug_assert_eq!(v.len(), w as usize);
            nodes.push(v);
        }
        // Clock edge: registers.
        let mut new_regs = Vec::with_capacity(self.regs.len());
        for (ri, reg) in m.regs.iter().enumerate() {
            let next = nodes[reg.next.expect("checked module").index()].clone();
            let v = match reg.en {
                None => next,
                Some(en) => {
                    let e = nodes[en.index()][0];
                    bb.mux_word(e, &next, &self.regs[ri])
                }
            };
            new_regs.push(v);
        }
        // Clock edge: memories (read-first).
        for (mi, mem) in m.mems.iter().enumerate() {
            let eff_addr = |bb: &mut BitBlaster<'_>, addr: &[Lit]| -> Vec<Lit> {
                if mem.depth == (1usize << mem.addr_width.min(63)) {
                    addr.to_vec()
                } else {
                    // Non-power-of-two depth wraps modulo depth, matching
                    // the concrete simulator.
                    let d = bb.constant(&Bv::from_u64(mem.addr_width, mem.depth as u64));
                    bb.bin_op(dfv_rtl::ir::BinOp::URem, addr, &d)
                }
            };
            // Sample read ports against pre-write contents.
            for (pi, rp) in mem.read_ports.iter().enumerate() {
                let addr = eff_addr(bb, &nodes[rp.addr.index()]);
                let mut acc = bb.constant(&Bv::zero(mem.data_width));
                for (wi, word) in self.mems[mi].iter().enumerate() {
                    let idx = bb.constant(&Bv::from_u64(mem.addr_width, wi as u64));
                    let hit = bb.eq_word(&addr, &idx);
                    acc = bb.mux_word(hit, word, &acc);
                }
                self.mem_read_regs[mi][pi] = acc;
            }
            // Apply writes.
            for wp in &mem.write_ports {
                let en = nodes[wp.en.index()][0];
                let addr = eff_addr(bb, &nodes[wp.addr.index()]);
                let data = nodes[wp.data.index()].clone();
                for wi in 0..mem.depth {
                    let idx = bb.constant(&Bv::from_u64(mem.addr_width, wi as u64));
                    let hit = bb.eq_word(&addr, &idx);
                    let strobe = bb.and_gate(en, hit);
                    self.mems[mi][wi] = bb.mux_word(strobe, &data, &self.mems[mi][wi]);
                }
            }
        }
        self.regs = new_regs;
        SymbolicCycle { nodes }
    }
}

/// Evaluates a *combinational* module symbolically (no state, one shot).
///
/// # Panics
///
/// Panics if the module has state or instances, or inputs mismatch; callers
/// validate with [`crate::EquivSpec::validate`] first.
pub fn eval_comb_symbolic(
    bb: &mut BitBlaster<'_>,
    module: &Module,
    inputs: &[Vec<Lit>],
) -> SymbolicCycle {
    assert!(module.is_combinational(), "module must be combinational");
    let mut sim = SymbolicSim::new(bb, module, InitState::Reset).expect("comb module");
    sim.step(bb, inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitblast::model_word;
    use dfv_rtl::{ModuleBuilder, Simulator};
    use dfv_sat::{SolveResult, Solver};

    /// A two-stage accumulator pipeline used across the tests.
    fn pipeline() -> Module {
        let mut b = ModuleBuilder::new("pipe");
        let x = b.input("x", 8);
        let s1 = b.reg("s1", 8, Bv::zero(8));
        let s2 = b.reg("s2", 8, Bv::zero(8));
        let q1 = b.reg_q(s1);
        let q2 = b.reg_q(s2);
        let one = b.lit(8, 1);
        let inc = b.add(x, one);
        b.connect_reg(s1, inc);
        let dbl = b.add(q1, q1);
        b.connect_reg(s2, dbl);
        b.output("y", q2);
        b.finish().unwrap()
    }

    #[test]
    fn symbolic_constant_run_matches_concrete() {
        let m = pipeline();
        let mut solver = Solver::new();
        let mut bb = BitBlaster::new(&mut solver);
        let mut sym = SymbolicSim::new(&mut bb, &m, InitState::Reset).unwrap();
        let x = bb.constant(&Bv::from_u64(8, 5));
        let mut outs = Vec::new();
        for _ in 0..4 {
            let cyc = sym.step(&mut bb, std::slice::from_ref(&x));
            outs.push(cyc.output(&m, "y"));
        }
        drop(bb);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let mut sim = Simulator::new(m.clone()).unwrap();
        for word in outs {
            let expect = sim.output("y");
            sim.step_with(&[("x", Bv::from_u64(8, 5))]);
            assert_eq!(model_word(&solver, &word), expect);
        }
    }

    #[test]
    fn symbolic_memory_matches_concrete() {
        let mut b = ModuleBuilder::new("memmod");
        let we = b.input("we", 1);
        let addr = b.input("addr", 3);
        let data = b.input("data", 8);
        let mem = b.mem("m", 3, 8, 6); // deliberately non-power-of-two depth
        b.mem_write(mem, we, addr, data);
        let rd = b.mem_read(mem, addr);
        b.output("q", rd);
        let m = b.finish().unwrap();

        let stim: Vec<(u64, u64, u64)> = vec![
            (1, 2, 0xAA),
            (1, 7, 0xBB), // addr 7 wraps to 1 (depth 6)
            (0, 2, 0x00),
            (1, 1, 0xCC),
            (0, 1, 0x00),
            (0, 7, 0x00),
        ];

        let mut solver = Solver::new();
        let mut bb = BitBlaster::new(&mut solver);
        let mut sym = SymbolicSim::new(&mut bb, &m, InitState::Reset).unwrap();
        let mut words = Vec::new();
        for &(we_v, a_v, d_v) in &stim {
            let ins = vec![
                bb.constant(&Bv::from_u64(1, we_v)),
                bb.constant(&Bv::from_u64(3, a_v)),
                bb.constant(&Bv::from_u64(8, d_v)),
            ];
            let cyc = sym.step(&mut bb, &ins);
            words.push(cyc.output(&m, "q"));
        }
        drop(bb);
        assert_eq!(solver.solve(), SolveResult::Sat);

        let mut sim = Simulator::new(m.clone()).unwrap();
        for (i, &(we_v, a_v, d_v)) in stim.iter().enumerate() {
            let expect = {
                sim.poke("we", Bv::from_u64(1, we_v));
                sim.poke("addr", Bv::from_u64(3, a_v));
                sim.poke("data", Bv::from_u64(8, d_v));
                let o = sim.output("q");
                sim.step();
                o
            };
            assert_eq!(model_word(&solver, &words[i]), expect, "cycle {i}");
        }
    }

    #[test]
    fn oversized_memory_rejected() {
        let mut b = ModuleBuilder::new("big");
        let addr = b.input("addr", 12);
        let mem = b.mem("huge", 12, 8, 4096);
        let rd = b.mem_read(mem, addr);
        b.output("q", rd);
        let m = b.finish().unwrap();
        let mut solver = Solver::new();
        let mut bb = BitBlaster::new(&mut solver);
        match SymbolicSim::new(&mut bb, &m, InitState::Reset) {
            Err(SecError::MemTooLarge { depth, .. }) => assert_eq!(depth, 4096),
            other => panic!("expected MemTooLarge, got {other:?}"),
        }
    }
}
