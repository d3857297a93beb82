//! The structural content hash behind [`crate::BlockPair::content_hash`].
//!
//! The hash walks the block's fields directly into an FNV-1a-64 state:
//! no netlist text is rendered and no `Debug` output is formatted, so a
//! re-verify pays a few bytes per node instead of a string per node.
//! The byte encoding is fixed and documented here so the hash is the same
//! in every process and on every platform:
//!
//! * a version tag ([`VERSION`]) comes first; changing the encoding means
//!   bumping it, so caches and journals written by older builds miss
//!   instead of matching a different block;
//! * integers are fixed-width little-endian: `u32` fields and node,
//!   register, memory and instance ids as 4 bytes, `usize` fields and
//!   every length as 8;
//! * strings and sequences are length-prefixed, an `Option` is a `0`/`1`
//!   byte then its value, enum variants are explicit tag bytes and
//!   operators their netlist mnemonics;
//! * a [`Bv`] is its width then its little-endian limbs.
//!
//! Each struct is destructured in full, so a field added to the IR or the
//! spec fails to compile here until it is hashed.

use dfv_bits::Bv;
use dfv_rtl::ir::{Instance, Mem, Node, Port, ReadPort, Reg, WritePort};
use dfv_rtl::{Module, NodeId};
use dfv_sec::{Binding, ComparePoint, EquivSpec, InitState};

use crate::cache::Fnv;
use crate::BlockPair;

/// Leads every hashed stream; bump it whenever the encoding changes.
const VERSION: &str = "dfv-content-v2";

/// The content hash of one block: SLM source and entry, RTL module, spec.
pub(crate) fn block_hash(b: &BlockPair) -> u64 {
    let BlockPair {
        name: _,
        slm_source,
        slm_entry,
        rtl,
        spec,
    } = b;
    let mut w = Walk(Fnv::new());
    w.str(VERSION);
    w.str(slm_source);
    w.str(slm_entry);
    w.module(rtl);
    w.spec(spec);
    w.0.finish()
}

struct Walk(Fnv);

impl Walk {
    fn u8(&mut self, x: u8) {
        self.0.write(&[x]);
    }

    fn u32(&mut self, x: u32) {
        self.0.write(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.0.write(&x.to_le_bytes());
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.0.write(s.as_bytes());
    }

    /// A node, register, memory or instance id (all stored as `u32`).
    fn id(&mut self, index: usize) {
        self.u32(index as u32);
    }

    fn node_ref(&mut self, id: NodeId) {
        self.id(id.index());
    }

    fn opt_node_ref(&mut self, id: Option<NodeId>) {
        match id {
            None => self.u8(0),
            Some(id) => {
                self.u8(1);
                self.node_ref(id);
            }
        }
    }

    fn bv(&mut self, v: &Bv) {
        self.u32(v.width());
        for &limb in v.limbs() {
            self.u64(limb);
        }
    }

    fn ports(&mut self, ports: &[Port]) {
        self.usize(ports.len());
        for Port { name, width } in ports {
            self.str(name);
            self.u32(*width);
        }
    }

    fn module(&mut self, m: &Module) {
        let Module {
            name,
            inputs,
            outputs,
            output_drivers,
            nodes,
            node_widths,
            node_names,
            regs,
            mems,
            instances,
        } = m;
        self.str(name);
        self.ports(inputs);
        self.ports(outputs);
        self.usize(regs.len());
        for Reg {
            name,
            width,
            init,
            next,
            en,
        } in regs
        {
            self.str(name);
            self.u32(*width);
            self.bv(init);
            self.opt_node_ref(*next);
            self.opt_node_ref(*en);
        }
        self.usize(mems.len());
        for mem in mems {
            self.mem(mem);
        }
        self.usize(instances.len());
        for Instance {
            name,
            module,
            input_conns,
        } in instances
        {
            self.str(name);
            self.str(module);
            self.usize(input_conns.len());
            for &c in input_conns {
                self.node_ref(c);
            }
        }
        self.usize(nodes.len());
        for node in nodes {
            self.node(node);
        }
        self.usize(node_widths.len());
        for &width in node_widths {
            self.u32(width);
        }
        self.usize(output_drivers.len());
        for &d in output_drivers {
            self.node_ref(d);
        }
        let mut names: Vec<(u32, &str)> = node_names
            .iter()
            .map(|(&id, name)| (id, name.as_str()))
            .collect();
        names.sort_unstable();
        self.usize(names.len());
        for (id, name) in names {
            self.u32(id);
            self.str(name);
        }
    }

    fn mem(&mut self, m: &Mem) {
        let Mem {
            name,
            addr_width,
            data_width,
            depth,
            init,
            write_ports,
            read_ports,
        } = m;
        self.str(name);
        self.u32(*addr_width);
        self.u32(*data_width);
        self.usize(*depth);
        self.usize(init.len());
        for word in init {
            self.bv(word);
        }
        self.usize(read_ports.len());
        for ReadPort { addr } in read_ports {
            self.node_ref(*addr);
        }
        self.usize(write_ports.len());
        for WritePort { en, addr, data } in write_ports {
            self.node_ref(*en);
            self.node_ref(*addr);
            self.node_ref(*data);
        }
    }

    fn node(&mut self, n: &Node) {
        match n {
            Node::Input(idx) => {
                self.u8(0);
                self.usize(*idx);
            }
            Node::Const(v) => {
                self.u8(1);
                self.bv(v);
            }
            Node::RegQ(r) => {
                self.u8(2);
                self.id(r.index());
            }
            Node::MemReadData(m, port) => {
                self.u8(3);
                self.id(m.index());
                self.usize(*port);
            }
            Node::InstOut(inst, out) => {
                self.u8(4);
                self.id(inst.index());
                self.usize(*out);
            }
            Node::Un(op, a) => {
                self.u8(5);
                self.str(op.mnemonic());
                self.node_ref(*a);
            }
            Node::Bin(op, a, b) => {
                self.u8(6);
                self.str(op.mnemonic());
                self.node_ref(*a);
                self.node_ref(*b);
            }
            Node::Mux { sel, t, f } => {
                self.u8(7);
                self.node_ref(*sel);
                self.node_ref(*t);
                self.node_ref(*f);
            }
            Node::Slice { src, hi, lo } => {
                self.u8(8);
                self.node_ref(*src);
                self.u32(*hi);
                self.u32(*lo);
            }
            Node::Concat(a, b) => {
                self.u8(9);
                self.node_ref(*a);
                self.node_ref(*b);
            }
            Node::Zext(a, w) => {
                self.u8(10);
                self.node_ref(*a);
                self.u32(*w);
            }
            Node::Sext(a, w) => {
                self.u8(11);
                self.node_ref(*a);
                self.u32(*w);
            }
        }
    }

    fn spec(&mut self, s: &EquivSpec) {
        let EquivSpec {
            rtl_cycles,
            bindings,
            compares,
            constraints,
            init,
        } = s;
        self.u32(*rtl_cycles);
        self.usize(bindings.len());
        for (port, cycle, binding) in bindings {
            self.str(port);
            self.u32(*cycle);
            self.binding(binding);
        }
        self.usize(compares.len());
        for ComparePoint {
            slm_output,
            slm_slice,
            rtl_output,
            rtl_cycle,
        } in compares
        {
            self.str(slm_output);
            match slm_slice {
                None => self.u8(0),
                Some((hi, lo)) => {
                    self.u8(1);
                    self.u32(*hi);
                    self.u32(*lo);
                }
            }
            self.str(rtl_output);
            self.u32(*rtl_cycle);
        }
        self.usize(constraints.len());
        for c in constraints {
            self.module(c);
        }
        self.u8(match init {
            InitState::Reset => 0,
            InitState::Free => 1,
        });
    }

    fn binding(&mut self, b: &Binding) {
        match b {
            Binding::Slm(name) => {
                self.u8(0);
                self.str(name);
            }
            Binding::SlmSlice { name, hi, lo } => {
                self.u8(1);
                self.str(name);
                self.u32(*hi);
                self.u32(*lo);
            }
            Binding::Const(v) => {
                self.u8(2);
                self.bv(v);
            }
            Binding::Free => self.u8(3),
        }
    }
}
