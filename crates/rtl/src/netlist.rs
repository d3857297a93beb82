//! A line-oriented text netlist format for [`Design`]s and [`Module`]s.
//!
//! The format is the workspace's interchange representation — the analogue
//! of passing Verilog between tools. It is deliberately simple: one
//! declaration per line, nodes in id order, `#` comments.
//!
//! ```text
//! module counter
//!   input en 1
//!   output count 8
//!   reg count_r 8 8'h00
//!   n0 = input 0 : 1
//!   n1 = regq 0 : 8
//!   n2 = const 8'h01 : 8
//!   n3 = add n1 n2 : 8
//!   next 0 n3
//!   enable 0 n0
//!   drive 0 n1
//! end
//! ```

use std::fmt::Write as _;

use dfv_bits::Bv;

use crate::check::check_module;
use crate::ir::{
    BinOp, Design, InstId, Instance, Mem, MemId, Module, Node, NodeId, Port, ReadPort, Reg, RegId,
    UnOp, WritePort,
};
use crate::RtlError;

fn binop_from(name: &str) -> Option<BinOp> {
    Some(match name {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "udiv" => BinOp::UDiv,
        "urem" => BinOp::URem,
        "sdiv" => BinOp::SDiv,
        "srem" => BinOp::SRem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "lshr" => BinOp::LShr,
        "ashr" => BinOp::AShr,
        "eq" => BinOp::Eq,
        "ne" => BinOp::Ne,
        "ult" => BinOp::ULt,
        "ule" => BinOp::ULe,
        "slt" => BinOp::SLt,
        "sle" => BinOp::SLe,
        _ => return None,
    })
}

fn unop_from(name: &str) -> Option<UnOp> {
    Some(match name {
        "not" => UnOp::Not,
        "neg" => UnOp::Neg,
        "redand" => UnOp::RedAnd,
        "redor" => UnOp::RedOr,
        "redxor" => UnOp::RedXor,
        _ => return None,
    })
}

/// Serializes a module to the text netlist format.
pub fn write_module(m: &Module) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "module {}", m.name);
    for p in &m.inputs {
        let _ = writeln!(s, "  input {} {}", p.name, p.width);
    }
    for p in &m.outputs {
        let _ = writeln!(s, "  output {} {}", p.name, p.width);
    }
    for r in &m.regs {
        let _ = writeln!(s, "  reg {} {} {}", r.name, r.width, r.init);
    }
    for mem in &m.mems {
        let _ = write!(
            s,
            "  mem {} {} {} {}",
            mem.name, mem.addr_width, mem.data_width, mem.depth
        );
        for w in &mem.init {
            let _ = write!(s, " {w}");
        }
        let _ = writeln!(s);
    }
    for inst in &m.instances {
        let _ = write!(s, "  inst {} {}", inst.name, inst.module);
        for c in &inst.input_conns {
            let _ = write!(s, " n{}", c.0);
        }
        let _ = writeln!(s);
    }
    for (i, node) in m.nodes.iter().enumerate() {
        let w = m.node_widths[i];
        let body = match node {
            Node::Input(idx) => format!("input {idx}"),
            Node::Const(v) => format!("const {v}"),
            Node::RegQ(r) => format!("regq {}", r.index()),
            Node::MemReadData(mm, p) => format!("memread {} {p}", mm.index()),
            Node::InstOut(inst, o) => format!("instout {} {o}", inst.index()),
            Node::Un(op, a) => format!("{} n{}", op.mnemonic(), a.0),
            Node::Bin(op, a, b) => format!("{} n{} n{}", op.mnemonic(), a.0, b.0),
            Node::Mux { sel, t, f } => format!("mux n{} n{} n{}", sel.0, t.0, f.0),
            Node::Slice { src, hi, lo } => format!("slice n{} {hi} {lo}", src.0),
            Node::Concat(a, b) => format!("concat n{} n{}", a.0, b.0),
            Node::Zext(a, tw) => format!("zext n{} {tw}", a.0),
            Node::Sext(a, tw) => format!("sext n{} {tw}", a.0),
        };
        let _ = writeln!(s, "  n{i} = {body} : {w}");
    }
    for (i, r) in m.regs.iter().enumerate() {
        if let Some(n) = r.next {
            let _ = writeln!(s, "  next {i} n{}", n.0);
        }
        if let Some(en) = r.en {
            let _ = writeln!(s, "  enable {i} n{}", en.0);
        }
    }
    for (i, mem) in m.mems.iter().enumerate() {
        for rp in &mem.read_ports {
            let _ = writeln!(s, "  readport {i} n{}", rp.addr.0);
        }
        for wp in &mem.write_ports {
            let _ = writeln!(s, "  write {i} n{} n{} n{}", wp.en.0, wp.addr.0, wp.data.0);
        }
    }
    for (i, d) in m.output_drivers.iter().enumerate() {
        let _ = writeln!(s, "  drive {i} n{}", d.0);
    }
    for (id, name) in {
        let mut names: Vec<_> = m.node_names.iter().collect();
        names.sort_by_key(|(id, _)| **id);
        names
    } {
        let _ = writeln!(s, "  name n{id} {name}");
    }
    let _ = writeln!(s, "end");
    s
}

/// Serializes a whole design (modules in order).
pub fn write_design(d: &Design) -> String {
    d.modules
        .iter()
        .map(write_module)
        .collect::<Vec<_>>()
        .join("\n")
}

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

fn perr(line: usize, message: impl Into<String>) -> RtlError {
    RtlError::Parse {
        line: line + 1,
        message: message.into(),
    }
}

fn parse_node_ref(line: usize, tok: &str) -> Result<NodeId, RtlError> {
    let id = tok
        .strip_prefix('n')
        .and_then(|s| s.parse::<u32>().ok())
        .ok_or_else(|| perr(line, format!("expected node reference, found {tok:?}")))?;
    Ok(NodeId(id))
}

fn parse_num<T: std::str::FromStr>(line: usize, tok: &str, what: &str) -> Result<T, RtlError> {
    tok.parse()
        .map_err(|_| perr(line, format!("invalid {what} {tok:?}")))
}

fn parse_bv(line: usize, tok: &str) -> Result<Bv, RtlError> {
    tok.parse::<Bv>()
        .map_err(|e| perr(line, format!("bad literal {tok:?}: {e}")))
}

impl<'a> Parser<'a> {
    fn parse_design(text: &'a str) -> Result<Design, RtlError> {
        let mut p = Parser {
            lines: text.lines().enumerate(),
        };
        let mut d = Design::new();
        while let Some((ln, raw)) = p.lines.next() {
            let line = strip_comment(raw);
            if line.is_empty() {
                continue;
            }
            let mut toks = line.split_whitespace();
            match toks.next() {
                Some("module") => {
                    let name = toks
                        .next()
                        .ok_or_else(|| perr(ln, "module needs a name"))?
                        .to_string();
                    let m = p.parse_module_body(name)?;
                    check_module(&m)?;
                    d.add_module(m);
                }
                Some(other) => return Err(perr(ln, format!("expected `module`, found {other:?}"))),
                None => unreachable!(),
            }
        }
        Ok(d)
    }

    fn parse_module_body(&mut self, name: String) -> Result<Module, RtlError> {
        let mut m = Module {
            name,
            ..Module::default()
        };
        for (ln, raw) in self.lines.by_ref() {
            let line = strip_comment(raw);
            if line.is_empty() {
                continue;
            }
            let mut t = line.split_whitespace();
            let kw = t.next().expect("nonempty");
            match kw {
                "end" => return Ok(m),
                "input" | "output" => {
                    let pname = t.next().ok_or_else(|| perr(ln, "port needs a name"))?;
                    let width: u32 = parse_num(ln, t.next().unwrap_or(""), "width")?;
                    let port = Port {
                        name: pname.to_string(),
                        width,
                    };
                    if kw == "input" {
                        m.inputs.push(port);
                    } else {
                        m.outputs.push(port);
                        m.output_drivers.push(NodeId(u32::MAX)); // patched by `drive`
                    }
                }
                "reg" => {
                    let rname = t.next().ok_or_else(|| perr(ln, "reg needs a name"))?;
                    let width: u32 = parse_num(ln, t.next().unwrap_or(""), "width")?;
                    let init = parse_bv(ln, t.next().unwrap_or(""))?;
                    m.regs.push(Reg {
                        name: rname.to_string(),
                        width,
                        init,
                        next: None,
                        en: None,
                    });
                }
                "mem" => {
                    let mname = t.next().ok_or_else(|| perr(ln, "mem needs a name"))?;
                    let addr_width: u32 = parse_num(ln, t.next().unwrap_or(""), "addr width")?;
                    let data_width: u32 = parse_num(ln, t.next().unwrap_or(""), "data width")?;
                    let depth: usize = parse_num(ln, t.next().unwrap_or(""), "depth")?;
                    let mut init = Vec::new();
                    for tok in t {
                        init.push(parse_bv(ln, tok)?);
                    }
                    m.mems.push(Mem {
                        name: mname.to_string(),
                        addr_width,
                        data_width,
                        depth,
                        init,
                        write_ports: Vec::new(),
                        read_ports: Vec::new(),
                    });
                }
                "inst" => {
                    let iname = t.next().ok_or_else(|| perr(ln, "inst needs a name"))?;
                    let module = t.next().ok_or_else(|| perr(ln, "inst needs a module"))?;
                    let mut conns = Vec::new();
                    for tok in t {
                        conns.push(parse_node_ref(ln, tok)?);
                    }
                    m.instances.push(Instance {
                        name: iname.to_string(),
                        module: module.to_string(),
                        input_conns: conns,
                    });
                }
                "next" => {
                    let idx: usize = parse_num(ln, t.next().unwrap_or(""), "reg index")?;
                    let node = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    m.regs
                        .get_mut(idx)
                        .ok_or_else(|| perr(ln, "reg index out of range"))?
                        .next = Some(node);
                }
                "enable" => {
                    let idx: usize = parse_num(ln, t.next().unwrap_or(""), "reg index")?;
                    let node = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    m.regs
                        .get_mut(idx)
                        .ok_or_else(|| perr(ln, "reg index out of range"))?
                        .en = Some(node);
                }
                "readport" => {
                    let idx: usize = parse_num(ln, t.next().unwrap_or(""), "mem index")?;
                    let addr = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    m.mems
                        .get_mut(idx)
                        .ok_or_else(|| perr(ln, "mem index out of range"))?
                        .read_ports
                        .push(ReadPort { addr });
                }
                "write" => {
                    let idx: usize = parse_num(ln, t.next().unwrap_or(""), "mem index")?;
                    let en = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    let addr = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    let data = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    m.mems
                        .get_mut(idx)
                        .ok_or_else(|| perr(ln, "mem index out of range"))?
                        .write_ports
                        .push(WritePort { en, addr, data });
                }
                "drive" => {
                    let idx: usize = parse_num(ln, t.next().unwrap_or(""), "output index")?;
                    let node = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    if idx >= m.output_drivers.len() {
                        return Err(perr(ln, "output index out of range"));
                    }
                    m.output_drivers[idx] = node;
                }
                "name" => {
                    let node = parse_node_ref(ln, t.next().unwrap_or(""))?;
                    let name = t.next().ok_or_else(|| perr(ln, "name needs a value"))?;
                    m.node_names.insert(node.0, name.to_string());
                }
                tok if tok.starts_with('n') => {
                    // nK = <op> ... : <width>
                    let id = parse_node_ref(ln, tok)?;
                    if id.index() != m.nodes.len() {
                        return Err(perr(
                            ln,
                            format!(
                                "node ids must be dense and in order (expected n{})",
                                m.nodes.len()
                            ),
                        ));
                    }
                    if t.next() != Some("=") {
                        return Err(perr(ln, "expected `=` after node id"));
                    }
                    let rest: Vec<&str> = t.collect();
                    let colon = rest
                        .iter()
                        .rposition(|s| *s == ":")
                        .ok_or_else(|| perr(ln, "node line missing `: width`"))?;
                    let width: u32 =
                        parse_num(ln, rest.get(colon + 1).copied().unwrap_or(""), "width")?;
                    let node = self_parse_node(ln, &rest[..colon])?;
                    m.nodes.push(node);
                    m.node_widths.push(width);
                }
                other => return Err(perr(ln, format!("unknown keyword {other:?}"))),
            }
        }
        Err(perr(usize::MAX - 1, "missing `end`"))
    }
}

fn self_parse_node(ln: usize, toks: &[&str]) -> Result<Node, RtlError> {
    let op = *toks.first().ok_or_else(|| perr(ln, "empty node body"))?;
    let arg = |i: usize| -> &str { toks.get(i).copied().unwrap_or("") };
    let node = match op {
        "input" => Node::Input(parse_num(ln, arg(1), "input index")?),
        "const" => Node::Const(parse_bv(ln, arg(1))?),
        "regq" => Node::RegQ(RegId(parse_num(ln, arg(1), "reg index")?)),
        "memread" => Node::MemReadData(
            MemId(parse_num(ln, arg(1), "mem index")?),
            parse_num(ln, arg(2), "port index")?,
        ),
        "instout" => Node::InstOut(
            InstId(parse_num(ln, arg(1), "inst index")?),
            parse_num(ln, arg(2), "output index")?,
        ),
        "mux" => Node::Mux {
            sel: parse_node_ref(ln, arg(1))?,
            t: parse_node_ref(ln, arg(2))?,
            f: parse_node_ref(ln, arg(3))?,
        },
        "slice" => Node::Slice {
            src: parse_node_ref(ln, arg(1))?,
            hi: parse_num(ln, arg(2), "hi")?,
            lo: parse_num(ln, arg(3), "lo")?,
        },
        "concat" => Node::Concat(parse_node_ref(ln, arg(1))?, parse_node_ref(ln, arg(2))?),
        "zext" => Node::Zext(parse_node_ref(ln, arg(1))?, parse_num(ln, arg(2), "width")?),
        "sext" => Node::Sext(parse_node_ref(ln, arg(1))?, parse_num(ln, arg(2), "width")?),
        other => {
            if let Some(u) = unop_from(other) {
                Node::Un(u, parse_node_ref(ln, arg(1))?)
            } else if let Some(b) = binop_from(other) {
                Node::Bin(b, parse_node_ref(ln, arg(1))?, parse_node_ref(ln, arg(2))?)
            } else {
                return Err(perr(ln, format!("unknown node op {other:?}")));
            }
        }
    };
    Ok(node)
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => line[..i].trim(),
        None => line.trim(),
    }
}

/// Parses a design from the text netlist format, validating every module.
///
/// # Errors
///
/// Returns [`RtlError::Parse`] with a line number on syntax errors, or any
/// structural check error.
pub fn parse_design(text: &str) -> Result<Design, RtlError> {
    Parser::parse_design(text)
}

/// Parses a single module (the first in the text).
///
/// # Errors
///
/// As [`parse_design`]; additionally errors if the text contains no module.
pub fn parse_module(text: &str) -> Result<Module, RtlError> {
    let d = parse_design(text)?;
    d.modules.into_iter().next().ok_or(RtlError::Parse {
        line: 1,
        message: "no module found".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    fn rich_module() -> Module {
        let mut b = ModuleBuilder::new("rich");
        let en = b.input("en", 1);
        let x = b.input("x", 8);
        let r = b.reg("acc", 16, Bv::from_u64(16, 7));
        let q = b.reg_q(r);
        let xw = b.zext(x, 16);
        let sum = b.add(q, xw);
        b.connect_reg(r, sum);
        b.reg_enable(r, en);
        let mem = b.mem("buf", 3, 8, 8);
        b.mem_init(mem, vec![Bv::from_u64(8, 0xAA)]);
        let addr = b.slice(x, 2, 0);
        let rd = b.mem_read(mem, addr);
        b.mem_write(mem, en, addr, x);
        let hi = b.slice(sum, 15, 8);
        let cat = b.concat(hi, rd);
        let neg = b.neg(cat);
        let sel = b.red_or(x);
        let muxed = b.mux(sel, cat, neg);
        b.name_node(muxed, "muxed");
        b.output("y", muxed);
        b.output("acc", q);
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_preserves_module() {
        let m = rich_module();
        let text = write_module(&m);
        let back = parse_module(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn roundtrip_hierarchical_design() {
        let mut cb = ModuleBuilder::new("leaf");
        let a = cb.input("a", 4);
        let n = cb.not(a);
        cb.output("y", n);
        let leaf = cb.finish().unwrap();
        let mut tb = ModuleBuilder::new("top");
        let x = tb.input("x", 4);
        let o = tb.instantiate("u0", &leaf, &[x]);
        tb.output("y", o[0]);
        let top = tb.finish().unwrap();
        let mut d = Design::new();
        d.add_module(leaf);
        d.add_module(top);
        let text = write_design(&d);
        let back = parse_design(&text).unwrap();
        assert_eq!(back.modules.len(), 2);
        assert_eq!(back.module("top").unwrap(), d.module("top").unwrap());
        assert_eq!(back.module("leaf").unwrap(), d.module("leaf").unwrap());
    }

    #[test]
    fn parse_reports_line_numbers() {
        let text = "module m\n  input a 8\n  bogus line here\nend\n";
        match parse_design(text) {
            Err(RtlError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_out_of_order_nodes() {
        let text = "module m\n  input a 8\n  n5 = input 0 : 8\nend\n";
        assert!(matches!(parse_design(text), Err(RtlError::Parse { .. })));
    }

    #[test]
    fn parse_validates_structure() {
        // Output driver never set.
        let text = "module m\n  input a 8\n  output y 8\n  n0 = input 0 : 8\nend\n";
        assert!(parse_design(text).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a counter\nmodule m\n\n  input a 8 # the input\n  output y 8\n  n0 = input 0 : 8\n  drive 0 n0\nend\n";
        let d = parse_design(text).unwrap();
        assert_eq!(d.modules[0].name, "m");
    }
}
