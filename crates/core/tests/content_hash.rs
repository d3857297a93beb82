//! The campaign content hash ([`BlockPair::content_hash`]) keys the
//! incremental cache, the journal and the shared verdict store, so it must
//! be a pure function of what decides a verdict: independent builds of
//! the same block agree (in every process — named nodes live in a
//! `HashMap`), every verdict-relevant field moves it, and a netlist
//! round trip keeps it.

use dfv_bits::Bv;
use dfv_core::BlockPair;
use dfv_designs::{alu, conv, dist, fir, memsys};
use dfv_rtl::ir::{BinOp, Node};
use dfv_rtl::{parse_module, write_module, Module, ModuleBuilder};
use dfv_sec::{Binding, EquivSpec, InitState};

const TABLE: [u8; 16] = [7, 1, 4, 9, 0, 3, 12, 5, 8, 15, 2, 6, 11, 14, 10, 13];

fn block(name: &str, slm_source: &str, slm_entry: &str, rtl: Module, spec: EquivSpec) -> BlockPair {
    BlockPair {
        name: name.into(),
        slm_source: slm_source.into(),
        slm_entry: slm_entry.into(),
        rtl,
        spec,
    }
}

/// A constraint module with two named nodes: the `Module::node_names` map
/// iterates in a different order in every instance.
fn named_constraint() -> Module {
    let mut b = ModuleBuilder::new("fast_bank_named");
    let addr = b.input("addr", memsys::ADDR_W);
    let top = b.slice(addr, memsys::ADDR_W - 1, memsys::ADDR_W - 1);
    let ok = b.not(top);
    b.name_node(top, "bank_bit");
    b.name_node(ok, "in_fast_bank");
    b.output("ok", ok);
    b.finish().expect("constraint builds")
}

/// The memsys fast-bank block with a named-node constraint and named RTL
/// nodes: ports, registers, memories with contents, bindings of every
/// kind, constants (in the first constraint) and node names all present.
fn memsys_named() -> BlockPair {
    let mut rtl = memsys::rtl(&TABLE);
    rtl.node_names.insert(0, "req_valid_in".into());
    rtl.node_names.insert(1, "addr_in".into());
    block(
        "memsys_named",
        &memsys::slm_source(&TABLE),
        "lookup",
        rtl,
        memsys::equiv_spec_fast().constrain(named_constraint()),
    )
}

/// Every `dfv-designs` block that pairs an SLM with an RTL module, plus
/// the named-node constraint block, each built anew on every call.
fn all_blocks() -> Vec<BlockPair> {
    vec![
        block(
            "alu",
            alu::slm_bit_accurate(),
            "alu",
            alu::rtl(8, 8),
            alu::equiv_spec(),
        ),
        block(
            "fir",
            fir::slm_source(),
            "fir",
            fir::rtl(),
            fir::equiv_spec(),
        ),
        block(
            "conv",
            conv::slm_source(),
            "blur",
            conv::rtl(),
            conv::equiv_spec(),
        ),
        block(
            "dist",
            &dist::slm(6),
            dist::ENTRY,
            dist::rtl(6),
            dist::equiv_spec(),
        ),
        block(
            "memsys_fast",
            &memsys::slm_source(&TABLE),
            "lookup",
            memsys::rtl(&TABLE),
            memsys::equiv_spec_fast(),
        ),
        block(
            "memsys_slow",
            &memsys::slm_source(&TABLE),
            "lookup",
            memsys::rtl(&TABLE),
            memsys::equiv_spec_slow(),
        ),
        memsys_named(),
    ]
}

#[test]
fn independent_builds_hash_identically() {
    let reference: Vec<u64> = all_blocks().iter().map(BlockPair::content_hash).collect();
    for round in 0..20 {
        for (b, &want) in all_blocks().iter().zip(&reference) {
            assert_eq!(
                b.content_hash(),
                want,
                "build {round} of block {} hashed differently",
                b.name
            );
        }
    }
    let mut distinct = reference.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), reference.len(), "two blocks share a hash");
}

#[test]
fn the_block_name_is_not_hashed() {
    let a = memsys_named();
    let mut b = memsys_named();
    b.name = "another_name".into();
    assert_eq!(a.content_hash(), b.content_hash());
}

/// The hash of a small fixed block, built from netlist text so nothing but
/// the encoding can move it. The encoding is part of the cache and journal
/// formats: if this changes, bump `VERSION` in `content.rs`.
#[test]
fn the_encoding_is_pinned() {
    let rtl = parse_module(
        "module pinned_rtl
           input x 8
           output y 8
           reg acc 8 8'h05
           mem tab 2 8 4 8'h01 8'h02 8'h03 8'h04
           n0 = input 0 : 8
           n1 = const 8'h01 : 8
           n2 = add n0 n1 : 8
           n3 = regq 0 : 8
           n4 = slice n0 1 0 : 2
           n5 = memread 0 0 : 8
           n6 = xor n3 n5 : 8
           next 0 n2
           readport 0 n4
           drive 0 n6
           name n2 sum
           name n6 out
         end",
    )
    .expect("pinned netlist parses");
    let constraint = parse_module(
        "module low_half
           input x 8
           output ok 1
           n0 = input 0 : 8
           n1 = slice n0 7 7 : 1
           n2 = not n1 : 1
           drive 0 n2
           name n1 top_bit
           name n2 low_half
         end",
    )
    .expect("constraint netlist parses");
    let blk = block(
        "pinned",
        "uint8 f(uint8 x) { return x; }",
        "f",
        rtl,
        EquivSpec::new(2)
            .bind("x", 0, Binding::Slm("x".into()))
            .bind("x", 1, Binding::Const(Bv::from_u64(8, 3)))
            .compare_slice("return", 7, 0, "y", 1)
            .constrain(constraint)
            .from_any_state(),
    );
    assert_eq!(blk.content_hash(), 0x7631_2c08_3f7f_eac6);
}

fn first_node(m: &mut Module, pick: impl Fn(&Node) -> bool) -> &mut Node {
    m.nodes
        .iter_mut()
        .find(|n| pick(n))
        .expect("the module has such a node")
}

fn flip_low_bit(v: &Bv) -> Bv {
    Bv::from_u64(v.width(), v.to_u64() ^ 1)
}

#[test]
fn every_single_field_mutation_changes_the_hash() {
    type Mutation = (&'static str, fn(&mut BlockPair));
    let mutations: [Mutation; 12] = [
        ("port width", |b| b.rtl.inputs[1].width += 1),
        ("node op", |b| {
            match first_node(&mut b.rtl, |n| matches!(n, Node::Bin(..))) {
                Node::Bin(op, ..) => {
                    *op = if *op == BinOp::Xor {
                        BinOp::Or
                    } else {
                        BinOp::Xor
                    }
                }
                _ => unreachable!(),
            }
        }),
        ("constraint const value", |b| {
            match first_node(&mut b.spec.constraints[0], |n| matches!(n, Node::Const(_))) {
                Node::Const(v) => *v = flip_low_bit(v),
                _ => unreachable!(),
            }
        }),
        ("reg init", |b| {
            let r = &mut b.rtl.regs[0];
            r.init = flip_low_bit(&r.init);
        }),
        ("mem init word", |b| {
            let w = &mut b.rtl.mems[0].init[3];
            *w = flip_low_bit(w);
        }),
        ("rtl node name", |b| {
            b.rtl.node_names.insert(1, "addr_renamed".into());
        }),
        ("binding kind", |b| b.spec.bindings[1].2 = Binding::Free),
        ("compare cycle", |b| b.spec.compares[0].rtl_cycle += 1),
        ("constraint node name", |b| {
            b.spec.constraints[1]
                .node_names
                .values_mut()
                .for_each(|n| n.push('_'));
        }),
        ("constraint dropped", |b| {
            b.spec.constraints.pop();
        }),
        ("init state", |b| b.spec.init = InitState::Free),
        ("slm source", |b| b.slm_source.push(' ')),
    ];
    let base = memsys_named().content_hash();
    for (what, mutate) in mutations {
        let mut b = memsys_named();
        mutate(&mut b);
        assert_ne!(b.content_hash(), base, "mutating the {what} kept the hash");
    }
}

#[test]
fn netlist_round_trip_keeps_the_hash() {
    let reparse = |m: &Module| parse_module(&write_module(m)).expect("netlist reparses");
    for b in all_blocks() {
        let mut round = b.clone();
        round.rtl = reparse(&b.rtl);
        round.spec.constraints = b.spec.constraints.iter().map(reparse).collect();
        assert_eq!(round.content_hash(), b.content_hash(), "block {}", b.name);
    }
}
