//! Fuzz: netlist serialization must round-trip arbitrary (comb + state)
//! modules exactly, and the simulator must behave identically on the
//! round-tripped module.
//!
//! Uses the repo's own `SplitMix64` instead of `proptest` so the suite
//! runs offline unconditionally. Every case draws its module from its own
//! seed, and a failing assertion prints that seed instead of shrinking:
//! `SplitMix64::new(seed)` rebuilds the exact module and stimulus. Two
//! recipes that once failed are pinned and checked before the seeded ones.

use dfv_bits::{Bv, SplitMix64};
use dfv_rtl::{parse_module, write_module, Module, ModuleBuilder, Simulator};

/// Seeded cases per property.
const CASES: u64 = 256;

/// Simulated cycles per case.
const STEPS: usize = 6;

#[derive(Debug, Clone)]
struct Recipe {
    widths: Vec<u32>,
    ops: Vec<(u8, usize, usize)>,
    regs: Vec<(usize, u64, bool)>, // (driver idx, init seed, has enable)
    mem: Option<(u32, usize)>,     // (addr width, depth)
}

/// Two or three inputs of 1–9 bits, 2–11 operators, up to two registers,
/// and an optional small memory.
fn recipe(rng: &mut SplitMix64) -> Recipe {
    let widths = (0..2 + rng.below(2))
        .map(|_| 1 + rng.below(9) as u32)
        .collect();
    let ops = (0..2 + rng.below(10))
        .map(|_| {
            (
                rng.below(8) as u8,
                rng.next_u64() as usize,
                rng.next_u64() as usize,
            )
        })
        .collect();
    let regs = (0..rng.below(3))
        .map(|_| (rng.next_u64() as usize, rng.next_u64(), rng.next_bool()))
        .collect();
    let mem = rng
        .next_bool()
        .then(|| (2 + rng.below(2) as u32, 3 + rng.below(5) as usize));
    Recipe {
        widths,
        ops,
        regs,
        mem,
    }
}

/// Recipes that failed in earlier runs of this suite, kept as fixed cases.
fn pinned() -> [Recipe; 2] {
    [
        Recipe {
            widths: vec![1, 1],
            ops: vec![(0, 0, 0), (0, 0, 359)],
            regs: vec![(11273508621339915990, 1333160832098890591, true)],
            mem: Some((2, 5)),
        },
        Recipe {
            widths: vec![1, 1],
            ops: vec![(0, 0, 0), (0, 0, 1270)],
            regs: vec![
                (1533948659936582834, 8931997527093686210, true),
                (10456510261773764582, 13816343879952449436, true),
            ],
            mem: Some((2, 6)),
        },
    ]
}

fn build(r: &Recipe) -> Module {
    let mut b = ModuleBuilder::new("fuzz");
    let mut nodes = Vec::new();
    for (i, w) in r.widths.iter().enumerate() {
        nodes.push(b.input(format!("i{i}"), *w));
    }
    for (sel, xi, yi) in &r.ops {
        let x = nodes[xi % nodes.len()];
        let y = nodes[yi % nodes.len()];
        let w = b.node_width(x);
        let yr = b.resize_zext(y, w);
        let n = match sel % 8 {
            0 => b.add(x, yr),
            1 => b.xor(x, yr),
            2 => b.mul(x, yr),
            3 => b.not(x),
            4 => {
                let s = b.red_or(y);
                b.mux(s, x, yr)
            }
            5 => b.concat(x, y),
            6 => b.sext(x, w + 2),
            7 => b.eq(x, yr),
            _ => unreachable!(),
        };
        let n = if b.node_width(n) > 24 {
            b.trunc(n, 24)
        } else {
            n
        };
        nodes.push(n);
    }
    for (k, (di, seed, has_en)) in r.regs.iter().enumerate() {
        let d = nodes[di % nodes.len()];
        let w = b.node_width(d);
        let reg = b.reg(format!("r{k}"), w, Bv::from_u64(w, *seed));
        b.connect_reg(reg, d);
        if *has_en {
            let en = b.red_or(nodes[k % nodes.len()]);
            b.reg_enable(reg, en);
        }
        nodes.push(b.reg_q(reg));
    }
    if let Some((aw, depth)) = r.mem {
        let depth = depth.min(1 << aw);
        let m = b.mem("m", aw, 8, depth);
        let addr_src = nodes[0];
        let addr = b.resize_zext(addr_src, aw);
        let data_src = *nodes.last().unwrap();
        let data = b.resize_zext(data_src, 8);
        let we = b.red_or(nodes[1 % nodes.len()]);
        b.mem_write(m, we, addr, data);
        let rd = b.mem_read(m, addr);
        nodes.push(rd);
    }
    b.output("out", *nodes.last().unwrap());
    b.finish().expect("fuzz module valid")
}

/// Runs `check` on the pinned recipes (labelled `pinned N`), then on
/// [`CASES`] seeded ones (labelled with their seed), each with its own
/// stimulus generator.
fn for_each_case(base: u64, mut check: impl FnMut(&str, &Recipe, &mut SplitMix64)) {
    for (i, r) in pinned().iter().enumerate() {
        check(
            &format!("pinned {i}"),
            r,
            &mut SplitMix64::new(base ^ i as u64),
        );
    }
    for case in 0..CASES {
        let seed = base.wrapping_add(case);
        let mut rng = SplitMix64::new(seed);
        let r = recipe(&mut rng);
        check(&format!("seed {seed:#x}"), &r, &mut rng);
    }
}

#[test]
fn netlist_roundtrip_exact() {
    for_each_case(0x4E7_0001_0000, |what, r, _| {
        let m = build(r);
        let text = write_module(&m);
        let back = parse_module(&text).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(back, m, "{what}");
        // Idempotent: serializing again yields the same text.
        assert_eq!(write_module(&back), text, "{what}");
    });
}

#[test]
fn roundtripped_module_simulates_identically() {
    for_each_case(0x4E7_0002_0000, |what, r, rng| {
        let m = build(r);
        let back = parse_module(&write_module(&m)).unwrap_or_else(|e| panic!("{what}: {e}"));
        let mut sim_a = Simulator::new(m).unwrap();
        let mut sim_b = Simulator::new(back).unwrap();
        let seeds: Vec<u64> = (0..STEPS).map(|_| rng.next_u64()).collect();
        for step in 0..STEPS {
            let inputs: Vec<(String, Bv)> = sim_a
                .module()
                .inputs
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    (
                        p.name.clone(),
                        Bv::from_u64(p.width, seeds[(i + step) % seeds.len()]),
                    )
                })
                .collect();
            for (n, v) in &inputs {
                sim_a.poke(n, v.clone());
                sim_b.poke(n, v.clone());
            }
            assert_eq!(
                sim_a.output("out"),
                sim_b.output("out"),
                "{what}, step {step}"
            );
            sim_a.step();
            sim_b.step();
        }
    });
}
