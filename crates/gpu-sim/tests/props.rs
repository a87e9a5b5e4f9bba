//! Property tests for the verifier/interpreter contract.
//!
//! The load-bearing property: any program [`verify`] accepts for a pass
//! context must run through [`interp::execute`] without panicking — the
//! interpreter indexes register files and sampler slots directly, so the
//! verifier's structural and binding errors are exactly what stands
//! between a bad program and an out-of-bounds index.

use gpu_sim::interp::{
    execute, execute_lowered, execute_lowered_tile, lower, resolve_constants, FragmentInput,
};
use gpu_sim::isa::{ConstDef, Dst, Instr, Opcode, Program, Reg, Src, Swizzle};
use gpu_sim::raster::{fragment_input, TexCoordSet};
use gpu_sim::texcache::TextureCache;
use gpu_sim::texture::{AddressMode, Texture2D};
use gpu_sim::verify::{has_errors, verify, PassBindings};
use gpu_sim::GpuProfile;
use proptest::prelude::*;

const OPS: [Opcode; 21] = [
    Opcode::Mov,
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Mad,
    Opcode::Min,
    Opcode::Max,
    Opcode::Rcp,
    Opcode::Rsq,
    Opcode::Ex2,
    Opcode::Lg2,
    Opcode::Frc,
    Opcode::Flr,
    Opcode::Abs,
    Opcode::Slt,
    Opcode::Sge,
    Opcode::Cmp,
    Opcode::Lrp,
    Opcode::Dp3,
    Opcode::Dp4,
    Opcode::Tex,
];

/// Raw generated form of one instruction; decoded by [`decode_instr`].
type RawInstr = ((usize, u8, u8), (u16, u16, u16), u32, u8, bool);

/// Source register universe: mixes valid and invalid indices so the
/// verifier's rejection paths are exercised alongside its accept path.
fn src_reg(code: u16) -> Reg {
    let idx = code / 4;
    match code % 4 {
        0 => Reg::Temp((idx % 8) as u8),
        1 => Reg::Const((idx % 4) as u8),
        2 => Reg::TexCoord((idx % 4) as u8),
        _ => Reg::Output((idx % 4) as u8),
    }
}

fn decode_instr(raw: &RawInstr) -> Instr {
    let ((op_idx, dst_code, mask), (s0, s1, s2), swz, sampler_code, negate) = *raw;
    let op = OPS[op_idx % OPS.len()];
    let dst_reg = if dst_code < 18 {
        Reg::Temp(dst_code) // 16 and 17 are out of range on purpose
    } else {
        Reg::Output(dst_code - 18) // 22..23 map past O3
    };
    let srcs = [s0, s1, s2][..op.arity()]
        .iter()
        .enumerate()
        .map(|(si, &code)| Src {
            reg: src_reg(code),
            swizzle: Swizzle([
                ((swz >> (8 * si)) & 3) as u8,
                ((swz >> (8 * si + 2)) & 3) as u8,
                ((swz >> (8 * si + 4)) & 3) as u8,
                ((swz >> (8 * si + 6)) & 3) as u8,
            ]),
            negate: negate && si == 0,
        })
        .collect();
    let sampler = if op == Opcode::Tex {
        // 9 encodes a TEX with no sampler at all (malformed).
        (sampler_code != 9).then_some(sampler_code)
    } else {
        None
    };
    Instr {
        op,
        dst: Dst {
            reg: dst_reg,
            mask: [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0, mask & 8 != 0],
            saturate: mask == 0,
        },
        srcs,
        sampler,
        line: 0,
    }
}

/// The pass context every generated program is checked and executed under:
/// two textures, two coordinate sets, `C1` pass-bound, `O0` read back.
fn pass() -> PassBindings {
    PassBindings {
        samplers: 2,
        texcoord_sets: 2,
        constants: vec![1],
        outputs_read: [true, false, false, false],
    }
}

fn build_program(body: Vec<Instr>, with_prologue: bool) -> Program {
    let mut instrs = Vec::new();
    if with_prologue {
        // Define R0..R3 and guarantee an output write, so a useful share of
        // generated programs survives verification.
        let prologue = "TEX R0, T0, tex0\nMOV R1, T1\nMOV R2, R0\nMOV R3, T0\n";
        instrs.extend(gpu_sim::asm::assemble(prologue).unwrap().instrs);
    }
    instrs.extend(body);
    if with_prologue {
        instrs.extend(gpu_sim::asm::assemble("MOV OC, R0\n").unwrap().instrs);
    }
    for i in &mut instrs {
        i.line = 0;
    }
    Program {
        name: "prop".into(),
        defs: vec![ConstDef {
            index: 0,
            value: [0.5, 0.25, 1.0, 2.0],
            line: 0,
        }],
        instrs,
    }
}

fn raw_instr_strategy() -> impl Strategy<Value = RawInstr> {
    (
        (0usize..OPS.len(), 0u8..24, 0u8..16),
        (0u16..256, 0u16..256, 0u16..256),
        0u32..(1 << 24),
        0u8..10,
        any::<bool>(),
    )
}

/// A run shaped like the SID inner loop (`MAX`, `MAX`, `RCP`, `MUL`, `LG2`,
/// `MUL`, `SUB`, `DP4`, optional `ADD`): insertion point, the nine
/// destination registers, the two guarded operands, which guarded value
/// the `RCP` inverts, and whether the accumulating `ADD` follows.
type SidRun = (usize, [u8; 9], (u8, u8), bool, bool);

fn sid_run_strategy() -> impl Strategy<Value = SidRun> {
    (
        0usize..64,
        prop::collection::vec(0u8..8, 9),
        (0u8..24, 0u8..24),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(at, regs, srcs, q_first, add)| {
            let regs: [u8; 9] = std::array::from_fn(|i| regs[i]);
            (at, regs, srcs, q_first, add)
        })
}

/// Assemble a [`SidRun`]; operands read the prologue-defined `R0..R3` or
/// the coordinate sets, with a swizzle.
fn sid_run(run: &SidRun) -> Vec<Instr> {
    let (_, r, (sp, sq), q_first, add) = *run;
    let operand = |code: u8| {
        let reg = ["R0", "R1", "R2", "R3", "T0", "T1"][(code % 6) as usize];
        let swz = ["", ".x", ".wzyx", ".yyww"][(code / 6) as usize % 4];
        format!("{reg}{swz}")
    };
    let (p, q) = if q_first { (r[1], r[0]) } else { (r[0], r[1]) };
    let mut text = format!(
        "MAX R{}, {}, C0.y\nMAX R{}, {}, C1.x\nRCP R{}, R{q}\nMUL R{}, R{p}, R{}\n\
         LG2 R{}, R{}\nMUL R{}, R{}, C0.w\nSUB R{}, R{p}, R{q}\nDP4 R{}, R{}, R{}\n",
        r[0],
        operand(sp),
        r[1],
        operand(sq),
        r[2],
        r[3],
        r[2],
        r[4],
        r[3],
        r[5],
        r[4],
        r[6],
        r[7],
        r[6],
        r[5],
    );
    if add {
        text += &format!("ADD R{}, R0, R{}\n", r[8], r[7]);
    }
    let mut instrs = gpu_sim::asm::assemble(&text).unwrap().instrs;
    for i in &mut instrs {
        i.line = 0;
    }
    instrs
}

/// Texel components biased toward the values IEEE special-cases: NaN,
/// signed zeros, infinities, subnormals, negatives, and ordinary values.
fn texel_strategy() -> impl Strategy<Value = f32> {
    (0u8..12, any::<u32>(), -4.0f32..4.0).prop_map(|(kind, bits, x)| match kind {
        0 => f32::NAN,
        1 => 0.0,
        2 => -0.0,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => f32::from_bits(bits & 0x807f_ffff), // subnormal (or ±0)
        6 => f32::from_bits(bits),               // any bit pattern
        7 => -x.abs(),
        _ => x,
    })
}

/// The `.xyzw` write-mask suffix of a nonzero 4-bit mask.
fn mask_suffix(mask: u8) -> String {
    "xyzw"
        .chars()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, c)| c)
        .collect()
}

/// Whether the two executors' results agree: bit for bit, except which
/// NaN a NaN result is (see `batched_execution_is_bit_identical_to_scalar`).
/// Without special texels every NaN is the default NaN or its negation,
/// so two NaN results may differ in the sign bit only; with them (NaN
/// texels carry any payload) any NaN matches any NaN.
fn same_bits(a: f32, b: f32, specials: bool) -> bool {
    let diff = a.to_bits() ^ b.to_bits();
    diff == 0 || (a.is_nan() && b.is_nan() && (specials || diff == 0x8000_0000))
}

/// The address mode `code` names; the border color holds a NaN only when
/// `specials` allows one.
fn address_mode(code: u8, specials: bool) -> AddressMode {
    match code {
        0 => AddressMode::ClampToEdge,
        1 => AddressMode::Repeat,
        2 => AddressMode::MirroredRepeat,
        _ => {
            AddressMode::ClampToBorder([0.25, -0.0, if specials { f32::NAN } else { -1e-40 }, 1.0])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn verify_accepted_programs_execute_without_panicking(
        body in prop::collection::vec(raw_instr_strategy(), 0..10),
    ) {
        let program = build_program(body.iter().map(decode_instr).collect(), true);
        let profile = GpuProfile::fx5950_ultra();
        let bindings = pass();
        let diags = verify(&program, &profile, Some(&bindings));
        if has_errors(&diags) {
            return Ok(()); // rejected before execution, as run_pass would do
        }
        let t0 = Texture2D::from_flat(4, 4, &vec![0.25f32; 64]);
        let t1 = Texture2D::from_flat(4, 4, &vec![0.0f32; 64]);
        let constants = resolve_constants(&program, &[(1, [0.75, 0.5, 0.25, 1.0])]);
        let out = execute(
            &program,
            &FragmentInput::zero(),
            &constants,
            &[&t0, &t1],
            None,
        );
        prop_assert_eq!(out.instructions, program.len() as u64);
    }

    #[test]
    fn lowering_is_bit_identical_to_interpretation(
        body in prop::collection::vec(raw_instr_strategy(), 0..10),
        uv in prop::collection::vec((0.0f32..1.0, 0.0f32..1.0), 4),
    ) {
        // The pre-lowered form (folded constants, resolved swizzle tables,
        // lane masks) must reproduce the decode-per-fragment interpreter
        // bit for bit on every program the verifier accepts.
        let program = build_program(body.iter().map(decode_instr).collect(), true);
        let bindings = pass();
        if has_errors(&verify(&program, &GpuProfile::fx5950_ultra(), Some(&bindings))) {
            return Ok(());
        }
        let t0_data: Vec<f32> = (0..64).map(|i| i as f32 * 0.125 - 2.0).collect();
        let t1_data: Vec<f32> = (0..64).map(|i| (i * 7 % 13) as f32 * 0.5).collect();
        let t0 = Texture2D::from_flat(4, 4, &t0_data);
        let t1 = Texture2D::from_flat(4, 4, &t1_data);
        let constants = resolve_constants(&program, &[(1, [0.75, -0.5, 0.25, 3.0])]);
        let lowered = lower(&program, &constants);
        for &(u, v) in &uv {
            let mut input = FragmentInput::zero();
            input.texcoords[0] = [u, v, 0.0, 1.0];
            input.texcoords[1] = [v, u, 0.0, 1.0];
            let a = execute(&program, &input, &constants, &[&t0, &t1], None);
            let b = execute_lowered(&lowered, &input, &[&t0, &t1], None);
            prop_assert_eq!(a.instructions, b.instructions);
            prop_assert_eq!(a.texel_fetches, b.texel_fetches);
            for (ca, cb) in a.colors.iter().zip(b.colors.iter()) {
                // Bit equality, so NaN payloads and signed zeros count too.
                prop_assert_eq!(ca.map(f32::to_bits), cb.map(f32::to_bits));
            }
        }
    }

    #[test]
    fn optimized_programs_are_bit_identical_and_verify_clean(
        body in prop::collection::vec(raw_instr_strategy(), 0..10),
        uv in prop::collection::vec((0.0f32..1.0, 0.0f32..1.0), 4),
    ) {
        // The whole pass pipeline (constant folding, copy/swizzle
        // propagation, CSE, fusion, DCE, output coalescing) must be
        // exact-preserving on every verifier-accepted program: the
        // optimized program's read-back colors equal the unoptimized
        // interpreter's bit for bit, and the result still verifies with
        // no errors under the same pass context.
        let program = build_program(body.iter().map(decode_instr).collect(), true);
        let bindings = pass();
        let profile = GpuProfile::fx5950_ultra();
        if has_errors(&verify(&program, &profile, Some(&bindings))) {
            return Ok(());
        }
        let (optimized, report) = gpu_sim::optimize(&program, &bindings);
        prop_assert!(optimized.len() <= program.len());
        prop_assert_eq!(report.before, program.len());
        prop_assert_eq!(report.after, optimized.len());
        let diags = verify(&optimized, &profile, Some(&bindings));
        prop_assert!(
            !has_errors(&diags),
            "optimized program fails verify: {:?}\nraw:\n{}\noptimized:\n{}",
            diags, program.to_asm(), optimized.to_asm()
        );
        let t0_data: Vec<f32> = (0..64).map(|i| i as f32 * 0.125 - 2.0).collect();
        let t1_data: Vec<f32> = (0..64).map(|i| (i * 7 % 13) as f32 * 0.5).collect();
        let t0 = Texture2D::from_flat(4, 4, &t0_data);
        let t1 = Texture2D::from_flat(4, 4, &t1_data);
        let pass_consts = [(1, [0.75f32, -0.5, 0.25, 3.0])];
        let raw_consts = resolve_constants(&program, &pass_consts);
        let opt_consts = resolve_constants(&optimized, &pass_consts);
        for &(u, v) in &uv {
            let mut input = FragmentInput::zero();
            input.texcoords[0] = [u, v, 0.0, 1.0];
            input.texcoords[1] = [v, u, 0.0, 1.0];
            let a = execute(&program, &input, &raw_consts, &[&t0, &t1], None);
            let b = execute(&optimized, &input, &opt_consts, &[&t0, &t1], None);
            // Only the colors the pass reads back are contractual — dead
            // outputs are exactly what the optimizer deletes.
            for (o, read) in bindings.outputs_read.iter().enumerate() {
                if *read {
                    prop_assert!(
                        a.colors[o].map(f32::to_bits) == b.colors[o].map(f32::to_bits),
                        "O{} diverges at uv ({}, {})\nraw:\n{}\noptimized:\n{}",
                        o, u, v, program.to_asm(), optimized.to_asm()
                    );
                }
            }
        }
    }

    #[test]
    fn batched_execution_is_bit_identical_to_scalar(
        body in prop::collection::vec(raw_instr_strategy(), 0..10),
        mods in prop::collection::vec(any::<u8>(), 40),
        sid_runs in prop::collection::vec(sid_run_strategy(), 0..3),
        fetches in prop::collection::vec((0usize..64, 0u8..2, 0u8..6, 0u8..4, 1u8..16), 0..6),
        texels in prop::collection::vec(texel_strategy(), 128),
        specials in any::<bool>(),
        modes in (0u8..4, 0u8..4),
        sets in prop::collection::vec((-2.0f32..2.0, -2.0f32..2.0, -1.0f32..1.0, -1.0f32..1.0), 2),
        tile in (0usize..5, 0usize..3, 1usize..40, 1usize..4),
    ) {
        // The batched in-place SoA executor must reproduce the
        // per-fragment oracle bit for bit on every verifier-accepted
        // program: the read-back colors, instruction and fetch totals, AND
        // the texture-cache hit/miss counters (the batch path records TEX
        // touches per lane and replays them fragment-major). Programs mix
        // random instructions — every write mask, saturation, swizzle and
        // negation, destinations aliasing sources — with runs shaped like
        // the SID inner loop; textures hold signed zeros, subnormals and
        // negative texels (and in half the cases NaN and infinities) under
        // every address mode, in two sizes; the tile is ragged against the
        // chunk width. Only `O0` is read back,
        // so each program is also checked with every register copied to
        // `O0` at the end, making every register's final lanes observable.
        //
        // Colors compare bit for bit except for which NaN a NaN result is.
        // An operation that meets two NaNs of different bits (`RSQ R1,
        // -R0` then `MUL R2, R1, -R1` does, on finite texels) returns one
        // of them by operand position, and Rust leaves which one
        // unspecified: the compiler may commute the operands of `+` and
        // `*`, and does so differently in the scalar and the vectorized
        // loops. Half the cases (`specials`) seed infinities and NaN
        // texels, and there any NaN matches any NaN; the other half replace
        // them by finite texels, so every NaN is the default NaN or its
        // negation and two NaN results may differ in the sign bit only.
        let mut instrs: Vec<Instr> = body.iter().map(decode_instr).collect();
        for (instr, &m) in instrs.iter_mut().zip(&mods) {
            instr.dst.saturate = m & 1 != 0;
            if m & 64 != 0 {
                // Funnel fetch coordinates and ALU results through R1, so
                // fetches at one coordinate register with writes between
                // them are common.
                match instr.op {
                    Opcode::Tex => instr.srcs[0].reg = Reg::Temp(1),
                    _ => instr.dst.reg = Reg::Temp(1),
                }
            }
            let dst = instr.dst.reg;
            for (i, src) in instr.srcs.iter_mut().enumerate() {
                src.negate = m & (2 << i) != 0;
                // Read the destination register itself (under whatever
                // swizzle was drawn), so in-place writes that clobber a
                // component a later component still reads are common.
                if m & (16 << i) != 0 && i < 2 {
                    src.reg = dst;
                }
            }
        }
        for &(at, sampler, coord, dst, mask) in &fetches {
            // Extra fetches, many sharing coordinates (a set, a temp that
            // other instructions may rewrite in between, or a constant)
            // across the two differently sized textures.
            let coord = ["T0", "T1", "R1", "R2.yxzw", "C0", "-C0"][coord as usize];
            let text = format!("TEX R{dst}.{}, {coord}, tex{sampler}", mask_suffix(mask));
            let mut fetch = gpu_sim::asm::assemble(&text).unwrap().instrs;
            fetch[0].line = 0;
            let at = at % (instrs.len() + 1);
            instrs.splice(at..at, fetch);
        }
        for run in &sid_runs {
            let at = run.0 % (instrs.len() + 1);
            let shaped = sid_run(run);
            instrs.splice(at..at, shaped);
        }
        let program = build_program(instrs, true);
        let texels: Vec<f32> = texels
            .iter()
            .map(|&t| if t.is_finite() || specials { t } else { 4.0f32.copysign(t) })
            .collect();
        let (t0, t1) = (&texels[..64], &texels[64..]);
        let mut t0 = Texture2D::from_flat(4, 4, t0);
        let mut t1 = Texture2D::from_flat(5, 3, &t1[..60]);
        t0.set_address_mode(address_mode(modes.0, specials));
        t1.set_address_mode(address_mode(modes.1, specials));
        let sets: Vec<TexCoordSet> = sets
            .iter()
            .map(|&(s0, s1, o0, o1)| TexCoordSet { scale: [s0, s1], offset: [o0, o1] })
            .collect();
        let (x0, y0, width, rows) = tile;
        let target = (x0 + width + 3, y0 + rows + 2);
        let observed = [None, Some("R0"), Some("R1"), Some("R2"), Some("R3"), Some("R4"),
            Some("R5"), Some("R6"), Some("R7"), Some("O1"), Some("O2"), Some("O3")];
        for reg in observed {
            let mut variant = program.clone();
            if let Some(reg) = reg {
                let copy = gpu_sim::asm::assemble(&format!("MOV OC, {reg}")).unwrap();
                variant.instrs.extend(copy.instrs);
            }
            if has_errors(&verify(&variant, &GpuProfile::fx5950_ultra(), Some(&pass()))) {
                continue;
            }
            let constants = resolve_constants(&variant, &[(1, [0.75, -0.5, 0.25, 3.0])]);
            let lowered = lower(&variant, &constants);
            let textures = [&t0, &t1];
            // A tiny cache geometry so replay-order mistakes actually change
            // hit/miss counts instead of hiding in a large cache.
            let mut scalar_cache = TextureCache::new(1, 2);
            let mut scalar = vec![[0.0f32; 4]; width * rows];
            let (mut instr, mut fetches) = (0u64, 0u64);
            for ri in 0..rows {
                for ci in 0..width {
                    let input = fragment_input(&sets, x0 + ci, y0 + ri, target.0, target.1);
                    let r = execute_lowered(&lowered, &input, &textures, Some(&mut scalar_cache));
                    instr += r.instructions;
                    fetches += r.texel_fetches;
                    scalar[ri * width + ci] = r.colors[0];
                }
            }
            let mut batched = vec![[0.0f32; 4]; width * rows];
            let mut segs: Vec<&mut [[f32; 4]]> = batched.chunks_mut(width).collect();
            let mut batch_cache = TextureCache::new(1, 2);
            let counts = execute_lowered_tile(
                &lowered, &sets, x0, y0, target.0, target.1, &mut segs, &textures,
                Some(&mut batch_cache),
            );
            prop_assert_eq!(counts, (instr, fetches));
            prop_assert!(
                (batch_cache.hits(), batch_cache.misses())
                    == (scalar_cache.hits(), scalar_cache.misses()),
                "cache replay diverged:\n{}", variant.to_asm()
            );
            for (a, b) in scalar.iter().zip(&batched) {
                prop_assert!(
                    (0..4).all(|c| same_bits(a[c], b[c], specials)),
                    "O0 {:?} != {:?} observing {:?}:\n{}", a, b, reg, variant.to_asm()
                );
            }
        }
    }

    #[test]
    fn verify_never_panics_and_is_deterministic(
        body in prop::collection::vec(raw_instr_strategy(), 0..12),
    ) {
        // No prologue: wild programs, including structurally broken ones.
        let program = build_program(body.iter().map(decode_instr).collect(), false);
        for profile in GpuProfile::paper_gpus() {
            let a = verify(&program, &profile, Some(&pass()));
            let b = verify(&program, &profile, Some(&pass()));
            prop_assert_eq!(&a, &b);
            let lint = verify(&program, &profile, None);
            let relint = verify(&program, &profile, None);
            prop_assert_eq!(&lint, &relint);
        }
    }
}

#[test]
fn generated_accept_rate_is_nonzero() {
    // Make sure the main property is not vacuous: the fixed prologue alone
    // (an empty body) must be accepted under the pass context.
    let program = build_program(Vec::new(), true);
    let diags = verify(&program, &GpuProfile::fx5950_ultra(), Some(&pass()));
    assert!(!has_errors(&diags), "{diags:?}");
}
