//! Fragment program interpreter.
//!
//! Executes one [`Program`] per fragment over a SIMD4 register file, exactly
//! as the fragment processors of the modelled GPUs would: no control flow,
//! one instruction per cycle, texture units resolved through the bound
//! samplers. Work counts (instructions, texel fetches, cache hits/misses)
//! are returned with the result so passes can be costed.
//!
//! Three executors share one arithmetic definition (the scalar ALU core,
//! [`fmax`], [`fmin`], [`lg2_clamped`]):
//!
//! * [`execute`] decodes a [`Program`] per fragment (the reference);
//! * [`execute_lowered`] runs a [`LoweredProgram`] per fragment — the
//!   scalar oracle behind `Gpu::set_batch_execution(false)`;
//! * [`execute_lowered_tile`] runs the same [`LoweredProgram`]'s
//!   pre-decoded op sequence over [`BATCH_LANES`] fragments at a time,
//!   in place on a flat register file of lane rows — the production path
//!   (DESIGN.md §14).

use crate::isa::{
    Opcode, Program, Reg, Swizzle, NUM_CONSTS, NUM_OUTPUTS, NUM_TEMPS, NUM_TEXCOORDS,
};
use crate::texcache::{Block, TextureCache};
use crate::texture::{AddressMode, Texture2D};

/// Per-fragment inputs.
#[derive(Debug, Clone)]
pub struct FragmentInput {
    /// Interpolated texture-coordinate sets (`T0..T7`); `[u, v, 0, 1]`.
    pub texcoords: [[f32; 4]; NUM_TEXCOORDS],
}

impl FragmentInput {
    /// All coordinate sets zero.
    pub fn zero() -> Self {
        Self {
            texcoords: [[0.0, 0.0, 0.0, 1.0]; NUM_TEXCOORDS],
        }
    }
}

/// Per-fragment outputs and work counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentOutput {
    /// Output colors `O0..O3` (`O0` = `OC`).
    pub colors: [[f32; 4]; NUM_OUTPUTS],
    /// Instructions executed.
    pub instructions: u64,
    /// Texel fetches issued.
    pub texel_fetches: u64,
}

/// Smallest positive f32, used to clamp `LG2` inputs (see module docs of
/// [`crate::isa`]).
const LG2_TINY: f32 = f32::MIN_POSITIVE;

/// The `LG2` opcode's base-2 logarithm, defined by this implementation
/// rather than by the platform's libm.
///
/// Shader hardware of the fp30 era computed `LG2` with its own polynomial
/// special-function unit, not a host libm — and libm `log2f` differs
/// between platforms anyway, so pinning the definition here makes shader
/// results reproducible across hosts. It is also branch-free on the main
/// path, so the batched executor's lane loops autovectorize where a libm
/// call would serialize.
///
/// Method: split `x = 2^e · m` with `m ∈ [1, 2)` by exponent extraction,
/// re-centre to `m ∈ [√2/2, √2)` so the reduced argument
/// `r = (m−1)/(m+1)` satisfies `|r| ≤ 0.1716`, and evaluate the atanh
/// series `log2(m) = 2·log2(e)·(r + r³/3 + r⁵/5 + …)` truncated at `r⁷`
/// (truncation error < 6e-8, ~1 ulp). Exact on powers of two (`r = 0`),
/// and `+inf` maps to `+inf`. Callers clamp to [`f32::MIN_POSITIVE`], so
/// zero/negative/NaN/subnormal inputs never reach this function.
///
/// Every consumer that must stay bit-identical to shaded `LG2` results —
/// the scalar and batched executors, the optimizer's constant folder (via
/// the scalar ALU core), and the SIMD4 CPU baseline in `amc_core` — goes
/// through [`lg2_clamped`], and so through this one definition.
#[inline(always)]
pub fn lg2(x: f32) -> f32 {
    let bits = x.to_bits();
    let e = ((bits >> 23) as i32 - 127) as f32;
    let m = f32::from_bits((bits & 0x007f_ffff) | 0x3f80_0000);
    // Re-centre around 1 so the series converges fast on both sides.
    let big = m >= std::f32::consts::SQRT_2;
    let m = if big { m * 0.5 } else { m };
    let e = if big { e + 1.0 } else { e };
    let r = (m - 1.0) / (m + 1.0);
    let r2 = r * r;
    // 2·log2(e) · (r + r³/3 + r⁵/5 + r⁷/7), Horner over r².
    const C0: f32 = 2.885_39; // 2·log2(e), to f32 precision
    const C1: f32 = C0 / 3.0;
    const C2: f32 = C0 / 5.0;
    const C3: f32 = C0 / 7.0;
    let main = e + r * (C0 + r2 * (C1 + r2 * (C2 + r2 * C3)));
    // +inf stays +inf (NaN is clamped away by callers). A select, not a
    // branch, so lane loops over this function stay vectorizable.
    if bits >= 0x7f80_0000 {
        x
    } else {
        main
    }
}

/// The `MAX` opcode's per-component maximum, defined here as a select so
/// every consumer — the scalar ALU core, the batched executor's lane loops, the
/// optimizer's constant folder, the SIMD4 CPU baseline — evaluates one
/// vectorizable expression instead of `f32::max`'s NaN-aware libm shape.
///
/// Its bits equal `f32::max`'s on every input, pinned by a unit test over
/// a special-value grid and random bit patterns: a NaN `a` yields `b`
/// (a NaN `b` yields `a`), and on equal operands — `±0` in either order —
/// the first operand is returned.
#[inline(always)]
pub fn fmax(a: f32, b: f32) -> f32 {
    if a.is_nan() || b > a {
        b
    } else {
        a
    }
}

/// The `MIN` opcode's per-component minimum: [`fmax`] with the comparison
/// flipped, bit-identical to `f32::min` on every input.
#[inline(always)]
pub fn fmin(a: f32, b: f32) -> f32 {
    if a.is_nan() || b < a {
        b
    } else {
        a
    }
}

/// The `LG2` opcode: [`lg2`] of the input clamped up to
/// [`f32::MIN_POSITIVE`] with [`fmax`], so zero, negative, subnormal and
/// NaN inputs all yield `-126`.
#[inline(always)]
pub fn lg2_clamped(x: f32) -> f32 {
    lg2(fmax(x, LG2_TINY))
}

#[inline(always)]
fn lanewise1(op: impl Fn(f32) -> f32, a: [f32; 4]) -> [f32; 4] {
    [op(a[0]), op(a[1]), op(a[2]), op(a[3])]
}

#[inline(always)]
fn lanewise2(op: impl Fn(f32, f32) -> f32, a: [f32; 4], b: [f32; 4]) -> [f32; 4] {
    [
        op(a[0], b[0]),
        op(a[1], b[1]),
        op(a[2], b[2]),
        op(a[3], b[3]),
    ]
}

/// The arithmetic core shared by [`execute`] and [`execute_lowered`]: both
/// executors funnel every non-`TEX` opcode through this one match so their
/// float operations are the same code and results stay bit-identical.
#[inline(always)]
pub(crate) fn alu(op: Opcode, s: impl Fn(usize) -> [f32; 4]) -> [f32; 4] {
    match op {
        Opcode::Mov => s(0),
        Opcode::Add => lanewise2(|a, b| a + b, s(0), s(1)),
        Opcode::Sub => lanewise2(|a, b| a - b, s(0), s(1)),
        Opcode::Mul => lanewise2(|a, b| a * b, s(0), s(1)),
        Opcode::Mad => {
            let (a, b, c) = (s(0), s(1), s(2));
            [
                a[0] * b[0] + c[0],
                a[1] * b[1] + c[1],
                a[2] * b[2] + c[2],
                a[3] * b[3] + c[3],
            ]
        }
        Opcode::Min => lanewise2(fmin, s(0), s(1)),
        Opcode::Max => lanewise2(fmax, s(0), s(1)),
        Opcode::Rcp => lanewise1(|a| 1.0 / a, s(0)),
        Opcode::Rsq => lanewise1(|a| 1.0 / a.sqrt(), s(0)),
        Opcode::Ex2 => lanewise1(f32::exp2, s(0)),
        Opcode::Lg2 => lanewise1(lg2_clamped, s(0)),
        Opcode::Frc => lanewise1(|a| a - a.floor(), s(0)),
        Opcode::Flr => lanewise1(f32::floor, s(0)),
        Opcode::Abs => lanewise1(f32::abs, s(0)),
        Opcode::Slt => lanewise2(|a, b| if a < b { 1.0 } else { 0.0 }, s(0), s(1)),
        Opcode::Sge => lanewise2(|a, b| if a >= b { 1.0 } else { 0.0 }, s(0), s(1)),
        Opcode::Cmp => {
            let (c, a, b) = (s(0), s(1), s(2));
            [
                if c[0] < 0.0 { a[0] } else { b[0] },
                if c[1] < 0.0 { a[1] } else { b[1] },
                if c[2] < 0.0 { a[2] } else { b[2] },
                if c[3] < 0.0 { a[3] } else { b[3] },
            ]
        }
        Opcode::Lrp => {
            let (t, a, b) = (s(0), s(1), s(2));
            [
                t[0] * a[0] + (1.0 - t[0]) * b[0],
                t[1] * a[1] + (1.0 - t[1]) * b[1],
                t[2] * a[2] + (1.0 - t[2]) * b[2],
                t[3] * a[3] + (1.0 - t[3]) * b[3],
            ]
        }
        Opcode::Dp3 => {
            let (a, b) = (s(0), s(1));
            let d = a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
            [d; 4]
        }
        Opcode::Dp4 => {
            let (a, b) = (s(0), s(1));
            let d = a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3];
            [d; 4]
        }
        Opcode::Tex => unreachable!("TEX handled by the executors"),
    }
}

/// The texture path shared by both executors: counts the fetch, tags the
/// cache with the texel the sampler actually touches, and samples.
#[inline(always)]
fn tex_fetch(
    tex: &Texture2D,
    sampler: usize,
    coord: [f32; 4],
    cache: &mut Option<&mut TextureCache>,
    texel_fetches: &mut u64,
) -> [f32; 4] {
    *texel_fetches += 1;
    if let Some(cache) = cache.as_deref_mut() {
        // Tag the cache with the texel the sampler actually touches under
        // its address mode; a border fetch that resolves to no texel
        // generates no cache traffic.
        let x = (coord[0] * tex.width() as f32).floor() as i64;
        let y = (coord[1] * tex.height() as f32).floor() as i64;
        if let Some((cx, cy)) = tex.resolve_coords(x, y) {
            cache.access(sampler as u32, cx, cy);
        }
    }
    tex.sample(coord[0], coord[1])
}

/// Masked, optionally saturating write-back shared by both executors.
#[inline(always)]
fn write_back(target: &mut [f32; 4], value: [f32; 4], mask_bits: u8, saturate: bool) {
    let value = if saturate {
        lanewise1(|a| a.clamp(0.0, 1.0), value)
    } else {
        value
    };
    for lane in 0..4 {
        if mask_bits & (1 << lane) != 0 {
            target[lane] = value[lane];
        }
    }
}

/// Execute `program` for one fragment.
///
/// `constants` are the pass-level constant registers (with `DEF`s already
/// applied — see [`resolve_constants`]); `textures` are the bound samplers.
/// `cache` optionally models the per-pipe texture cache.
pub fn execute(
    program: &Program,
    input: &FragmentInput,
    constants: &[[f32; 4]; NUM_CONSTS],
    textures: &[&Texture2D],
    mut cache: Option<&mut TextureCache>,
) -> FragmentOutput {
    let mut temps = [[0.0f32; 4]; NUM_TEMPS];
    let mut outputs = [[0.0f32; 4]; NUM_OUTPUTS];
    let mut instructions = 0u64;
    let mut texel_fetches = 0u64;

    for instr in &program.instrs {
        instructions += 1;
        let s = |i: usize| -> [f32; 4] {
            let src = &instr.srcs[i];
            let raw = match src.reg {
                Reg::Temp(r) => temps[r as usize],
                Reg::Const(c) => constants[c as usize],
                Reg::TexCoord(t) => input.texcoords[t as usize],
                Reg::Output(o) => outputs[o as usize],
            };
            let mut v = src.swizzle.apply(raw);
            if src.negate {
                v = [-v[0], -v[1], -v[2], -v[3]];
            }
            v
        };

        let value: [f32; 4] = if instr.op == Opcode::Tex {
            let sampler = instr.sampler.expect("TEX carries a sampler") as usize;
            tex_fetch(
                textures[sampler],
                sampler,
                s(0),
                &mut cache,
                &mut texel_fetches,
            )
        } else {
            alu(instr.op, s)
        };

        let target: &mut [f32; 4] = match instr.dst.reg {
            Reg::Temp(r) => &mut temps[r as usize],
            Reg::Output(o) => &mut outputs[o as usize],
            _ => unreachable!("assembler rejects non-writable destinations"),
        };
        write_back(target, value, instr.dst.mask_bits(), instr.dst.saturate);
    }

    FragmentOutput {
        colors: outputs,
        instructions,
        texel_fetches,
    }
}

/// A source operand pre-resolved at lower time: constants are folded to
/// immediates (swizzle and negation already applied), everything else keeps
/// its register index plus decoded swizzle/negate.
#[derive(Debug, Clone, Copy)]
enum LoweredSrc {
    /// Folded constant operand.
    Imm([f32; 4]),
    /// Temporary register read.
    Temp(u8, Swizzle, bool),
    /// Interpolated texture coordinate read.
    Coord(u8, Swizzle, bool),
    /// Output register read.
    Out(u8, Swizzle, bool),
}

#[inline(always)]
pub(crate) fn swizzle_negate(sw: Swizzle, negate: bool, raw: [f32; 4]) -> [f32; 4] {
    let v = sw.apply(raw);
    if negate {
        [-v[0], -v[1], -v[2], -v[3]]
    } else {
        v
    }
}

impl LoweredSrc {
    #[inline(always)]
    fn read(
        &self,
        temps: &[[f32; 4]; NUM_TEMPS],
        outputs: &[[f32; 4]; NUM_OUTPUTS],
        texcoords: &[[f32; 4]; NUM_TEXCOORDS],
    ) -> [f32; 4] {
        match *self {
            LoweredSrc::Imm(v) => v,
            LoweredSrc::Temp(r, sw, neg) => swizzle_negate(sw, neg, temps[r as usize]),
            LoweredSrc::Coord(t, sw, neg) => swizzle_negate(sw, neg, texcoords[t as usize]),
            LoweredSrc::Out(o, sw, neg) => swizzle_negate(sw, neg, outputs[o as usize]),
        }
    }
}

/// Pre-decoded destination: which register file, which index.
#[derive(Debug, Clone, Copy)]
enum LoweredDst {
    /// Temporary register.
    Temp(u8),
    /// Output register.
    Out(u8),
}

/// One pre-decoded instruction of a [`LoweredProgram`].
#[derive(Debug, Clone, Copy)]
struct LoweredInstr {
    op: Opcode,
    /// `op.arity()` live operands; the rest are zero immediates.
    srcs: [LoweredSrc; 3],
    dst: LoweredDst,
    mask_bits: u8,
    saturate: bool,
    sampler: u8,
}

/// A fragment program lowered for repeated execution, in two forms built
/// once per (program, constants) bind and cached on `Gpu`:
///
/// * the scalar oracle form ([`execute_lowered`]): operand registers,
///   swizzles, and write masks decoded per instruction, constant operands
///   folded to immediates against a resolved constant block;
/// * the batched executor's op sequence ([`execute_lowered_tile`]): every
///   operand resolved to rows of a flat lane-row register file, constants
///   pre-splatted into pool rows, and negation, aliasing and saturation
///   made explicit ops.
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    instrs: Vec<LoweredInstr>,
    tex_count: u64,
    ops: Vec<Op>,
    /// Immediate values, one pool row each (from [`POOL_ROW`] on).
    pool: Vec<f32>,
    /// Temp/output rows a chunk may read before the program writes them,
    /// cleared per chunk.
    zero_rows: Vec<u16>,
    /// Bitmask of the coordinate sets the program reads.
    coord_sets: u16,
    /// Distinct fetch coordinates among the `TEX` ops.
    fetch_coords: usize,
}

impl LoweredProgram {
    /// Instructions executed per fragment.
    pub fn instruction_count(&self) -> u64 {
        self.instrs.len() as u64
    }

    /// Texel fetches issued per fragment.
    pub fn tex_count(&self) -> u64 {
        self.tex_count
    }
}

/// Lower `program` against a resolved constant block (see
/// [`resolve_constants`]). Constant folding applies the same
/// swizzle-then-negate float ops the interpreter would, so lowered
/// execution is bit-identical to [`execute`].
pub fn lower(program: &Program, constants: &[[f32; 4]; NUM_CONSTS]) -> LoweredProgram {
    let mut instrs = Vec::with_capacity(program.instrs.len());
    for instr in &program.instrs {
        let mut srcs = [LoweredSrc::Imm([0.0; 4]); 3];
        for (slot, src) in srcs.iter_mut().zip(&instr.srcs) {
            *slot = match src.reg {
                Reg::Const(c) => {
                    // Constant folding is owned by the optimizer's lattice
                    // helper so there is exactly one definition of
                    // "swizzle, then negate, a resolved constant".
                    LoweredSrc::Imm(crate::opt::fold_const_src(src, constants[c as usize]))
                }
                Reg::Temp(r) => LoweredSrc::Temp(r, src.swizzle, src.negate),
                Reg::TexCoord(t) => LoweredSrc::Coord(t, src.swizzle, src.negate),
                Reg::Output(o) => LoweredSrc::Out(o, src.swizzle, src.negate),
            };
        }
        instrs.push(LoweredInstr {
            op: instr.op,
            srcs,
            dst: match instr.dst.reg {
                Reg::Temp(r) => LoweredDst::Temp(r),
                Reg::Output(o) => LoweredDst::Out(o),
                _ => unreachable!("assembler rejects non-writable destinations"),
            },
            mask_bits: instr.dst.mask_bits(),
            saturate: instr.dst.saturate,
            sampler: instr.sampler.unwrap_or(0),
        });
    }
    let mut dec = Decoder::new();
    for instr in &instrs {
        dec.instr(instr);
    }
    LoweredProgram {
        instrs,
        tex_count: u64::from(dec.tex_slots),
        ops: dec.ops,
        pool: dec.pool,
        zero_rows: dec.zero_rows,
        coord_sets: dec.coord_sets,
        fetch_coords: dec.coords.len(),
    }
}

/// Components written by a 4-bit write mask, in lane order.
fn mask_comps(mask_bits: u8) -> impl Iterator<Item = usize> {
    (0..4).filter(move |c| mask_bits & (1 << c) != 0)
}

/// First row of the register a destination names.
fn dst_base(dst: LoweredDst) -> u16 {
    match dst {
        LoweredDst::Temp(r) => TEMP_ROW + 4 * r as u16,
        LoweredDst::Out(o) => OUT_ROW + 4 * o as u16,
    }
}

/// Destination rows for the components a write mask names, and how many.
fn dst_rows(dst: LoweredDst, mask_bits: u8) -> ([u16; 4], u8) {
    let mut d = [0u16; 4];
    let mut n = 0u8;
    for c in mask_comps(mask_bits) {
        d[n as usize] = dst_base(dst) + c as u16;
        n += 1;
    }
    (d, n)
}

/// Builds the batched op sequence of a [`LoweredProgram`].
struct Decoder {
    ops: Vec<Op>,
    pool: Vec<f32>,
    tex_slots: u16,
    /// Writes so far per register-file row (pool rows are never written).
    versions: Vec<u32>,
    /// Distinct `(u row, v row, u version, v version)` fetch coordinates.
    coords: Vec<(u16, u16, u32, u32)>,
    /// Temp/output rows read before any op writes them.
    zero_rows: Vec<u16>,
    /// Bitmask of the coordinate sets read.
    coord_sets: u16,
}

impl Decoder {
    fn new() -> Self {
        Decoder {
            ops: Vec::new(),
            pool: Vec::new(),
            tex_slots: 0,
            versions: vec![0; POOL_ROW as usize],
            coords: Vec::new(),
            zero_rows: Vec::new(),
            coord_sets: 0,
        }
    }

    /// Note a read of register row `row`: a coordinate row marks its set
    /// as used, and a temp/output row no op has written yet must be
    /// cleared per chunk, since a scalar fragment starts from zeros. (Rows
    /// no op ever writes keep the zeros the register file starts with.)
    fn read(&mut self, row: u16) {
        if row >= COORD_ROW {
            self.coord_sets |= 1 << ((row - COORD_ROW) / 4);
        } else if self.versions[row as usize] == 0 && !self.zero_rows.contains(&row) {
            self.zero_rows.push(row);
        }
    }

    /// Writes so far to `row`; a pool row (an immediate coordinate) is
    /// never written, so it stays at version 0.
    fn version(&self, row: u16) -> u32 {
        self.versions.get(row as usize).copied().unwrap_or(0)
    }

    /// Append an op, recording that its destination rows change.
    fn push(&mut self, op: Op) {
        for &d in &op.d[..op.n as usize] {
            self.versions[d as usize] += 1;
        }
        self.ops.push(op);
    }

    /// The pool row holding immediate `v` (deduplicated by bit pattern).
    fn pool_row(&mut self, v: f32) -> u16 {
        let i = match self.pool.iter().position(|p| p.to_bits() == v.to_bits()) {
            Some(i) => i,
            None => {
                self.pool.push(v);
                self.pool.len() - 1
            }
        };
        POOL_ROW + i as u16
    }

    /// The row holding component `pos` of `src` (swizzle applied), and
    /// whether the read negates.
    fn row(&mut self, src: &LoweredSrc, pos: usize) -> (u16, bool) {
        let (base, index, sw, neg) = match *src {
            LoweredSrc::Imm(v) => return (self.pool_row(v[pos]), false),
            LoweredSrc::Temp(r, sw, neg) => (TEMP_ROW, r, sw, neg),
            LoweredSrc::Coord(t, sw, neg) => (COORD_ROW, t, sw, neg),
            LoweredSrc::Out(o, sw, neg) => (OUT_ROW, o, sw, neg),
        };
        let row = base + 4 * index as u16 + sw.0[pos] as u16;
        self.read(row);
        (row, neg)
    }

    /// Rows of operand `i` at positions `pos`; a negated register operand
    /// is first staged into its [`NEG_ROW`]s by a `Neg` op.
    fn operand(&mut self, src: &LoweredSrc, i: usize, pos: &[usize]) -> [u16; 4] {
        let mut rows = [0u16; 4];
        let mut negate = false;
        for (k, &p) in pos.iter().enumerate() {
            let (row, neg) = self.row(src, p);
            rows[k] = row;
            negate = neg;
        }
        if !negate {
            return rows;
        }
        let staged = std::array::from_fn(|k| NEG_ROW + (4 * i + k) as u16);
        self.push(Op {
            kind: OpKind::Neg,
            n: pos.len() as u8,
            d: staged,
            s: [rows, [0; 4], [0; 4]],
        });
        staged
    }

    /// Decode one instruction into its op(s).
    fn instr(&mut self, instr: &LoweredInstr) {
        let comps: Vec<usize> = mask_comps(instr.mask_bits).collect();
        let (d, n) = dst_rows(instr.dst, instr.mask_bits);
        let mut op = Op {
            kind: OpKind::Neg,
            n,
            d,
            s: [[0; 4]; 3],
        };
        match instr.op {
            Opcode::Tex => {
                // A fetch issues (and touches the cache) even when it
                // writes nothing.
                op.s[0] = self.operand(&instr.srcs[0], 0, &[0, 1]);
                let (u, v) = (op.s[0][0], op.s[0][1]);
                let key = (u, v, self.version(u), self.version(v));
                let coords = match self.coords.iter().position(|&k| k == key) {
                    Some(i) => i,
                    None => {
                        self.coords.push(key);
                        self.coords.len() - 1
                    }
                } as u16;
                op.kind = OpKind::Tex {
                    sampler: instr.sampler,
                    slot: self.tex_slots,
                    coords,
                };
                self.tex_slots += 1;
                for (k, &c) in comps.iter().enumerate() {
                    op.s[1][k] = c as u16;
                }
                self.push(op);
            }
            _ if n == 0 => return,
            Opcode::Dp3 | Opcode::Dp4 => {
                let width = if instr.op == Opcode::Dp3 { 3 } else { 4 };
                op.kind = OpKind::Dot(width as u8);
                for i in 0..2 {
                    op.s[i] = self.operand(&instr.srcs[i], i, &[0, 1, 2, 3][..width]);
                }
                self.push(op);
            }
            opcode => {
                op.kind = OpKind::Map(opcode);
                let arity = opcode.arity();
                for i in 0..arity {
                    op.s[i] = self.operand(&instr.srcs[i], i, &comps);
                }
                // Rows are written in component order; when a destination
                // row is a source row of a later component, stage the
                // results and copy them over afterwards.
                let n = n as usize;
                let hazard = (0..n)
                    .any(|k| (k + 1..n).any(|later| (0..arity).any(|i| op.s[i][later] == op.d[k])));
                if hazard {
                    let staged = std::array::from_fn(|k| STAGE_ROW + k as u16);
                    self.push(Op { d: staged, ..op });
                    self.push(Op {
                        kind: OpKind::Map(Opcode::Mov),
                        n: op.n,
                        d,
                        s: [staged, [0; 4], [0; 4]],
                    });
                } else {
                    self.push(op);
                }
            }
        }
        if instr.saturate && n > 0 {
            self.push(Op {
                kind: OpKind::Sat,
                n,
                d,
                s: [[0; 4]; 3],
            });
        }
    }
}

/// Execute a [`LoweredProgram`] for one fragment. Constants were folded at
/// lower time, so only textures and the optional cache model are needed.
/// Results (colors and work counts) are bit-identical to [`execute`] on the
/// same program, constants, and fragment input.
pub fn execute_lowered(
    program: &LoweredProgram,
    input: &FragmentInput,
    textures: &[&Texture2D],
    mut cache: Option<&mut TextureCache>,
) -> FragmentOutput {
    let mut temps = [[0.0f32; 4]; NUM_TEMPS];
    let mut outputs = [[0.0f32; 4]; NUM_OUTPUTS];
    let mut texel_fetches = 0u64;

    for instr in &program.instrs {
        let s = |i: usize| instr.srcs[i].read(&temps, &outputs, &input.texcoords);
        let value: [f32; 4] = if instr.op == Opcode::Tex {
            let sampler = instr.sampler as usize;
            tex_fetch(
                textures[sampler],
                sampler,
                s(0),
                &mut cache,
                &mut texel_fetches,
            )
        } else {
            alu(instr.op, s)
        };
        let target: &mut [f32; 4] = match instr.dst {
            LoweredDst::Temp(r) => &mut temps[r as usize],
            LoweredDst::Out(o) => &mut outputs[o as usize],
        };
        write_back(target, value, instr.mask_bits, instr.saturate);
    }

    FragmentOutput {
        colors: outputs,
        instructions: program.instrs.len() as u64,
        texel_fetches,
    }
}

// ---------------------------------------------------------------------------
// The batched in-place SoA executor
// ---------------------------------------------------------------------------

/// Fragments shaded together by [`execute_lowered_tile`]: every register
/// component of a chunk is one `[f32; BATCH_LANES]` row, so each op's
/// inner loop is a fixed-length lane loop the host SIMD units vectorize.
pub const BATCH_LANES: usize = 16;

/// One register component across a chunk's lanes.
type Row = [f32; BATCH_LANES];

// Register-file rows of the batched executor: component `c` of register
// `Ri`/`Oi`/`Ti` lives in row `base + 4 * i + c`, so a swizzle resolves at
// lower time to four row indices and a write mask to the rows it names.
const TEMP_ROW: u16 = 0;
const OUT_ROW: u16 = TEMP_ROW + 4 * NUM_TEMPS as u16;
const COORD_ROW: u16 = OUT_ROW + 4 * NUM_OUTPUTS as u16;
/// Staging rows for negated operands: operand `i` of the next op reads
/// `NEG_ROW + 4 * i + k`.
const NEG_ROW: u16 = COORD_ROW + 4 * NUM_TEXCOORDS as u16;
/// Staging rows for an op whose destination aliases a source row a later
/// component still reads.
const STAGE_ROW: u16 = NEG_ROW + 12;
/// First constant-pool row: one pre-splatted row per distinct immediate.
const POOL_ROW: u16 = STAGE_ROW + 4;

/// What one [`Op`] computes over its `n` destination rows `d[..n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// A componentwise opcode: `d[k] = f(s[0][k], s[1][k], s[2][k])`, with
    /// `f` the exact scalar expression of [`alu`].
    Map(Opcode),
    /// `d[k] = -s[0][k]`: stages a negated register operand.
    Neg,
    /// `d[k] = clamp(d[k], 0, 1)` in place: the `_SAT` modifier.
    Sat,
    /// `DP3`/`DP4` over `s[0][..w]` and `s[1][..w]`, broadcast to `d[..n]`.
    Dot(u8),
    /// A texel fetch at `(s[0][0], s[0][1])`; texel component `s[1][k]`
    /// lands in `d[k]`. `slot` is the fetch's index among the program's
    /// `TEX` instructions (its column in the touch record); `coords`
    /// numbers its coordinate rows' values: fetches with equal `coords`
    /// read the same `(u, v)` lanes, so they share one resolution per
    /// texture size.
    Tex { sampler: u8, slot: u16, coords: u16 },
}

/// One pre-decoded op of the batched executor: every operand is already a
/// row index (swizzle applied, constant splatted into the pool), and the
/// op writes its rows in place.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: OpKind,
    n: u8,
    d: [u16; 4],
    s: [[u16; 4]; 3],
}

#[inline(always)]
fn map1(f: &mut [Row], op: &Op, g: impl Fn(f32) -> f32) {
    for k in 0..op.n as usize {
        let a = f[op.s[0][k] as usize];
        let out = &mut f[op.d[k] as usize];
        for (o, &x) in out.iter_mut().zip(&a) {
            *o = g(x);
        }
    }
}

#[inline(always)]
fn map2(f: &mut [Row], op: &Op, g: impl Fn(f32, f32) -> f32) {
    for k in 0..op.n as usize {
        let (a, b) = (f[op.s[0][k] as usize], f[op.s[1][k] as usize]);
        let out = &mut f[op.d[k] as usize];
        for ((o, &x), &y) in out.iter_mut().zip(&a).zip(&b) {
            *o = g(x, y);
        }
    }
}

#[inline(always)]
fn map3(f: &mut [Row], op: &Op, g: impl Fn(f32, f32, f32) -> f32) {
    for k in 0..op.n as usize {
        let (a, b, c) = (
            f[op.s[0][k] as usize],
            f[op.s[1][k] as usize],
            f[op.s[2][k] as usize],
        );
        let out = &mut f[op.d[k] as usize];
        for (l, o) in out.iter_mut().enumerate() {
            *o = g(a[l], b[l], c[l]);
        }
    }
}

/// `DP3`/`DP4`: the products summed left to right in one expression per
/// lane, exactly as [`alu`] writes it.
#[inline(always)]
fn dot(f: &mut [Row], op: &Op, width: usize) {
    let [a0, a1, a2, a3] = op.s[0].map(|r| f[r as usize]);
    let [b0, b1, b2, b3] = op.s[1].map(|r| f[r as usize]);
    let sum: Row = if width == 3 {
        std::array::from_fn(|l| a0[l] * b0[l] + a1[l] * b1[l] + a2[l] * b2[l])
    } else {
        std::array::from_fn(|l| a0[l] * b0[l] + a1[l] * b1[l] + a2[l] * b2[l] + a3[l] * b3[l])
    };
    for &d in &op.d[..op.n as usize] {
        f[d as usize] = sum;
    }
}

/// The `ClampToEdge` texels one chunk's lanes fetch at one `(u, v)` pair
/// of coordinate rows from a texture of one size.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    /// Row-major texel index per lane.
    idx: [usize; BATCH_LANES],
    /// Cache block of the texel per lane.
    blocks: [Block; BATCH_LANES],
}

impl Resolved {
    /// Resolve every lane's coordinates against a `ClampToEdge` texture of
    /// `width x height`, exactly as the scalar path does (`floor(u * w)`
    /// as i64, clamped to `[0, w - 1]`, NaN resolving to 0).
    #[inline(always)]
    fn clamped(us: &Row, vs: &Row, (width, height): (usize, usize)) -> Self {
        let (wf, hf) = (width as f32, height as f32);
        let (xmax, ymax) = ((width - 1) as f32, (height - 1) as f32);
        let xs: [u32; BATCH_LANES] = std::array::from_fn(|l| clamped_floor(us[l] * wf, xmax));
        let ys: [u32; BATCH_LANES] = std::array::from_fn(|l| clamped_floor(vs[l] * hf, ymax));
        Resolved {
            idx: std::array::from_fn(|l| ys[l] as usize * width + xs[l] as usize),
            blocks: std::array::from_fn(|l| TextureCache::block(xs[l] as usize, ys[l] as usize)),
        }
    }
}

/// Largest texture side [`clamped_floor`] resolves exactly.
const CLAMPED_FLOOR_MAX: usize = 1 << 23;

/// `clamp(floor(x), 0, max)` for an integral `max < 2^23`, with NaN
/// resolving to 0 — the `ClampToEdge` texel coordinate of `x = u * size`
/// — in float arithmetic only, so lane loops over it vectorize where a
/// saturating float-to-int cast would not.
///
/// Clamping first is exact: `floor` is monotone and `0`, `max` are
/// integers, so `floor(clamp(x)) = clamp(floor(x))`, and [`fmax`] maps
/// NaN to `0`. On the clamped `c ∈ [0, max]` (possibly `-0.0`), adding
/// and subtracting `2^23` rounds to the nearest integer `r` exactly, one
/// step down where `r > c` gives the floor, and adding `2^23` again puts
/// that integer in the mantissa bits.
#[inline(always)]
fn clamped_floor(x: f32, max: f32) -> u32 {
    const MAGIC: f32 = 8_388_608.0; // 2^23
    debug_assert!(max < MAGIC);
    let c = fmin(fmax(x, 0.0), max);
    let r = (c + MAGIC) - MAGIC;
    let floor = if r > c { r - 1.0 } else { r };
    (floor + MAGIC).to_bits() - MAGIC.to_bits()
}

/// Per-chunk memo of [`Resolved`] fetches, one entry per distinct fetch
/// coordinate (`OpKind::Tex::coords`) keyed by texture size: the `TEX`es
/// of a pass mostly sample same-size textures at a few coordinate sets,
/// so each (coordinates, size) pair resolves once per chunk instead of
/// once per fetch.
struct FetchMemo {
    sizes: Vec<Option<(usize, usize)>>,
    resolved: Vec<Resolved>,
}

impl FetchMemo {
    fn new(coords: usize) -> Self {
        let empty = Resolved {
            idx: [0; BATCH_LANES],
            blocks: [Block::default(); BATCH_LANES],
        };
        FetchMemo {
            sizes: vec![None; coords],
            resolved: vec![empty; coords],
        }
    }

    /// Forget every resolution (the chunk's coordinates changed).
    fn clear(&mut self) {
        self.sizes.fill(None);
    }
}

/// A `TEX` over one chunk: resolve each active lane's texel (shared
/// through `memo` with earlier fetches at the same coordinates), record
/// the cache line it touches when a cache is modelled, and gather the
/// texel components into the destination rows.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fetch(
    f: &mut [Row],
    op: &Op,
    tex: &Texture2D,
    (sampler, slot, coords): (usize, usize, usize),
    memo: &mut FetchMemo,
    cache: Option<&TextureCache>,
    lines: &mut [(usize, u64)],
    tex_slots: usize,
    active: usize,
) {
    let size = (tex.width(), tex.height());
    let (us, vs) = (&f[op.s[0][0] as usize], &f[op.s[0][1] as usize]);
    let clamped = matches!(tex.address_mode(), AddressMode::ClampToEdge);
    if clamped && size.0.max(size.1) <= CLAMPED_FLOOR_MAX {
        // The GPGPU-default mode: every coordinate resolves to a texel.
        if memo.sizes[coords] != Some(size) {
            memo.resolved[coords] = Resolved::clamped(us, vs, size);
            memo.sizes[coords] = Some(size);
        }
        let r = &memo.resolved[coords];
        if let Some(cache) = cache {
            for (l, &block) in r.blocks[..active].iter().enumerate() {
                lines[l * tex_slots + slot] = cache.line_of(sampler as u32, block);
            }
        }
        let texels = tex.texels();
        let mut comps = [[0.0f32; BATCH_LANES]; 4];
        for (l, &i) in r.idx[..active].iter().enumerate() {
            let t = texels[i];
            comps[0][l] = t[0];
            comps[1][l] = t[1];
            comps[2][l] = t[2];
            comps[3][l] = t[3];
        }
        for k in 0..op.n as usize {
            f[op.d[k] as usize] = comps[op.s[1][k] as usize];
        }
        return;
    }
    // Wrap/mirror/border arithmetic is sensitive to the saturation bound,
    // so these modes (and absurdly wide textures) keep the scalar path's
    // full i64 coordinates.
    let (wf, hf) = (size.0 as f32, size.1 as f32);
    let mut fetched = [[0.0f32; 4]; BATCH_LANES];
    for l in 0..active {
        let x = floor_to_i64(us[l] * wf);
        let y = floor_to_i64(vs[l] * hf);
        let resolved = tex.resolve_coords(x, y);
        if let Some(cache) = cache {
            lines[l * tex_slots + slot] = resolved.map_or(NO_LINE, |(cx, cy)| {
                cache.line_of(sampler as u32, TextureCache::block(cx, cy))
            });
        }
        fetched[l] = match resolved {
            Some((cx, cy)) => tex.texel(cx, cy),
            None => tex.border_texel(),
        };
    }
    for k in 0..op.n as usize {
        let comp = op.s[1][k] as usize;
        let out = &mut f[op.d[k] as usize];
        for (o, t) in out[..active].iter_mut().zip(&fetched) {
            *o = t[comp];
        }
    }
}

/// Run every op of `program` once over one chunk whose register file the
/// caller prepared (zero rows cleared, coordinate rows filled, `memo`
/// cleared). Every `TEX` writes its column of `lines` for every active
/// lane when a cache is modelled.
#[inline(always)]
fn shade_ops(
    program: &LoweredProgram,
    f: &mut [Row],
    textures: &[&Texture2D],
    memo: &mut FetchMemo,
    cache: Option<&TextureCache>,
    lines: &mut [(usize, u64)],
    active: usize,
) {
    let tex_slots = program.tex_count as usize;
    for op in &program.ops {
        match op.kind {
            OpKind::Map(opcode) => match opcode {
                Opcode::Mov => map1(f, op, |a| a),
                Opcode::Add => map2(f, op, |a, b| a + b),
                Opcode::Sub => map2(f, op, |a, b| a - b),
                Opcode::Mul => map2(f, op, |a, b| a * b),
                Opcode::Mad => map3(f, op, |a, b, c| a * b + c),
                Opcode::Min => map2(f, op, fmin),
                Opcode::Max => map2(f, op, fmax),
                Opcode::Rcp => map1(f, op, |a| 1.0 / a),
                Opcode::Rsq => map1(f, op, |a| 1.0 / a.sqrt()),
                Opcode::Ex2 => map1(f, op, f32::exp2),
                Opcode::Lg2 => map1(f, op, lg2_clamped),
                Opcode::Frc => map1(f, op, |a| a - a.floor()),
                Opcode::Flr => map1(f, op, f32::floor),
                Opcode::Abs => map1(f, op, f32::abs),
                Opcode::Slt => map2(f, op, |a, b| if a < b { 1.0 } else { 0.0 }),
                Opcode::Sge => map2(f, op, |a, b| if a >= b { 1.0 } else { 0.0 }),
                Opcode::Cmp => map3(f, op, |c, a, b| if c < 0.0 { a } else { b }),
                Opcode::Lrp => map3(f, op, |t, a, b| t * a + (1.0 - t) * b),
                Opcode::Dp3 | Opcode::Dp4 | Opcode::Tex => {
                    unreachable!("decoded to their own op kinds")
                }
            },
            OpKind::Neg => map1(f, op, |a| -a),
            OpKind::Sat => {
                for &d in &op.d[..op.n as usize] {
                    for x in f[d as usize].iter_mut() {
                        *x = x.clamp(0.0, 1.0);
                    }
                }
            }
            OpKind::Dot(width) => dot(f, op, width as usize),
            OpKind::Tex {
                sampler,
                slot,
                coords,
            } => fetch(
                f,
                op,
                textures[sampler as usize],
                (sampler as usize, slot as usize, coords as usize),
                memo,
                cache,
                lines,
                tex_slots,
                active,
            ),
        }
    }
}

/// Replay a chunk's recorded cache lines fragment-major (per fragment, TEX
/// instructions in program order — the record is lane-major): exactly the
/// sequence the scalar executor feeds the cache, so hit/miss counts match
/// bit for bit at every cache geometry.
#[inline(always)]
fn replay_lines(cache: &mut TextureCache, lines: &[(usize, u64)]) {
    cache.access_lines(lines.iter().copied().filter(|&line| line != NO_LINE));
}

/// Shade one raster tile in [`BATCH_LANES`]-wide chunks, writing output
/// `O0` straight into the tile's row segments.
///
/// The program runs as its pre-decoded op sequence over a flat register
/// file of lane rows ([`LoweredProgram`]): coordinate-set interpolants are
/// evaluated straight into their rows — the `v` component once per row,
/// the `u` ramp once per chunk — every op updates its destination rows in
/// place, and `O0`'s rows scatter to `rows`. Each row is chunked
/// independently, so `rows` may have ragged lengths.
///
/// Bit-exactness contract: `rows`, the returned `(instructions,
/// texel_fetches)` totals, and the cache's hit/miss counters are identical
/// to the scalar loop
/// `for (ri, seg) { for ci { execute_lowered(prog, fragment_input(sets,
/// x0+ci, y0+ri, target_w, target_h), .. ) } }`: the interpolants are
/// computed with expression-identical arithmetic (`(x + 0.5) / w` then
/// `u * scale + offset`, never fused), lanes evaluate the scalar ALU
/// expressions, and the cache lines TEX touches are recorded per (lane,
/// fetch) and replayed fragment-major in row-major fragment order. The one
/// freedom: an op that meets two NaNs of different bits may return the
/// other one than the scalar loop does, since the compiler may commute
/// the operands of `+` and `*` (DESIGN.md §14).
#[allow(clippy::too_many_arguments)]
pub fn execute_lowered_tile(
    program: &LoweredProgram,
    sets: &[crate::raster::TexCoordSet],
    x0: usize,
    y0: usize,
    target_w: usize,
    target_h: usize,
    rows: &mut [&mut [[f32; 4]]],
    textures: &[&Texture2D],
    mut cache: Option<&mut TextureCache>,
) -> (u64, u64) {
    let tex_slots = program.tex_count as usize;
    let mut lines = vec![NO_LINE; tex_slots * BATCH_LANES];
    let mut texel_fetches = 0u64;
    let mut fragments = 0u64;
    let mut f: Vec<Row> = vec![[0.0; BATCH_LANES]; POOL_ROW as usize + program.pool.len()];
    let mut memo = FetchMemo::new(program.fetch_coords);
    for (row, &v) in f[POOL_ROW as usize..].iter_mut().zip(&program.pool) {
        *row = [v; BATCH_LANES];
    }
    // Coordinate sets interpolate `[u, v, 0, 1]`; sets past `sets.len()`
    // stay at the `FragmentInput::zero()` default `[0, 0, 0, 1]`.
    let bound = |t: usize| t < sets.len() && program.coord_sets & (1 << t) != 0;
    for t in 0..NUM_TEXCOORDS {
        f[(COORD_ROW as usize) + 4 * t + 3] = [1.0; BATCH_LANES];
    }
    let (twf, thf) = (target_w as f32, target_h as f32);
    for (ri, seg) in rows.iter_mut().enumerate() {
        let v = ((y0 + ri) as f32 + 0.5) / thf;
        for (t, set) in sets.iter().enumerate() {
            if bound(t) {
                f[COORD_ROW as usize + 4 * t + 1] = [v * set.scale[1] + set.offset[1]; BATCH_LANES];
            }
        }
        let width = seg.len();
        let mut ci = 0usize;
        while ci < width {
            let active = (width - ci).min(BATCH_LANES);
            // The `u` ramp for this chunk (lanes past `active` compute
            // coordinates no observable path reads).
            let us: Row = std::array::from_fn(|l| ((x0 + ci + l) as f32 + 0.5) / twf);
            for (t, set) in sets.iter().enumerate() {
                if bound(t) {
                    let (s0, o0) = (set.scale[0], set.offset[0]);
                    f[COORD_ROW as usize + 4 * t] = us.map(|u| u * s0 + o0);
                }
            }
            for &r in &program.zero_rows {
                f[r as usize] = [0.0; BATCH_LANES];
            }
            memo.clear();
            shade_ops(
                program,
                &mut f,
                textures,
                &mut memo,
                cache.as_deref(),
                &mut lines,
                active,
            );
            texel_fetches += (tex_slots * active) as u64;
            if let Some(cache) = cache.as_deref_mut() {
                replay_lines(cache, &lines[..tex_slots * active]);
            }
            let o = OUT_ROW as usize;
            for l in 0..active {
                seg[ci + l] = [f[o][l], f[o + 1][l], f[o + 2][l], f[o + 3][l]];
            }
            fragments += active as u64;
            ci += active;
        }
    }
    (program.instrs.len() as u64 * fragments, texel_fetches)
}

/// `v.floor() as i64` without the libm `floorf` call: truncate toward
/// zero, then step down when truncation rounded up (negative non-integer
/// inputs). Result-identical to the scalar path's `v.floor() as i64` for
/// every f32: NaN → 0 either way, and out-of-range values saturate at the
/// same bounds (the correction term never fires at a saturated truncation
/// except below `i64::MIN`, where `saturating_sub` pins it).
#[inline(always)]
fn floor_to_i64(v: f32) -> i64 {
    let t = v as i64;
    t.saturating_sub(i64::from(t as f32 > v))
}

/// A (TEX, lane) record slot that generated no cache traffic: a border
/// fetch or an inactive lane (no real line has an all-ones tag).
const NO_LINE: (usize, u64) = (0, u64::MAX);

/// Merge a program's `DEF` constants into a pass-level constant block.
pub fn resolve_constants(
    program: &Program,
    pass_constants: &[(u8, [f32; 4])],
) -> [[f32; 4]; NUM_CONSTS] {
    let mut c = [[0.0f32; 4]; NUM_CONSTS];
    for d in &program.defs {
        c[d.index as usize] = d.value;
    }
    for &(idx, v) in pass_constants {
        c[idx as usize] = v;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn lg2_is_exact_on_powers_of_two_and_close_to_libm_elsewhere() {
        for k in -126..=127 {
            let x = (k as f32).exp2();
            assert_eq!(lg2(x), k as f32, "lg2(2^{k})");
        }
        assert_eq!(lg2(1.0), 0.0);
        assert_eq!(lg2(f32::INFINITY), f32::INFINITY);
        // Dense sweep against the platform libm: the vendored polynomial
        // must agree to a few ulp everywhere the LG2 clamp can produce.
        let mut worst = 0.0f64;
        let mut x = f32::MIN_POSITIVE;
        while x.is_finite() {
            let (got, want) = (lg2(x) as f64, (x as f64).log2());
            let err = (got - want).abs();
            // Absolute log2 values span ±126; 1e-5 absolute ≈ 2 f32 ulp
            // at |log2| ≈ 64 and far below SID's ε-tolerances near 1.
            worst = worst.max(err / want.abs().max(1.0));
            x *= 1.618_034; // irrational step: hits varied mantissas
        }
        assert!(worst < 1e-6, "worst relative error {worst}");
    }

    fn run(src: &str, textures: &[&Texture2D]) -> FragmentOutput {
        let p = assemble(src).unwrap();
        let constants = resolve_constants(&p, &[]);
        execute(&p, &FragmentInput::zero(), &constants, textures, None)
    }

    fn run_with_input(src: &str, input: &FragmentInput, textures: &[&Texture2D]) -> FragmentOutput {
        let p = assemble(src).unwrap();
        let constants = resolve_constants(&p, &[]);
        execute(&p, input, &constants, textures, None)
    }

    #[test]
    fn arithmetic_opcodes() {
        let out = run(
            "DEF C0, 1, 2, 3, 4\nDEF C1, 10, 20, 30, 40\n\
             ADD R0, C0, C1\nSUB R1, C1, C0\nMUL R2, C0, C0\nMAD R3, C0, C1, C0\n\
             MOV OC, R0\nMOV O1, R1\nMOV O2, R2\nMOV O3, R3",
            &[],
        );
        assert_eq!(out.colors[0], [11.0, 22.0, 33.0, 44.0]);
        assert_eq!(out.colors[1], [9.0, 18.0, 27.0, 36.0]);
        assert_eq!(out.colors[2], [1.0, 4.0, 9.0, 16.0]);
        assert_eq!(out.colors[3], [11.0, 42.0, 93.0, 164.0]);
        assert_eq!(out.instructions, 8);
        assert_eq!(out.texel_fetches, 0);
    }

    #[test]
    fn transcendental_opcodes() {
        let out = run(
            "DEF C0, 2, 4, 8, 1\nRCP R0, C0\nRSQ R1, C0\nLG2 R2, C0\nEX2 R3, C0\n\
             MOV OC, R0\nMOV O1, R1\nMOV O2, R2\nMOV O3, R3",
            &[],
        );
        assert_eq!(out.colors[0], [0.5, 0.25, 0.125, 1.0]);
        assert!((out.colors[1][0] - 1.0 / 2.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(out.colors[2], [1.0, 2.0, 3.0, 0.0]);
        assert_eq!(out.colors[3], [4.0, 16.0, 256.0, 2.0]);
    }

    #[test]
    fn lg2_clamps_non_positive() {
        let out = run("DEF C0, 0, -1, 1, 2\nLG2 R0, C0\nMOV OC, R0", &[]);
        assert!(out.colors[0][0].is_finite());
        assert!(out.colors[0][1].is_finite());
        assert_eq!(out.colors[0][2], 0.0);
        assert_eq!(out.colors[0][3], 1.0);
    }

    #[test]
    fn comparison_and_select_opcodes() {
        let out = run(
            "DEF C0, 1, 5, 3, 3\nDEF C1, 2, 2, 3, 4\n\
             SLT R0, C0, C1\nSGE R1, C0, C1\n\
             DEF C2, -1, 1, -0.5, 0\nCMP R2, C2, C0, C1\n\
             MOV OC, R0\nMOV O1, R1\nMOV O2, R2",
            &[],
        );
        assert_eq!(out.colors[0], [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(out.colors[1], [0.0, 1.0, 1.0, 0.0]);
        assert_eq!(out.colors[2], [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn misc_opcodes() {
        let out = run(
            "DEF C0, 1.75, -1.25, 2, -2\n\
             FRC R0, C0\nFLR R1, C0\nABS R2, C0\n\
             MIN R3, C0, -C0\nMAX R4, C0, -C0\n\
             MOV OC, R0\nMOV O1, R1\nMOV O2, R2\nMOV O3, R3\nMOV R5, R4",
            &[],
        );
        assert_eq!(out.colors[0], [0.75, 0.75, 0.0, 0.0]);
        assert_eq!(out.colors[1], [1.0, -2.0, 2.0, -2.0]);
        assert_eq!(out.colors[2], [1.75, 1.25, 2.0, 2.0]);
        assert_eq!(out.colors[3], [-1.75, -1.25, -2.0, -2.0]);
    }

    #[test]
    fn dot_products_broadcast() {
        let out = run(
            "DEF C0, 1, 2, 3, 4\nDEF C1, 1, 1, 1, 1\nDP3 R0, C0, C1\nDP4 R1, C0, C1\n\
             MOV OC, R0\nMOV O1, R1",
            &[],
        );
        assert_eq!(out.colors[0], [6.0; 4]);
        assert_eq!(out.colors[1], [10.0; 4]);
    }

    #[test]
    fn lrp_interpolates() {
        let out = run(
            "DEF C0, 0, 1, 0.5, 0.25\nDEF C1, 10, 10, 10, 10\nDEF C2, 20, 20, 20, 20\n\
             LRP R0, C0, C1, C2\nMOV OC, R0",
            &[],
        );
        assert_eq!(out.colors[0], [20.0, 10.0, 15.0, 17.5]);
    }

    #[test]
    fn swizzle_negate_mask_saturate() {
        let out = run(
            "DEF C0, 1, 2, 3, 4\nMOV R0, C0.wzyx\nMOV R1.xz, C0\nMOV_SAT R2, -C0\n\
             MOV OC, R0\nMOV O1, R1\nMOV O2, R2",
            &[],
        );
        assert_eq!(out.colors[0], [4.0, 3.0, 2.0, 1.0]);
        assert_eq!(out.colors[1], [1.0, 0.0, 3.0, 0.0]);
        assert_eq!(out.colors[2], [0.0; 4]); // negatives saturate to 0
    }

    #[test]
    fn texture_sampling_uses_texcoords_and_counts_fetches() {
        let mut tex = Texture2D::new(2, 2);
        tex.set_texel(0, 0, [1.0, 0.0, 0.0, 1.0]);
        tex.set_texel(1, 1, [0.0, 1.0, 0.0, 1.0]);
        let mut input = FragmentInput::zero();
        input.texcoords[0] = [0.25, 0.25, 0.0, 1.0]; // texel (0,0)
        input.texcoords[1] = [0.75, 0.75, 0.0, 1.0]; // texel (1,1)
        let out = run_with_input(
            "TEX R0, T0, tex0\nTEX R1, T1, tex0\nADD OC, R0, R1",
            &input,
            &[&tex],
        );
        assert_eq!(out.colors[0], [1.0, 1.0, 0.0, 2.0]);
        assert_eq!(out.texel_fetches, 2);
        assert_eq!(out.instructions, 3);
    }

    #[test]
    fn dependent_texture_read() {
        // Compute a coordinate in the shader, then sample with it.
        let mut lut = Texture2D::new(2, 1);
        lut.set_texel(0, 0, [11.0; 4]);
        lut.set_texel(1, 0, [22.0; 4]);
        let out = run(
            "DEF C0, 0.75, 0.5, 0, 0\nMOV R0, C0\nTEX R1, R0, tex0\nMOV OC, R1",
            &[&lut],
        );
        assert_eq!(out.colors[0], [22.0; 4]);
    }

    #[test]
    fn cache_is_consulted_per_fetch() {
        let tex = Texture2D::new(4, 4);
        let p = assemble("TEX R0, T0, tex0\nTEX R1, T0, tex0\nMOV OC, R0").unwrap();
        let constants = resolve_constants(&p, &[]);
        let mut cache = TextureCache::new(16, 2);
        let input = FragmentInput::zero();
        execute(&p, &input, &constants, &[&tex], Some(&mut cache));
        assert_eq!(cache.hits() + cache.misses(), 2);
        assert_eq!(cache.hits(), 1); // second fetch hits the same block
    }

    #[test]
    fn lowered_execution_matches_interpreter() {
        let mut tex = Texture2D::new(2, 2);
        tex.set_texel(0, 0, [0.25, 0.5, 0.75, 1.0]);
        tex.set_texel(1, 1, [0.1, 0.2, 0.3, 0.4]);
        let p = assemble(
            "DEF C0, 1.5, -2, 0.25, 4\n\
             TEX R0, T0, tex0\nMAD R1.xz, R0, C0.wzyx, -C0\nLRP R2, C0.x, R0, R1\n\
             RSQ R3, C0.w\nMOV_SAT OC, R2\nDP4 O1, R1, C0\nMOV O2, R3",
        )
        .unwrap();
        let constants = resolve_constants(&p, &[(1, [0.5, 0.5, 0.0, 1.0])]);
        let lowered = lower(&p, &constants);
        assert_eq!(lowered.instruction_count(), p.len() as u64);
        assert_eq!(lowered.tex_count(), p.tex_count() as u64);
        let mut input = FragmentInput::zero();
        input.texcoords[0] = [0.6, 0.7, 0.0, 1.0];
        let a = execute(&p, &input, &constants, &[&tex], None);
        let b = execute_lowered(&lowered, &input, &[&tex], None);
        assert_eq!(a, b);
    }

    #[test]
    fn lowered_cache_traffic_matches_interpreter() {
        let tex = Texture2D::new(4, 4);
        let p = assemble("TEX R0, T0, tex0\nTEX R1, T0, tex0\nMOV OC, R0").unwrap();
        let constants = resolve_constants(&p, &[]);
        let lowered = lower(&p, &constants);
        let input = FragmentInput::zero();
        let mut ca = TextureCache::new(16, 2);
        let mut cb = TextureCache::new(16, 2);
        execute(&p, &input, &constants, &[&tex], Some(&mut ca));
        execute_lowered(&lowered, &input, &[&tex], Some(&mut cb));
        assert_eq!((ca.hits(), ca.misses()), (cb.hits(), cb.misses()));
    }

    /// Whether the two executors' results agree: bit for bit, except that
    /// where an input held a NaN any NaN matches any NaN. Where an
    /// operation meets two NaNs the hardware returns one of them by
    /// operand position, and Rust leaves which one unspecified (the
    /// compiler may commute the operands of `+` and `*`), so two
    /// separately compiled executors need not pick the same one.
    fn same_bits(a: f32, b: f32, nan_inputs: bool) -> bool {
        a.to_bits() == b.to_bits() || (nan_inputs && a.is_nan() && b.is_nan())
    }

    /// Shade a `width x rows` tile at `(x0, y0)` of a `tw x th` target
    /// both ways — the scalar `fragment_input` + [`execute_lowered`] row
    /// loop and [`execute_lowered_tile`] — and assert colors (as bits, see
    /// [`same_bits`]), counters and cache traffic agree. Returns the
    /// shaded colors.
    #[allow(clippy::too_many_arguments)]
    fn assert_tile_matches_scalar(
        lowered: &LoweredProgram,
        sets: &[crate::raster::TexCoordSet],
        (x0, y0): (usize, usize),
        (tw, th): (usize, usize),
        (width, rows): (usize, usize),
        textures: &[&Texture2D],
        cache: impl Fn() -> TextureCache,
    ) -> Vec<[f32; 4]> {
        use crate::raster::fragment_input;
        let mut scalar_cache = cache();
        let mut scalar_out = vec![[0.0f32; 4]; width * rows];
        let (mut scalar_instr, mut scalar_fetches) = (0u64, 0u64);
        for ri in 0..rows {
            for ci in 0..width {
                let fi = fragment_input(sets, x0 + ci, y0 + ri, tw, th);
                let r = execute_lowered(lowered, &fi, textures, Some(&mut scalar_cache));
                scalar_instr += r.instructions;
                scalar_fetches += r.texel_fetches;
                scalar_out[ri * width + ci] = r.colors[0];
            }
        }
        let mut tile_out = vec![[0.0f32; 4]; width * rows];
        let mut segs: Vec<&mut [[f32; 4]]> = tile_out.chunks_mut(width).collect();
        let mut tile_cache = cache();
        let counts = execute_lowered_tile(
            lowered,
            sets,
            x0,
            y0,
            tw,
            th,
            &mut segs,
            textures,
            Some(&mut tile_cache),
        );
        let nan_inputs = textures
            .iter()
            .any(|t| t.texels().iter().flatten().any(|v| v.is_nan()));
        for (i, (a, b)) in scalar_out.iter().zip(&tile_out).enumerate() {
            assert!(
                (0..4).all(|c| same_bits(a[c], b[c], nan_inputs)),
                "fragment {i}: scalar {a:?} != tile {b:?}"
            );
        }
        assert_eq!(counts, (scalar_instr, scalar_fetches));
        assert_eq!(
            (tile_cache.hits(), tile_cache.misses()),
            (scalar_cache.hits(), scalar_cache.misses())
        );
        tile_out
    }

    #[test]
    fn batched_execution_matches_scalar_over_ragged_chunks() {
        // One full chunk plus a ragged tail per row, over a program mixing
        // TEX, MAD masks, LRP, saturation and DP4.
        use crate::raster::TexCoordSet;
        let mut tex = Texture2D::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                let v = (y * 4 + x) as f32 * 0.125 - 0.5;
                tex.set_texel(x, y, [v, v + 0.25, -v, 1.0]);
            }
        }
        let p = assemble(
            "DEF C0, 1.5, -2, 0.25, 4\n\
             TEX R0, T0, tex0\nMAD R1.xz, R0, C0.wzyx, -C0\nLRP R2, C0.x, R0, R1\n\
             RSQ R3, C0.w\nMOV_SAT OC, R2\nDP4 O1, R1, C0\nMOV O2, R3",
        )
        .unwrap();
        let constants = resolve_constants(&p, &[(1, [0.5, 0.5, 0.0, 1.0])]);
        let lowered = lower(&p, &constants);
        let width = BATCH_LANES + 3;
        assert_tile_matches_scalar(
            &lowered,
            &[TexCoordSet::identity()],
            (0, 0),
            (width, 2),
            (width, 2),
            &[&tex],
            || TextureCache::new(16, 2),
        );
    }

    #[test]
    fn batched_cache_replay_preserves_fragment_major_order() {
        // Two TEX instructions against different samplers through a 1-set,
        // 1-way cache: instruction-major accesses would turn the scalar
        // all-miss A,B,A,B... sequence into runs of hits, so equality here
        // proves the batch path replays touches fragment-major.
        use crate::raster::TexCoordSet;
        let ta = Texture2D::new(4, 4);
        let tb = Texture2D::new(4, 4);
        let p = assemble("TEX R0, T0, tex0\nTEX R1, T0, tex1\nADD OC, R0, R1").unwrap();
        let constants = resolve_constants(&p, &[]);
        let lowered = lower(&p, &constants);
        // Every fragment samples texel (0, 0).
        let corner = TexCoordSet {
            scale: [0.0, 0.0],
            offset: [0.0, 0.0],
        };
        let mut scalar_cache = TextureCache::new(1, 1);
        for _ in 0..8 {
            let mut fi = FragmentInput::zero();
            fi.texcoords[0] = [0.0, 0.0, 0.0, 1.0];
            execute_lowered(&lowered, &fi, &[&ta, &tb], Some(&mut scalar_cache));
        }
        assert_eq!(scalar_cache.hits(), 0, "scalar sequence must thrash");
        assert_tile_matches_scalar(
            &lowered,
            &[corner],
            (0, 0),
            (8, 1),
            (8, 1),
            &[&ta, &tb],
            || TextureCache::new(1, 1),
        );
    }

    #[test]
    fn batch_tile_matches_scalar_row_loop_bit_for_bit() {
        // A ragged tile (a full chunk plus 5 lanes per row, 3 rows) with an
        // offset origin, two coordinate sets (one neighbour-shifted so
        // fetches clamp at the border) and a program exercising TEX from
        // both sets, LG2 and saturation. The tile path must reproduce the
        // scalar `fragment_input` + `execute_lowered` loop exactly —
        // colors, counters and cache traffic.
        use crate::raster::TexCoordSet;
        let (tw, th) = (BATCH_LANES + 12, 9);
        let mut tex = Texture2D::new(tw, th);
        for y in 0..th {
            for x in 0..tw {
                let v = (y * tw + x) as f32 * 0.011 + 0.125;
                tex.set_texel(x, y, [v, 1.0 - v, v * v, 1.0]);
            }
        }
        let sets = [
            TexCoordSet::identity(),
            TexCoordSet::shifted_texels(2, -1, tw, th),
        ];
        let p = assemble(
            "DEF C0, 0.5, 2, -1, 1\n\
             TEX R0, T0, tex0\nTEX R1, T1, tex0\nLG2 R2.xy, R0.x\n\
             MAD R3, R1, C0.yyyy, R2\nMOV_SAT OC, R3\nADD O1, R0, -R1",
        )
        .unwrap();
        let constants = resolve_constants(&p, &[]);
        let lowered = lower(&p, &constants);
        assert_tile_matches_scalar(
            &lowered,
            &sets,
            (5, 3),
            (tw, th),
            (BATCH_LANES + 5, 3),
            &[&tex],
            || TextureCache::new(4, 2),
        );
    }

    /// IEEE special cases plus ordinary values of both signs.
    const SPECIALS: [f32; 16] = [
        f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.0e-40, // subnormal
        -1.0e-40,
        1.0,
        -1.0,
        0.5,
        -2.75,
        1.0e-12,
        f32::MAX,
        f32::MIN,
    ];

    #[test]
    fn max_min_and_lg2_helpers_pin_the_std_bits() {
        use std::hint::black_box;
        // The special grid in both operand orders, plus random bit
        // patterns (xorshift), including NaN payloads of both signs.
        let mut pairs: Vec<(f32, f32)> = Vec::new();
        let extra = [f32::from_bits(0x7fc0_0001), f32::from_bits(0xff80_0001)];
        for &a in SPECIALS.iter().chain(&extra) {
            for &b in SPECIALS.iter().chain(&extra) {
                pairs.push((a, b));
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        };
        for _ in 0..100_000 {
            pairs.push((f32::from_bits(next()), f32::from_bits(next())));
        }
        let bits = |v: f32| v.to_bits();
        for (a, b) in pairs {
            let (x, y) = (black_box(a), black_box(b));
            assert_eq!(bits(fmax(a, b)), bits(x.max(y)), "fmax({a:?}, {b:?})");
            assert_eq!(bits(fmin(a, b)), bits(x.min(y)), "fmin({a:?}, {b:?})");
            assert_eq!(
                bits(lg2_clamped(a)),
                bits(lg2(x.max(f32::MIN_POSITIVE))),
                "lg2_clamped({a:?})"
            );
            // The scalar ALU goes through the same helpers.
            let (va, vb) = ([a, b, b, a], [b, a, a, b]);
            let operands = |i: usize| [va, vb][i];
            let want_max = [fmax(a, b), fmax(b, a), fmax(b, a), fmax(a, b)];
            let want_min = [fmin(a, b), fmin(b, a), fmin(b, a), fmin(a, b)];
            assert_eq!(alu(Opcode::Max, operands).map(bits), want_max.map(bits));
            assert_eq!(alu(Opcode::Min, operands).map(bits), want_min.map(bits));
            assert_eq!(
                alu(Opcode::Lg2, operands).map(bits),
                va.map(|v| bits(lg2_clamped(v)))
            );
        }
    }

    #[test]
    fn every_opcode_matches_scalar_on_special_values() {
        // Each ALU opcode over operand triples drawn from the special grid
        // (three coordinate sets shift the same texture differently, so
        // lanes pair different specials), tile vs scalar bit for bit: once
        // with the grid's NaN replaced by a finite value, so every bit
        // (NaNs made from infinities and zeros included) must match, and
        // once with it, where only which NaN may differ.
        use crate::raster::TexCoordSet;
        let n = SPECIALS.len();
        let texture = |nan: f32| {
            let mut tex = Texture2D::new(n, n);
            for y in 0..n {
                for x in 0..n {
                    let k = |i: usize| match SPECIALS[(x + 3 * y + 5 * i) % n] {
                        v if v.is_nan() => nan,
                        v => v,
                    };
                    tex.set_texel(x, y, [k(0), k(1), k(2), k(3)]);
                }
            }
            tex
        };
        let sets = [
            TexCoordSet::identity(),
            TexCoordSet::shifted_texels(5, 1, n, n),
            TexCoordSet::shifted_texels(-3, 7, n, n),
        ];
        for op in [
            "MOV R3, R0",
            "ADD R3, R0, R1",
            "SUB R3, R0, -R1",
            "MUL R3, R0, R1",
            "MAD R3, R0, R1, R2",
            "MIN R3, R0, R1",
            "MAX R3, R0, R1.wzyx",
            "RCP R3, R0",
            "RSQ R3, R0",
            "EX2 R3, R0",
            "LG2 R3, R0",
            "FRC R3, R0",
            "FLR R3, R0",
            "ABS R3, -R0",
            "SLT R3, R0, R1",
            "SGE R3, R0, R1",
            "CMP R3, R0, R1, R2",
            "LRP R3, R0, R1, R2",
            "DP3 R3, R0, R1",
            "DP4 R3, R0, R1",
            "MAX_SAT R3, R0, R1",
        ] {
            let p = assemble(&format!(
                "TEX R0, T0, tex0\nTEX R1, T1, tex0\nTEX R2, T2, tex0\n{op}\nMOV OC, R3"
            ))
            .unwrap();
            let lowered = lower(&p, &resolve_constants(&p, &[]));
            for tex in [texture(3.5), texture(f32::NAN)] {
                assert_tile_matches_scalar(
                    &lowered,
                    &sets,
                    (0, 0),
                    (n, n),
                    (n, n),
                    &[&tex],
                    || TextureCache::new(4, 2),
                );
            }
        }
    }

    #[test]
    fn pass_constants_override_defs() {
        let p = assemble("DEF C0, 1, 1, 1, 1\nMOV OC, C0").unwrap();
        let constants = resolve_constants(&p, &[(0, [9.0, 8.0, 7.0, 6.0])]);
        let out = execute(&p, &FragmentInput::zero(), &constants, &[], None);
        assert_eq!(out.colors[0], [9.0, 8.0, 7.0, 6.0]);
    }
}
