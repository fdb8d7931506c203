//! Lane-wise arithmetic on 128-bit vectors: the one implementation of
//! the NEON-style vector instructions' functional semantics.
//!
//! The helpers are plain loops over the lanes, which LLVM vectorises in
//! release builds. The predecoded executor ([`crate::decoded`]) computes
//! lane state through them, after decode checked each shift and lane
//! with `validate_shift` and `validate_lane`: a shape they reject
//! becomes a trap and never reaches the lanes.
//! Float lanes follow two rules that the unit tests below check over an
//! adversarial bit-pattern corpus: a NaN result (a `reduce_add` sum
//! included) is exactly [`CANON_QNAN`], and `Min`/`Max` are
//! `f32::min`/`f32::max`.

use dsa_isa::{ElemType, VecOp};

/// The arms of [`apply`] for one integer lane type.
macro_rules! int_lanes {
    ($t:ty, $op:expr, $a:expr, $b:expr) => {
        match $op {
            VecOp::Add => zip_lanes($a, $b, <$t>::wrapping_add),
            VecOp::Sub => zip_lanes($a, $b, <$t>::wrapping_sub),
            VecOp::Mul => zip_lanes($a, $b, <$t>::wrapping_mul),
            VecOp::Min => zip_lanes($a, $b, <$t>::min),
            VecOp::Max => zip_lanes($a, $b, <$t>::max),
            VecOp::And => zip_lanes($a, $b, |x: $t, y| x & y),
            VecOp::Orr => zip_lanes($a, $b, |x: $t, y| x | y),
            VecOp::Eor => zip_lanes($a, $b, |x: $t, y| x ^ y),
        }
    };
}

/// Applies `op` lane-wise over two 128-bit values.
///
/// Integer lanes compute in their own width (wrapping, signed
/// `Min`/`Max`), and the op is matched once per call rather than once
/// per lane, so each arm is a straight loop LLVM can vectorise.
pub fn apply(op: VecOp, et: ElemType, a: [u8; 16], b: [u8; 16]) -> [u8; 16] {
    match et {
        ElemType::I8 => int_lanes!(i8, op, a, b),
        ElemType::I16 => int_lanes!(i16, op, a, b),
        ElemType::I32 => int_lanes!(i32, op, a, b),
        ElemType::F32 => match op {
            VecOp::Add => zip_lanes(a, b, |x: f32, y| canon(x + y)),
            VecOp::Sub => zip_lanes(a, b, |x: f32, y| canon(x - y)),
            VecOp::Mul => zip_lanes(a, b, |x: f32, y| canon(x * y)),
            VecOp::Min => zip_lanes(a, b, |x: f32, y| canon(x.min(y))),
            VecOp::Max => zip_lanes(a, b, |x: f32, y| canon(x.max(y))),
            // Bitwise ops act on the raw bits, NaN payloads included.
            VecOp::And => zip_lanes(a, b, |x: u32, y| x & y),
            VecOp::Orr => zip_lanes(a, b, |x: u32, y| x | y),
            VecOp::Eor => zip_lanes(a, b, |x: u32, y| x ^ y),
        },
    }
}

/// A lane type, stored little-endian inside a 128-bit vector.
trait Lane: Copy {
    const BYTES: usize;
    fn read(bytes: &[u8]) -> Self;
    fn write(self, bytes: &mut [u8]);
}

macro_rules! impl_lane {
    ($($t:ty),*) => {$(
        impl Lane for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn read(bytes: &[u8]) -> $t {
                <$t>::from_le_bytes(bytes.try_into().expect("lane width")) // infallible: chunks are exactly BYTES long
            }
            #[inline]
            fn write(self, bytes: &mut [u8]) {
                bytes.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
impl_lane!(i8, i16, i32, u32, f32);

/// `f` over each pair of `T` lanes of `a` and `b`.
#[inline]
fn zip_lanes<T: Lane>(a: [u8; 16], b: [u8; 16], f: impl Fn(T, T) -> T) -> [u8; 16] {
    let mut out = [0u8; 16];
    let ins = a.chunks_exact(T::BYTES).zip(b.chunks_exact(T::BYTES));
    for (o, (x, y)) in out.chunks_exact_mut(T::BYTES).zip(ins) {
        f(T::read(x), T::read(y)).write(o);
    }
    out
}

/// The quiet NaN every float lane op returns when its result is NaN.
///
/// Neither Rust (LLVM may commute `fadd`, changing which operand's
/// payload propagates between debug and release builds) nor the host
/// ISAs (x86 propagates the first NaN operand, ARM prioritises
/// signalling NaNs) define one NaN payload rule, so the lane semantics
/// canonicalise instead: any NaN-producing float lane yields exactly
/// these bits, on every host, at every optimisation level.
pub(crate) const CANON_QNAN: u32 = 0x7FC0_0000;

/// Collapses NaN results to [`CANON_QNAN`]. Whether a result is NaN is
/// fully determined by the inputs (unlike its payload), so this makes
/// the lane op deterministic.
fn canon(r: f32) -> f32 {
    if r.is_nan() {
        f32::from_bits(CANON_QNAN)
    } else {
        r
    }
}

/// Splats a sign-extended immediate into every lane.
pub fn splat(et: ElemType, imm: i16) -> [u8; 16] {
    let mut out = [0u8; 16];
    match et {
        ElemType::I8 => out.fill(imm as i8 as u8),
        ElemType::I16 => {
            for lane in 0..8 {
                out[lane * 2..lane * 2 + 2].copy_from_slice(&imm.to_le_bytes());
            }
        }
        ElemType::I32 => {
            for lane in 0..4 {
                out[lane * 4..lane * 4 + 4].copy_from_slice(&(imm as i32).to_le_bytes());
            }
        }
        ElemType::F32 => {
            for lane in 0..4 {
                out[lane * 4..lane * 4 + 4].copy_from_slice(&(imm as f32).to_le_bytes());
            }
        }
    }
    out
}

/// Error from a lane-wise helper whose operation is not defined for the
/// requested element type or operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneError {
    /// The operation has no semantics for this element type (e.g. a
    /// logical shift over float lanes).
    UnsupportedElement {
        /// The rejected element type.
        et: ElemType,
        /// The operation that rejected it.
        op: &'static str,
    },
    /// The shift amount is at least the lane width.
    ShiftOutOfRange {
        /// Element type whose lane width was exceeded.
        et: ElemType,
        /// The rejected shift amount.
        shift: u8,
    },
    /// The lane index is at least the lane count for this element type.
    LaneOutOfRange {
        /// Element type whose lane count was exceeded.
        et: ElemType,
        /// The rejected lane index.
        lane: u8,
    },
}

impl std::fmt::Display for LaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaneError::UnsupportedElement { et, op } => {
                write!(f, "{op} is not defined for {et:?} lanes")
            }
            LaneError::ShiftOutOfRange { et, shift } => {
                write!(f, "shift by {shift} exceeds the {et:?} lane width")
            }
            LaneError::LaneOutOfRange { et, lane } => {
                write!(f, "lane {lane} is out of range for {et:?} (lanes 0..{})", et.lanes())
            }
        }
    }
}

impl std::error::Error for LaneError {}

/// Checks a `(et, shift)` shape: shifts are integer-only and must be
/// narrower than the lane.
pub(crate) fn validate_shift(et: ElemType, shift: u8) -> Result<(), LaneError> {
    if et.is_float() {
        return Err(LaneError::UnsupportedElement { et, op: "vector shift" });
    }
    if (shift as u32) >= et.lane_bytes() * 8 {
        return Err(LaneError::ShiftOutOfRange { et, shift });
    }
    Ok(())
}

/// Checks a `(et, lane)` pair against the element type's lane count.
pub(crate) fn validate_lane(et: ElemType, lane: u8) -> Result<(), LaneError> {
    if (lane as u32) < et.lanes() {
        Ok(())
    } else {
        Err(LaneError::LaneOutOfRange { et, lane })
    }
}

/// Lane-wise logical shift right (integer lanes only); the caller
/// guarantees the shape is one [`validate_shift`] accepts.
pub(crate) fn shr_unchecked(et: ElemType, v: [u8; 16], shift: u8) -> [u8; 16] {
    let mut out = [0u8; 16];
    let w = et.lane_bytes() as usize;
    for lane in 0..(16 / w) {
        let lo = lane * w;
        match et {
            ElemType::I8 => out[lo] = v[lo] >> shift,
            ElemType::I16 => {
                let x = u16::from_le_bytes([v[lo], v[lo + 1]]) >> shift;
                out[lo..lo + 2].copy_from_slice(&x.to_le_bytes());
            }
            ElemType::I32 => {
                let x = u32::from_le_bytes(v[lo..lo + 4].try_into().expect("lane")) >> shift; // infallible: slice is exactly 4 bytes
                out[lo..lo + 4].copy_from_slice(&x.to_le_bytes());
            }
            // Floats were rejected by validate_shift; integer types are
            // exhaustive, so this lane width is never reached.
            ElemType::F32 => debug_assert!(false, "float shift after validation"),
        }
    }
    out
}

/// Splats a 32-bit scalar register value into every lane (truncating to
/// the lane width for I8/I16).
pub fn splat_scalar(et: ElemType, value: u32) -> [u8; 16] {
    let mut out = [0u8; 16];
    for lane in 0..et.lanes() as u8 {
        scalar_to_lane_unchecked(et, &mut out, lane, value);
    }
    out
}

/// Reads lane `lane` as a 32-bit scalar (sign-extended for I8/I16, raw
/// bits for I32/F32); the caller guarantees `lane < et.lanes()`
/// ([`validate_lane`]).
pub(crate) fn lane_to_scalar_unchecked(et: ElemType, v: [u8; 16], lane: u8) -> u32 {
    debug_assert!((lane as u32) < et.lanes(), "lane out of range");
    let lo = lane as usize * et.lane_bytes() as usize;
    match et {
        ElemType::I8 => v[lo] as i8 as i32 as u32,
        ElemType::I16 => i16::from_le_bytes([v[lo], v[lo + 1]]) as i32 as u32,
        ElemType::I32 | ElemType::F32 => {
            u32::from_le_bytes([v[lo], v[lo + 1], v[lo + 2], v[lo + 3]])
        }
    }
}

/// Writes a 32-bit scalar into lane `lane` (truncating for I8/I16); the
/// caller guarantees `lane < et.lanes()` ([`validate_lane`]).
pub(crate) fn scalar_to_lane_unchecked(et: ElemType, v: &mut [u8; 16], lane: u8, value: u32) {
    debug_assert!((lane as u32) < et.lanes(), "lane out of range");
    let lo = lane as usize * et.lane_bytes() as usize;
    match et {
        ElemType::I8 => v[lo] = value as u8,
        ElemType::I16 => v[lo..lo + 2].copy_from_slice(&(value as u16).to_le_bytes()),
        ElemType::I32 | ElemType::F32 => v[lo..lo + 4].copy_from_slice(&value.to_le_bytes()),
    }
}

/// Horizontal reduce-add of all lanes into a 32-bit scalar. Integer lanes
/// are sign-extended and summed with wrapping arithmetic; float lanes are
/// summed in lane order (float addition is not associative, so the order
/// is part of the result), and a NaN sum is [`CANON_QNAN`] like any NaN
/// lane result.
pub fn reduce_add(et: ElemType, v: [u8; 16]) -> u32 {
    if et.is_float() {
        let mut acc = 0f32;
        for lane in 0..4 {
            acc += f32::from_bits(lane_to_scalar_unchecked(et, v, lane));
        }
        canon(acc).to_bits()
    } else {
        let mut acc = 0i32;
        for lane in 0..et.lanes() as u8 {
            acc = acc.wrapping_add(lane_to_scalar_unchecked(et, v, lane) as i32);
        }
        acc as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v_i32(a: [i32; 4]) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (i, x) in a.into_iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&x.to_le_bytes());
        }
        out
    }

    #[test]
    fn i32_add_and_mul() {
        let a = v_i32([1, 2, 3, i32::MAX]);
        let b = v_i32([10, 20, 30, 1]);
        assert_eq!(apply(VecOp::Add, ElemType::I32, a, b), v_i32([11, 22, 33, i32::MIN]));
        assert_eq!(apply(VecOp::Mul, ElemType::I32, a, b), v_i32([10, 40, 90, i32::MAX]));
    }

    #[test]
    fn i8_lanes_independent() {
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        a[0] = 0xFF; // -1
        b[0] = 1;
        a[15] = 5;
        b[15] = 7;
        let sum = apply(VecOp::Add, ElemType::I8, a, b);
        assert_eq!(sum[0], 0); // -1 + 1
        assert_eq!(sum[1], 0);
        assert_eq!(sum[15], 12);
    }

    #[test]
    fn f32_ops() {
        let a = {
            let mut v = [0u8; 16];
            for i in 0..4 {
                v[i * 4..i * 4 + 4].copy_from_slice(&(i as f32 + 0.5).to_le_bytes());
            }
            v
        };
        let out = apply(VecOp::Mul, ElemType::F32, a, a);
        assert_eq!(f32::from_le_bytes(out[0..4].try_into().unwrap()), 0.25);
        assert_eq!(f32::from_le_bytes(out[12..16].try_into().unwrap()), 12.25);
    }

    #[test]
    fn min_max_signed() {
        let a = v_i32([-5, 3, 0, 7]);
        let b = v_i32([1, -3, 0, 9]);
        assert_eq!(apply(VecOp::Min, ElemType::I32, a, b), v_i32([-5, -3, 0, 7]));
        assert_eq!(apply(VecOp::Max, ElemType::I32, a, b), v_i32([1, 3, 0, 9]));
    }

    #[test]
    fn splat_and_lane_access() {
        let v = splat(ElemType::I16, -2);
        for lane in 0..8 {
            assert_eq!(lane_to_scalar_unchecked(ElemType::I16, v, lane) as i32, -2);
        }
        let mut v = [0u8; 16];
        scalar_to_lane_unchecked(ElemType::I32, &mut v, 2, 0xDEAD);
        assert_eq!(lane_to_scalar_unchecked(ElemType::I32, v, 2), 0xDEAD);
        assert_eq!(lane_to_scalar_unchecked(ElemType::I32, v, 0), 0);
    }

    #[test]
    fn reduce_add_int_and_float() {
        assert_eq!(reduce_add(ElemType::I32, v_i32([1, 2, 3, 4])) as i32, 10);
        let v = splat(ElemType::I8, -1);
        assert_eq!(reduce_add(ElemType::I8, v) as i32, -16);
        let f = splat(ElemType::F32, 2);
        assert_eq!(f32::from_bits(reduce_add(ElemType::F32, f)), 8.0);
    }

    #[test]
    fn lane_out_of_range_is_an_error() {
        assert_eq!(
            validate_lane(ElemType::I32, 4),
            Err(LaneError::LaneOutOfRange { et: ElemType::I32, lane: 4 })
        );
        assert_eq!(
            validate_lane(ElemType::I8, 16),
            Err(LaneError::LaneOutOfRange { et: ElemType::I8, lane: 16 })
        );
        assert_eq!(
            validate_lane(ElemType::I16, 8),
            Err(LaneError::LaneOutOfRange { et: ElemType::I16, lane: 8 })
        );
        // The boundary lane on each side.
        assert!(validate_lane(ElemType::F32, 3).is_ok());
        assert_eq!(
            validate_lane(ElemType::F32, 255),
            Err(LaneError::LaneOutOfRange { et: ElemType::F32, lane: 255 })
        );
        assert!(validate_lane(ElemType::I8, 15).is_ok());
        let mut v = [7u8; 16];
        scalar_to_lane_unchecked(ElemType::I8, &mut v, 15, 0xAB);
        assert_eq!(v[15], 0xAB);
    }

    #[test]
    fn shr_shifts_integer_lanes() {
        let v = v_i32([8, 16, -4, 1024]);
        let out = shr_unchecked(ElemType::I32, v, 2);
        // Logical shift: the sign bit is not propagated.
        assert_eq!(out, v_i32([2, 4, ((-4i32) as u32 >> 2) as i32, 256]));
    }

    #[test]
    fn shr_rejects_float_and_wide_shifts() {
        assert_eq!(
            validate_shift(ElemType::F32, 1),
            Err(LaneError::UnsupportedElement { et: ElemType::F32, op: "vector shift" })
        );
        assert_eq!(
            validate_shift(ElemType::I8, 8),
            Err(LaneError::ShiftOutOfRange { et: ElemType::I8, shift: 8 })
        );
        assert!(validate_shift(ElemType::I8, 7).is_ok());
    }

    /// Adversarial 32-bit float patterns: quiet and signalling NaN
    /// payloads, both infinities and zeros, denormals, boundary
    /// exponents.
    const F32_PATTERNS: [u32; 16] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x7FC0_0000, // canonical qNaN
        0xFFC0_0001, // negative qNaN, nonzero payload
        0x7F80_0001, // sNaN, minimal payload
        0x7FBF_FFFF, // sNaN, maximal payload
        0x7FFF_FFFF, // qNaN, maximal payload
        0x0000_0001, // smallest denormal
        0x807F_FFFF, // largest negative denormal
        0x0080_0000, // smallest normal
        0x7F7F_FFFF, // f32::MAX
        0x3F80_0000, // 1.0
        0xBF80_0000, // -1.0
        0x4049_0FDB, // pi
    ];

    const FLOAT_ARITH: [VecOp; 5] = [VecOp::Add, VecOp::Sub, VecOp::Mul, VecOp::Min, VecOp::Max];

    fn f32_vec(bits: [u32; 4]) -> [u8; 16] {
        v_i32(bits.map(|b| b as i32))
    }

    fn f32_lanes(v: [u8; 16]) -> [u32; 4] {
        std::array::from_fn(|i| u32::from_le_bytes(v[i * 4..i * 4 + 4].try_into().unwrap()))
    }

    /// Every `(op, a, b)` over the corpus, lane results beside their
    /// inputs. Each vector holds four consecutive corpus entries, so
    /// every pattern pair meets in lane 0 and the other lanes vary.
    /// `black_box` keeps the corpus out of constant folding: the lane
    /// loops must be checked as the host runs them.
    fn sweep(ops: &[VecOp], mut check: impl FnMut(VecOp, u32, u32, u32)) {
        let n = F32_PATTERNS.len();
        let window = |i: usize| f32_vec(std::array::from_fn(|k| F32_PATTERNS[(i + k) % n]));
        for &op in ops {
            for i in 0..n {
                for j in 0..n {
                    let (a, b) = (window(i), window(j));
                    let out = f32_lanes(apply(std::hint::black_box(op), ElemType::F32, a, b));
                    let (a, b) = (f32_lanes(a), f32_lanes(b));
                    for lane in 0..4 {
                        check(op, a[lane], b[lane], out[lane]);
                    }
                }
            }
        }
    }

    /// The scalar `f32` operation a float lane op stands for.
    fn scalar_f32(op: VecOp, x: u32, y: u32) -> f32 {
        let (x, y) = std::hint::black_box((f32::from_bits(x), f32::from_bits(y)));
        match op {
            VecOp::Add => x + y,
            VecOp::Sub => x - y,
            VecOp::Mul => x * y,
            VecOp::Min => x.min(y),
            VecOp::Max => x.max(y),
            VecOp::And | VecOp::Orr | VecOp::Eor => unreachable!("bitwise ops are not float ops"),
        }
    }

    #[test]
    fn nan_float_lanes_are_canonical() {
        sweep(&FLOAT_ARITH, |op, x, y, r| {
            let nan = scalar_f32(op, x, y).is_nan();
            assert_eq!(f32::from_bits(r).is_nan(), nan, "{op:?}({x:#x}, {y:#x}) = {r:#x}");
            if nan {
                assert_eq!(r, CANON_QNAN, "{op:?}({x:#x}, {y:#x}) NaN payload");
            }
        });
    }

    #[test]
    fn non_nan_float_lanes_match_scalar_f32() {
        sweep(&FLOAT_ARITH, |op, x, y, r| {
            let want = scalar_f32(op, x, y);
            if !want.is_nan() {
                assert_eq!(r, want.to_bits(), "{op:?}({x:#x}, {y:#x})");
            }
        });
        // Bitwise ops act on the raw bits, NaN payloads included.
        sweep(&[VecOp::And, VecOp::Orr, VecOp::Eor], |op, x, y, r| {
            let want = match op {
                VecOp::And => x & y,
                VecOp::Orr => x | y,
                _ => x ^ y,
            };
            assert_eq!(r, want, "{op:?}({x:#x}, {y:#x})");
        });
    }

    #[test]
    fn float_min_max_follow_f32_on_signed_zeros() {
        let (pos, neg) = (0x0000_0000u32, 0x8000_0000u32);
        for (x, y) in [(pos, neg), (neg, pos), (pos, pos), (neg, neg)] {
            let (a, b) = (f32_vec([x; 4]), f32_vec([y; 4]));
            for op in [VecOp::Min, VecOp::Max] {
                let want = scalar_f32(op, x, y).to_bits();
                let got = apply(std::hint::black_box(op), ElemType::F32, a, b);
                assert_eq!(f32_lanes(got), [want; 4], "{op:?}({x:#x}, {y:#x})");
            }
        }
    }

    #[test]
    fn float_reduce_add_keeps_lane_order() {
        for x in F32_PATTERNS {
            for y in F32_PATTERNS {
                // Large magnitudes beside small ones, so a re-associated
                // sum rounds differently from the lane-order one.
                let lanes = [x, 0x4B80_0000, y, 0xCB80_0000];
                let v = std::hint::black_box(f32_vec(lanes));
                let want = lanes.iter().fold(0f32, |acc, &l| acc + f32::from_bits(l));
                let got = reduce_add(ElemType::F32, v);
                if want.is_nan() {
                    assert_eq!(got, CANON_QNAN, "{lanes:#x?}");
                } else {
                    assert_eq!(got, want.to_bits(), "{lanes:#x?}");
                }
            }
        }
    }
}
