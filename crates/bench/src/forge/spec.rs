//! The forge program specification: a flat, canonicalizable, hashable
//! description of one generated kernel.
//!
//! A [`ProgramSpec`] is the unit the whole pipeline agrees on: the
//! generator produces specs, the lowerer turns a spec into an
//! executable [`dsa_compiler::Kernel`] plus deterministic input data,
//! the campaign deduplicates specs by [`ProgramSpec::structural_hash`],
//! the shrinker edits specs, and reproducer artifacts serialize specs
//! (schema [`FORGE_SCHEMA`]). Keeping the spec flat — one enum plus
//! scalar fields per loop — is what makes canonicalization, hashing
//! and ddmin edits trivial and collision-free.

use dsa_compiler::{BinOp, CmpOp, DataType};
use dsa_core::{LoopClass, TestBug};
use dsa_trace::json::{self, Value};

/// Schema tag of the forge reproducer artifact.
pub const FORGE_SCHEMA: &str = "dsa-forge/v1";

/// The loop shapes the generator emits. Nine shapes span all eight
/// [`LoopClass`] values: `Serial` (distance-1 cross-iteration
/// dependency) and `Gather` (indirect addressing) both land in
/// [`LoopClass::NonVectorizable`], through different detector paths
/// (CIDP rejection vs. non-unit-stride rejection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// Fixed-trip element-wise map.
    Count,
    /// Map whose value flows through a called function.
    Function,
    /// A fusable 2D nest (outer loop advances row pointers only).
    Nest,
    /// Conditional body (`if a[i] <cmp> 0 { .. } else { .. }`).
    Conditional,
    /// Trip count loaded from memory before the loop.
    DynamicRange,
    /// Copy-until-sentinel over bytes.
    Sentinel,
    /// Bounded cross-iteration dependency (`v[i] = v[i-16] ⊕ b[i]`).
    Partial,
    /// True serial dependency (`v[i] = v[i-1] ⊕ b[i]`, distance 1).
    Serial,
    /// Table lookup through an index array.
    Gather,
}

impl Shape {
    /// Every shape, in generation-weight order.
    pub const ALL: [Shape; 9] = [
        Shape::Count,
        Shape::Function,
        Shape::Nest,
        Shape::Conditional,
        Shape::DynamicRange,
        Shape::Sentinel,
        Shape::Partial,
        Shape::Serial,
        Shape::Gather,
    ];

    /// Stable artifact name.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Count => "count",
            Shape::Function => "function",
            Shape::Nest => "nest",
            Shape::Conditional => "conditional",
            Shape::DynamicRange => "dynamic-range",
            Shape::Sentinel => "sentinel",
            Shape::Partial => "partial",
            Shape::Serial => "serial",
            Shape::Gather => "gather",
        }
    }

    /// Parses a stable artifact name.
    pub fn by_name(name: &str) -> Option<Shape> {
        Shape::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The [`LoopClass`] the full DSA is expected to assign a loop of
    /// this shape (the coverage report's "generated" axis).
    pub fn expected_class(self) -> LoopClass {
        match self {
            Shape::Count => LoopClass::Count,
            Shape::Function => LoopClass::Function,
            Shape::Nest => LoopClass::Nest,
            Shape::Conditional => LoopClass::Conditional,
            Shape::DynamicRange => LoopClass::DynamicRange,
            Shape::Sentinel => LoopClass::Sentinel,
            Shape::Partial => LoopClass::Partial,
            Shape::Serial | Shape::Gather => LoopClass::NonVectorizable,
        }
    }
}

/// One generated loop, flat scalar fields only. Fields a shape does
/// not use are zeroed by [`LoopSpec::canonicalize`], so two specs that
/// lower to the same kernel hash identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopSpec {
    /// Loop shape.
    pub shape: Shape,
    /// Element type of every sequential access.
    pub elem: DataType,
    /// Trip count in elements (for [`Shape::Nest`]: columns).
    pub trip: u32,
    /// Body operator combining the two operands.
    pub op: BinOp,
    /// Immediate second operand (when `use_imm`).
    pub imm: i32,
    /// Second operand is `imm` rather than a second input stream.
    pub use_imm: bool,
    /// Comparison of the conditional ([`Shape::Conditional`] only).
    pub cmp: CmpOp,
    /// Whether the conditional has an `else` arm.
    pub else_arm: bool,
    /// Outer-loop row count ([`Shape::Nest`] only).
    pub rows: u32,
}

impl LoopSpec {
    /// The simplest possible loop: `v[i] = a[i] + 1` over 16 i32s.
    pub fn minimal() -> LoopSpec {
        LoopSpec {
            shape: Shape::Count,
            elem: DataType::I32,
            trip: 16,
            op: BinOp::Add,
            imm: 1,
            use_imm: true,
            cmp: CmpOp::Ge,
            else_arm: false,
            rows: 0,
        }
    }

    /// Zeroes every field the shape does not read, so structurally
    /// identical programs hash identically regardless of the random
    /// residue the generator left in unused fields.
    pub fn canonicalize(&mut self) {
        if self.shape != Shape::Conditional {
            self.cmp = CmpOp::Ge;
            self.else_arm = false;
        }
        if self.shape != Shape::Nest {
            self.rows = 0;
        }
        if !self.use_imm {
            self.imm = 0;
        }
        match self.shape {
            // These shapes pin their operand form during lowering.
            Shape::Function | Shape::Gather => {
                self.op = BinOp::Add;
                self.use_imm = true;
                self.imm = 0;
            }
            Shape::Sentinel => {
                self.elem = DataType::I8;
                self.use_imm = true;
            }
            _ => {}
        }
    }

    fn fold(&self, h: &mut u64) {
        fnv(h, self.shape.name().as_bytes());
        fnv(h, &[dtype_tag(self.elem)]);
        fnv(h, &self.trip.to_le_bytes());
        fnv(h, op_name(self.op).as_bytes());
        fnv(h, &self.imm.to_le_bytes());
        fnv(h, &[self.use_imm as u8, self.else_arm as u8]);
        fnv(h, cmp_name(self.cmp).as_bytes());
        fnv(h, &self.rows.to_le_bytes());
    }
}

/// One generated program: an ordered sequence of loops plus the seed
/// it came from. The seed is provenance *and* the derivation root for
/// input data, the phase-2 fault schedule and the phase-3 kill point —
/// but it is excluded from the structural hash, so the same program
/// found under two seeds deduplicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSpec {
    /// The seed the program was generated from.
    pub seed: u64,
    /// The loops, emitted in order into one kernel.
    pub loops: Vec<LoopSpec>,
}

impl ProgramSpec {
    /// Canonicalizes every loop (see [`LoopSpec::canonicalize`]).
    pub fn canonicalize(&mut self) {
        for l in &mut self.loops {
            l.canonicalize();
        }
    }

    /// FNV-1a structural hash over the canonical loop fields. The seed
    /// is deliberately excluded; data values are seed-derived, so two
    /// structurally equal programs are considered duplicates even
    /// though their input data differs — the detector only sees
    /// addresses and shapes, not values.
    pub fn structural_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for l in &self.loops {
            l.fold(&mut h);
        }
        h
    }

    /// Renders the spec (plus campaign context) as a replayable
    /// single-line JSON artifact: the observed failure kind (`None`
    /// for a clean sample) and the planted [`TestBug`] that was armed,
    /// if any.
    pub fn to_json(&self, failure: Option<&str>, bug: Option<TestBug>) -> String {
        let mut out = format!("{{\"schema\":\"{FORGE_SCHEMA}\",\"seed\":{}", self.seed);
        out.push_str(",\"loops\":[");
        for (i, l) in self.loops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shape\":\"{}\",\"elem\":\"{}\",\"trip\":{},\"op\":\"{}\",\
                 \"imm\":{},\"use_imm\":{},\"cmp\":\"{}\",\"else_arm\":{},\"rows\":{}}}",
                l.shape.name(),
                dtype_name(l.elem),
                l.trip,
                op_name(l.op),
                l.imm,
                l.use_imm,
                cmp_name(l.cmp),
                l.else_arm,
                l.rows
            ));
        }
        out.push(']');
        push_outcome(&mut out, failure, bug);
        out
    }

    /// Parses a reproducer artifact back into a spec plus its armed
    /// test bug.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: bad
    /// JSON, wrong schema, unknown shape/type/op names, missing
    /// fields, or an unknown bug name.
    pub fn from_json(text: &str) -> Result<(ProgramSpec, Option<TestBug>), String> {
        let v = parse_artifact(text)?;
        Ok((ProgramSpec::from_value(&v)?, parse_bug(&v)?))
    }

    /// Reads a program subject back from a parsed artifact.
    pub(crate) fn from_value(v: &Value) -> Result<ProgramSpec, String> {
        let seed = v.get("seed").and_then(Value::as_u64).ok_or("missing seed")?;
        let mut loops = Vec::new();
        let Some(Value::Arr(arr)) = v.get("loops") else {
            return Err("missing loops array".into());
        };
        for l in arr {
            let s = |key: &str| l.get(key).and_then(Value::as_str);
            let u = |key: &str| l.get(key).and_then(Value::as_u64);
            let shape_name = s("shape").ok_or("loop missing shape")?;
            let shape =
                Shape::by_name(shape_name).ok_or(format!("unknown shape `{shape_name}`"))?;
            let elem_name = s("elem").ok_or("loop missing elem")?;
            let elem =
                dtype_by_name(elem_name).ok_or(format!("unknown elem `{elem_name}`"))?;
            let op_str = s("op").ok_or("loop missing op")?;
            let op = op_by_name(op_str).ok_or(format!("unknown op `{op_str}`"))?;
            let cmp_str = s("cmp").ok_or("loop missing cmp")?;
            let cmp = cmp_by_name(cmp_str).ok_or(format!("unknown cmp `{cmp_str}`"))?;
            // `imm` may be negative; the zero-dep parser only exposes
            // exact readings for unsigned ints, so go through the f64.
            let imm = match l.get("imm") {
                Some(Value::Num(f, _)) => *f as i32,
                _ => return Err("loop missing imm".into()),
            };
            loops.push(LoopSpec {
                shape,
                elem,
                trip: u("trip").ok_or("loop missing trip")? as u32,
                op,
                imm,
                use_imm: l.get("use_imm").and_then(Value::as_bool).ok_or("loop missing use_imm")?,
                cmp,
                else_arm: l
                    .get("else_arm")
                    .and_then(Value::as_bool)
                    .ok_or("loop missing else_arm")?,
                rows: u("rows").unwrap_or(0) as u32,
            });
        }
        if loops.is_empty() {
            return Err("program has no loops".into());
        }
        Ok(ProgramSpec { seed, loops })
    }
}

/// Parses a `dsa-forge/v1` artifact of either subject and checks its
/// schema tag.
pub(crate) fn parse_artifact(text: &str) -> Result<Value, String> {
    let v = json::parse(text).map_err(|e| format!("bad JSON: {e:?}"))?;
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != FORGE_SCHEMA {
        return Err(format!("schema `{schema}`, want `{FORGE_SCHEMA}`"));
    }
    Ok(v)
}

/// Appends the fields every artifact ends with — the armed planted
/// bug and the recorded failure kind — and closes the object.
pub(crate) fn push_outcome(out: &mut String, failure: Option<&str>, bug: Option<TestBug>) {
    match bug {
        Some(b) => out.push_str(&format!(",\"bug\":\"{}\"", b.name())),
        None => out.push_str(",\"bug\":null"),
    }
    match failure {
        Some(kind) => out.push_str(&format!(",\"failure\":\"{kind}\"")),
        None => out.push_str(",\"failure\":null"),
    }
    out.push('}');
}

/// Reads the planted bug an artifact armed (`null` or absent: none).
pub(crate) fn parse_bug(v: &Value) -> Result<Option<TestBug>, String> {
    match v.get("bug") {
        Some(Value::Null) | None => Ok(None),
        Some(b) => {
            let name = b.as_str().ok_or("`bug` is neither null nor a string")?;
            Ok(Some(TestBug::by_name(name).ok_or(format!("unknown bug `{name}`"))?))
        }
    }
}

/// Reads the failure kind an artifact recorded at capture time (`None`
/// for a clean sample). Replay compares this against the rerun's
/// outcome to flag *stale* reproducers, so an absent or non-string
/// field is an error, never a clean reading.
pub(crate) fn parse_failure(v: &Value) -> Result<Option<String>, String> {
    match v.get("failure") {
        Some(Value::Null) => Ok(None),
        Some(f) => match f.as_str() {
            Some(kind) => Ok(Some(kind.to_string())),
            None => Err("`failure` is neither null nor a string".into()),
        },
        None => Err("artifact has no `failure` field".into()),
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Field separator so adjacent fields cannot alias.
    *h ^= 0xff;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::I8 => 1,
        DataType::I16 => 2,
        DataType::I32 => 3,
        DataType::F32 => 4,
    }
}

/// Stable artifact name of a [`DataType`].
pub fn dtype_name(d: DataType) -> &'static str {
    match d {
        DataType::I8 => "i8",
        DataType::I16 => "i16",
        DataType::I32 => "i32",
        DataType::F32 => "f32",
    }
}

/// Parses a [`DataType`] artifact name.
pub fn dtype_by_name(name: &str) -> Option<DataType> {
    [DataType::I8, DataType::I16, DataType::I32, DataType::F32]
        .into_iter()
        .find(|d| dtype_name(*d) == name)
}

/// Stable artifact name of a [`BinOp`] (the generator never emits
/// `Shr`, whose embedded shift amount would need an extra field).
pub fn op_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::And => "and",
        BinOp::Orr => "orr",
        BinOp::Eor => "eor",
        BinOp::Shr(_) => "shr",
    }
}

/// Parses a [`BinOp`] artifact name.
pub fn op_by_name(name: &str) -> Option<BinOp> {
    [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Orr, BinOp::Eor]
        .into_iter()
        .find(|o| op_name(*o) == name)
}

/// Stable artifact name of a [`CmpOp`].
pub fn cmp_name(cmp: CmpOp) -> &'static str {
    match cmp {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Ge => "ge",
        CmpOp::Gt => "gt",
        CmpOp::Le => "le",
    }
}

/// Parses a [`CmpOp`] artifact name.
pub fn cmp_by_name(name: &str) -> Option<CmpOp> {
    [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Le]
        .into_iter()
        .find(|c| cmp_name(*c) == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded_failure(text: &str) -> Result<Option<String>, String> {
        parse_failure(&parse_artifact(text)?)
    }

    #[test]
    fn shapes_cover_all_eight_classes() {
        let classes: std::collections::BTreeSet<&str> =
            Shape::ALL.iter().map(|s| s.expected_class().name()).collect();
        assert_eq!(classes.len(), 8, "nine shapes must span all eight classes");
        for s in Shape::ALL {
            assert_eq!(Shape::by_name(s.name()), Some(s));
        }
    }

    #[test]
    fn canonicalization_makes_unused_fields_hash_neutral() {
        let mut a = ProgramSpec { seed: 1, loops: vec![LoopSpec::minimal()] };
        let mut b = ProgramSpec {
            seed: 2,
            loops: vec![LoopSpec {
                cmp: CmpOp::Lt,      // unused by Count
                else_arm: true,      // unused by Count
                rows: 7,             // unused by Count
                ..LoopSpec::minimal()
            }],
        };
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a.structural_hash(), b.structural_hash(), "seed and residue must not hash");
        // A real structural difference does change the hash.
        let mut c = a.clone();
        c.loops[0].trip = 17;
        assert_ne!(a.structural_hash(), c.structural_hash());
    }

    #[test]
    fn artifact_roundtrips() {
        let spec = ProgramSpec {
            seed: 42,
            loops: vec![
                LoopSpec::minimal(),
                LoopSpec { shape: Shape::Sentinel, elem: DataType::I8, ..LoopSpec::minimal() },
            ],
        };
        let text = spec.to_json(Some("resume-mismatch"), Some(TestBug::CorruptRestore));
        assert!(text.contains(FORGE_SCHEMA));
        let (back, bug) = ProgramSpec::from_json(&text).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(bug, Some(TestBug::CorruptRestore));
        assert_eq!(
            recorded_failure(&text),
            Ok(Some("resume-mismatch".to_string()))
        );
        // A clean artifact parses too.
        let clean = spec.to_json(None, None);
        let (back2, bug2) = ProgramSpec::from_json(&clean).expect("parses");
        assert_eq!(back2, spec);
        assert_eq!(bug2, None);
        assert_eq!(recorded_failure(&clean), Ok(None));
    }

    #[test]
    fn artifact_rejects_garbage() {
        assert!(ProgramSpec::from_json("not json").is_err());
        assert!(ProgramSpec::from_json("{\"schema\":\"other/v9\"}").is_err());
        let spec = ProgramSpec { seed: 1, loops: vec![LoopSpec::minimal()] };
        let bad_shape = spec.to_json(None, None).replace("\"count\"", "\"no-such-shape\"");
        assert!(ProgramSpec::from_json(&bad_shape).is_err());
        let bad_bug = spec.to_json(None, None).replace("\"bug\":null", "\"bug\":\"nope\"");
        assert!(ProgramSpec::from_json(&bad_bug).is_err());
        let empty = "{\"schema\":\"dsa-forge/v1\",\"seed\":1,\"loops\":[],\"bug\":null,\"failure\":null}";
        assert!(ProgramSpec::from_json(empty).is_err());
        assert!(recorded_failure("not json").is_err());
        // A replay must not read an unrecorded or non-string failure
        // as a clean artifact.
        let missing = spec.to_json(None, None).replace(",\"failure\":null", "");
        assert!(recorded_failure(&missing).is_err());
        let nonstring = spec.to_json(None, None).replace("\"failure\":null", "\"failure\":7");
        assert!(recorded_failure(&nonstring).is_err());
    }
}
