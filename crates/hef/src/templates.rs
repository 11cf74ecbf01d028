//! The built-in operator templates, written in the hybrid intermediate
//! description. Each corresponds 1:1 to a compiled kernel family in
//! `hef-kernels`; the statement sequences mirror the kernel bodies so the
//! translator's traces model what actually executes.

use hef_hid::desc::HidOp;
use hef_kernels::Family;

use crate::ir::{Operand, OperatorTemplate, Stmt};

use Operand::Imm;

fn var(n: &str) -> Operand {
    Operand::var(n)
}
fn cst(n: &str, v: u64) -> Operand {
    Operand::cst(n, v)
}
fn param(n: &str) -> Operand {
    Operand::param(n)
}

/// The MurmurHash template (the paper's Fig. 6(a) hash-value computation).
pub fn murmur() -> OperatorTemplate {
    use hef_kernels::murmur::{M, R, SEED};
    OperatorTemplate {
        name: "murmurhash64".into(),
        params: vec!["val".into(), "out".into()],
        carried: vec![],
        stmts: vec![
            Stmt::new(HidOp::Load, Some("data"), vec![param("val")]),
            Stmt::new(HidOp::Mul, Some("k"), vec![var("data"), cst("m", M)]),
            Stmt::new(HidOp::Srli, Some("kr"), vec![var("k"), Imm(R)]),
            Stmt::new(HidOp::Xor, Some("k2"), vec![var("kr"), var("k")]),
            Stmt::new(HidOp::Mul, Some("k3"), vec![var("k2"), cst("m", M)]),
            Stmt::new(HidOp::Xor, Some("h"), vec![cst("hseed", SEED ^ M), var("k3")]),
            Stmt::new(HidOp::Mul, Some("h2"), vec![var("h"), cst("m", M)]),
            Stmt::new(HidOp::Srli, Some("hr"), vec![var("h2"), Imm(R)]),
            Stmt::new(HidOp::Xor, Some("h3"), vec![var("hr"), var("h2")]),
            Stmt::new(HidOp::Mul, Some("h4"), vec![var("h3"), cst("m", M)]),
            Stmt::new(HidOp::Srli, Some("hr2"), vec![var("h4"), Imm(R)]),
            Stmt::new(HidOp::Xor, Some("hval"), vec![var("hr2"), var("h4")]),
            Stmt::new(HidOp::Store, None, vec![var("hval"), param("out")]),
        ],
    }
}

/// The CRC64 template: one load, eight dependent table rounds, one store.
pub fn crc64() -> OperatorTemplate {
    let mut stmts = vec![
        Stmt::new(HidOp::Load, Some("v0"), vec![param("val")]),
        // crc starts at zero; model the zeroing as a (hoistable) xor with
        // itself is unnecessary — rounds reference the previous crc var.
        Stmt::new(HidOp::Xor, Some("crc0"), vec![cst("zero", 0), cst("zero", 0)]),
    ];
    for r in 0..8u32 {
        let crc_in = format!("crc{r}");
        let v_in = format!("v{r}");
        stmts.push(Stmt::new(
            HidOp::Xor,
            Some(&format!("x{r}")),
            vec![var(&crc_in), var(&v_in)],
        ));
        stmts.push(Stmt::new(
            HidOp::And,
            Some(&format!("idx{r}")),
            vec![var(&format!("x{r}")), cst("ff", 0xff)],
        ));
        stmts.push(Stmt::new(
            HidOp::Gather,
            Some(&format!("t{r}")),
            vec![param("table"), var(&format!("idx{r}"))],
        ));
        stmts.push(Stmt::new(
            HidOp::Srli,
            Some(&format!("cs{r}")),
            vec![var(&crc_in), Imm(8)],
        ));
        stmts.push(Stmt::new(
            HidOp::Xor,
            Some(&format!("crc{}", r + 1)),
            vec![var(&format!("t{r}")), var(&format!("cs{r}"))],
        ));
        stmts.push(Stmt::new(
            HidOp::Srli,
            Some(&format!("v{}", r + 1)),
            vec![var(&v_in), Imm(8)],
        ));
    }
    stmts.push(Stmt::new(HidOp::Store, None, vec![var("crc8"), param("out")]));
    OperatorTemplate {
        name: "crc64".into(),
        params: vec!["val".into(), "table".into(), "out".into()],
        carried: vec![],
        stmts,
    }
}

/// The hash-probe template: murmur-hash the key, mask to a slot, gather the
/// slot key and payload, compare, blend.
pub fn probe() -> OperatorTemplate {
    use hef_kernels::murmur::{M, R, SEED};
    OperatorTemplate {
        name: "hash_probe".into(),
        params: vec!["keys".into(), "tkeys".into(), "tvals".into(), "out".into()],
        carried: vec![],
        stmts: vec![
            Stmt::new(HidOp::Load, Some("key"), vec![param("keys")]),
            Stmt::new(HidOp::Mul, Some("k"), vec![var("key"), cst("m", M)]),
            Stmt::new(HidOp::Srli, Some("kr"), vec![var("k"), Imm(R)]),
            Stmt::new(HidOp::Xor, Some("k2"), vec![var("kr"), var("k")]),
            Stmt::new(HidOp::Mul, Some("k3"), vec![var("k2"), cst("m", M)]),
            Stmt::new(HidOp::Xor, Some("h"), vec![cst("hseed", SEED ^ M), var("k3")]),
            Stmt::new(HidOp::Mul, Some("h2"), vec![var("h"), cst("m", M)]),
            Stmt::new(HidOp::Srli, Some("hr"), vec![var("h2"), Imm(R)]),
            Stmt::new(HidOp::Xor, Some("h3"), vec![var("hr"), var("h2")]),
            Stmt::new(HidOp::Mul, Some("h4"), vec![var("h3"), cst("m", M)]),
            Stmt::new(HidOp::Srli, Some("hr2"), vec![var("h4"), Imm(R)]),
            Stmt::new(HidOp::Xor, Some("hv"), vec![var("hr2"), var("h4")]),
            Stmt::new(HidOp::And, Some("slot"), vec![var("hv"), cst("mask", 0xffff)]),
            Stmt::new(HidOp::Gather, Some("skey"), vec![param("tkeys"), var("slot")]),
            Stmt::new(HidOp::Gather, Some("sval"), vec![param("tvals"), var("slot")]),
            Stmt::new(HidOp::Cmp, Some("hit"), vec![var("skey"), var("key")]),
            Stmt::new(
                HidOp::Blend,
                Some("res"),
                vec![var("hit"), cst("miss", u64::MAX - 1), var("sval")],
            ),
            Stmt::new(HidOp::Store, None, vec![var("res"), param("out")]),
        ],
    }
}

/// The range-filter template: two compares and a (mask-guarded) store of the
/// qualifying row ids.
pub fn filter() -> OperatorTemplate {
    OperatorTemplate {
        name: "filter_range".into(),
        params: vec!["col".into(), "sel".into()],
        carried: vec![],
        stmts: vec![
            Stmt::new(HidOp::Load, Some("x"), vec![param("col")]),
            Stmt::new(HidOp::Cmp, Some("ge"), vec![var("x"), cst("lo", 0)]),
            Stmt::new(HidOp::Cmp, Some("le"), vec![var("x"), cst("hi", 0)]),
            Stmt::new(HidOp::And, Some("m"), vec![var("ge"), var("le")]),
            Stmt::new(HidOp::Add, Some("ids"), vec![cst("iota", 0), cst("base", 0)]),
            Stmt::new(HidOp::Blend, Some("outv"), vec![var("m"), var("ids"), var("ids")]),
            Stmt::new(HidOp::Store, None, vec![var("outv"), param("sel")]),
        ],
    }
}

/// The sum-aggregation template (loop-carried accumulator).
pub fn agg_sum() -> OperatorTemplate {
    OperatorTemplate {
        name: "agg_sum".into(),
        params: vec!["val".into()],
        carried: vec!["acc".into()],
        stmts: vec![
            Stmt::new(HidOp::Load, Some("d"), vec![param("val")]),
            Stmt::new(HidOp::Add, Some("acc"), vec![var("acc"), var("d")]),
        ],
    }
}

/// The dot-aggregation template (`acc += a*b`).
pub fn agg_dot() -> OperatorTemplate {
    OperatorTemplate {
        name: "agg_dot".into(),
        params: vec!["a".into(), "b".into()],
        carried: vec!["acc".into()],
        stmts: vec![
            Stmt::new(HidOp::Load, Some("x"), vec![param("a")]),
            Stmt::new(HidOp::Load, Some("y"), vec![param("b")]),
            Stmt::new(HidOp::Mul, Some("xy"), vec![var("x"), var("y")]),
            Stmt::new(HidOp::Add, Some("acc"), vec![var("acc"), var("xy")]),
        ],
    }
}

/// The selective-gather template: load an index vector, gather, store.
pub fn gather() -> OperatorTemplate {
    OperatorTemplate {
        name: "gather_take".into(),
        params: vec!["idx".into(), "src".into(), "out".into()],
        carried: vec![],
        stmts: vec![
            Stmt::new(HidOp::Load, Some("i"), vec![param("idx")]),
            Stmt::new(HidOp::Gather, Some("g"), vec![param("src"), var("i")]),
            Stmt::new(HidOp::Store, None, vec![var("g"), param("out")]),
        ],
    }
}

/// The compressed-decode template: compute each element's bit offset,
/// gather the two straddled packed words, stitch and mask the code, then
/// gather the dictionary value — mirroring `hef_kernels::decode::body`.
pub fn decode() -> OperatorTemplate {
    OperatorTemplate {
        name: "page_decode".into(),
        params: vec!["words".into(), "dict".into(), "out".into()],
        carried: vec![],
        stmts: vec![
            Stmt::new(HidOp::Add, Some("idx"), vec![cst("iota", 0), cst("base", 0)]),
            Stmt::new(HidOp::Mul, Some("bit"), vec![var("idx"), cst("w", 13)]),
            Stmt::new(HidOp::Srli, Some("wi"), vec![var("bit"), Imm(6)]),
            Stmt::new(HidOp::And, Some("sh"), vec![var("bit"), cst("c63", 63)]),
            Stmt::new(HidOp::Gather, Some("w0"), vec![param("words"), var("wi")]),
            Stmt::new(HidOp::Srlv, Some("lo"), vec![var("w0"), var("sh")]),
            Stmt::new(HidOp::Add, Some("wi1"), vec![var("wi"), cst("one", 1)]),
            Stmt::new(HidOp::Gather, Some("w1"), vec![param("words"), var("wi1")]),
            Stmt::new(HidOp::Sub, Some("shr"), vec![cst("c64", 64), var("sh")]),
            Stmt::new(HidOp::Sllv, Some("hi"), vec![var("w1"), var("shr")]),
            Stmt::new(HidOp::Or, Some("v"), vec![var("lo"), var("hi")]),
            Stmt::new(HidOp::And, Some("code"), vec![var("v"), cst("mask", 0x1fff)]),
            Stmt::new(HidOp::Gather, Some("val"), vec![param("dict"), var("code")]),
            Stmt::new(HidOp::Store, None, vec![var("val"), param("out")]),
        ],
    }
}

/// The template for a kernel family.
pub fn for_family(family: Family) -> OperatorTemplate {
    match family {
        Family::Murmur => murmur(),
        Family::Crc64 => crc64(),
        Family::Probe => probe(),
        Family::Filter => filter(),
        Family::AggSum => agg_sum(),
        Family::AggDot => agg_dot(),
        Family::Gather => gather(),
        Family::Decode => decode(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_templates_validate() {
        for f in Family::ALL {
            let t = for_family(f);
            t.validate().unwrap_or_else(|e| panic!("{}: {e}", t.name));
            assert!(!t.stmts.is_empty());
        }
    }

    #[test]
    fn murmur_has_four_multiplies() {
        let t = murmur();
        let muls = t
            .stmts
            .iter()
            .filter(|s| s.op == hef_hid::desc::HidOp::Mul)
            .count();
        assert_eq!(muls, 4);
    }

    #[test]
    fn crc64_has_eight_gathers() {
        let t = crc64();
        let gathers = t
            .stmts
            .iter()
            .filter(|s| s.op == hef_hid::desc::HidOp::Gather)
            .count();
        assert_eq!(gathers, 8);
    }

    #[test]
    fn agg_templates_are_loop_carried() {
        assert_eq!(agg_sum().carried, vec!["acc"]);
        assert_eq!(agg_dot().carried, vec!["acc"]);
    }

    #[test]
    fn probe_argc_is_three() {
        // blend(dst, mask, a, b) has the most slots, but only dst + 3 value
        // args count; gather has dst + idx + pointer param → 2.
        assert_eq!(probe().max_argc(), 4);
    }
}
