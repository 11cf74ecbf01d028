//! Loop-body µop traces: the simulator's input language.
//!
//! A [`LoopBody`] is the steady-state body of a kernel's hot loop: a list of
//! µops with dependency edges. Edges may point at producers in the same
//! iteration (`back = 0`) or at producers `back` iterations earlier
//! (loop-carried dependences such as reduction accumulators or the CRC
//! chain). The simulator unrolls the body a configurable number of times and
//! schedules the resulting stream.

use crate::isa::UopClass;

/// A dependency edge: this µop consumes the result of µop `uop` (an index
/// into the body) from `back` iterations ago (`0` = same iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    pub uop: usize,
    pub back: usize,
}

impl Dep {
    /// Dependence on µop `i` of the same iteration.
    pub fn same(i: usize) -> Dep {
        Dep { uop: i, back: 0 }
    }

    /// Loop-carried dependence on µop `i` of the previous iteration.
    pub fn carried(i: usize) -> Dep {
        Dep { uop: i, back: 1 }
    }
}

/// One µop of the loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Uop {
    pub class: UopClass,
    pub deps: Vec<Dep>,
}

impl Uop {
    pub fn new(class: UopClass, deps: Vec<Dep>) -> Uop {
        Uop { class, deps }
    }

    /// A µop with no register dependences (e.g. an independent load).
    pub fn free(class: UopClass) -> Uop {
        Uop { class, deps: Vec::new() }
    }
}

/// The steady-state body of a kernel loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopBody {
    pub uops: Vec<Uop>,
}

impl LoopBody {
    pub fn new() -> LoopBody {
        LoopBody { uops: Vec::new() }
    }

    /// Append a µop, returning its index (for later [`Dep`]s).
    pub fn push(&mut self, class: UopClass, deps: Vec<Dep>) -> usize {
        self.uops.push(Uop::new(class, deps));
        self.uops.len() - 1
    }

    /// Number of µops per iteration.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// `true` when the body is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Number of µops per iteration executing on 512-bit pipelines.
    pub fn vector_fraction(&self) -> f64 {
        if self.uops.is_empty() {
            return 0.0;
        }
        let v = self.uops.iter().filter(|u| u.class.is_vector()).count();
        v as f64 / self.uops.len() as f64
    }

    /// Serialize to the trace text format (the same comment-and-`=`-line
    /// idiom as `hef-core::registry`, which replaced the serde derives):
    ///
    /// ```text
    /// # hef loop-body trace v1
    /// 0 = VLoad
    /// 1 = VMul 0 2~1
    /// ```
    ///
    /// Each line is `<index> = <class> <dep>…` where a dep is a producer
    /// index, with `~k` appended for a dependence `k` iterations back.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("# hef loop-body trace v1\n");
        for (i, u) in self.uops.iter().enumerate() {
            let _ = write!(out, "{i} = {}", u.class.name());
            for d in &u.deps {
                if d.back == 0 {
                    let _ = write!(out, " {}", d.uop);
                } else {
                    let _ = write!(out, " {}~{}", d.uop, d.back);
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parse the trace text format. Comments and blank lines are ignored;
    /// µop indices must appear in order (they exist so diffs are readable).
    pub fn parse(text: &str) -> Result<LoopBody, String> {
        let mut body = LoopBody::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (idx, rest) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `<index> = <class> …`", ln + 1))?;
            let idx: usize = idx
                .trim()
                .parse()
                .map_err(|_| format!("line {}: bad µop index `{}`", ln + 1, idx.trim()))?;
            if idx != body.uops.len() {
                return Err(format!(
                    "line {}: µop index {idx} out of order (expected {})",
                    ln + 1,
                    body.uops.len()
                ));
            }
            let mut parts = rest.split_whitespace();
            let class_name = parts
                .next()
                .ok_or_else(|| format!("line {}: missing µop class", ln + 1))?;
            let class = UopClass::parse(class_name)
                .ok_or_else(|| format!("line {}: unknown µop class `{class_name}`", ln + 1))?;
            let mut deps = Vec::new();
            for tok in parts {
                let (uop, back) = match tok.split_once('~') {
                    Some((u, b)) => (
                        u.parse()
                            .map_err(|_| format!("line {}: bad dep `{tok}`", ln + 1))?,
                        b.parse()
                            .map_err(|_| format!("line {}: bad dep `{tok}`", ln + 1))?,
                    ),
                    None => (
                        tok.parse()
                            .map_err(|_| format!("line {}: bad dep `{tok}`", ln + 1))?,
                        0,
                    ),
                };
                deps.push(Dep { uop, back });
            }
            body.uops.push(Uop::new(class, deps));
        }
        body.validate()?;
        Ok(body)
    }

    /// Validates all dependency edges point at existing µops and that
    /// same-iteration edges point backwards (program order).
    pub fn validate(&self) -> Result<(), String> {
        for (i, u) in self.uops.iter().enumerate() {
            for d in &u.deps {
                if d.uop >= self.uops.len() {
                    return Err(format!("uop {i}: dep on out-of-range uop {}", d.uop));
                }
                if d.back == 0 && d.uop >= i {
                    return Err(format!(
                        "uop {i}: same-iteration dep on uop {} not yet executed",
                        d.uop
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::UopClass::*;

    #[test]
    fn push_returns_indices_in_order() {
        let mut b = LoopBody::new();
        let l = b.push(SLoad, vec![]);
        let m = b.push(SMul, vec![Dep::same(l)]);
        let st = b.push(SStore, vec![Dep::same(m)]);
        assert_eq!((l, m, st), (0, 1, 2));
        assert!(b.validate().is_ok());
    }

    #[test]
    fn validate_rejects_forward_same_iteration_edge() {
        let mut b = LoopBody::new();
        b.push(SAlu, vec![Dep::same(1)]);
        b.push(SAlu, vec![]);
        assert!(b.validate().is_err());
    }

    #[test]
    fn validate_accepts_carried_self_edge() {
        let mut b = LoopBody::new();
        // A reduction accumulator: acc += x, depending on itself last iter.
        b.push(SAlu, vec![Dep::carried(0)]);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn text_roundtrip_preserves_body() {
        let mut b = LoopBody::new();
        let l = b.push(VLoad, vec![]);
        let m = b.push(VMul, vec![Dep::same(l), Dep::carried(1)]);
        b.push(VStore, vec![Dep::same(m)]);
        let text = b.to_text();
        assert!(text.contains("1 = VMul 0 1~1"), "{text}");
        assert_eq!(LoopBody::parse(&text).unwrap(), b);
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(LoopBody::parse("0 = NotAClass").is_err());
        assert!(LoopBody::parse("1 = SAlu").is_err(), "out-of-order index");
        assert!(LoopBody::parse("0 = SAlu 5").is_err(), "dangling dep");
        assert!(LoopBody::parse("junk").is_err());
        // Comments and blanks are fine.
        assert!(LoopBody::parse("# hi\n\n0 = SAlu\n").unwrap().len() == 1);
    }

    #[test]
    fn vector_fraction_counts_vector_classes() {
        let mut b = LoopBody::new();
        b.push(VAlu, vec![]);
        b.push(SAlu, vec![]);
        b.push(VMul, vec![]);
        b.push(SAlu, vec![]);
        assert!((b.vector_fraction() - 0.5).abs() < 1e-12);
    }
}
