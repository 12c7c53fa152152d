//! Profile-guided bytecode peephole pass: fuses the measured hottest
//! opcode sequences into superinstructions.
//!
//! The patterns come from `algoprof opstats` over the listings/table1
//! corpus and the benchmark programs (see `EXPERIMENTS.md`): local
//! loads dominate the opcode mix, and the top pairs are load+load,
//! load+const, compare+branch, the loop latch `x = x ± k` with its
//! trailing jump, load+getfield, local-value astore, field+length, the
//! back-edge jump tail, and the offset array read `a[i ± k]`. Seventeen
//! forms, by disassembly mnemonic: `load2`, `load_const`,
//! `load_getfield`, `cmp_jump`, `load_getfield_len`, `loop_back_jump`,
//! `load_astore`, `inc_jump` (adding or subtracting), `load2_getfield_len`,
//! `load2_cmp_jump`, `load2_putfield`, `field_add`, `load_call_direct`,
//! `load_call_virtual`, `new_dup`, `load_getfield_aload` and
//! `load2_off_aload`. Forms whose removal cost less than 2% of the
//! dispatches on every benchmark workload were deleted (the ablation
//! table in `EXPERIMENTS.md`). Fusing them collapses the dispatch-loop
//! iterations those sequences cost without changing anything
//! observable:
//!
//! * each superinstruction emits one
//!   [`Event::Instruction`](crate::event::Event::Instruction) per
//!   constituent ([`Instr::expand`]) and counts every
//!   constituent toward the instruction total, so event streams, traces,
//!   and profiles are **byte-identical** with fusion on or off;
//! * only the *last* constituent of any fused window can emit a
//!   non-instruction event (field/array read) or raise a line-attributed
//!   error, and the fused instruction takes the last constituent's source
//!   line, so error attribution is unchanged. The field+length patterns
//!   have a mid-window `GetField`: they are only fused when the field is
//!   untracked (no read event to reorder) and every constituent shares
//!   one source line (null-dereference attribution unchanged);
//! * `ProfLoopEntry`/`ProfLoopExit` pseudo-instructions are never fused,
//!   and the fused back-edge jump carries its
//!   [`LoopId`](crate::bytecode::LoopId) verbatim, so loop ordinals stay
//!   paired with the `indexflow` hints;
//! * a window is only fused when no branch or handler boundary targets
//!   its interior, and all jump targets / handler ranges are remapped
//!   through the old→new pc map afterwards.
//!
//! Whether a run fuses is a value its caller passes. The one place that
//! consults the environment is [`fusion_disabled`]: the `algoprof` CLI
//! takes its one-shot commands' default from `ALGOPROF_NO_FUSE=1` (the
//! fusion-on-vs-off CI comparison), and [`CompiledProgram::fuse_default`]
//! keeps honouring it for the benchmark harness.

use std::sync::OnceLock;

use crate::bytecode::{CmpKind, CompiledProgram, FieldId, Function, Instr};

/// Whether `ALGOPROF_NO_FUSE=1` is set for this process (read once): the
/// CLI's default for fusing one-shot runs, and what
/// [`CompiledProgram::fuse_default`] obeys.
pub fn fusion_disabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED.get_or_init(|| matches!(std::env::var("ALGOPROF_NO_FUSE").ok().as_deref(), Some("1")))
}

impl CompiledProgram {
    /// Returns a copy of the program with every function's hot opcode
    /// sequences fused into superinstructions. Pure: the receiver is
    /// untouched, and running both yields identical event streams.
    pub fn fuse(&self) -> CompiledProgram {
        self.clone().fused()
    }

    /// [`CompiledProgram::fuse`] in place: the receiver is consumed, not
    /// copied.
    pub fn fused(mut self) -> CompiledProgram {
        let untracked: Vec<bool> = self.fields.iter().map(|f| !f.track_access).collect();
        for func in &mut self.functions {
            fuse_function(func, &untracked);
        }
        self
    }

    /// [`CompiledProgram::fused`] unless [`fusion_disabled`], in which
    /// case the program is returned unchanged. Only the benchmark
    /// harness still calls this; library run paths take fusion from
    /// their configuration instead.
    pub fn fuse_default(self) -> CompiledProgram {
        if fusion_disabled() {
            self
        } else {
            self.fused()
        }
    }
}

fn cmp_kind(instr: Instr) -> Option<CmpKind> {
    match instr {
        Instr::CmpLt => Some(CmpKind::Lt),
        Instr::CmpLe => Some(CmpKind::Le),
        Instr::CmpGt => Some(CmpKind::Gt),
        Instr::CmpGe => Some(CmpKind::Ge),
        Instr::CmpEq => Some(CmpKind::Eq),
        Instr::CmpNe => Some(CmpKind::Ne),
        _ => None,
    }
}

/// `Some(true)` for `Sub`, `Some(false)` for `Add`: the flag the `± k`
/// superinstructions carry.
fn sub_flag(instr: Instr) -> Option<bool> {
    match instr {
        Instr::Add => Some(false),
        Instr::Sub => Some(true),
        _ => None,
    }
}

/// Whether the base instruction `instr` can raise a runtime error
/// attributed to its own source line.
fn faults_at_line(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::GetField(_)
            | Instr::PutField(_)
            | Instr::Div
            | Instr::Rem
            | Instr::NewArray(_)
            | Instr::ALoad
            | Instr::AStore
            | Instr::ArrayLen
            | Instr::CallVirtual(_)
            | Instr::Throw
            | Instr::CheckCast(_)
            | Instr::ReadInput
            | Instr::JoinThread
            | Instr::Lock
            | Instr::Unlock
    )
}

/// The base jump `instr` with its target replaced by `t`.
fn retarget(instr: Instr, t: usize) -> Instr {
    match instr {
        Instr::Jump(_) => Instr::Jump(t),
        Instr::JumpIfFalse(_) => Instr::JumpIfFalse(t),
        Instr::JumpIfTrue(_) => Instr::JumpIfTrue(t),
        other => other,
    }
}

fn branch_sense(instr: Instr) -> Option<(bool, usize)> {
    match instr {
        Instr::JumpIfFalse(t) => Some((false, t)),
        Instr::JumpIfTrue(t) => Some((true, t)),
        _ => None,
    }
}

/// The longest superinstruction of at most `max_len` base instructions
/// starting at `pc`, if any pattern matches. Returned with its window
/// length. The caller re-invokes with a smaller `max_len` when a window
/// is rejected (label in its interior, line guard), so a blocked long
/// pattern still falls back to a shorter one.
/// `field_fusible(f)` gates the field+length patterns: a tracked field's
/// read event must stay ordered after its own instruction event, which a
/// mid-window `GetField` cannot guarantee.
fn match_pattern(
    code: &[Instr],
    pc: usize,
    field_fusible: &dyn Fn(FieldId) -> bool,
    max_len: usize,
) -> Option<(Instr, usize)> {
    let at = |i: usize| code.get(pc + i).copied();
    match at(0)? {
        Instr::LoadLocal(s) => {
            // Longest first: the `x = x ± k; jump` latch (5), 4- and
            // 3-windows, then pairs.
            if let (
                Some(Instr::ConstInt(k)),
                Some(op),
                Some(Instr::StoreLocal(s2)),
                Some(Instr::Jump(t)),
            ) = (at(1), at(2), at(3), at(4))
            {
                if s2 == s && max_len >= 5 {
                    if let (Some(sub), Ok(ki), Ok(tu)) =
                        (sub_flag(op), i32::try_from(k), u32::try_from(t))
                    {
                        return Some((Instr::FusedIncJump(s, sub, ki, tu), 5));
                    }
                }
            }
            if max_len < 2 {
                return None;
            }
            // Two leading loads: the field increment (6), the offset
            // array read (5), the two-local length read /
            // compare-and-branch (4), the field store (3), then the bare
            // pair.
            if let Some(Instr::LoadLocal(b)) = at(1) {
                if max_len >= 6 {
                    if let (
                        Some(Instr::GetField(f)),
                        Some(Instr::ConstInt(k)),
                        Some(Instr::Add),
                        Some(Instr::PutField(f2)),
                    ) = (at(2), at(3), at(4), at(5))
                    {
                        if f == f2 && field_fusible(f) {
                            if let Ok(ki) = i32::try_from(k) {
                                return Some((Instr::FusedFieldAdd(s, b, f, ki), 6));
                            }
                        }
                    }
                }
                if max_len >= 5 {
                    if let (Some(Instr::ConstInt(k)), Some(op), Some(Instr::ALoad)) =
                        (at(2), at(3), at(4))
                    {
                        if let (Some(sub), Ok(ki)) = (sub_flag(op), i32::try_from(k)) {
                            return Some((Instr::FusedLoadLoadOffALoad(s, b, sub, ki), 5));
                        }
                    }
                }
                if max_len >= 4 {
                    if let (Some(Instr::GetField(f)), Some(Instr::ArrayLen)) = (at(2), at(3)) {
                        if field_fusible(f) {
                            return Some((Instr::FusedLoadLoadGetFieldLen(s, b, f), 4));
                        }
                    }
                    if let (Some(cmp), Some(branch)) = (at(2), at(3)) {
                        if let (Some(kind), Some((jump_if, t))) =
                            (cmp_kind(cmp), branch_sense(branch))
                        {
                            if let Ok(tu) = u32::try_from(t) {
                                return Some((
                                    Instr::FusedLoadLoadCmpJump(s, b, kind, jump_if, tu),
                                    4,
                                ));
                            }
                        }
                    }
                }
                if max_len >= 3 {
                    if let Some(Instr::PutField(f)) = at(2) {
                        return Some((Instr::FusedLoadLoadPutField(s, b, f), 3));
                    }
                }
                return Some((Instr::FusedLoadLoad(s, b), 2));
            }
            if max_len >= 4 {
                if let (Some(Instr::GetField(f)), Some(Instr::LoadLocal(i)), Some(Instr::ALoad)) =
                    (at(1), at(2), at(3))
                {
                    if field_fusible(f) {
                        return Some((Instr::FusedLoadGetFieldALoad(s, f, i), 4));
                    }
                }
            }
            if max_len >= 3 {
                if let (Some(Instr::GetField(f)), Some(Instr::ArrayLen)) = (at(1), at(2)) {
                    if field_fusible(f) {
                        return Some((Instr::FusedLoadGetFieldLen(s, f), 3));
                    }
                }
            }
            match at(1)? {
                Instr::ConstInt(k) => Some((Instr::FusedLoadConst(s, k), 2)),
                Instr::GetField(f) => Some((Instr::FusedLoadGetField(s, f), 2)),
                Instr::AStore => Some((Instr::FusedLoadAStore(s), 2)),
                Instr::CallDirect(f) => Some((Instr::FusedLoadCallDirect(s, f), 2)),
                Instr::CallVirtual(f) => Some((Instr::FusedLoadCallVirtual(s, f), 2)),
                _ => None,
            }
        }
        _ if max_len < 2 => None,
        Instr::New(c) => {
            if matches!(at(1)?, Instr::Dup) {
                Some((Instr::FusedNewDup(c), 2))
            } else {
                None
            }
        }
        Instr::ProfLoopBack(l) => {
            if let Instr::Jump(t) = at(1)? {
                Some((Instr::FusedLoopBackJump(l, t), 2))
            } else {
                None
            }
        }
        cmp => {
            let kind = cmp_kind(cmp)?;
            let (jump_if, t) = branch_sense(at(1)?)?;
            Some((Instr::CmpJump(kind, jump_if, t), 2))
        }
    }
}

fn fuse_function(func: &mut Function, untracked_fields: &[bool]) {
    let field_fusible = |f: FieldId| untracked_fields.get(f.index()).copied().unwrap_or(false);
    let code = &func.code;
    let n = code.len();

    // A fusion window must not contain a label in its interior: anything
    // control flow can land on mid-sequence stays a dispatch boundary.
    let mut label = vec![false; n + 1];
    for instr in code {
        if let Some(t) = instr.targets() {
            label[t] = true;
        }
    }
    for h in &func.handlers {
        label[h.start] = true;
        if h.end <= n {
            label[h.end] = true;
        }
        label[h.target] = true;
    }

    let mut new_code = Vec::with_capacity(n);
    let mut new_lines = Vec::with_capacity(n);
    // old pc -> new pc; interior pcs of a fused window map to the fused
    // instruction (nothing targets them, by the label check).
    let mut old2new = vec![0usize; n + 1];

    let window_ok = |instr: Instr, pc: usize, len: usize| {
        pc + len <= n
            && !label[pc + 1..pc + len].iter().any(|&l| l)
            // A constituent before the last that can fault at its own
            // line (the mid-window `GetField` of the field patterns)
            // needs the whole window on one source line, so the error is
            // attributed exactly as the unfused sequence attributes it.
            && (!instr.expand()[..len - 1].iter().any(faults_at_line)
                || func.lines[pc..pc + len].iter().all(|&l| l == func.lines[pc]))
    };

    let mut pc = 0;
    while pc < n {
        // Longest acceptable window wins; a rejected window retries the
        // matcher with a tighter length cap so shorter patterns still
        // apply.
        let mut max_len = n - pc;
        let fused = loop {
            match match_pattern(code, pc, &field_fusible, max_len) {
                Some((instr, len)) if window_ok(instr, pc, len) => break Some((instr, len)),
                Some((_, len)) if len > 2 => max_len = len - 1,
                _ => break None,
            }
        };
        let (instr, len, line) = match fused {
            // The last constituent is the only one that can raise a
            // line-attributed error or emit a non-instruction event, so
            // the fused instruction takes its line.
            Some((instr, len)) => (instr, len, func.lines[pc + len - 1]),
            None => (code[pc], 1, func.lines[pc]),
        };
        for off in 0..len {
            old2new[pc + off] = new_code.len();
        }
        new_code.push(instr);
        new_lines.push(line);
        pc += len;
    }
    old2new[n] = new_code.len();

    // Remap every branch target and handler boundary. Only the last
    // constituent of an instruction branches, so a superinstruction is
    // rebuilt from its retargeted expansion through the pattern table.
    for instr in &mut new_code {
        if let Some(t) = instr.targets() {
            let mut window = instr.expand();
            let last = window.len() - 1;
            window[last] = retarget(window[last], old2new[t]);
            let rebuilt = match_pattern(&window, 0, &|_| true, window.len());
            debug_assert!(window.len() == 1 || rebuilt.is_some_and(|(_, len)| len == window.len()));
            *instr = rebuilt.map_or(window[0], |(fused, _)| fused);
        }
    }
    for h in &mut func.handlers {
        h.start = old2new[h.start];
        h.end = old2new[h.end];
        h.target = old2new[h.target];
    }

    func.code = new_code;
    func.lines = new_lines;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::event::{Event, EventCx, EventSink, NoopSink};
    use crate::instrument::InstrumentOptions;
    use crate::interp::Interp;
    use crate::verify::verify;

    /// Records the full event stream as rendered text for differential
    /// comparison.
    #[derive(Default)]
    struct Recorder {
        lines: Vec<String>,
    }

    impl EventSink for Recorder {
        fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
            self.lines.push(ev.render_text(cx.program));
        }
    }

    fn fused_of(src: &str) -> (CompiledProgram, CompiledProgram) {
        let plain = compile(src)
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let fused = plain.fuse();
        (plain, fused)
    }

    #[test]
    fn counting_loop_fuses_and_matches() {
        let src = "class Main { static int main() {
            int s = 0;
            for (int i = 0; i < 10; i = i + 1) { s = s + i; }
            return s;
        } }";
        let (plain, fused) = fused_of(src);
        verify(&fused).expect("fused program verifies");
        let fused_len: usize = fused.functions.iter().map(|f| f.code.len()).sum();
        let plain_len: usize = plain.functions.iter().map(|f| f.code.len()).sum();
        assert!(
            fused_len < plain_len,
            "expected fusion to shrink the code: {fused_len} vs {plain_len}"
        );
        assert!(fused
            .functions
            .iter()
            .flat_map(|f| &f.code)
            .any(|i| matches!(i, Instr::FusedIncJump(..))));

        let mut a = Recorder::default();
        let mut b = Recorder::default();
        let ra = Interp::new(&plain).run(&mut a).expect("plain runs");
        let rb = Interp::new(&fused).run(&mut b).expect("fused runs");
        assert_eq!(ra.return_value, rb.return_value);
        assert_eq!(ra.instructions, rb.instructions);
        assert_eq!(a.lines, b.lines, "event streams must be identical");
        assert!(
            rb.dispatches < ra.dispatches,
            "fusion must cut dispatches: {} vs {}",
            rb.dispatches,
            ra.dispatches
        );
        assert_eq!(ra.dispatches, ra.instructions);
    }

    #[test]
    fn pattern_table_inverts_every_expansion() {
        // Target remapping rebuilds a superinstruction from its
        // retargeted expansion, so every form must round-trip.
        let src = "class Main { static int main() {
            int[] a = new int[8];
            Node n = new Node();
            for (int i = 0; i < a.length; i = i + 1) {
                a[i] = i;
                if (a[i] > n.v) { n.v = n.v + 1; }
            }
            int j = 0;
            while (j < 3) { j = j + 1; }
            while (j > 1) { n.v = n.v + a[j - 1]; j = j - 1; }
            return n.v + a[j];
        } }
        class Node { int v; }";
        let (_, fused) = fused_of(src);
        let mut seen = Vec::new();
        for instr in fused.functions.iter().flat_map(|f| &f.code) {
            let window = instr.expand();
            if window.len() > 1 {
                let rebuilt = match_pattern(&window, 0, &|_| true, window.len());
                assert_eq!(rebuilt, Some((*instr, window.len())));
                seen.push(instr.mnemonic());
            }
        }
        assert!(seen.len() >= 5, "only {seen:?}");
        for form in ["load2_off_aload", "inc_jump"] {
            assert!(seen.contains(&form), "{form} missing from {seen:?}");
        }
        assert!(fused
            .functions
            .iter()
            .flat_map(|f| &f.code)
            .any(|i| matches!(i, Instr::FusedIncJump(_, true, ..))));
    }

    #[test]
    fn fusion_never_crosses_branch_targets() {
        // `continue` jumps straight to the increment: the increment's
        // LoadLocal is a label and must stay dispatchable.
        let src = "class Main { static int main() {
            int s = 0;
            for (int i = 0; i < 10; i = i + 1) {
                if (i % 2 == 0) { continue; }
                s = s + i;
            }
            return s;
        } }";
        let (plain, fused) = fused_of(src);
        verify(&fused).expect("fused program verifies");
        let ra = Interp::new(&plain).run(&mut NoopSink).expect("plain runs");
        let rb = Interp::new(&fused).run(&mut NoopSink).expect("fused runs");
        assert_eq!(ra.return_value, rb.return_value);
        assert_eq!(ra.instructions, rb.instructions);
    }

    #[test]
    fn fused_error_lines_match_unfused() {
        let src = "class Main { static int main() {
            int[] a = new int[3];
            int i = 7;
            return a[i];
        } }";
        let (plain, fused) = fused_of(src);
        let ea = Interp::new(&plain)
            .run(&mut NoopSink)
            .expect_err("plain traps");
        let eb = Interp::new(&fused)
            .run(&mut NoopSink)
            .expect_err("fused traps");
        assert_eq!(format!("{ea:?}"), format!("{eb:?}"));
    }

    #[test]
    fn exception_paths_survive_fusion() {
        let src = "class Main { static int main() {
            int s = 0;
            try {
                for (int i = 0; i < 10; i = i + 1) {
                    s = s + i;
                    if (i == 6) { throw s; }
                }
            } catch (int e) { return e + s; }
            return 0;
        } }";
        let (plain, fused) = fused_of(src);
        verify(&fused).expect("fused program verifies");
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        let ra = Interp::new(&plain).run(&mut a).expect("plain runs");
        let rb = Interp::new(&fused).run(&mut b).expect("fused runs");
        assert_eq!(ra.return_value, rb.return_value);
        assert_eq!(ra.instructions, rb.instructions);
        assert_eq!(a.lines, b.lines);
    }

    #[test]
    fn fuse_default_honors_env_switch() {
        // `fuse_default` delegates to `fuse` unless the process-wide
        // switch is set; both paths must verify. (The switch itself is
        // exercised by the CLI smoke in CI, where the process env is
        // controlled.)
        let p = compile("class Main { static int main() { int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + i; } return s; } }")
            .expect("compiles")
            .instrument(&InstrumentOptions::default());
        let fused = p.fuse_default();
        verify(&fused).expect("verifies");
    }

    #[test]
    fn cfg_of_fused_code_builds() {
        let src = "class Main { static int main() {
            int s = 0;
            for (int i = 0; i < 10; i = i + 1) {
                if (s > 3) { s = s - 1; } else { s = s + i; }
            }
            return s;
        } }";
        let (_, fused) = fused_of(src);
        for f in &fused.functions {
            let cfg = crate::cfg::Cfg::build(f);
            let rpo = cfg.reverse_postorder();
            assert_eq!(rpo.len(), cfg.len());
        }
    }
}
