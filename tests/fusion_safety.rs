//! Fusion-safety differential suite: the superinstruction peephole pass
//! must be observationally invisible. For the whole listings + Table-1
//! corpus and 100 random programs, running the fused bytecode must
//! produce the *identical* logical event stream, byte-identical APTR
//! recordings, and equal profiles to the unfused bytecode — while
//! strictly cutting dispatch-loop iterations. Fused code must also pass
//! the verifier, superinstructions included.

use algoprof::{AlgoProf, AlgoProfOptions};
use algoprof_programs::{
    array_list_program, functional_sort_program, insertion_sort_program,
    sized_insertion_sort_array_program, sized_insertion_sort_program, table1_programs,
    GrowthPolicy, SortWorkload, LISTING3, LISTING4, LISTING5,
};
use algoprof_suite::genprog::random_program;
use algoprof_suite::testutil::TestRng;
use algoprof_trace::{TraceHeader, TraceRecorder};
use algoprof_vm::{
    compile, verify, CompiledProgram, Event, EventCx, EventSink, Instr, InstrumentOptions, Interp,
    NoopSink,
};

/// Records every event as rendered text, so two runs can be compared
/// event by event (including `Instruction` events, which APTR traces do
/// not store).
#[derive(Default)]
struct TextStream {
    lines: Vec<String>,
}

impl EventSink for TextStream {
    fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
        self.lines.push(ev.render_text(cx.program));
    }
}

/// [`TextStream`] for a sink that does not read `Instruction` events, so
/// the interpreter runs the fused arms themselves.
#[derive(Default)]
struct NonReadingStream {
    lines: Vec<String>,
}

impl EventSink for NonReadingStream {
    const READS_INSTRUCTIONS: bool = false;

    fn event(&mut self, ev: &Event, cx: &EventCx<'_>) {
        self.lines.push(ev.render_text(cx.program));
    }
}

fn compiled(name: &str, src: &str) -> CompiledProgram {
    compiled_with(name, src, &InstrumentOptions::default())
}

fn compiled_with(name: &str, src: &str, instrument: &InstrumentOptions) -> CompiledProgram {
    compile(src)
        .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"))
        .instrument(instrument)
}

fn count_superinstructions(p: &CompiledProgram) -> usize {
    p.functions
        .iter()
        .flat_map(|f| &f.code)
        .filter(|i| i.expand().len() > 1)
        .count()
}

/// The whole differential: fused vs. unfused execution of `src` with
/// `input` must agree on the event stream, the run outcome (value or
/// error), the logical instruction count, the APTR recording bytes, and
/// the finished profile — and fused must never dispatch more. The
/// stream holds one `Instruction` event per logical instruction, so a
/// failing run's instruction count is compared through it.
fn assert_fusion_invisible(name: &str, src: &str, input: &[i64]) {
    assert_fusion_invisible_under(name, src, input, InstrumentOptions::default());
}

/// [`assert_fusion_invisible`] under the given instrumentation.
fn assert_fusion_invisible_under(
    name: &str,
    src: &str,
    input: &[i64],
    instrument: InstrumentOptions,
) {
    let plain = compiled_with(name, src, &instrument);
    let fused = plain.fuse();
    verify(&fused).unwrap_or_else(|e| panic!("{name}: fused bytecode fails verify: {e}"));

    // Event streams, return values, instruction counts, dispatches.
    let mut a = TextStream::default();
    let mut b = TextStream::default();
    let ra = Interp::new(&plain).with_input(input.to_vec()).run(&mut a);
    let rb = Interp::new(&fused).with_input(input.to_vec()).run(&mut b);
    assert_eq!(a.lines, b.lines, "{name}: event streams diverge");
    match (&ra, &rb) {
        (Ok(ra), Ok(rb)) => {
            assert_eq!(ra.return_value, rb.return_value, "{name}: return values");
            assert_eq!(ra.output, rb.output, "{name}: guest output");
            assert_eq!(
                ra.instructions, rb.instructions,
                "{name}: logical instruction counts"
            );
            assert!(
                rb.dispatches <= ra.dispatches,
                "{name}: fusion increased dispatches ({} -> {})",
                ra.dispatches,
                rb.dispatches
            );
            if count_superinstructions(&fused) > 0 {
                assert!(
                    rb.dispatches < ra.dispatches || rb.instructions == rb.dispatches,
                    "{name}: superinstructions present but no dispatch saved"
                );
            }
        }
        (Err(ea), Err(eb)) => {
            assert_eq!(
                format!("{ea:?}"),
                format!("{eb:?}"),
                "{name}: runtime errors diverge"
            );
            assert_eq!(ea.to_string(), eb.to_string(), "{name}: error text");
        }
        (ra, rb) => panic!("{name}: outcomes diverge: {ra:?} vs {rb:?}"),
    }

    // Under a sink that ignores instruction events the fused arms run:
    // the unfused stream without its instruction lines, the same
    // outcome and the same error.
    let mut c = NonReadingStream::default();
    let rc = Interp::new(&fused).with_input(input.to_vec()).run(&mut c);
    let others: Vec<&String> = a
        .lines
        .iter()
        .filter(|line| !line.starts_with("instruction "))
        .collect();
    assert!(
        c.lines.iter().eq(others),
        "{name}: non-reading event streams diverge"
    );
    match (&ra, &rc) {
        (Ok(ra), Ok(rc)) => {
            assert_eq!(
                ra.return_value, rc.return_value,
                "{name}: non-reading return"
            );
            assert_eq!(ra.output, rc.output, "{name}: non-reading output");
            assert_eq!(
                ra.instructions, rc.instructions,
                "{name}: non-reading count"
            );
        }
        (Err(ea), Err(ec)) => {
            assert_eq!(
                format!("{ea:?}"),
                format!("{ec:?}"),
                "{name}: non-reading runtime errors diverge"
            );
            assert_eq!(
                ea.to_string(),
                ec.to_string(),
                "{name}: non-reading error text"
            );
        }
        (ra, rc) => panic!("{name}: non-reading outcomes diverge: {ra:?} vs {rc:?}"),
    }

    // APTR recordings must be byte-identical (only successful runs
    // finish a recording).
    if ra.is_ok() {
        let record = |program: &CompiledProgram| {
            let mut bytes = Vec::new();
            let mut rec =
                TraceRecorder::new(&TraceHeader::new(src, &instrument, input), &mut bytes);
            Interp::new(program)
                .with_input(input.to_vec())
                .run(&mut rec)
                .unwrap_or_else(|e| panic!("{name}: recording run failed: {e}"));
            rec.finish().expect("writes to a Vec<u8> cannot fail");
            bytes
        };
        assert_eq!(
            record(&plain),
            record(&fused),
            "{name}: APTR recordings diverge"
        );

        // Finished algorithmic profiles must be equal.
        let profile = |program: &CompiledProgram| {
            let mut prof = AlgoProf::with_options(AlgoProfOptions::default());
            Interp::new(program)
                .with_input(input.to_vec())
                .run(&mut prof)
                .unwrap_or_else(|e| panic!("{name}: profiling run failed: {e}"));
            prof.finish(program)
        };
        assert_eq!(
            profile(&plain),
            profile(&fused),
            "{name}: algorithmic profiles diverge"
        );
    }
}

/// The listings: the paper's three plus the sized sort and growth
/// workloads.
fn listings_corpus() -> Vec<(&'static str, String)> {
    vec![
        ("listing3", LISTING3.to_string()),
        ("listing4", LISTING4.to_string()),
        ("listing5", LISTING5.to_string()),
        (
            "insertion_sort_random",
            insertion_sort_program(SortWorkload::Random, 60, 10, 2),
        ),
        (
            "insertion_sort_sorted",
            insertion_sort_program(SortWorkload::Sorted, 60, 10, 2),
        ),
        (
            "functional_sort",
            functional_sort_program(SortWorkload::Random, 40, 10, 2),
        ),
        (
            "array_list_by_one",
            array_list_program(GrowthPolicy::ByOne, 60, 10, 2),
        ),
        (
            "array_list_doubling",
            array_list_program(GrowthPolicy::Doubling, 60, 10, 2),
        ),
    ]
}

/// Every program the fusion contract is checked on: the listings, the
/// Table-1 programs, every `examples/*.jay` and 100 random programs.
fn whole_corpus() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = listings_corpus()
        .into_iter()
        .map(|(name, src)| (name.to_string(), src))
        .collect();
    out.extend(
        table1_programs()
            .into_iter()
            .map(|p| (p.name.to_string(), p.source)),
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut examples: Vec<_> = std::fs::read_dir(dir)
        .expect("examples directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jay"))
        .collect();
    examples.sort();
    for path in examples {
        let src = std::fs::read_to_string(&path).expect("readable example");
        out.push((path.display().to_string(), src));
    }
    for seed in 0..100 {
        let mut rng = TestRng::new(11_000 + seed);
        out.push((format!("seed {seed}"), random_program(&mut rng)));
    }
    out
}

#[test]
fn listings_corpus_is_fusion_invisible() {
    let corpus = listings_corpus();
    let mut fused_somewhere = false;
    for (name, src) in &corpus {
        fused_somewhere |= count_superinstructions(&compiled(name, src).fuse()) > 0;
        assert_fusion_invisible(name, src, &[]);
    }
    assert!(
        fused_somewhere,
        "the peephole pass fused nothing across the whole listings corpus"
    );
}

#[test]
fn table1_corpus_is_fusion_invisible() {
    for p in table1_programs() {
        assert_fusion_invisible(p.name, &p.source, &[]);
    }
}

#[test]
fn random_programs_are_fusion_invisible() {
    for seed in 0..100 {
        let mut rng = TestRng::new(11_000 + seed);
        let src = random_program(&mut rng);
        assert_fusion_invisible(&format!("seed {seed}"), &src, &[]);
    }
}

#[test]
fn fusion_preserves_loop_ordinals() {
    // ProfLoop* pseudo-instructions carry the loop ids the indexflow
    // hints reference; the pass must leave every one of them in place.
    let srcs = [
        insertion_sort_program(SortWorkload::Random, 30, 10, 2),
        array_list_program(GrowthPolicy::Doubling, 30, 10, 2),
    ];
    for src in &srcs {
        let plain = compiled("loop_ordinals", src);
        let fused = plain.fuse();
        // A superinstruction carries its loop markers in its expansion.
        let loops = |p: &CompiledProgram| -> Vec<Instr> {
            p.functions
                .iter()
                .flat_map(|f| &f.code)
                .flat_map(|i| i.expand().to_vec())
                .filter(|i| {
                    matches!(
                        i,
                        Instr::ProfLoopEntry(_) | Instr::ProfLoopBack(_) | Instr::ProfLoopExit(_)
                    )
                })
                .collect()
        };
        assert_eq!(loops(&plain), loops(&fused));
    }
}

/// `instr` (a base instruction) with its branch target mapped by `f`.
fn map_target(instr: Instr, f: impl Fn(usize) -> usize) -> Instr {
    match instr {
        Instr::Jump(t) => Instr::Jump(f(t)),
        Instr::JumpIfFalse(t) => Instr::JumpIfFalse(f(t)),
        Instr::JumpIfTrue(t) => Instr::JumpIfTrue(f(t)),
        other => other,
    }
}

#[test]
fn fused_code_expands_back_to_the_unfused_code() {
    // Fusion only regroups the code: concatenating every instruction's
    // expansion, with jump targets, handler bounds and lines mapped back
    // to the old pcs, reproduces the unfused code exactly.
    let mut superinstructions = 0;
    for (name, src) in whole_corpus() {
        let plain = compiled(&name, &src);
        let fused = plain.fuse();
        for (pf, ff) in plain.functions.iter().zip(&fused.functions) {
            // New pc -> old pc of its first constituent.
            let mut new2old = vec![0];
            for instr in &ff.code {
                new2old.push(new2old[new2old.len() - 1] + instr.expand().len());
            }
            let mut code = Vec::new();
            for (pc, instr) in ff.code.iter().enumerate() {
                let constituents = instr.expand();
                if constituents.len() > 1 {
                    superinstructions += 1;
                    assert_eq!(instr.opcode(), None, "{name}: {instr:?}");
                }
                for (i, c) in constituents.iter().enumerate() {
                    assert!(c.opcode().is_some(), "{name}: {instr:?} expands to {c:?}");
                    if i + 1 < constituents.len() {
                        assert!(
                            c.targets().is_none() && !c.is_terminator(),
                            "{name}: {instr:?} branches before its last constituent"
                        );
                    }
                    code.push(map_target(*c, |t| new2old[t]));
                }
                assert_eq!(
                    ff.lines[pc],
                    pf.lines[new2old[pc + 1] - 1],
                    "{name}: {instr:?} must take its last constituent's line"
                );
            }
            assert_eq!(code, pf.code, "{name}: {} regrouped", pf.name);
            let handlers: Vec<_> = ff
                .handlers
                .iter()
                .map(|h| (new2old[h.start], new2old[h.end], new2old[h.target]))
                .collect();
            let expected: Vec<_> = pf
                .handlers
                .iter()
                .map(|h| (h.start, h.end, h.target))
                .collect();
            assert_eq!(handlers, expected, "{name}: {} handlers", pf.name);
        }
    }
    assert!(superinstructions > 3000, "only {superinstructions} fused");
}

/// Applies one seeded corruption to a random `ConstInt`, `LoadLocal` or
/// `StoreLocal` of `p` (jump targets stay intact). Returns `false` when
/// the program has no such instruction.
fn corrupt(p: &mut CompiledProgram, rng: &mut TestRng) -> bool {
    let sites: Vec<(usize, usize)> = p
        .functions
        .iter()
        .enumerate()
        .flat_map(|(f, func)| {
            func.code
                .iter()
                .enumerate()
                .filter(|(_, i)| {
                    matches!(
                        i,
                        Instr::ConstInt(_) | Instr::LoadLocal(_) | Instr::StoreLocal(_)
                    )
                })
                .map(move |(pc, _)| (f, pc))
        })
        .collect();
    if sites.is_empty() {
        return false;
    }
    let &(f, pc) = rng.pick(&sites);
    let func = &mut p.functions[f];
    let locals = func.n_locals as usize;
    func.code[pc] = match func.code[pc] {
        Instr::ConstInt(k) if rng.chance(1, 2) => Instr::ConstBool(k % 2 == 0),
        Instr::ConstInt(_) => Instr::ConstNull,
        Instr::LoadLocal(_) => Instr::LoadLocal(rng.range(0, locals) as u16),
        Instr::StoreLocal(_) => Instr::StoreLocal(rng.range(0, locals) as u16),
        other => other,
    };
    true
}

#[test]
fn verify_agrees_on_fused_and_unfused_corruptions() {
    let mut rng = TestRng::new(20_000);
    let (mut checked, mut rejected) = (0, 0);
    for (name, src) in whole_corpus() {
        let plain = compiled(&name, &src);
        for _ in 0..20 {
            let mut p = plain.clone();
            if !corrupt(&mut p, &mut rng) {
                break;
            }
            let unfused = verify(&p);
            let fused = verify(&p.fuse());
            assert_eq!(
                unfused.is_ok(),
                fused.is_ok(),
                "{name}: unfused {unfused:?} vs fused {fused:?}"
            );
            checked += 1;
            rejected += usize::from(unfused.is_err());
        }
    }
    assert!(checked >= 2000, "only {checked} corruptions checked");
    assert!(
        rejected >= 600,
        "only {rejected} of {checked} corruptions rejected"
    );
}

/// The superinstructions `src` fuses to under `instrument`.
fn fused_forms(src: &str, instrument: &InstrumentOptions) -> Vec<Instr> {
    compiled_with("forms", src, instrument)
        .fuse()
        .functions
        .iter()
        .flat_map(|f| f.code.iter().copied())
        .filter(|i| i.expand().len() > 1)
        .collect()
}

fn no_loop_events() -> InstrumentOptions {
    InstrumentOptions {
        loops: false,
        ..InstrumentOptions::default()
    }
}

#[test]
fn offset_reads_fault_exactly_as_unfused() {
    // `a[i ± k]` fuses to `load2_off_aload`; each case faults (or not)
    // at the fused window's `ALoad`, which must report the same error,
    // line and events as the unfused sequence.
    let read = |expr: &str| {
        format!(
            "class Main {{
                static int main() {{
                    int n = readInput();
                    int[] a = Main.make(n);
                    int i = readInput();
                    return {expr};
                }}
                static int[] make(int n) {{
                    if (n < 0) {{ return null; }}
                    return new int[n];
                }}
            }}"
        )
    };
    let cases = [
        (
            read("a[i - 1]"),
            [4, 0],
            "index -1 out of bounds for length 4 at line 6",
        ),
        (
            read("a[i + 1]"),
            [4, 3],
            "index 4 out of bounds for length 4 at line 6",
        ),
        (read("a[i - 2]"), [-1, 5], "null dereference at line 6"),
        (
            read("a[i - 1]"),
            [4, i64::MIN],
            "index 9223372036854775807 out of bounds for length 4 at line 6",
        ),
        (
            read("a[i + 1]"),
            [4, i64::MAX],
            "index -9223372036854775808 out of bounds for length 4 at line 6",
        ),
        (read("a[i - 1]"), [4, 4], "ok"),
    ];
    for (src, input, outcome) in &cases {
        let name = format!("{outcome} on input {input:?}");
        let forms = fused_forms(src, &InstrumentOptions::default());
        assert!(
            forms
                .iter()
                .any(|i| matches!(i, Instr::FusedLoadLoadOffALoad(..))),
            "{name}: no offset read fused in {forms:?}"
        );
        let run = Interp::new(&compiled(&name, src).fuse())
            .with_input(input.to_vec())
            .run(&mut TextStream::default());
        assert_eq!(
            run.map_or_else(|e| e.to_string(), |_| "ok".into()),
            *outcome
        );
        assert_fusion_invisible(&name, src, input);
    }

    // The loop forms: the offset read runs every iteration and faults on
    // the last one, after the stream has carried every read before it.
    let loop_read = "class Main {
        static int main() {
            int n = readInput();
            int[] a = new int[n];
            for (int i = 0; i < n; i = i + 1) { a[i] = n - i; }
            int s = 0;
            int j = n;
            while (j >= 0) {
                s = a[j - 1] + s;
                j = j - 1;
            }
            return s;
        }
    }";
    for instrument in [InstrumentOptions::default(), no_loop_events()] {
        let forms = fused_forms(loop_read, &instrument);
        assert!(
            forms
                .iter()
                .any(|i| matches!(i, Instr::FusedLoadLoadOffALoad(..))),
            "offset read not fused: {forms:?}"
        );
        // The decrement latch fuses with its inline back edge.
        assert_eq!(
            forms
                .iter()
                .any(|i| matches!(i, Instr::FusedIncLoopBack(_, true, ..))),
            instrument.loops,
            "latch fused only with loop events: {forms:?}"
        );
        assert_fusion_invisible_under("descending a[j - 1]", loop_read, &[9], instrument);
    }
}

/// Whether `instr` is the superinstruction with disassembly mnemonic
/// `form`.
fn is_form(instr: &Instr, form: &str) -> bool {
    instr.expand().len() > 1 && instr.mnemonic() == form
}

#[test]
fn fused_forms_fault_exactly_as_unfused() {
    // One small program per fused form whose constituent can fault: the
    // fused run must report the same error at the same line after the
    // same events as the unfused sequence. `make(n)` is null for n < 0
    // and leaves the array field null for n = 0; `arr(n)` is null for
    // n < 0.
    let program = |body: &str| {
        format!(
            "class Box {{
                int v;
                int[] a;
                int get() {{ return v; }}
            }}
            class Main {{
                static int main() {{
                    int n = readInput();
                    int i = readInput();
                    Box b = Main.make(n);
                    Box c = Main.make(i);
                    int[] a = Main.arr(n);
                    {body}
                }}
                static Box make(int n) {{
                    if (n < 0) {{ return null; }}
                    Box b = new Box();
                    b.v = n;
                    if (n > 0) {{ b.a = new int[n]; }}
                    return b;
                }}
                static int[] arr(int n) {{
                    if (n < 0) {{ return null; }}
                    return new int[n];
                }}
            }}"
        )
    };
    let null = "null dereference at line 13";
    let cases: [(&str, &str, [i64; 2], &str); 21] = [
        ("load_getfield", "return b.v;", [-1, 0], null),
        ("load_getfield", "return b.v;", [3, 0], "ok"),
        ("load_getfield_len", "return b.a.length;", [-1, 0], null),
        ("load_getfield_len", "return b.a.length;", [0, 0], null),
        (
            "load2_getfield_len",
            "return i + b.a.length;",
            [-1, 0],
            null,
        ),
        ("load2_getfield_len", "return i + b.a.length;", [0, 0], null),
        ("load_getfield_aload", "return b.a[i];", [-1, 0], null),
        ("load_getfield_aload", "return b.a[i];", [0, 0], null),
        (
            "load_getfield_aload",
            "return b.a[i];",
            [3, 5],
            "index 5 out of bounds for length 3 at line 13",
        ),
        ("load_getfield_aload", "return b.a[i];", [3, 2], "ok"),
        ("load2_putfield", "b.v = i; return b.v;", [-1, 0], null),
        ("field_add", "b.v = c.v + 1; return b.v;", [3, -1], null),
        ("field_add", "b.v = c.v + 1; return b.v;", [-1, 3], null),
        ("field_add", "b.v = c.v + 1; return b.v;", [3, 4], "ok"),
        ("load_astore", "a[i] = n; return a[i];", [-1, 0], null),
        (
            "load_astore",
            "a[i] = n; return a[i];",
            [3, 3],
            "index 3 out of bounds for length 3 at line 13",
        ),
        (
            "load_astore",
            "a[i] = n; return a[i];",
            [3, -1],
            "index -1 out of bounds for length 3 at line 13",
        ),
        ("load_astore", "a[i] = n; return a[i];", [3, 1], "ok"),
        ("load_call_virtual", "return b.get();", [-1, 0], null),
        ("load_call_virtual", "return b.get();", [3, 0], "ok"),
        ("load2_putfield", "b.v = i; return b.v;", [3, 7], "ok"),
    ];
    for (form, body, input, outcome) in &cases {
        let src = program(body);
        let name = format!("{form} `{body}` on input {input:?}");
        let forms = fused_forms(&src, &InstrumentOptions::default());
        assert!(
            forms.iter().any(|i| is_form(i, form)),
            "{name}: not fused in {forms:?}"
        );
        let run = Interp::new(&compiled(&name, &src).fuse())
            .with_input(input.to_vec())
            .run(&mut TextStream::default());
        assert_eq!(
            run.map_or_else(|e| e.to_string(), |_| "ok".into()),
            *outcome,
            "{name}"
        );
        assert_fusion_invisible(&name, &src, input);
    }
}

#[test]
fn decrement_latches_fuse_and_stay_invisible() {
    // With loop events, `x = x - k` and the back edge written inline
    // after it fuse to `inc_loop_back` with `sub`, whose jump is
    // backward, straight to the header (a yield point). Without loop
    // events the latch's bare jump is not fused with it.
    let src = "class Main {
        static int main() {
            int n = readInput();
            int[] a = new int[n];
            int x = n;
            while (x > 0) {
                a[x - 1] = x;
                x = x - 2;
            }
            int s = 0;
            int y = n;
            while (y > 0) {
                s = s + a[y - 1];
                y = y - 1;
            }
            return s;
        }
    }";
    for (name, instrument, latches) in [
        ("latch with its back edge", InstrumentOptions::default(), 2),
        ("bare latch", no_loop_events(), 0),
    ] {
        let program = compiled_with(name, src, &instrument).fuse();
        let backward: Vec<bool> = program
            .functions
            .iter()
            .flat_map(|f| f.code.iter().enumerate())
            .filter_map(|(pc, i)| match *i {
                Instr::FusedIncLoopBack(_, true, _, _, t) => Some(t as usize <= pc),
                _ => None,
            })
            .collect();
        assert_eq!(backward, vec![true; latches], "{name}");
        assert_fusion_invisible_under(name, src, &[11], instrument);
    }
}

/// Counts thread-switch events: how often the scheduler interleaved.
struct ThreadSwitches(usize);

impl EventSink for ThreadSwitches {
    const READS_INSTRUCTIONS: bool = false;

    fn event(&mut self, ev: &Event, _cx: &EventCx<'_>) {
        self.0 += usize::from(matches!(ev, Event::ThreadSwitch { .. }));
    }
}

#[test]
fn decrement_latches_in_spawned_threads_keep_the_schedule() {
    // Two workers count down over a shared array. Each worker's latch
    // jump is its loop's only backward jump, so it is the quantum yield
    // point that interleaves the threads; fused with its inline back
    // edge or not, the schedule, and with it every thread-switch event,
    // must not move.
    let src = "class Main {
        static int main() {
            int n = readInput();
            int[] a = new int[n];
            int t1 = spawn down(a, n, 1);
            int t2 = spawn down(a, n, 2);
            return join t1 + join t2;
        }
        static int down(int[] a, int n, int k) {
            int s = 0;
            int x = n;
            while (x > 0) {
                a[x - 1] = a[x - 1] + k;
                s = s + a[x - 1];
                x = x - 1;
            }
            return s;
        }
    }";
    for instrument in [InstrumentOptions::default(), no_loop_events()] {
        let forms = fused_forms(src, &instrument);
        assert_eq!(
            forms
                .iter()
                .any(|i| matches!(i, Instr::FusedIncLoopBack(_, true, ..))),
            instrument.loops,
            "decrement latch fused only with loop events: {forms:?}"
        );
        let mut switches = ThreadSwitches(0);
        Interp::new(&compiled_with("threads", src, &instrument).fuse())
            .with_input(vec![300])
            .run(&mut switches)
            .expect("threaded countdown runs");
        assert!(switches.0 > 8, "only {} thread switches", switches.0);
        assert_fusion_invisible_under("threaded countdown", src, &[300], instrument);
    }
}

#[test]
fn benchmark_sort_dispatch_counts_are_pinned() {
    // The two live-profile benchmark programs at one size each: fused
    // dispatches are what the superinstruction set saves, and logical
    // instructions must not move with it. The array sort's inner loop
    // is 8 dispatches for 26 instructions (its `&&` condition two
    // compare-and-branches, two offset reads, and the decrement latch
    // fused with its inline back edge); the list sort's null tests fuse
    // to `null_cmp_jump`.
    let cases = [
        (
            "reversed array sort",
            sized_insertion_sort_array_program(SortWorkload::Reversed),
            192,
            (485_574, 151_694),
        ),
        (
            "random list sort",
            sized_insertion_sort_program(SortWorkload::Random),
            132,
            (246_941, 122_697),
        ),
    ];
    for (name, src, n, counts) in cases {
        let program = compiled(name, &src).fuse();
        let run = Interp::new(&program)
            .with_input(vec![n])
            .run(&mut NoopSink)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            (run.instructions, run.dispatches),
            counts,
            "{name} at n = {n}"
        );
    }
}
