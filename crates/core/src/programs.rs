//! Prepared programs: the one compile → instrument → fuse pipeline
//! ([`prepare`]) and a bounded cache of its products ([`ProgramCache`]).
//!
//! Algorithmic profiling builds cost functions from one program run at
//! many input sizes, so a long-lived service sees the same source over
//! and over: profile jobs at different sizes, and traces recorded from
//! it. A [`ProgramCache`] keeps the prepared program of each recently
//! seen (source, instrumentation, fusion) triple and hands it out as an
//! [`Arc`], so such a service compiles each distinct program once.
//! Compilation is deterministic, so a cached program is exactly the one
//! a fresh compile builds, and every report stays byte-identical.
//!
//! A cache is owned by whoever keeps one (the serve daemon's state) and
//! passed down explicitly ([`JobSpec::execute_in`],
//! [`StreamingAnalysis::with_programs`]). There is no process-wide
//! cache: [`run`](fn@crate::run), [`JobSpec::execute`], the sweep and
//! the one-shot CLI prepare a fresh program per call.
//!
//! [`JobSpec::execute_in`]: crate::JobSpec::execute_in
//! [`JobSpec::execute`]: crate::JobSpec::execute
//! [`StreamingAnalysis::with_programs`]: crate::StreamingAnalysis::with_programs

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use algoprof_vm::{compile, CompileError, CompiledProgram, InstrumentOptions};

/// Programs a [`ProgramCache`] keeps at most.
pub const MAX_PROGRAMS: usize = 16;

/// Source bytes a [`ProgramCache`] retains at most, over all its
/// entries. A larger source is prepared and handed out, but not kept.
pub const MAX_SOURCE_BYTES: usize = 4 << 20;

/// Compiles `source`, instruments it under `instrument` and fuses it
/// into superinstructions if `fuse`: the front end of every source guest
/// and of every trace's recorded program.
///
/// # Errors
///
/// Returns [`CompileError`] when `source` does not compile.
pub fn prepare(
    source: &str,
    instrument: &InstrumentOptions,
    fuse: bool,
) -> Result<CompiledProgram, CompileError> {
    let program = compile(source)?.instrument(instrument);
    Ok(if fuse { program.fused() } else { program })
}

/// The program for `source`: from `programs` when the caller keeps a
/// cache, freshly prepared otherwise.
pub(crate) fn program_for(
    programs: Option<&ProgramCache>,
    source: &str,
    instrument: &InstrumentOptions,
    fuse: bool,
) -> Result<Arc<CompiledProgram>, CompileError> {
    match programs {
        Some(cache) => cache.get(source, instrument, fuse),
        None => prepare(source, instrument, fuse).map(Arc::new),
    }
}

/// A [`ProgramCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramCacheStats {
    /// Programs currently kept.
    pub entries: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that prepared a program (including ones that failed to
    /// compile and ones too large to keep).
    pub misses: u64,
    /// Programs dropped to stay within [`MAX_PROGRAMS`] and
    /// [`MAX_SOURCE_BYTES`].
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry {
    source: String,
    instrument: InstrumentOptions,
    fuse: bool,
    program: Arc<CompiledProgram>,
}

impl Entry {
    /// Whether this entry was prepared from exactly these inputs (the
    /// whole source text is compared, not a digest of it).
    fn is(&self, source: &str, instrument: &InstrumentOptions, fuse: bool) -> bool {
        self.fuse == fuse && self.instrument == *instrument && self.source == source
    }
}

/// A thread-safe, least-recently-used cache of prepared programs,
/// bounded by [`MAX_PROGRAMS`] entries and [`MAX_SOURCE_BYTES`] of
/// retained source; see the module docs.
#[derive(Debug, Default)]
pub struct ProgramCache {
    /// Least recently used first. Lookups scan it: it holds at most
    /// [`MAX_PROGRAMS`] entries.
    entries: Mutex<Vec<Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// The program [`prepare`] builds from these inputs: the kept one
    /// if there is one, otherwise a fresh one, which is kept unless its
    /// source alone exceeds [`MAX_SOURCE_BYTES`]. Preparation runs
    /// outside the lock, so misses on different sources proceed in
    /// parallel; two concurrent misses on one source both prepare it and
    /// the cache keeps one copy.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when `source` does not compile. Errors
    /// are not kept: every lookup of a failing source compiles it again
    /// and fails the same way.
    pub fn get(
        &self,
        source: &str,
        instrument: &InstrumentOptions,
        fuse: bool,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        {
            let mut entries = self.lock();
            if let Some(i) = entries.iter().position(|e| e.is(source, instrument, fuse)) {
                let entry = entries.remove(i);
                let program = Arc::clone(&entry.program);
                entries.push(entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(program);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let program = Arc::new(prepare(source, instrument, fuse)?);
        if source.len() <= MAX_SOURCE_BYTES {
            let mut entries = self.lock();
            if !entries.iter().any(|e| e.is(source, instrument, fuse)) {
                entries.push(Entry {
                    source: source.to_owned(),
                    instrument: *instrument,
                    fuse,
                    program: Arc::clone(&program),
                });
                let mut bytes: usize = entries.iter().map(|e| e.source.len()).sum();
                while entries.len() > MAX_PROGRAMS || bytes > MAX_SOURCE_BYTES {
                    bytes -= entries.remove(0).source.len();
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(program)
    }

    /// Current counters.
    pub fn stats(&self) -> ProgramCacheStats {
        ProgramCacheStats {
            entries: self.lock().len() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.entries
            .lock()
            .expect("no code panics while holding the program list")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algoprof_vm::disassemble;

    /// A distinct, valid program per `k` (the constant differs).
    fn source(k: usize) -> String {
        format!(
            "class Main {{ static int main() {{
                int s = 0;
                for (int i = 0; i < 4; i = i + 1) {{ s = s + {k}; }}
                return s;
            }} }}"
        )
    }

    fn stats(entries: u64, hits: u64, misses: u64, evictions: u64) -> ProgramCacheStats {
        ProgramCacheStats {
            entries,
            hits,
            misses,
            evictions,
        }
    }

    #[test]
    fn a_cached_program_equals_a_fresh_one() {
        let cache = ProgramCache::new();
        let src = source(1);
        let arrays = InstrumentOptions {
            arrays: false,
            ..InstrumentOptions::default()
        };
        for (instrument, fuse) in [
            (InstrumentOptions::default(), true),
            (InstrumentOptions::default(), false),
            (arrays, false),
        ] {
            let missed = cache.get(&src, &instrument, fuse).expect("compiles");
            let hit = cache.get(&src, &instrument, fuse).expect("compiles");
            assert!(Arc::ptr_eq(&missed, &hit), "the second lookup is a hit");
            let fresh = prepare(&src, &instrument, fuse).expect("compiles");
            assert_eq!(format!("{hit:?}"), format!("{fresh:?}"));
            assert_eq!(disassemble(&hit), disassemble(&fresh));
        }
        // Each (instrumentation, fusion) pair is its own entry.
        assert_eq!(cache.stats(), stats(3, 3, 3, 0));
    }

    #[test]
    fn entries_stay_within_the_cap_and_the_oldest_go_first() {
        let cache = ProgramCache::new();
        let opts = InstrumentOptions::default();
        for k in 0..MAX_PROGRAMS + 5 {
            cache.get(&source(k), &opts, true).expect("compiles");
            assert!(cache.stats().entries <= MAX_PROGRAMS as u64);
        }
        assert_eq!(cache.stats(), stats(16, 0, 21, 5));
        // The five oldest were evicted; the newest is still kept.
        cache
            .get(&source(MAX_PROGRAMS + 4), &opts, true)
            .expect("compiles");
        cache.get(&source(0), &opts, true).expect("compiles");
        assert_eq!(cache.stats(), stats(16, 1, 22, 6));
    }

    #[test]
    fn a_hit_refreshes_an_entry() {
        let cache = ProgramCache::new();
        let opts = InstrumentOptions::default();
        for k in 0..MAX_PROGRAMS {
            cache.get(&source(k), &opts, true).expect("compiles");
        }
        cache.get(&source(0), &opts, true).expect("hit");
        // One more program evicts the least recently used: source 1.
        cache
            .get(&source(MAX_PROGRAMS), &opts, true)
            .expect("compiles");
        cache.get(&source(0), &opts, true).expect("still kept");
        assert_eq!(cache.stats(), stats(16, 2, 17, 1));
        cache.get(&source(1), &opts, true).expect("compiles again");
        assert_eq!(cache.stats(), stats(16, 2, 18, 2));
    }

    #[test]
    fn an_over_budget_source_is_served_but_not_kept() {
        let cache = ProgramCache::new();
        let opts = InstrumentOptions::default();
        let big = format!("// {}\n{}", "x".repeat(MAX_SOURCE_BYTES), source(7));
        let program = cache.get(&big, &opts, true).expect("compiles");
        assert_eq!(
            disassemble(&program),
            disassemble(&prepare(&big, &opts, true).expect("compiles"))
        );
        cache.get(&big, &opts, true).expect("compiles");
        assert_eq!(cache.stats(), stats(0, 0, 2, 0));
        // Sources that fit together stay; the byte budget evicts the
        // oldest once they no longer fit.
        let half = |k: usize| format!("// {}\n{}", "x".repeat(MAX_SOURCE_BYTES / 2), source(k));
        cache.get(&half(1), &opts, true).expect("compiles");
        cache.get(&source(2), &opts, true).expect("compiles");
        assert_eq!(cache.stats().entries, 2);
        cache.get(&half(3), &opts, true).expect("compiles");
        assert_eq!(cache.stats(), stats(2, 0, 5, 1));
    }

    #[test]
    fn compile_errors_are_not_kept() {
        let cache = ProgramCache::new();
        let opts = InstrumentOptions::default();
        let first = cache.get("class Main {", &opts, true).unwrap_err();
        let second = cache.get("class Main {", &opts, true).unwrap_err();
        assert_eq!(first, second);
        assert_eq!(cache.stats(), stats(0, 0, 2, 0));
    }

    #[test]
    fn a_hit_compares_the_whole_source() {
        let cache = ProgramCache::new();
        let opts = InstrumentOptions::default();
        let a = source(3);
        let b = format!("{a} ");
        cache.get(&a, &opts, true).expect("compiles");
        cache.get(&b, &opts, true).expect("compiles");
        assert_eq!(cache.stats(), stats(2, 0, 2, 0));
    }
}
