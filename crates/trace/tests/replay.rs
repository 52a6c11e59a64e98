//! Model-based pin: `TraceStream` replay is op-for-op identical to the
//! live generator across every suite workload × size × seed ×
//! wavefront-count coordinate — the identity contract the whole
//! compiled-trace pipeline rests on (a replayed sweep cell may not
//! differ from an inline-synthesis cell by a single byte) — and `skip(n)`
//! lands where `n` calls of `next_op` would, for the generators' default
//! `skip` and for the seek index of compiled and imported traces.

use std::fmt::Write as _;

use bc_trace::{compile, content_key, import, verify, Trace, SEEK_EVERY};
use bc_workloads::{rodinia_suite, AccessStream, WarpOp, WorkloadSize};
use proptest::prelude::*;

/// Exhaustive sweep at tiny size: all seven generators, a few seeds and
/// wavefront counts, every op compared. Small/reference spot checks live
/// in the proptest below (tiny streams are already tens of thousands of
/// ops; exhaustive × reference would dominate the suite's runtime).
#[test]
fn every_suite_generator_replays_identically_at_tiny() {
    for w in rodinia_suite(WorkloadSize::Tiny) {
        for (total_wfs, seed) in [(4u32, 1u64), (8, 42), (3, 0xdead_beef)] {
            let bytes = compile(w.as_ref(), total_wfs, seed);
            let trace = Trace::parse(bytes).expect("compiled container parses");
            let ops = verify(&trace, w.as_ref()).unwrap_or_else(|e| {
                panic!("{} wfs={total_wfs} seed={seed}: {e}", w.name());
            });
            assert!(ops > 0, "{} produced an empty trace", w.name());
            assert_eq!(ops, trace.total_ops());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random coordinates across all three sizes: the compiled container
    /// round-trips through parse and replays identically; its content
    /// key is stable and coordinate-sensitive.
    #[test]
    fn random_coordinates_replay_identically(
        widx in 0usize..7,
        size_idx in 0usize..3,
        seed in any::<u64>(),
        total_wfs in 1u32..6,
    ) {
        let size = [WorkloadSize::Tiny, WorkloadSize::Small, WorkloadSize::Reference][size_idx];
        let suite = rodinia_suite(size);
        let w = &suite[widx];
        let bytes = compile(w.as_ref(), total_wfs, seed);
        let trace = Trace::parse(bytes.clone()).expect("parses");
        let ops = verify(&trace, w.as_ref());
        prop_assert!(ops.is_ok(), "{} {:?}: {}", w.name(), size, ops.err().map(|e| e.to_string()).unwrap_or_default());

        // Same coordinate, same bytes (compilation is deterministic).
        let again = compile(w.as_ref(), total_wfs, seed);
        prop_assert_eq!(&bytes, &again);

        // The content key pins exactly the coordinate.
        let key = content_key(w.name(), w.footprint_bytes(), total_wfs, seed);
        prop_assert_eq!(
            &key,
            &content_key(w.name(), w.footprint_bytes(), total_wfs, seed)
        );
        prop_assert_ne!(
            &key,
            // bc-lint: allow(saturating-counter) — perturbing a proptest
            // seed to a different value; wraparound is fine.
            &content_key(w.name(), w.footprint_bytes(), total_wfs, seed.wrapping_add(1))
        );
    }
}

/// One step of a skip/next program, resolved against the model cursor
/// `at` of a stream of `len` ops: `None` is a `next_op` call, `Some(n)` a
/// `skip(n)`. Lengths cluster around seek boundaries and the stream's end.
fn step(kind: u8, raw: u64, at: u64, len: u64) -> Option<u64> {
    let left = len - at;
    let to_boundary = SEEK_EVERY - at % SEEK_EVERY;
    Some(match kind {
        0 | 1 => return None,
        2 => 0,
        3 => SEEK_EVERY - 1,
        4 => SEEK_EVERY,
        5 => SEEK_EVERY + 1,
        6 => to_boundary - 1,
        7 => to_boundary,
        8 => to_boundary + 1,
        9 => left,
        10 => left + 1,
        11 => len,
        12 => len + 1,
        13 => u64::MAX,
        _ => raw % (left + 2),
    })
}

/// Runs `program` on `stream` and checks every result, then the rest of
/// the stream, against the op list `ops`.
fn check_program(
    label: &str,
    stream: &mut dyn AccessStream,
    ops: &[WarpOp],
    program: &[(u8, u64)],
) -> Result<(), TestCaseError> {
    let len = ops.len() as u64;
    let mut at = 0u64;
    for (i, &(kind, raw)) in program.iter().enumerate() {
        match step(kind, raw, at, len) {
            None => {
                prop_assert_eq!(
                    stream.next_op(),
                    ops.get(at as usize).copied(),
                    "{} step {}",
                    label,
                    i
                );
                at = (at + 1).min(len);
            }
            Some(n) => {
                let fits = n <= len - at;
                prop_assert_eq!(
                    stream.skip(n),
                    fits,
                    "{} step {}: skip({}) at {}/{}",
                    label,
                    i,
                    n,
                    at,
                    len
                );
                at = if fits { at + n } else { len };
            }
        }
    }
    for (i, want) in ops[at as usize..].iter().enumerate() {
        prop_assert_eq!(
            stream.next_op(),
            Some(*want),
            "{} op {} after the program",
            label,
            at as usize + i
        );
    }
    prop_assert_eq!(stream.next_op(), None, "{} past the end", label);
    Ok(())
}

/// `ops` in the text import format, as wavefront 0 of a one-wavefront
/// trace.
fn import_text(ops: &[WarpOp]) -> String {
    let mut text = "workload replayed\nfootprint 4096\nwavefronts 1\n".to_string();
    for op in ops {
        write!(text, "0 {}", op.think).expect("write to String");
        for b in op.blocks.as_slice() {
            let rw = if b.write { 'w' } else { 'r' };
            write!(text, " {:#x}:{rw}", b.va.as_u64()).expect("write to String");
        }
        text.push('\n');
    }
    text
}

/// Every skip length from a fresh trace stream, past every seek
/// boundary to one op beyond the end: the next op is the one `n` calls of
/// `next_op` would reach. A generator skipped to or past its end stays
/// exhausted.
#[test]
fn skip_then_next_matches_the_generator_at_every_offset() {
    for w in rodinia_suite(WorkloadSize::Tiny) {
        let trace = Trace::parse(compile(w.as_ref(), 2, 5)).expect("parses");
        let ops: Vec<WarpOp> = {
            let mut live = w.make_stream(1, 2, 5);
            std::iter::from_fn(|| live.next_op()).collect()
        };
        let len = ops.len() as u64;
        for n in 0..=len + 1 {
            let mut s = trace.stream(1);
            assert_eq!(s.skip(n), n <= len, "{} skip({n})", w.name());
            assert_eq!(
                s.next_op(),
                ops.get(n as usize).copied(),
                "{} after skip({n})",
                w.name()
            );
        }
        for n in [len, len + 1] {
            let mut live = w.make_stream(1, 2, 5);
            assert_eq!(live.skip(n), n == len, "{} generator skip({n})", w.name());
            assert_eq!(
                live.next_op(),
                None,
                "{} generator after skip({n})",
                w.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A program of skips and `next_op` calls, on the live generator
    /// (default `skip`) and on the compiled and imported traces of the
    /// same wavefront (seek index), matches the generator's op list.
    #[test]
    fn skip_matches_repeated_next_op(
        widx in 0usize..7,
        wf in 0u32..3,
        seed in any::<u64>(),
        program in proptest::collection::vec((0u8..16, any::<u64>()), 0..10),
    ) {
        let suite = rodinia_suite(WorkloadSize::Tiny);
        let w = &suite[widx];
        let ops: Vec<WarpOp> = {
            let mut live = w.make_stream(wf, 3, seed);
            std::iter::from_fn(|| live.next_op()).collect()
        };
        check_program("generator", w.make_stream(wf, 3, seed).as_mut(), &ops, &program)?;

        let compiled = Trace::parse(compile(w.as_ref(), 3, seed)).expect("parses");
        check_program("compiled", &mut compiled.stream(wf), &ops, &program)?;

        let imported = Trace::parse(import(&import_text(&ops)).expect("imports")).expect("parses");
        prop_assert_eq!(imported.total_ops(), ops.len() as u64);
        check_program("imported", &mut imported.stream(0), &ops, &program)?;
    }
}
