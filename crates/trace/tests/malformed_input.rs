//! Malformed-input coverage for the binary trace reader: every
//! single-bit flip and every truncation of a small trace, with raw and
//! with delta-encoded chunks, must decode to a structured error or to
//! the original records — never a panic and never different records.

use std::panic::{catch_unwind, AssertUnwindSafe};

use trail_trace::{from_binary, generate, to_binary, ChunkEncoding, SyntheticSpec, Trace};

/// 40 records over 2 streams in chunks of 7: six data chunks (the last
/// one partial) and a six-entry footer index.
fn small_trace(encoding: ChunkEncoding) -> Trace {
    let mut trace = generate(&SyntheticSpec {
        requests: 40,
        streams: 2,
        ..SyntheticSpec::default()
    });
    trace.meta.chunk_records = 7;
    trace.meta.encoding = encoding;
    trace
}

/// Decodes every one-bit flip and every proper prefix of `trace`'s
/// encoding, returning how many mutants were tried.
fn assert_every_mutant_is_rejected_or_exact(trace: &Trace) -> usize {
    let bytes = to_binary(trace);
    // Whether `mutant` decoded; a panic or a misread fails the test.
    let decodes =
        |mutant: &[u8], what: &str| match catch_unwind(AssertUnwindSafe(|| from_binary(mutant))) {
            Err(_) => panic!("{what}: the reader panicked"),
            Ok(Ok(decoded)) => {
                assert_eq!(
                    decoded.records, trace.records,
                    "{what}: decoded without error to different records"
                );
                true
            }
            Ok(Err(_)) => false,
        };
    let mut mutant = bytes.clone();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            mutant[byte] ^= 1 << bit;
            decodes(&mutant, &format!("bit {bit} of byte {byte} flipped"));
            mutant[byte] ^= 1 << bit;
        }
    }
    for len in 0..bytes.len() {
        let what = format!("truncated to {len} of {} bytes", bytes.len());
        assert!(!decodes(&bytes[..len], &what), "{what}: decoded");
    }
    bytes.len() * 9
}

#[test]
fn raw_trace_survives_every_bit_flip_and_truncation() {
    let tried = assert_every_mutant_is_rejected_or_exact(&small_trace(ChunkEncoding::Raw));
    assert!(tried > 10_000, "only {tried} mutants");
}

#[test]
fn delta_trace_survives_every_bit_flip_and_truncation() {
    let tried = assert_every_mutant_is_rejected_or_exact(&small_trace(ChunkEncoding::Delta));
    assert!(tried > 2_000, "only {tried} mutants");
}
