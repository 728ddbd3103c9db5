//! `dedup` — chunked compression pipeline with an output-stream reducer
//! (the paper's PARSEC `dedup` port, "medium" input).
//!
//! The PARSEC kernel splits a data stream into content-defined chunks,
//! fingerprints them, deduplicates repeated fingerprints, and writes
//! either the (compressed) chunk or a back-reference, in stream order.
//! The Cilk port writes its output through a `reducer_ostream`, which is
//! what this reproduction exercises:
//!
//! 1. content-defined chunking (serial, rolling hash);
//! 2. parallel fingerprinting of chunks (disjoint writes by index);
//! 3. serial dedup decision against a fingerprint table;
//! 4. **parallel output emission** through an [`OstreamMonoid`] reducer:
//!    `DATA(fingerprint, len)` records for first occurrences and
//!    `REF(index)` records for duplicates, assembled in stream order by
//!    the reducer.

use rader_cilk::{Ctx, Loc, Word};
use rader_dsu::fxhash::hash_pair;
use rader_reducers::{Monoid, OstreamMonoid, RedHandle};
use rader_rng::Rng;

use crate::{Scale, Workload};

/// A synthetic input stream with planted redundancy.
#[derive(Clone, Debug)]
pub struct Stream {
    /// The raw word stream.
    pub data: Vec<Word>,
}

/// Seeded stream generator: `blocks` blocks of 64 words drawn from a
/// small pool of repeated patterns (≈ 60% block-level redundancy) plus
/// fresh noise, followed by verbatim repeats of earlier *chunks*.
///
/// Pool repetition alone does not guarantee duplicate chunks: the
/// content-defined chunker rarely aligns a boundary with a 64-word block
/// edge, so repeated blocks usually land in distinct chunks. Chunking is
/// deterministic from a boundary (the rolling hash resets), so the tail
/// phase truncates the stream at its last boundary and re-appends a few
/// earlier chunks word-for-word — each reproduces its chunk exactly and
/// dedups to a `REF` record for every seed.
pub fn gen_stream(blocks: usize, seed: u64) -> Stream {
    let mut rng = Rng::seed_from_u64(seed);
    let pool: Vec<Vec<Word>> = (0..8)
        .map(|_| (0..64).map(|_| rng.gen_range(0..256)).collect())
        .collect();
    let mut data = Vec::with_capacity(blocks * 64);
    for _ in 0..blocks {
        if rng.gen_bool(0.6) {
            data.extend_from_slice(&pool[rng.gen_range(0..pool.len())]);
        } else {
            data.extend((0..64).map(|_| rng.gen_range(0..256)));
        }
    }
    let bounds = chunk_boundaries(&data);
    if bounds.len() > 2 {
        // Drop the final chunk (it may be an unterminated tail), leaving
        // the stream ending exactly at a boundary.
        let cut = bounds[bounds.len() - 1].0;
        data.truncate(cut);
        let dups = (blocks / 8).max(2);
        for _ in 0..dups {
            let (s, e) = bounds[rng.gen_range(0..bounds.len() - 1)];
            let chunk: Vec<Word> = data[s..e].to_vec();
            data.extend(chunk);
        }
    }
    Stream { data }
}

/// Content-defined chunk boundaries via a rolling mix: a boundary closes
/// after `w` when the running hash hits the mask, with min/max chunk
/// bounds.
fn chunk_boundaries(data: &[Word]) -> Vec<(usize, usize)> {
    const MIN: usize = 16;
    const MAX: usize = 128;
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut h = 0u64;
    for (i, &w) in data.iter().enumerate() {
        h = h.wrapping_mul(31).wrapping_add(w as u64);
        let len = i + 1 - start;
        if (len >= MIN && h.is_multiple_of(32)) || len >= MAX {
            chunks.push((start, i + 1));
            start = i + 1;
            h = 0;
        }
    }
    if start < data.len() {
        chunks.push((start, data.len()));
    }
    chunks
}

/// Mixing rounds per fingerprinted word. PARSEC's dedup fingerprints
/// each chunk with SHA-1, roughly 80 cycles per 8-byte word — compute
/// that dwarfs the load itself. One `hash_pair` per word would make the
/// simulated kernel look instrumentation-bound, which the real benchmark
/// is not, so the fingerprint applies the mix enough times to match the
/// SHA-1 cycle budget.
const FP_ROUNDS: usize = 12;

fn fp_mix(mut h: u64, w: u64) -> u64 {
    for _ in 0..FP_ROUNDS {
        h = hash_pair(h, w);
    }
    h
}

fn fingerprint_words(ws: &[Word]) -> Word {
    let mut h = 0u64;
    for &w in ws {
        h = fp_mix(h, w as u64);
    }
    (h & 0x7fff_ffff_ffff_ffff) as Word
}

/// Output record tag: a first-occurrence chunk (`DATA(fp, len)`).
pub const TAG_DATA: Word = 1;
/// Output record tag: a back-reference to an earlier chunk (`REF(idx)`).
pub const TAG_REF: Word = 2;

/// The Cilk program: returns `(records, unique_chunks)` and asserts the
/// output stream matches the serial reference.
pub fn dedup_program(cx: &mut Ctx<'_>, input: &Stream) -> (Word, Word) {
    let chunks = chunk_boundaries(&input.data);
    let nchunks = chunks.len();
    // Upload the stream and chunk table.
    let data = cx.alloc(input.data.len().max(1));
    for (i, &w) in input.data.iter().enumerate() {
        cx.write_idx(data, i, w);
    }
    let bounds = cx.alloc(2 * nchunks.max(1));
    for (i, &(s, e)) in chunks.iter().enumerate() {
        cx.write_idx(bounds, 2 * i, s as Word);
        cx.write_idx(bounds, 2 * i + 1, e as Word);
    }
    // Phase 1 (parallel): fingerprint every chunk; disjoint writes.
    let fps = cx.alloc(nchunks.max(1));
    cx.par_for(0..nchunks as u64, 4, &mut |cx, i| {
        fingerprint_chunk(cx, data, bounds, fps, i as usize);
    });
    cx.sync();
    // Phase 2 (serial): dedup decisions.
    let mut table: std::collections::HashMap<Word, usize> = Default::default();
    let mut first_idx = vec![-1i64; nchunks];
    for (i, first) in first_idx.iter_mut().enumerate() {
        let fp = cx.read_idx(fps, i);
        match table.get(&fp) {
            Some(&j) => *first = j as Word,
            None => {
                table.insert(fp, i);
            }
        }
    }
    let firsts = cx.alloc(nchunks.max(1));
    for (i, &f) in first_idx.iter().enumerate() {
        cx.write_idx(firsts, i, f);
    }
    // Phase 3 (parallel): emit records through the ostream reducer.
    let out = OstreamMonoid::register(cx);
    cx.par_for(0..nchunks as u64, 4, &mut |cx, i| {
        emit_record(cx, bounds, fps, firsts, i as usize, out);
    });
    cx.sync();
    let records = out.records(cx);
    (records, table.len() as Word)
}

fn fingerprint_chunk(cx: &mut Ctx<'_>, data: Loc, bounds: Loc, fps: Loc, i: usize) {
    let s = cx.read_idx(bounds, 2 * i) as usize;
    let e = cx.read_idx(bounds, 2 * i + 1) as usize;
    let mut h = 0u64;
    for k in s..e {
        let w = cx.read_idx(data, k);
        h = fp_mix(h, w as u64);
    }
    cx.write_idx(fps, i, (h & 0x7fff_ffff_ffff_ffff) as Word);
}

fn emit_record(
    cx: &mut Ctx<'_>,
    bounds: Loc,
    fps: Loc,
    firsts: Loc,
    i: usize,
    out: RedHandle<OstreamMonoid>,
) {
    let first = cx.read_idx(firsts, i);
    if first < 0 {
        let fp = cx.read_idx(fps, i);
        let s = cx.read_idx(bounds, 2 * i);
        let e = cx.read_idx(bounds, 2 * i + 1);
        out.emit(cx, &[TAG_DATA, fp, e - s]);
    } else {
        out.emit(cx, &[TAG_REF, first]);
    }
}

/// Serial reference: the expected record stream.
pub fn dedup_reference(input: &Stream) -> Vec<Vec<Word>> {
    let chunks = chunk_boundaries(&input.data);
    let mut table: std::collections::HashMap<Word, usize> = Default::default();
    let mut out = Vec::with_capacity(chunks.len());
    for (i, &(s, e)) in chunks.iter().enumerate() {
        let fp = fingerprint_words(&input.data[s..e]);
        match table.get(&fp) {
            Some(&j) => out.push(vec![TAG_REF, j as Word]),
            None => {
                table.insert(fp, i);
                out.push(vec![TAG_DATA, fp, (e - s) as Word]);
            }
        }
    }
    out
}

/// The benchmark at a given scale (paper input: PARSEC "medium"; here a
/// seeded stream with the same pipeline shape).
pub fn workload(scale: Scale) -> Workload {
    let blocks = match scale {
        Scale::Small => 16,
        Scale::Paper => 600,
    };
    let input = gen_stream(blocks, 0x646564);
    let expect = dedup_reference(&input);
    Workload {
        name: "dedup",
        run: Box::new(move |cx| {
            let (records, uniques) = dedup_program(cx, &input);
            assert_eq!(records as usize, expect.len());
            let expect_uniques = expect.iter().filter(|r| r[0] == TAG_DATA).count();
            assert_eq!(uniques as usize, expect_uniques);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::{BlockScript, SerialEngine, StealSpec};

    fn collect_output(spec: StealSpec, input: &Stream) -> Vec<Vec<Word>> {
        let mut out = Vec::new();
        SerialEngine::with_spec(spec).run(|cx| {
            // Re-run the program but collect the stream itself.
            let chunks = chunk_boundaries(&input.data);
            let _ = chunks;
            let (_r, _u) = dedup_program_collect(cx, input, &mut out);
        });
        out
    }

    fn dedup_program_collect(
        cx: &mut Ctx<'_>,
        input: &Stream,
        sink: &mut Vec<Vec<Word>>,
    ) -> (Word, Word) {
        // Same as dedup_program but exposes the collected records.
        dedup_program_inner(cx, input, Some(sink))
    }

    // Expose the record stream for validation without polluting the
    // public API: re-implement the tail of dedup_program.
    fn dedup_program_inner(
        cx: &mut Ctx<'_>,
        input: &Stream,
        sink: Option<&mut Vec<Vec<Word>>>,
    ) -> (Word, Word) {
        let chunks = chunk_boundaries(&input.data);
        let nchunks = chunks.len();
        let data = cx.alloc(input.data.len().max(1));
        for (i, &w) in input.data.iter().enumerate() {
            cx.write_idx(data, i, w);
        }
        let bounds = cx.alloc(2 * nchunks.max(1));
        for (i, &(s, e)) in chunks.iter().enumerate() {
            cx.write_idx(bounds, 2 * i, s as Word);
            cx.write_idx(bounds, 2 * i + 1, e as Word);
        }
        let fps = cx.alloc(nchunks.max(1));
        cx.par_for(0..nchunks as u64, 4, &mut |cx, i| {
            fingerprint_chunk(cx, data, bounds, fps, i as usize);
        });
        cx.sync();
        let mut table: std::collections::HashMap<Word, usize> = Default::default();
        let mut first_idx = vec![-1i64; nchunks];
        for (i, first) in first_idx.iter_mut().enumerate() {
            let fp = cx.read_idx(fps, i);
            match table.get(&fp) {
                Some(&j) => *first = j as Word,
                None => {
                    table.insert(fp, i);
                }
            }
        }
        let firsts = cx.alloc(nchunks.max(1));
        for (i, &f) in first_idx.iter().enumerate() {
            cx.write_idx(firsts, i, f);
        }
        let out = OstreamMonoid::register(cx);
        cx.par_for(0..nchunks as u64, 4, &mut |cx, i| {
            emit_record(cx, bounds, fps, firsts, i as usize, out);
        });
        cx.sync();
        if let Some(sink) = sink {
            *sink = out.collect(cx);
        }
        (out.records(cx), table.len() as Word)
    }

    #[test]
    fn output_matches_reference_in_order() {
        let input = gen_stream(12, 3);
        let got = collect_output(StealSpec::None, &input);
        assert_eq!(got, dedup_reference(&input));
    }

    #[test]
    fn output_spec_invariant() {
        let input = gen_stream(10, 5);
        let expect = dedup_reference(&input);
        for spec in [
            StealSpec::EveryBlock(BlockScript::steals(vec![1, 2])),
            StealSpec::Random {
                seed: 9,
                max_block: 4,
                steals_per_block: 2,
            },
        ] {
            assert_eq!(collect_output(spec, &input), expect);
        }
    }

    #[test]
    fn redundancy_actually_dedups() {
        let input = gen_stream(30, 7);
        let expect = dedup_reference(&input);
        let refs = expect.iter().filter(|r| r[0] == TAG_REF).count();
        assert!(refs > 0, "synthetic stream had no duplicate chunks");
    }

    #[test]
    fn detector_clean() {
        let input = gen_stream(8, 2);
        let v = crate::verdict(|cx| {
            dedup_program(cx, &input);
        });
        assert!(v.clean(), "{}", v.report);
    }
}
