//! `ferret` — content-based image similarity search with an
//! output-stream reducer (the paper's PARSEC `ferret` port, "large"
//! input).
//!
//! The PARSEC pipeline extracts feature vectors from images and ranks a
//! corpus by similarity to each query. Here images are synthetic feature
//! vectors; a parallel loop over the corpus computes dot-product
//! similarities against every query and emits `(query, image, score)`
//! hits above a threshold through a `reducer_ostream`, assembled in
//! corpus order. Per-query best matches are tracked with `ArgMax`
//! reducers on the side.

use rader_cilk::{Ctx, Loc, Word};
use rader_reducers::{ArgMax, Monoid, OstreamMonoid, RedHandle};
use rader_rng::Rng;

use crate::{Scale, Workload};

/// Feature dimensionality.
pub const DIM: usize = 16;

/// A corpus plus queries.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// `n × DIM` features, values in `[-8, 8]`.
    pub images: Vec<[Word; DIM]>,
    /// Query feature vectors.
    pub queries: Vec<[Word; DIM]>,
    /// Similarity threshold for emitting a hit.
    pub threshold: Word,
}

/// Seeded corpus generator; some images are noisy copies of queries so
/// hits exist.
pub fn gen_corpus(n: usize, nqueries: usize, seed: u64) -> Corpus {
    let mut rng = Rng::seed_from_u64(seed);
    let gen_vec = |rng: &mut Rng| {
        let mut v = [0i64; DIM];
        for x in v.iter_mut() {
            *x = rng.gen_range(-8..=8);
        }
        v
    };
    let queries: Vec<[Word; DIM]> = (0..nqueries).map(|_| gen_vec(&mut rng)).collect();
    let images = (0..n)
        .map(|_| {
            if rng.gen_bool(0.2) {
                // A near-duplicate of some query.
                let mut v = queries[rng.gen_range(0..nqueries)];
                for x in v.iter_mut() {
                    *x += rng.gen_range(-1..=1);
                }
                v
            } else {
                gen_vec(&mut rng)
            }
        })
        .collect();
    Corpus {
        images,
        queries,
        threshold: 200,
    }
}

fn dot(a: &[Word], b: &[Word]) -> Word {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The Cilk program: returns `(hits, best-score checksum)`.
pub fn ferret_program(cx: &mut Ctx<'_>, corpus: &Corpus) -> (Word, Word) {
    let n = corpus.images.len();
    let q = corpus.queries.len();
    let images = cx.alloc(n * DIM);
    for (i, img) in corpus.images.iter().enumerate() {
        for (k, &x) in img.iter().enumerate() {
            cx.write_idx(images, i * DIM + k, x);
        }
    }
    let queries = cx.alloc(q * DIM);
    for (i, qv) in corpus.queries.iter().enumerate() {
        for (k, &x) in qv.iter().enumerate() {
            cx.write_idx(queries, i * DIM + k, x);
        }
    }
    let out = OstreamMonoid::register(cx);
    let bests: Vec<RedHandle<ArgMax>> = (0..q).map(|_| ArgMax::register(cx)).collect();
    let bests_arc = std::sync::Arc::new(bests);
    let threshold = corpus.threshold;
    let bests2 = bests_arc.clone();
    cx.par_for(0..n as u64, 2, &mut |cx, i| {
        rank_image(cx, images, queries, q, i as usize, threshold, out, &bests2);
    });
    cx.sync();
    let hits = out.records(cx);
    let mut checksum = 0;
    for b in bests_arc.iter() {
        checksum += b.best_value_or(cx, 0);
    }
    (hits, checksum)
}

#[allow(clippy::too_many_arguments)]
fn rank_image(
    cx: &mut Ctx<'_>,
    images: Loc,
    queries: Loc,
    q: usize,
    i: usize,
    threshold: Word,
    out: RedHandle<OstreamMonoid>,
    bests: &[RedHandle<ArgMax>],
) {
    let mut img = [0i64; DIM];
    for (k, x) in img.iter_mut().enumerate() {
        *x = cx.read_idx(images, i * DIM + k);
    }
    for (qi, best) in bests.iter().enumerate().take(q) {
        let mut qv = [0i64; DIM];
        for (k, x) in qv.iter_mut().enumerate() {
            *x = cx.read_idx(queries, qi * DIM + k);
        }
        let score = dot(&img, &qv);
        if score >= threshold {
            out.emit(cx, &[qi as Word, i as Word, score]);
        }
        best.offer(cx, score, i as Word);
    }
}

/// Serial reference: `(ordered hit list, best-score checksum)`.
pub fn ferret_reference(corpus: &Corpus) -> (Vec<Vec<Word>>, Word) {
    let mut hits = Vec::new();
    let mut best = vec![Word::MIN; corpus.queries.len()];
    for (i, img) in corpus.images.iter().enumerate() {
        for (qi, qv) in corpus.queries.iter().enumerate() {
            let score = dot(img, qv);
            if score >= corpus.threshold {
                hits.push(vec![qi as Word, i as Word, score]);
            }
            if score > best[qi] {
                best[qi] = score;
            }
        }
    }
    (hits, best.iter().sum())
}

/// The benchmark at a given scale (paper input: PARSEC "large"; here a
/// synthetic corpus with the same search shape).
pub fn workload(scale: Scale) -> Workload {
    let (n, q) = match scale {
        Scale::Small => (60, 4),
        Scale::Paper => (1200, 8),
    };
    let corpus = gen_corpus(n, q, 0x666572);
    let (expect_hits, expect_sum) = ferret_reference(&corpus);
    Workload {
        name: "ferret",
        run: Box::new(move |cx| {
            let (hits, checksum) = ferret_program(cx, &corpus);
            assert_eq!(hits as usize, expect_hits.len());
            assert_eq!(checksum, expect_sum);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::{BlockScript, SerialEngine, StealSpec};

    #[test]
    fn hits_and_checksum_match_reference() {
        let corpus = gen_corpus(40, 3, 1);
        let (expect_hits, expect_sum) = ferret_reference(&corpus);
        assert!(!expect_hits.is_empty(), "degenerate corpus: no hits");
        let mut got = (0, 0);
        SerialEngine::new().run(|cx| got = ferret_program(cx, &corpus));
        assert_eq!(got.0 as usize, expect_hits.len());
        assert_eq!(got.1, expect_sum);
    }

    #[test]
    fn spec_invariant() {
        let corpus = gen_corpus(30, 3, 2);
        let mut base = (0, 0);
        SerialEngine::new().run(|cx| base = ferret_program(cx, &corpus));
        for spec in [
            StealSpec::EveryBlock(BlockScript::steals(vec![1])),
            StealSpec::Random {
                seed: 4,
                max_block: 2,
                steals_per_block: 1,
            },
        ] {
            let mut got = (0, 0);
            SerialEngine::with_spec(spec).run(|cx| got = ferret_program(cx, &corpus));
            assert_eq!(got, base);
        }
    }

    #[test]
    fn detector_clean() {
        let corpus = gen_corpus(20, 2, 3);
        let v = crate::verdict(|cx| {
            ferret_program(cx, &corpus);
        });
        assert!(v.clean(), "{}", v.report);
    }
}
