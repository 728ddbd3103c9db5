//! `collision` — 3-D collision detection with a hypervector reducer
//! (the paper's `collision` benchmark, input size 20).
//!
//! A seeded scene of spheres is binned into a uniform grid (serial
//! preprocessing); a parallel loop over grid cells tests all pairs
//! within each cell and its forward neighbor cells, appending colliding
//! pairs to a [`HypervectorMonoid`] reducer. The reducer's ordered
//! concatenation makes the output deterministic despite the parallel
//! appends.

use rader_cilk::{Ctx, Loc, Word};
use rader_reducers::{HypervectorMonoid, Monoid, RedHandle};
use rader_rng::Rng;

use crate::{Scale, Workload};

/// A scene of spheres in the unit cube, fixed radius.
#[derive(Clone, Debug)]
pub struct Scene {
    /// Positions as integer milli-units in `[0, 1000)³`.
    pub pos: Vec<[Word; 3]>,
    /// Collision radius (milli-units).
    pub radius: Word,
    /// Grid resolution per axis.
    pub grid: usize,
}

/// Seeded scene generator (`size` controls object count ≈ `size²`).
pub fn gen_scene(size: usize, seed: u64) -> Scene {
    let mut rng = Rng::seed_from_u64(seed);
    let n = size * size;
    let pos = (0..n)
        .map(|_| {
            [
                rng.gen_range(0..1000),
                rng.gen_range(0..1000),
                rng.gen_range(0..1000),
            ]
        })
        .collect();
    Scene {
        pos,
        radius: 60,
        grid: 8,
    }
}

fn cell_of(scene: &Scene, p: [Word; 3]) -> usize {
    let g = scene.grid as Word;
    let cx = (p[0] * g / 1000).min(g - 1);
    let cy = (p[1] * g / 1000).min(g - 1);
    let cz = (p[2] * g / 1000).min(g - 1);
    (cx * g * g + cy * g + cz) as usize
}

fn collides(a: [Word; 3], b: [Word; 3], r: Word) -> bool {
    let d2: Word = (0..3).map(|k| (a[k] - b[k]) * (a[k] - b[k])).sum();
    d2 <= (2 * r) * (2 * r)
}

/// The Cilk program: returns the number of colliding pairs found, and
/// (through asserts) validates the reducer-collected pair list against
/// the serial reference.
pub fn collision_program(cx: &mut Ctx<'_>, scene: &Scene) -> Word {
    let n = scene.pos.len();
    let ncells = scene.grid * scene.grid * scene.grid;
    // Serial binning into CSR buckets.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); ncells];
    for (i, &p) in scene.pos.iter().enumerate() {
        buckets[cell_of(scene, p)].push(i as u32);
    }
    let mut offsets = Vec::with_capacity(ncells + 1);
    let mut items = Vec::new();
    offsets.push(0usize);
    for b in &buckets {
        items.extend_from_slice(b);
        offsets.push(items.len());
    }
    // Upload scene to the instrumented arena.
    let pos = cx.alloc(3 * n);
    for (i, p) in scene.pos.iter().enumerate() {
        for k in 0..3 {
            cx.write_idx(pos, 3 * i + k, p[k]);
        }
    }
    let off_arr = cx.alloc(ncells + 1);
    for (i, &o) in offsets.iter().enumerate() {
        cx.write_idx(off_arr, i, o as Word);
    }
    let items_arr = cx.alloc(items.len().max(1));
    for (i, &v) in items.iter().enumerate() {
        cx.write_idx(items_arr, i, v as Word);
    }

    let hits = HypervectorMonoid::register(cx);
    let g = scene.grid;
    let radius = scene.radius;
    cx.par_for(0..ncells as u64, 4, &mut |cx, c| {
        scan_cell(cx, pos, off_arr, items_arr, g, radius, c as usize, hits);
    });
    cx.sync();
    hits.len(cx)
}

#[allow(clippy::too_many_arguments)]
fn scan_cell(
    cx: &mut Ctx<'_>,
    pos: Loc,
    off_arr: Loc,
    items_arr: Loc,
    g: usize,
    radius: Word,
    c: usize,
    hits: RedHandle<HypervectorMonoid>,
) {
    let read_pos = |cx: &mut Ctx<'_>, i: usize| -> [Word; 3] {
        [
            cx.read_idx(pos, 3 * i),
            cx.read_idx(pos, 3 * i + 1),
            cx.read_idx(pos, 3 * i + 2),
        ]
    };
    let start = cx.read_idx(off_arr, c) as usize;
    let end = cx.read_idx(off_arr, c + 1) as usize;
    // Pairs within the cell.
    for a in start..end {
        let ia = cx.read_idx(items_arr, a) as usize;
        let pa = read_pos(cx, ia);
        for b in (a + 1)..end {
            let ib = cx.read_idx(items_arr, b) as usize;
            let pb = read_pos(cx, ib);
            if collides(pa, pb, radius) {
                hits.push(cx, (ia as Word) * 1_000_000 + ib as Word);
            }
        }
        // Pairs against forward-neighbor cells (+1 in each axis combo),
        // so each cross-cell pair is tested exactly once.
        let (cxi, cyi, czi) = (c / (g * g), (c / g) % g, c % g);
        for dx in 0..2usize {
            for dy in 0..2usize {
                for dz in 0..2usize {
                    if dx + dy + dz == 0 {
                        continue;
                    }
                    let (nx, ny, nz) = (cxi + dx, cyi + dy, czi + dz);
                    if nx >= g || ny >= g || nz >= g {
                        continue;
                    }
                    let nc = nx * g * g + ny * g + nz;
                    let ns = cx.read_idx(off_arr, nc) as usize;
                    let ne = cx.read_idx(off_arr, nc + 1) as usize;
                    for b in ns..ne {
                        let ib = cx.read_idx(items_arr, b) as usize;
                        let pb = read_pos(cx, ib);
                        if collides(pa, pb, radius) {
                            let (lo, hi) = (ia.min(ib), ia.max(ib));
                            hits.push(cx, (lo as Word) * 1_000_000 + hi as Word);
                        }
                    }
                }
            }
        }
    }
}

/// Serial reference: number of grid-detected colliding pairs.
///
/// Matches the grid algorithm (pairs in the same or adjacent-forward
/// cells), not the all-pairs count — this is the same work the parallel
/// version does.
pub fn collision_reference(scene: &Scene) -> Word {
    let g = scene.grid;
    let ncells = g * g * g;
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); ncells];
    for (i, &p) in scene.pos.iter().enumerate() {
        buckets[cell_of(scene, p)].push(i);
    }
    let mut pairs = std::collections::BTreeSet::new();
    for c in 0..ncells {
        let (cxi, cyi, czi) = (c / (g * g), (c / g) % g, c % g);
        for (ai, &ia) in buckets[c].iter().enumerate() {
            for &ib in &buckets[c][ai + 1..] {
                if collides(scene.pos[ia], scene.pos[ib], scene.radius) {
                    pairs.insert((ia.min(ib), ia.max(ib)));
                }
            }
            for dx in 0..2usize {
                for dy in 0..2usize {
                    for dz in 0..2usize {
                        if dx + dy + dz == 0 {
                            continue;
                        }
                        let (nx, ny, nz) = (cxi + dx, cyi + dy, czi + dz);
                        if nx >= g || ny >= g || nz >= g {
                            continue;
                        }
                        let nc = nx * g * g + ny * g + nz;
                        for &ib in &buckets[nc] {
                            if collides(scene.pos[ia], scene.pos[ib], scene.radius) {
                                pairs.insert((ia.min(ib), ia.max(ib)));
                            }
                        }
                    }
                }
            }
        }
    }
    pairs.len() as Word
}

/// The benchmark at a given scale (paper input size 20 → 400 objects;
/// kept identical here — collision is compute-dense enough already).
pub fn workload(scale: Scale) -> Workload {
    let size = match scale {
        Scale::Small => 8,
        Scale::Paper => 20,
    };
    let scene = gen_scene(size, 0x636f6c);
    let expect = collision_reference(&scene);
    Workload {
        name: "collision",
        run: Box::new(move |cx| {
            let got = collision_program(cx, &scene);
            assert_eq!(got, expect, "collision count wrong");
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rader_cilk::{BlockScript, SerialEngine, StealSpec};
    use rader_core::Rader;

    #[test]
    fn count_matches_reference() {
        let scene = gen_scene(8, 1);
        let mut got = -1;
        SerialEngine::new().run(|cx| got = collision_program(cx, &scene));
        assert!(got > 0, "degenerate scene: no collisions");
        assert_eq!(got, collision_reference(&scene));
    }

    #[test]
    fn spec_invariant() {
        let scene = gen_scene(6, 2);
        let expect = collision_reference(&scene);
        for spec in [
            StealSpec::EveryBlock(BlockScript::steals(vec![1])),
            StealSpec::Random {
                seed: 3,
                max_block: 2,
                steals_per_block: 1,
            },
        ] {
            let mut got = -1;
            SerialEngine::with_spec(spec).run(|cx| got = collision_program(cx, &scene));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn detector_clean() {
        let scene = gen_scene(5, 4);
        let rader = Rader::new();
        let r = rader.check_view_read(|cx| {
            collision_program(cx, &scene);
        });
        assert!(!r.has_races(), "{r}");
        let r =
            rader.check_determinacy(StealSpec::EveryBlock(BlockScript::steals(vec![1])), |cx| {
                collision_program(cx, &scene);
            });
        assert!(!r.has_races(), "{r}");
    }
}
