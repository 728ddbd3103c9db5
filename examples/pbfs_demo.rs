//! Parallel BFS with the pennant-bag reducer, checked by `rader::core::check`.
//!
//! ```sh
//! cargo run --release --example pbfs_demo
//! ```

use rader::core::{check, CoverageOptions, SweepControl};
use rader::workloads::pbfs;
use rader_cilk::{BlockScript, SerialEngine, StealSpec};

fn main() {
    let g = pbfs::gen_graph(2_000, 5, 42);
    println!(
        "graph: |V| = {}, |E| = {} (seeded random + backbone)",
        g.n(),
        g.m()
    );

    // Run BFS and validate against the serial reference.
    let expect = pbfs::pbfs_reference(&g, 0);
    let mut got = -1;
    let stats = SerialEngine::new().run(|cx| got = pbfs::pbfs_program(cx, &g, 0));
    assert_eq!(got, expect);
    println!(
        "BFS distance checksum {got} matches reference \
         ({} frames, {} strands, {} reducer updates)",
        stats.frames, stats.strands, stats.updates
    );

    // Same answer under simulated steals (the reducer contract).
    let spec = StealSpec::EveryBlock(BlockScript::steals(vec![1, 2]));
    let mut got2 = -1;
    let stats2 = SerialEngine::with_spec(spec).run(|cx| {
        got2 = pbfs::pbfs_program(cx, &g, 0);
    });
    assert_eq!(got2, expect);
    println!(
        "same checksum with {} simulated steals and {} reduce strands",
        stats2.steals, stats2.reduce_merges
    );

    // The verdict comes back clean on a smaller instance: Peer-Set on the
    // serial run, SP+ under every Section-7 steal specification.
    let small = pbfs::gen_graph(200, 4, 7);
    let program = |cx: &mut rader_cilk::Ctx<'_>| {
        pbfs::pbfs_program(cx, &small, 0);
    };
    let (opts, ctl) = (CoverageOptions::default(), SweepControl::default());
    let verdict = check(program, &opts, 1, &ctl).expect("no journal is configured");
    assert!(verdict.clean(), "{}", verdict.report);
    println!(
        "check: no view-read races, and no determinacy races in {} SP+ runs (K = {}, M = {})",
        verdict.sweep.runs, verdict.sweep.k, verdict.sweep.m
    );

    println!("pbfs_demo OK");
}
