//! Microbenchmark for the `PathEngine`: cold (first-sight) vs warm
//! (cache-hit) shortest-path query latency, plus the cost of an epoch-bump
//! invalidation.
//!
//! ```sh
//! cargo run --release --example path_engine
//! ```

use sof::graph::{generators, Cost, CostRange, NodeId, PathEngine, Rng64, ShortestPaths};
use std::time::Instant;

fn main() {
    let mut rng = Rng64::seed_from(0xBE7C);
    let g = generators::inet_like(2000, 4000, CostRange::new(1.0, 9.0), &mut rng);
    let sources: Vec<NodeId> = rng
        .sample_indices(2000, 64)
        .into_iter()
        .map(NodeId::new)
        .collect();

    println!(
        "# PathEngine on inet-like n={} m={}",
        g.node_count(),
        g.edge_count()
    );

    // Plain Dijkstra baseline: fresh allocation per query.
    let t = Instant::now();
    for &s in &sources {
        let sp = ShortestPaths::from_source(&g, s);
        std::hint::black_box(sp.dist(NodeId::new(0)));
    }
    let plain = t.elapsed();
    println!(
        "plain from_source      : {:>9.1?} total, {:>8.1?}/query",
        plain,
        plain / sources.len() as u32
    );

    // Cold engine: same Dijkstras plus one snapshot copy each.
    let engine = PathEngine::new();
    let t = Instant::now();
    for &s in &sources {
        let sp = engine.from_source(&g, s);
        std::hint::black_box(sp.dist(NodeId::new(0)));
    }
    let cold = t.elapsed();
    println!(
        "engine, cold (misses)  : {:>9.1?} total, {:>8.1?}/query",
        cold,
        cold / sources.len() as u32
    );

    // Warm engine: pure cache hits, zero O(n) work.
    const WARM_ROUNDS: u32 = 100;
    let t = Instant::now();
    for _ in 0..WARM_ROUNDS {
        for &s in &sources {
            let sp = engine.from_source(&g, s);
            std::hint::black_box(sp.dist(NodeId::new(0)));
        }
    }
    let warm = t.elapsed();
    println!(
        "engine, warm (hits)    : {:>9.1?} total, {:>8.1?}/query  ({}x queries)",
        warm,
        warm / (WARM_ROUNDS * sources.len() as u32),
        WARM_ROUNDS
    );
    println!("engine stats           : {:?}", engine.stats());

    // Invalidation: one cost bump stales the whole cache lazily.
    let mut g2 = g.clone();
    let t = Instant::now();
    g2.set_edge_cost(sof::graph::EdgeId::new(0), Cost::new(99.0));
    let bump = t.elapsed();
    let t = Instant::now();
    for &s in &sources {
        std::hint::black_box(engine.from_source(&g2, s).dist(NodeId::new(0)));
    }
    let refill = t.elapsed();
    println!("epoch bump             : {bump:>9.1?} (invalidates lazily); refill {refill:>9.1?}");
}
