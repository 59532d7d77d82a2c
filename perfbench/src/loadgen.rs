//! The seeded query generator of `serve_topo`.
//!
//! A batch is a list of [`Item`]s over a pool of distinct grid queries:
//! first occurrences are misses on a fresh store, later occurrences are
//! repeats (hits), and a closing run of token items fetches entries that
//! earlier grid replies named. Batch `b` of seed `s` is a pure function
//! of `(s, b)`, so a claim measured on one seed can be rechecked on an
//! unused one; the program sees only the queries built from it.

use rendezvous_explore::spec_explorer;
use rendezvous_graph::{ErdosRenyiSpec, GraphSpec, RegularSpec, RingSpec, SeededSpec, TorusSpec};
use std::sync::Arc;

/// Label-space size of every grid query (x10's full setting).
pub const L: u64 = 6;
/// Scenario cap of every grid query: sixteen times x10's full setting,
/// so a query's sweep, not its connection and file system calls, is most
/// of its cost, a run depends less on how busy the host's kernel is, and
/// fewer connections are opened per second of a run.
pub const CAP: usize = 384;
/// Distinct grid queries per batch (both algorithms over 150 graphs).
pub const DISTINCT: usize = 300;
/// Repeats of earlier grid queries per batch.
pub const REPEATS: usize = 100;
/// Token queries per batch.
pub const TOKENS: usize = 50;

/// One distinct grid query.
#[derive(Debug, Clone, PartialEq)]
pub struct GridQuery {
    /// `cheap` or `fast`.
    pub algorithm: &'static str,
    /// The topology.
    pub spec: GraphSpec,
}

/// One query of a batch, by index into [`Batch::grids`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// A grid query (a miss the first time, a hit after).
    Grid(usize),
    /// A token query for the entry grid query `i` created.
    Token(usize),
}

/// One batch of the closed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The distinct grid queries.
    pub grids: Vec<GridQuery>,
    /// Grid items in send order; every repeat follows its first use.
    pub grid_items: Vec<Item>,
    /// Token items, sent once every grid item has been answered.
    pub token_items: Vec<Item>,
}

/// splitmix64: a small, fully specified generator, so the query list
/// depends on nothing outside this file.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, batch: u64) -> Rng {
        let mut rng = Rng(seed ^ batch.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next();
        rng
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A spec of family `family` (0..6, x10's six families at x10's full
/// sizes) with a random size and seed. Specs that do not build, or
/// have no explorer, are redrawn — no generated query is malformed.
fn spec(rng: &mut Rng, family: u64) -> GraphSpec {
    loop {
        let seed = rng.below(1 << 20);
        let spec = match family {
            0 => GraphSpec::ScrambledRing(SeededSpec {
                n: 8 + rng.below(5) as usize,
                seed,
            }),
            1 => GraphSpec::Tree(SeededSpec {
                n: 8 + rng.below(5) as usize,
                seed,
            }),
            2 => GraphSpec::ErdosRenyi(ErdosRenyiSpec {
                n: 8 + rng.below(3) as usize,
                edge_permille: 300 + 100 * rng.below(3) as u32,
                seed,
            }),
            3 => GraphSpec::Regular(RegularSpec {
                n: 8 + 2 * rng.below(3) as usize,
                d: 3,
                seed,
            }),
            4 => GraphSpec::permuted(
                GraphSpec::Ring(RingSpec {
                    n: 8 + rng.below(5) as usize,
                }),
                seed,
            ),
            _ => GraphSpec::permuted(
                GraphSpec::Torus(TorusSpec {
                    w: 3,
                    h: 3 + rng.below(2) as usize,
                }),
                seed,
            ),
        };
        let sound = spec
            .build()
            .ok()
            .is_some_and(|g| spec_explorer(&spec, Arc::new(g)).is_ok());
        if sound {
            return spec;
        }
    }
}

/// Batch `batch` of seed `seed`.
#[must_use]
pub fn batch(seed: u64, batch: u64) -> Batch {
    let mut rng = Rng::new(seed, batch);
    let mut grids = Vec::with_capacity(DISTINCT);
    for i in 0..DISTINCT / 2 {
        let spec = spec(&mut rng, i as u64 % 6);
        grids.push(GridQuery {
            algorithm: "cheap",
            spec: spec.clone(),
        });
        grids.push(GridQuery {
            algorithm: "fast",
            spec,
        });
    }
    // Shuffle the distinct queries, then insert each repeat at a random
    // position after its first use.
    for i in (1..grids.len()).rev() {
        grids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut grid_items: Vec<Item> = (0..grids.len()).map(Item::Grid).collect();
    for _ in 0..REPEATS {
        let source = rng.below(grids.len() as u64) as usize;
        let first = grid_items
            .iter()
            .position(|&it| it == Item::Grid(source))
            .expect("every grid is listed");
        let at = first + 1 + rng.below((grid_items.len() - first) as u64) as usize;
        grid_items.insert(at, Item::Grid(source));
    }
    let token_items = (0..TOKENS)
        .map(|_| Item::Token(rng.below(grids.len() as u64) as usize))
        .collect();
    Batch {
        grids,
        grid_items,
        token_items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_queries_other_seed_other_queries() {
        assert_eq!(batch(7, 0), batch(7, 0));
        assert_eq!(batch(7, 3), batch(7, 3));
        assert_ne!(batch(7, 0), batch(8, 0));
        assert_ne!(batch(7, 0), batch(7, 1));
    }

    #[test]
    fn batches_have_the_documented_shape() {
        let b = batch(1, 0);
        assert_eq!(b.grids.len(), DISTINCT);
        assert_eq!(b.grid_items.len(), DISTINCT + REPEATS);
        assert_eq!(b.token_items.len(), TOKENS);
        let families: std::collections::BTreeSet<String> =
            b.grids.iter().map(|g| g.spec.family()).collect();
        assert_eq!(families.len(), 6, "every family appears: {families:?}");
        for (i, &item) in b.grid_items.iter().enumerate() {
            let Item::Grid(g) = item else {
                panic!("token item among grid items")
            };
            let first = b.grid_items.iter().position(|&x| x == Item::Grid(g));
            assert!(first.is_some_and(|f| f <= i));
        }
    }
}
