//! The elimination's work on the shared Env2 fixture, pinned exactly:
//! the tile ranges it reads, the tiles its smallest-gap scans read, the
//! tiles phase 1 queues and the tiles whose max-gaps it computes. A change
//! that reads or computes more (or less) than before fails here even when
//! every estimate stays bit-identical.

use vire_bench::fixture;
use vire_core::elimination::EliminationWork;
use vire_core::Vire;

/// Per fixture tag at refine 10 (31 × 31 nodes, 64 tiles in 8 blocks,
/// 4 readers): `(range entries, scanned, queued, computed)`. The block
/// pass reads 4 · 2 · 8 = 64 range entries, every block a phase-1 or
/// smallest-gap search descends into 4 · 2 · 8 more (2 · 8 for one
/// reader's scan), and a scan reads 2 per block it visits.
const PINNED: [(usize, usize, usize, usize); 9] = [
    (622, 6, 4, 5),
    (376, 8, 2, 3),
    (358, 5, 2, 3),
    (288, 5, 1, 2),
    (412, 6, 2, 3),
    (280, 4, 0, 1),
    (226, 6, 0, 1),
    (328, 4, 1, 2),
    (188, 1, 0, 1),
];

#[test]
fn elimination_work_on_the_fixture_is_pinned() {
    let (map, tags) = fixture();
    let prepared = Vire::default().prepare(&map).expect("refine > 0");
    for ((_, reading), &(range_entries, scanned_tiles, queued_tiles, computed_tiles)) in
        tags.iter().zip(&PINNED)
    {
        let expected = EliminationWork {
            range_entries,
            scanned_tiles,
            queued_tiles,
            computed_tiles,
        };
        assert_eq!(prepared.elimination_work(reading), expected, "{reading:?}");
    }
    assert_eq!(tags.len(), PINNED.len());
}
