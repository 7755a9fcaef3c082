//! Pins the exact counts of the alias analysis's optimization clients
//! over the whole benchmark suite at the tables' default scale: Table 6's
//! hoisted and eliminated loads, the must/may load availability the limit
//! study reads, Figure 10's category counts, and what PRE and DSE do.
//!
//! `paper_claims.rs` checks only orderings, and the differential suites
//! compare RLE with itself (the `rle` oracle in `tbaa_bench::load` calls
//! the same `run_rle`), so a slip in the shared dataflow would pass them.
//! It would not pass these numbers.

use tbaa_repro::alias::{Level, NoAlias, Tbaa, World};
use tbaa_repro::benchsuite::{suite, Benchmark};
use tbaa_repro::ir::ir::Program;
use tbaa_repro::opt::dse::run_dse;
use tbaa_repro::opt::pre::run_rle_with_pre;
use tbaa_repro::opt::rle::{availability_sites, run_rle};

const SCALE: u32 = tbaa_bench::DEFAULT_SCALE;

type Table6Row = (&'static str, [(usize, usize); 3]);
type AvailabilityRow = (&'static str, [(usize, usize, usize); 4]);
type PreDseRow = (&'static str, (usize, usize, usize, usize), usize);
type Fig10Row = (&'static str, [u64; 5], u64);

/// `(hoisted, eliminated)` per program under `Level::ALL`, closed world.
const TABLE6: [Table6Row; 10] = [
    ("format", [(2, 4), (2, 4), (2, 4)]),
    ("dformat", [(0, 2), (0, 3), (0, 3)]),
    ("write-pickle", [(0, 2), (0, 3), (0, 3)]),
    ("ktree", [(1, 4), (1, 6), (1, 6)]),
    ("slisp", [(0, 6), (1, 8), (1, 8)]),
    ("pp", [(1, 8), (1, 10), (1, 10)]),
    ("dom", [(1, 6), (2, 7), (2, 7)]),
    ("postcard", [(0, 7), (0, 7), (0, 7)]),
    ("m2tom3", [(4, 4), (4, 6), (4, 6)]),
    ("m3cg", [(0, 2), (0, 5), (0, 5)]),
];

/// `(load sites, must-available, may- but not must-available)` on the
/// unoptimized program per `Level::ALL` (closed world), then under the
/// perfect-alias oracle.
const AVAILABILITY: [AvailabilityRow; 10] = [
    ("format", [(21, 4, 5), (21, 4, 7), (21, 4, 7), (21, 4, 7)]),
    ("dformat", [(17, 2, 0), (17, 3, 0), (17, 3, 0), (17, 3, 0)]),
    (
        "write-pickle",
        [(16, 2, 0), (16, 3, 0), (16, 3, 0), (16, 4, 0)],
    ),
    ("ktree", [(13, 4, 2), (13, 6, 0), (13, 6, 0), (13, 6, 0)]),
    ("slisp", [(34, 6, 2), (34, 8, 3), (34, 8, 3), (34, 9, 3)]),
    ("pp", [(31, 8, 2), (31, 10, 2), (31, 10, 2), (31, 11, 1)]),
    ("dom", [(30, 6, 2), (30, 7, 1), (30, 7, 1), (30, 7, 1)]),
    ("postcard", [(25, 7, 0), (25, 7, 0), (25, 7, 0), (25, 7, 0)]),
    ("m2tom3", [(29, 4, 4), (29, 6, 5), (29, 6, 5), (29, 6, 5)]),
    ("m3cg", [(48, 2, 3), (48, 5, 7), (48, 5, 7), (48, 6, 6)]),
];

/// `run_rle_with_pre` at SMFieldTypeRefs, closed world: `(hoisted,
/// eliminated, inserted, eliminated after insertion)`; then the stores
/// `run_dse` removes from the unoptimized program.
const PRE_DSE: [PreDseRow; 10] = [
    ("format", (2, 4, 0, 0), 0),
    ("dformat", (0, 3, 0, 0), 0),
    ("write-pickle", (0, 3, 0, 0), 0),
    ("ktree", (1, 6, 0, 0), 0),
    ("slisp", (1, 8, 0, 0), 0),
    ("pp", (1, 11, 1, 1), 0),
    ("dom", (2, 7, 0, 0), 0),
    ("postcard", (0, 7, 0, 0), 0),
    ("m2tom3", (4, 7, 1, 1), 0),
    ("m3cg", (0, 9, 7, 4), 0),
];

/// Figure 10: dynamic redundant loads left after RLE, by category
/// (encapsulated, conditional, breakup, alias failure, rest), and the
/// original program's heap loads. Each bar is a count over the
/// denominator, so pinning both pins the five fractions exactly.
const FIG10: [Fig10Row; 8] = [
    ("format", [0, 865, 0, 0, 0], 8329),
    ("dformat", [0, 0, 0, 0, 0], 3511),
    ("write-pickle", [0, 0, 0, 0, 0], 17518),
    ("ktree", [0, 0, 0, 0, 0], 11421),
    ("slisp", [0, 118, 0, 0, 0], 74742),
    ("pp", [787, 310, 0, 0, 0], 6607),
    ("m2tom3", [14392, 0, 0, 0, 0], 134460),
    ("m3cg", [0, 0, 0, 0, 1428], 35906),
];

fn compile(b: &Benchmark) -> Program {
    b.compile(SCALE).expect("suite program compiles")
}

fn closed(prog: &Program, level: Level) -> Tbaa {
    Tbaa::build(prog, level, World::Closed)
}

#[test]
fn table6_hoisted_and_eliminated_per_program_and_level() {
    let got: Vec<Table6Row> = suite()
        .iter()
        .map(|b| {
            let row = Level::ALL.map(|level| {
                let mut prog = compile(b);
                let a = closed(&prog, level);
                let s = run_rle(&mut prog, &a);
                (s.hoisted, s.eliminated)
            });
            (b.name, row)
        })
        .collect();
    assert_eq!(got, TABLE6);
}

#[test]
fn must_and_may_availability_per_program() {
    let tally = |prog: &mut Program, analysis: &dyn tbaa_repro::alias::AliasAnalysis| {
        let sites = availability_sites(prog, analysis);
        let must = sites.values().filter(|s| s.must).count();
        let may_only = sites.values().filter(|s| s.may && !s.must).count();
        (sites.len(), must, may_only)
    };
    let got: Vec<AvailabilityRow> = suite()
        .iter()
        .map(|b| {
            let mut row = [(0, 0, 0); 4];
            for (slot, level) in row.iter_mut().zip(Level::ALL) {
                let mut prog = compile(b);
                let a = closed(&prog, level);
                *slot = tally(&mut prog, &a);
            }
            row[3] = tally(&mut compile(b), &NoAlias);
            (b.name, row)
        })
        .collect();
    assert_eq!(got, AVAILABILITY);
}

#[test]
fn pre_and_dse_counts_per_program() {
    let got: Vec<PreDseRow> = suite()
        .iter()
        .map(|b| {
            let mut prog = compile(b);
            let a = closed(&prog, Level::SmFieldTypeRefs);
            let (rle, pre) = run_rle_with_pre(&mut prog, &a);
            let mut prog = compile(b);
            let a = closed(&prog, Level::SmFieldTypeRefs);
            let dse = run_dse(&mut prog, &a);
            (
                b.name,
                (
                    rle.hoisted,
                    rle.eliminated,
                    pre.inserted,
                    pre.eliminated_after,
                ),
                dse.removed,
            )
        })
        .collect();
    assert_eq!(got, PRE_DSE);
}

#[test]
fn fig10_categories_per_program() {
    let got: Vec<Fig10Row> = tbaa_bench::fig10(SCALE)
        .iter()
        .map(|r| {
            let b = r.breakdown;
            (
                r.name,
                [
                    b.encapsulated,
                    b.conditional,
                    b.breakup,
                    b.alias_failure,
                    b.rest,
                ],
                r.original_heap_loads,
            )
        })
        .collect();
    assert_eq!(got, FIG10);
}
