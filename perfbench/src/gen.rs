//! Seeded input generators. The daemon only ever sees the lines built
//! from these; the seed stays on the benchmark's side.
//!
//! * [`EditCorpus`] — superseding versions of the ten benchsuite
//!   programs, as an editor would save them: one literal bumped inside
//!   one procedure (or the module body), and every fifth edit of a
//!   program a module-level constant change that re-lowers every unit.
//! * [`large_program`] — MiniM3 modules of one size class above
//!   `DENSE_LIMIT` interned access paths, with dozens of procedures.
//! * Request-line builders for the wire protocol.

use std::ops::Range;

use tbaa::analysis::Level;
use tbaa::World;
use tbaa_bench::rng::XorShift64;
use tbaa_server::json::Value;
use tbaa_server::proto;

/// Workload scale of every benchsuite program the benchmark loads.
pub const SUITE_SCALE: u32 = proto::DEFAULT_SCALE;

/// Every `(level, world)` the query workloads address.
pub const LEVEL_WORLDS: [(Level, World); 6] = [
    (Level::TypeDecl, World::Closed),
    (Level::TypeDecl, World::Open),
    (Level::FieldTypeDecl, World::Closed),
    (Level::FieldTypeDecl, World::Open),
    (Level::SmFieldTypeRefs, World::Closed),
    (Level::SmFieldTypeRefs, World::Open),
];

// ---- benchsuite edit corpus ------------------------------------------------

/// One benchsuite program prepared for editing.
struct EditableProgram {
    base: String,
    /// Byte ranges of the integer literals inside procedure bodies and
    /// the module body, outside brackets, strings and comments. Bumping
    /// one changes exactly one incremental-compile unit.
    literals: Vec<Range<usize>>,
    /// Byte offset just past the `MODULE Name;` line, where the
    /// module-level `EditGen` constant goes.
    header_end: usize,
    /// Current bump per literal.
    bumps: Vec<u64>,
    /// Module-level generation; 0 means no `EditGen` constant yet.
    generation: u64,
    /// Versions made so far.
    edits: u64,
}

/// One saved version of one program.
pub struct Version {
    /// Index into [`suite_names`].
    pub program: usize,
    /// How many earlier versions of this program the corpus made.
    pub nth: u64,
    /// The full source of this version.
    pub source: String,
}

/// The benchsuite program names, in suite order.
pub fn suite_names() -> Vec<&'static str> {
    tbaa_benchsuite::suite().iter().map(|b| b.name).collect()
}

/// A deterministic, never-repeating sequence of program versions.
/// Programs are edited in seeded rounds that visit each program once, so
/// every run edits all ten equally often. Every fifth edit of a program
/// changes a module-level constant; the others bump one seeded literal.
/// Every bump is an increase, so no version repeats an earlier content.
pub struct EditCorpus {
    rng: XorShift64,
    programs: Vec<EditableProgram>,
    round: Vec<usize>,
}

impl EditCorpus {
    /// The corpus for `seed`.
    pub fn new(seed: u64) -> Self {
        let programs = tbaa_benchsuite::suite()
            .iter()
            .map(|b| {
                let base = b.source_at_scale(SUITE_SCALE);
                let literals = editable_literals(&base);
                let header_end = module_header_end(&base);
                EditableProgram {
                    bumps: vec![0; literals.len()],
                    base,
                    literals,
                    header_end,
                    generation: 0,
                    edits: 0,
                }
            })
            .collect();
        EditCorpus {
            rng: XorShift64::new(seed ^ 0x6564_6974_7375_6974), // "editsuit"
            programs,
            round: Vec::new(),
        }
    }

    /// The unedited source of program `i`.
    pub fn base(&self, i: usize) -> &str {
        &self.programs[i].base
    }

    /// The next version.
    pub fn next_version(&mut self) -> Version {
        if self.round.is_empty() {
            self.round = (0..self.programs.len()).rev().collect();
            shuffle(&mut self.rng, &mut self.round);
        }
        let program = self.round.pop().expect("round refilled above");
        let p = &mut self.programs[program];
        let nth = p.edits;
        p.edits += 1;
        // Every fifth edit of a program is module-level, so every seed
        // has the same share of whole-program re-lowers.
        if nth % 5 == 4 || p.literals.is_empty() {
            p.generation += 1;
        } else {
            let lit = self.rng.index(p.literals.len());
            p.bumps[lit] += 1 + self.rng.below(9);
        }
        Version {
            program,
            nth,
            source: render(p, &p.bumps, p.generation),
        }
    }
}

fn render(p: &EditableProgram, bumps: &[u64], generation: u64) -> String {
    let mut out = String::with_capacity(p.base.len() + 32);
    out.push_str(&p.base[..p.header_end]);
    if generation > 0 {
        out.push_str(&format!("\nCONST\n  EditGen = {generation};\n"));
    }
    let mut at = p.header_end;
    for (range, bump) in p.literals.iter().zip(bumps) {
        out.push_str(&p.base[at..range.start]);
        if *bump == 0 {
            out.push_str(&p.base[range.clone()]);
        } else {
            let value: u64 = p.base[range.clone()].parse().expect("literal is decimal");
            out.push_str(&(value + bump).to_string());
        }
        at = range.end;
    }
    out.push_str(&p.base[at..]);
    out
}

/// Fisher–Yates with the benchmark's seeded generator.
pub fn shuffle<T>(rng: &mut XorShift64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

fn module_header_end(src: &str) -> usize {
    let start = src.find("MODULE ").expect("a MiniM3 module");
    start + src[start..].find('\n').expect("module line ends") + 1
}

/// Integer literals inside procedure bodies and the module body,
/// skipping comments, strings, character literals and anything inside
/// square brackets (array bounds and subscripts).
fn editable_literals(src: &str) -> Vec<Range<usize>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut in_body = false;
    let mut at = 0;
    for line in src.split_inclusive('\n') {
        let trimmed = line.trim_end();
        if line.starts_with("PROCEDURE ") || trimmed == "BEGIN" {
            in_body = true;
        } else if in_body && line.starts_with("END ") {
            in_body = false;
        }
        if in_body {
            let end = at + line.len();
            let mut i = at;
            let mut brackets = 0usize;
            while i < end {
                let c = bytes[i];
                if c == b'(' && bytes.get(i + 1) == Some(&b'*') {
                    // Comments inside bodies stay on one line here.
                    i = src[i..end].find("*)").map_or(end, |j| i + j + 2);
                    continue;
                }
                if c == b'"' || c == b'\'' {
                    i = src[i + 1..end].find(c as char).map_or(end, |j| i + j + 2);
                    continue;
                }
                match c {
                    b'[' => brackets += 1,
                    b']' => brackets = brackets.saturating_sub(1),
                    b'0'..=b'9' => {
                        let start = i;
                        while i < end && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                        let glued = start > 0
                            && (bytes[start - 1].is_ascii_alphanumeric()
                                || bytes[start - 1] == b'_');
                        if brackets == 0 && !glued {
                            out.push(start..i);
                        }
                        continue;
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        at += line.len();
    }
    out
}

// ---- large programs --------------------------------------------------------

/// Object types in a large program: six roots and two subtypes.
const LARGE_TYPES: usize = 8;
/// Link fields per object type.
const LARGE_LINKS: usize = 3;
/// Procedures per large program.
pub const LARGE_PROCS: usize = 48;
/// Procedures that other procedures call; they call nothing.
const LEAF_PROCS: usize = 4;
/// Statements per procedure by kind: loads, stores, pointer stores,
/// local assignments, guarded loads, calls.
const STMT_MIX: [usize; 6] = [8, 5, 5, 3, 3, 2];

/// A MiniM3 module of the large size class: [`LARGE_PROCS`] procedures
/// over eight object types, with more interned access paths than
/// `DENSE_LIMIT`. The type graph, the type merges and every count are
/// fixed; the seed picks signatures, statement order and the paths each
/// statement touches, so every seed lands in the same size class and
/// costs about the same to serve.
pub fn large_program(seed: u64) -> String {
    let mut rng = XorShift64::new(seed ^ 0x6c61_7267_6570_726f); // "largepro"
                                                                 // N6 <: N0 and N7 <: N1.
    let parent = |t: usize| match t {
        6 => Some(0),
        7 => Some(1),
        _ => None,
    };
    // A seeded type graph moved the census and RLE cost by a third from
    // seed to seed.
    let mut links = [[0usize; LARGE_LINKS]; LARGE_TYPES];
    for (t, row) in links.iter_mut().enumerate().take(6) {
        for (j, l) in row.iter_mut().enumerate() {
            *l = (t + j + 1) % LARGE_TYPES;
        }
    }
    // A subtype inherits its parent's links.
    links[6] = links[0];
    links[7] = links[1];

    let mut s = format!("MODULE Large{};\n\nTYPE\n", seed % 1_000_000);
    for (t, row) in links.iter().enumerate().take(6) {
        s.push_str(&format!(
            "  N{t} = OBJECT\n    v: INTEGER;\n    w: INTEGER;\n"
        ));
        for (j, l) in row.iter().enumerate() {
            s.push_str(&format!("    l{j}: N{l};\n"));
        }
        s.push_str("  END;\n");
    }
    for t in 6..LARGE_TYPES {
        let p = parent(t).expect("subtype");
        s.push_str(&format!("  N{t} = N{p} OBJECT\n    x: INTEGER;\n  END;\n"));
    }
    s.push_str("\nVAR\n");
    for t in 0..LARGE_TYPES {
        s.push_str(&format!("  g{t}: N{t};\n"));
    }
    s.push_str("  acc: INTEGER;\n\n");

    // Procedure signatures: two object parameters each.
    let sigs: Vec<(usize, usize)> = (0..LARGE_PROCS)
        .map(|_| (rng.index(LARGE_TYPES), rng.index(LARGE_TYPES)))
        .collect();
    for (p, &(ta, tb)) in sigs.iter().enumerate() {
        // Roots: parameters, one local per type, and the globals.
        // Roots by class: parameters, locals, globals.
        let roots: [Vec<(String, usize)>; 3] = [
            vec![("a".into(), ta), ("b".into(), tb)],
            (0..LARGE_TYPES).map(|t| (format!("n{t}"), t)).collect(),
            (0..LARGE_TYPES).map(|t| (format!("g{t}"), t)).collect(),
        ];
        s.push_str(&format!(
            "PROCEDURE P{p} (a: N{ta}; b: N{tb}): INTEGER =\nVAR\n"
        ));
        for t in 0..LARGE_TYPES {
            s.push_str(&format!("  n{t}: N{t};\n"));
        }
        s.push_str("  s: INTEGER;\nBEGIN\n  s := 0;\n");
        for t in 0..LARGE_TYPES {
            s.push_str(&format!("  n{t} := NEW(N{t});\n"));
        }
        // An object path from a random root. Root class and depth (1–3
        // link steps) rotate, so every procedure has the same mix of
        // path shapes.
        let mut shape = 0usize;
        let mut path = |rng: &mut XorShift64| -> (String, usize) {
            let (root, mut t) = rng.pick(&roots[shape / 3 % 3]).clone();
            let depth = 1 + shape % 3;
            shape += 1;
            let mut text = root;
            for _ in 0..depth {
                let j = rng.index(LARGE_LINKS);
                text.push_str(&format!(".l{j}"));
                t = links[t][j];
            }
            (text, t)
        };
        // Every procedure has the same statement mix in a seeded order.
        // Stores and calls use exact types, so the only type merges are
        // the module body's fixed ones and every seed sees the same
        // SMFieldTypeRefs classes.
        let mut kinds: Vec<u8> = STMT_MIX
            .iter()
            .enumerate()
            .flat_map(|(k, &n)| std::iter::repeat_n(k as u8, n))
            .collect();
        shuffle(&mut rng, &mut kinds);
        for kind in kinds {
            match kind {
                0 => {
                    let (p, _) = path(&mut rng);
                    let f = if rng.chance(1, 2) { "v" } else { "w" };
                    s.push_str(&format!("  s := s + {p}.{f};\n"));
                }
                1 => {
                    let (p, _) = path(&mut rng);
                    let lit = 1 + rng.below(97);
                    s.push_str(&format!("  {p}.w := s + {lit};\n"));
                }
                2 => {
                    let (p, t) = path(&mut rng);
                    let j = rng.index(LARGE_LINKS);
                    s.push_str(&format!("  {p}.l{j} := n{};\n", links[t][j]));
                }
                3 => {
                    let (p, t) = path(&mut rng);
                    s.push_str(&format!("  n{t} := {p};\n"));
                }
                4 => {
                    let (p, _) = path(&mut rng);
                    let (q, _) = path(&mut rng);
                    s.push_str(&format!(
                        "  IF {p} # NIL THEN\n    s := s + {q}.v;\n  END;\n"
                    ));
                }
                _ => {
                    // Only the first few procedures are called, and they
                    // call nothing: a random call graph's transitive
                    // mod-ref sets moved the RLE cost by half.
                    if p < LEAF_PROCS {
                        s.push_str("  s := s + 1;\n");
                    } else {
                        let callee = rng.index(LEAF_PROCS);
                        let (ca, cb) = sigs[callee];
                        s.push_str(&format!("  s := s + P{callee}(n{ca}, n{cb});\n"));
                    }
                }
            }
        }
        s.push_str(&format!("  RETURN s;\nEND P{p};\n\n"));
    }
    s.push_str("BEGIN\n");
    for t in 0..LARGE_TYPES {
        s.push_str(&format!("  g{t} := NEW(N{t});\n"));
    }
    // The fixed type merges: each subtype stored into its parent's slot.
    s.push_str("  g0 := g6;\n  g1 := g7;\n");
    let (ta, tb) = sigs[LARGE_PROCS - 1];
    s.push_str(&format!(
        "  acc := P{}(g{ta}, g{tb});\nEND Large{}.\n",
        LARGE_PROCS - 1,
        seed % 1_000_000
    ));
    s
}

// ---- request lines ---------------------------------------------------------

/// Wire spelling of a level.
fn level_arg(level: Level) -> &'static str {
    match level {
        Level::TypeDecl => "typedecl",
        Level::FieldTypeDecl => "fields",
        Level::SmFieldTypeRefs => "merges",
    }
}

/// Wire spelling of a world.
fn world_arg(world: World) -> &'static str {
    match world {
        World::Closed => "closed",
        World::Open => "open",
    }
}

/// A query line; `level_world` of `None` leaves both to the daemon's
/// defaults.
fn query(op: &str, sid: &str, level_world: Option<(Level, World)>, extra: Option<Value>) -> String {
    let mut fields = vec![
        ("op", Value::Str(op.into())),
        ("session", Value::Str(sid.into())),
    ];
    if let Some((level, world)) = level_world {
        fields.push(("level", Value::Str(level_arg(level).into())));
        fields.push(("world", Value::Str(world_arg(world).into())));
    }
    if let Some(v) = extra {
        fields.push(("pairs", v));
    }
    let mut line = Value::object(fields).encode();
    line.push('\n');
    line
}

/// An `alias` line over `pairs`.
pub fn alias_line(
    sid: &str,
    level_world: Option<(Level, World)>,
    pairs: &[(String, String)],
) -> String {
    let pairs = Value::Array(
        pairs
            .iter()
            .map(|(a, b)| {
                Value::Array(vec![
                    Value::Str(a.as_str().into()),
                    Value::Str(b.as_str().into()),
                ])
            })
            .collect(),
    );
    query("alias", sid, level_world, Some(pairs))
}

/// A `pairs` line.
pub fn pairs_line(sid: &str, level_world: Option<(Level, World)>) -> String {
    query("pairs", sid, level_world, None)
}

/// An `rle` line.
pub fn rle_line(sid: &str, level_world: Option<(Level, World)>) -> String {
    query("rle", sid, level_world, None)
}

/// A `load` line of inline source.
pub fn load_source_line(source: &str) -> String {
    let mut line = Value::object(vec![
        ("op", Value::Str("load".into())),
        ("source", Value::Str(source.into())),
    ])
    .encode();
    line.push('\n');
    line
}

/// A `load` line of a benchsuite program at [`SUITE_SCALE`].
pub fn load_bench_line(name: &str) -> String {
    let mut line = Value::object(vec![
        ("op", Value::Str("load".into())),
        ("bench", Value::Str(name.into())),
        ("scale", Value::Int(SUITE_SCALE as i64)),
    ])
    .encode();
    line.push('\n');
    line
}

/// `n` random pairs drawn from `paths`.
pub fn random_pairs(rng: &mut XorShift64, paths: &[String], n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|_| (rng.pick(paths).clone(), rng.pick(paths).clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa::CompiledAliasEngine;
    use tbaa_incr::IncrCompiler;

    #[test]
    fn every_single_literal_bump_compiles_and_misses_one_unit() {
        let corpus = EditCorpus::new(1);
        for (i, name) in suite_names().iter().enumerate() {
            let incr = IncrCompiler::new();
            let (base, _) = incr.compile(corpus.base(i));
            assert!(base.is_ok(), "{name} base compiles");
            let p = &corpus.programs[i];
            assert!(!p.literals.is_empty(), "{name} has editable literals");
            for lit in 0..p.literals.len() {
                let mut bumps = vec![0; p.literals.len()];
                bumps[lit] = 1;
                let (program, report) = incr.compile(&render(p, &bumps, 0));
                assert!(program.is_ok(), "{name} literal {lit} bump compiles");
                assert_eq!(
                    report.func_misses, 1,
                    "{name} literal {lit} is a one-unit edit"
                );
            }
        }
    }

    #[test]
    fn corpus_versions_compile_and_module_edits_share_nothing() {
        let mut corpus = EditCorpus::new(7);
        let incr = IncrCompiler::new();
        for i in 0..suite_names().len() {
            incr.compile(corpus.base(i)).0.expect("base compiles");
        }
        let (mut local, mut module) = (0, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let v = corpus.next_version();
            assert!(seen.insert(v.source.clone()), "versions never repeat");
            let (program, report) = incr.compile(&v.source);
            assert!(program.is_ok(), "every version compiles");
            if v.nth % 5 == 4 {
                module += 1;
                assert_eq!(report.func_hits, 0, "a module edit shares nothing");
            } else {
                local += 1;
                assert_eq!(report.func_misses, 1, "a local edit re-lowers one unit");
            }
        }
        assert_eq!(module * 4, local, "every fifth edit is module-level");
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let take = |seed| {
            let mut c = EditCorpus::new(seed);
            (0..30).map(|_| c.next_version().source).collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
    }

    #[test]
    fn large_programs_compile_and_take_the_lazy_regime() {
        for seed in [1, 2, 3, 99] {
            let src = large_program(seed);
            let program = tbaa_ir::compile_to_ir(&src).expect("large program compiles");
            assert!(
                program.aps.len() > tbaa::DENSE_LIMIT,
                "seed {seed}: {} paths",
                program.aps.len()
            );
            assert!(program.funcs.len() > LARGE_PROCS, "dozens of procedures");
            let engine =
                CompiledAliasEngine::build(&program, Level::SmFieldTypeRefs, World::Closed);
            let census = tbaa::census_alias_pairs(&program, &engine);
            assert!(census.fallback_pairs > 0, "scalar census ran");
            assert_eq!(census.dense_rows, 0, "no dense rows");
        }
    }
}
