//! # tbaa-repro — *Type-Based Alias Analysis*, reproduced
//!
//! A from-scratch Rust reproduction of Amer Diwan, Kathryn S. McKinley &
//! J. Eliot B. Moss, **"Type-Based Alias Analysis"**, PLDI 1998: the
//! three type-based alias analyses (TypeDecl, FieldTypeDecl,
//! SMFieldTypeRefs), every substrate they need (a Modula-3-subset front
//! end, a typed IR, redundant load elimination, method resolution and
//! inlining, an Alpha-flavoured simulator, an ATOM-style load tracer),
//! the ten-benchmark evaluation suite, and a harness regenerating every
//! table and figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`lang`] — the MiniM3 front end (`mini-m3`);
//! * [`ir`] — lowering, access paths, CFG (`tbaa-ir`);
//! * [`alias`] — the paper's analyses (`tbaa`);
//! * [`opt`] — RLE, mod-ref, devirtualization, inlining (`tbaa-opt`);
//! * [`sim`] — interpreter, cache model, limit study (`tbaa-sim`);
//! * [`benchsuite`] — the ten benchmark programs (`tbaa-benchsuite`);
//! * [`server`] — `tbaad`, the persistent alias-query daemon, and its
//!   client (`tbaa-server`);
//! * [`router`] — `tbaa-router`, a session-sharded front tier that
//!   scales `tbaad` horizontally behind the same wire protocol
//!   (`tbaa-router`).
//!
//! ## Quick start
//!
//! ```
//! use tbaa_repro::alias::{AliasAnalysis, Level, Tbaa, World};
//!
//! // Figure 1 of the paper.
//! let prog = tbaa_repro::ir::compile_to_ir(
//!     "MODULE Fig1;
//!      TYPE
//!        T  = OBJECT f, g: T; END;
//!        S1 = T OBJECT END;
//!        S2 = T OBJECT END;
//!      VAR t: T; s: S1; u: S2; x: T;
//!      BEGIN
//!        t := NEW(T); s := NEW(S1); u := NEW(S2);
//!        t.f := t; s.f := s; u.f := u;
//!        x := t.f;
//!      END Fig1.")?;
//! let analysis = Tbaa::build(&prog, Level::FieldTypeDecl, World::Closed);
//! // `s.f` and `u.f` cannot alias: S1 and S2 have no common subtype.
//! let sites = prog.heap_ref_sites();
//! let sf = sites.iter().find(|s| tbaa_repro::ir::pretty::access_path(&prog, s.1) == "s.f").unwrap();
//! let uf = sites.iter().find(|s| tbaa_repro::ir::pretty::access_path(&prog, s.1) == "u.f").unwrap();
//! assert!(!analysis.may_alias(&prog.aps, sf.1, uf.1));
//! # Ok::<(), tbaa_repro::lang::Diagnostics>(())
//! ```
//!
//! See `examples/` for runnable walkthroughs and the `paper-tables`
//! binary (in `crates/bench`) for the full evaluation.

pub use mini_m3 as lang;
pub use tbaa as alias;
pub use tbaa_benchsuite as benchsuite;
pub use tbaa_ir as ir;
pub use tbaa_opt as opt;
pub use tbaa_router as router;
pub use tbaa_server as server;
pub use tbaa_sim as sim;

// The daemon/router API most callers want, at the crate root: the typed
// reply enum and the two config builders.
pub use tbaa_router::{BackendSpec, RouterConfig, RouterConfigBuilder};
pub use tbaa_server::{Reply, ServerConfig, ServerConfigBuilder};

/// A builder for the compile → analyze → optimize pipeline.
///
/// Configure the analysis precision with [`level`](Pipeline::level) and
/// [`world`](Pipeline::world), pick the optimization passes with
/// [`optimize`](Pipeline::optimize), then [`run`](Pipeline::run):
///
/// ```
/// use tbaa_repro::{alias::Level, alias::World, opt::OptOptions, Pipeline};
///
/// let result = Pipeline::new(
///     "MODULE M;
///      TYPE T = OBJECT f: INTEGER; END;
///      VAR t: T; x, y: INTEGER;
///      BEGIN t := NEW(T); t.f := 1; x := t.f; y := t.f; END M.")
///     .level(Level::SmFieldTypeRefs)
///     .world(World::Closed)
///     .optimize(OptOptions::builder().rle(true).build())
///     .run()?;
/// assert_eq!(result.report.rle.eliminated, 2);
/// # Ok::<(), tbaa_repro::lang::Diagnostics>(())
/// ```
///
/// The pipeline's `level`/`world` apply to every pass and to the final
/// analysis handle; any `level`/`world` inside the passed
/// [`OptOptions`](opt::OptOptions) are overridden so there is a single
/// source of truth.
#[derive(Debug, Clone)]
pub struct Pipeline<'a> {
    source: &'a str,
    level: alias::Level,
    world: alias::World,
    opts: Option<opt::OptOptions>,
}

/// What a [`Pipeline`] run produced.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The (possibly optimized) program.
    pub program: ir::Program,
    /// An alias-analysis handle over `program`, at the pipeline's
    /// level/world, ready for `may_alias` queries.
    pub analysis: alias::Tbaa,
    /// What the optimization passes did (all zeros when no passes ran).
    pub report: opt::OptReport,
}

impl<'a> Pipeline<'a> {
    /// A pipeline over `source` with the paper's defaults: the most
    /// precise analysis (`SmFieldTypeRefs`), closed world, no
    /// optimization passes.
    pub fn new(source: &'a str) -> Self {
        Pipeline {
            source,
            level: alias::Level::SmFieldTypeRefs,
            world: alias::World::Closed,
            opts: None,
        }
    }

    /// Sets the alias-analysis precision level.
    pub fn level(mut self, level: alias::Level) -> Self {
        self.level = level;
        self
    }

    /// Sets the closed- or open-world assumption.
    pub fn world(mut self, world: alias::World) -> Self {
        self.world = world;
        self
    }

    /// Enables optimization with the given pass selection. The options'
    /// `level`/`world` are replaced by the pipeline's at
    /// [`run`](Pipeline::run) time.
    pub fn optimize(mut self, opts: opt::OptOptions) -> Self {
        self.opts = Some(opts);
        self
    }

    /// Compiles, optimizes (if requested), and builds the final analysis.
    ///
    /// # Errors
    ///
    /// Returns front-end diagnostics if the source does not compile.
    pub fn run(self) -> Result<PipelineResult, lang::Diagnostics> {
        let mut program = ir::compile_to_ir(self.source)?;
        let report = match self.opts {
            Some(mut opts) => {
                opts.level = self.level;
                opts.world = self.world;
                opt::optimize(&mut program, &opts)
            }
            None => opt::OptReport::default(),
        };
        let analysis = alias::Tbaa::build(&program, self.level, self.world);
        Ok(PipelineResult {
            program,
            analysis,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = "MODULE M;
         TYPE T = OBJECT f: INTEGER; END;
         VAR t: T; x, y: INTEGER;
         BEGIN t := NEW(T); t.f := 1; x := t.f; y := t.f; END M.";

    #[test]
    fn pipeline_rle_eliminates_redundant_loads() {
        let result = Pipeline::new(SMOKE)
            .level(alias::Level::SmFieldTypeRefs)
            .world(alias::World::Closed)
            .optimize(opt::OptOptions::builder().rle(true).build())
            .run()
            .unwrap();
        assert_eq!(result.report.rle.eliminated, 2);
        assert!(result.program.funcs.len() == 1);
    }

    #[test]
    fn pipeline_without_optimize_reports_nothing() {
        let result = Pipeline::new(SMOKE).run().unwrap();
        assert_eq!(result.report, opt::OptReport::default());
        // The analysis handle answers queries over the compiled program.
        let sites = result.program.heap_ref_sites();
        assert!(!sites.is_empty());
    }

    #[test]
    fn pipeline_level_world_override_the_options() {
        // The options carry a conflicting level/world; the pipeline's win.
        let opts = opt::OptOptions::builder()
            .rle(true)
            .level(alias::Level::TypeDecl)
            .world(alias::World::Open)
            .build();
        let precise = Pipeline::new(SMOKE)
            .level(alias::Level::SmFieldTypeRefs)
            .world(alias::World::Closed)
            .optimize(opts)
            .run()
            .unwrap();
        assert_eq!(precise.report.rle.eliminated, 2);
    }

    #[test]
    fn pipeline_surfaces_diagnostics() {
        assert!(Pipeline::new("MODULE Broken").run().is_err());
    }
}
