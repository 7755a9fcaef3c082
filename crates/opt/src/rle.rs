//! Redundant load elimination (§3.4.1, Figures 6 and 7 of the paper).
//!
//! RLE combines two transformations over access paths:
//!
//! * **loop-invariant load motion** — a load executed on every iteration
//!   whose path cannot be modified inside the loop is hoisted to the loop
//!   preheader (Figure 6);
//! * **available-load CSE** — a load whose path is available on every
//!   incoming path (computed or stored, and not killed since) is replaced
//!   by a register reference (Figure 7).
//!
//! Both are parameterized by an [`AliasAnalysis`]: a store kills an
//! available path iff it may alias the path *or any of its prefixes*; a
//! call kills through the interprocedural [`ModRef`] summaries; an
//! indirect store kills every path whose address may be taken. Hidden
//! dope-vector loads are left untouched — they are implicit in the
//! high-level IR (the paper's Encapsulation category).
//!
//! Eliminated loads become reads of compiler scratch variables, which are
//! scalar locals and therefore modeled as registers by the machine model —
//! "leaving it up to the back end to place the hoisted memory reference in
//! a register", as the paper puts it.

use crate::modref::ModRef;
use mini_m3::check::GlobalId;
use std::collections::{HashMap, HashSet};
use tbaa::analysis::AliasAnalysis;
use tbaa_ir::cfg::{ensure_preheader, Cfg, NaturalLoop};
use tbaa_ir::ir::{BlockId, Function};
use tbaa_ir::ir::{Instr, Operand, Program, SlotAddr, SlotBase, VarClass, VarDecl};
use tbaa_ir::path::{ApId, ApTable, FuncId, VarId};

/// Static counts of what RLE did (Table 6 reports their sum).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RleStats {
    /// Loads hoisted out of loops.
    pub hoisted: usize,
    /// Loads replaced by register references.
    pub eliminated: usize,
}

impl RleStats {
    /// Total loads removed statically — the Table 6 metric.
    pub fn removed(&self) -> usize {
        self.hoisted + self.eliminated
    }
}

impl std::ops::AddAssign for RleStats {
    fn add_assign(&mut self, rhs: Self) {
        self.hoisted += rhs.hoisted;
        self.eliminated += rhs.eliminated;
    }
}

/// A load site: `(function, block, instruction index)`.
pub type Site = (FuncId, BlockId, usize);

/// Availability of a load's access path just before the load executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteAvail {
    /// Available on **every** incoming path — RLE can eliminate it.
    pub must: bool,
    /// Available on **some** incoming path — partially redundant; the
    /// paper's *Conditional* category (PRE would catch it, RLE cannot).
    pub may: bool,
}

/// Computes must/may availability for every visible canonical load site
/// without transforming the program. The limit study (Figure 10) uses
/// this to attribute remaining dynamic redundancy.
pub fn availability_sites(
    prog: &mut Program,
    analysis: &dyn AliasAnalysis,
) -> HashMap<Site, SiteAvail> {
    let modref = ModRef::build(prog);
    let mut out = HashMap::new();
    for i in 0..prog.funcs.len() {
        let fid = FuncId(i as u32);
        let Some(ctx) = build_ctx(prog, fid, analysis, &modref) else {
            continue;
        };
        let func = prog.func(fid);
        let cfg = Cfg::new(func);
        let must_in = solve(func, &cfg, &ctx, Meet::Must).ins;
        let may_in = solve(func, &cfg, &ctx, Meet::May).ins;
        for &b in &cfg.rpo {
            let bi = b.0 as usize;
            let mut must = must_in[bi].clone();
            let mut may = may_in[bi].clone();
            for (ii, instr) in func.blocks[bi].instrs.iter().enumerate() {
                if let Instr::LoadMem {
                    ap, hidden: false, ..
                } = instr
                {
                    if let Some(i) = ctx.idx(*ap) {
                        out.insert(
                            (fid, b, ii),
                            SiteAvail {
                                must: must.contains(i),
                                may: may.contains(i),
                            },
                        );
                    }
                }
                transfer(instr, &mut must, &ctx);
                transfer(instr, &mut may, &ctx);
            }
        }
    }
    out
}

/// Runs RLE over every function of the program.
pub fn run_rle(prog: &mut Program, analysis: &dyn AliasAnalysis) -> RleStats {
    let modref = ModRef::build(prog);
    let mut total = RleStats::default();
    for i in 0..prog.funcs.len() {
        total += rle_function(prog, FuncId(i as u32), analysis, &modref);
    }
    total
}

/// A dense bit vector over the function's interesting access paths.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Avail(pub(crate) Vec<u64>);

impl Avail {
    pub(crate) fn empty(n: usize) -> Self {
        Avail(vec![0; n.div_ceil(64)])
    }
    pub(crate) fn universal(n: usize) -> Self {
        let mut v = vec![!0u64; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = v.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        Avail(v)
    }
    pub(crate) fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }
    /// Meets `o` into `self` at a join.
    pub(crate) fn meet(&mut self, o: &Avail, meet: Meet) {
        for (a, b) in self.0.iter_mut().zip(o.0.iter()) {
            match meet {
                Meet::Must => *a &= b,
                Meet::May => *a |= b,
            }
        }
    }
    /// Clears each set bit `i` for which `kills(i)`; `kills` sees only set
    /// bits.
    pub(crate) fn clear_where(&mut self, mut kills: impl FnMut(usize) -> bool) {
        for (w, word) in self.0.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if kills(w * 64 + b) {
                    *word &= !(1 << b);
                }
            }
        }
    }
}

/// How paths meet where control flow joins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Meet {
    /// On every incoming path: intersection, starting from universal.
    Must,
    /// On some incoming path: union, starting from empty.
    May,
}

/// Forward availability at each block's entry and exit.
pub(crate) struct Flow {
    pub(crate) ins: Vec<Avail>,
    pub(crate) outs: Vec<Avail>,
}

/// Solves forward availability over `func` to a fixpoint. Every block
/// starts at the meet's identity; the entry block's IN also meets the
/// empty boundary (nothing is available on entry). Blocks the entry does
/// not reach keep the identity.
pub(crate) fn solve(func: &Function, cfg: &Cfg, ctx: &KillCtx<'_>, meet: Meet) -> Flow {
    let n = ctx.n();
    let top = match meet {
        Meet::Must => Avail::universal(n),
        Meet::May => Avail::empty(n),
    };
    let nb = func.blocks.len();
    let mut flow = Flow {
        ins: vec![top.clone(); nb],
        outs: vec![top.clone(); nb],
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &cfg.rpo {
            let bi = b.0 as usize;
            let mut avail = if bi == 0 {
                Avail::empty(n)
            } else {
                top.clone()
            };
            for &p in &cfg.preds[bi] {
                avail.meet(&flow.outs[p.0 as usize], meet);
            }
            flow.ins[bi].clone_from(&avail);
            for instr in &func.blocks[bi].instrs {
                transfer(instr, &mut avail, ctx);
            }
            if avail != flow.outs[bi] {
                flow.outs[bi] = avail;
                changed = true;
            }
        }
    }
    flow
}

/// Per-function alias/kill context with memoized queries.
pub(crate) struct KillCtx<'a> {
    analysis: &'a dyn AliasAnalysis,
    /// What each call can store, load and reach.
    pub(crate) modref: &'a ModRef,
    aps: ApTable,
    /// Interesting APs in dense order.
    interesting: Vec<ApId>,
    index: HashMap<ApId, usize>,
    /// For each interesting AP, its prefixes (1..=len steps), self last.
    prefixes: Vec<Vec<ApId>>,
    /// Memo: does a store to `s` kill interesting AP `i`?
    store_kill_memo: std::cell::RefCell<HashMap<(ApId, usize), bool>>,
    /// Memo: does a wild store kill interesting AP `i`?
    wild_kill_memo: std::cell::RefCell<HashMap<usize, bool>>,
}

impl<'a> KillCtx<'a> {
    pub(crate) fn n(&self) -> usize {
        self.interesting.len()
    }

    pub(crate) fn idx(&self, ap: ApId) -> Option<usize> {
        self.index.get(&ap).copied()
    }

    pub(crate) fn store_kills(&self, stored: ApId, i: usize) -> bool {
        if let Some(&v) = self.store_kill_memo.borrow().get(&(stored, i)) {
            return v;
        }
        let v = self.prefixes[i]
            .iter()
            .any(|&p| self.analysis.may_alias(&self.aps, stored, p));
        self.store_kill_memo.borrow_mut().insert((stored, i), v);
        v
    }

    pub(crate) fn wild_kills(&self, i: usize) -> bool {
        if let Some(&v) = self.wild_kill_memo.borrow().get(&i) {
            return v;
        }
        let path = self.aps.path(self.interesting[i]);
        let rooted_shared = matches!(path.root, tbaa_ir::path::ApRoot::Global(_));
        let v = rooted_shared
            || self.prefixes[i]
                .iter()
                .any(|&p| self.analysis.wild_may_modify(&self.aps, p));
        self.wild_kill_memo.borrow_mut().insert(i, v);
        v
    }

    /// Raw may-alias between an arbitrary path and an interesting one.
    pub(crate) fn analysis_may_alias(&self, a: ApId, i: usize) -> bool {
        self.analysis.may_alias(&self.aps, a, self.interesting[i])
    }

    pub(crate) fn mentions_var(&self, i: usize, v: VarId) -> bool {
        self.aps.path(self.interesting[i]).mentions_var(v)
    }

    pub(crate) fn mentions_global(&self, i: usize, g: GlobalId) -> bool {
        self.aps.path(self.interesting[i]).mentions_global(g)
    }
}

/// Applies the availability transfer function of one instruction.
pub(crate) fn transfer(instr: &Instr, avail: &mut Avail, ctx: &KillCtx<'_>) {
    match instr {
        Instr::LoadMem { ap, hidden, .. } if !hidden => {
            if let Some(i) = ctx.idx(*ap) {
                avail.set(i);
            }
        }
        Instr::StoreMem { ap, .. } => {
            avail.clear_where(|i| ctx.store_kills(*ap, i));
            if let Some(i) = ctx.idx(*ap) {
                avail.set(i);
            }
        }
        Instr::StoreSlot { addr, .. } => match addr.base {
            SlotBase::Local(v) => avail.clear_where(|i| ctx.mentions_var(i, v)),
            SlotBase::Global(g) => avail.clear_where(|i| ctx.mentions_global(i, g)),
        },
        Instr::StoreInd { .. } => avail.clear_where(|i| ctx.wild_kills(i)),
        Instr::Call {
            addr_aps,
            addr_slots,
            ..
        }
        | Instr::CallMethod {
            addr_aps,
            addr_slots,
            ..
        } => {
            let callees = ctx.modref.callees(instr);
            avail.clear_where(|i| {
                callees.clone().any(|s| {
                    s.stores.iter().any(|&stored| ctx.store_kills(stored, i))
                        || s.stored_globals.iter().any(|&g| ctx.mentions_global(i, g))
                        || (s.wild_store && ctx.wild_kills(i))
                }) || addr_aps.iter().any(|&ap| ctx.store_kills(ap, i))
                    || addr_slots.iter().any(|sb| match sb {
                        SlotBase::Local(v) => ctx.mentions_var(i, *v),
                        SlotBase::Global(g) => ctx.mentions_global(i, *g),
                    })
            });
        }
        _ => {}
    }
}

/// Collects the interesting (canonical, visible) access paths of one
/// function, interns their prefixes, and builds the kill context.
pub(crate) fn build_ctx<'a>(
    prog: &mut Program,
    fid: FuncId,
    analysis: &'a dyn AliasAnalysis,
    modref: &'a ModRef,
) -> Option<KillCtx<'a>> {
    let mut interesting: Vec<ApId> = Vec::new();
    {
        let mut seen = HashSet::new();
        let f = prog.func(fid);
        for b in &f.blocks {
            for instr in &b.instrs {
                let ap = match instr {
                    Instr::LoadMem {
                        ap, hidden: false, ..
                    } => Some(*ap),
                    Instr::StoreMem { ap, .. } => Some(*ap),
                    _ => None,
                };
                if let Some(ap) = ap {
                    if prog.aps.path(ap).is_canonical() && seen.insert(ap) {
                        interesting.push(ap);
                    }
                }
            }
        }
    }
    if interesting.is_empty() {
        return None;
    }
    let mut prefixes = Vec::with_capacity(interesting.len());
    for &ap in &interesting {
        let path = prog.aps.path(ap).clone();
        let mut pvec = Vec::new();
        for k in 1..=path.steps.len() {
            let mut p = path.clone();
            p.steps.truncate(k);
            pvec.push(prog.aps.intern(p));
        }
        prefixes.push(pvec);
    }
    let index: HashMap<ApId, usize> = interesting
        .iter()
        .enumerate()
        .map(|(i, &ap)| (ap, i))
        .collect();
    Some(KillCtx {
        analysis,
        modref,
        aps: prog.aps.clone(),
        interesting,
        index,
        prefixes,
        store_kill_memo: Default::default(),
        wild_kill_memo: Default::default(),
    })
}

fn rle_function(
    prog: &mut Program,
    fid: FuncId,
    analysis: &dyn AliasAnalysis,
    modref: &ModRef,
) -> RleStats {
    let Some(ctx) = build_ctx(prog, fid, analysis, modref) else {
        return RleStats::default();
    };
    let hoisted = licm(prog, fid, &ctx);
    let eliminated = cse(prog, fid, &ctx);
    RleStats {
        hoisted,
        eliminated,
    }
}

// ---- loop-invariant load motion --------------------------------------------

fn licm(prog: &mut Program, fid: FuncId, ctx: &KillCtx<'_>) -> usize {
    let mut hoisted_total = 0;
    // Re-run until no loop has hoistable loads (hoisting changes the CFG).
    for _round in 0..64 {
        let cfg = Cfg::new(prog.func(fid));
        let loops = cfg.natural_loops();
        let mut moved = false;
        for lp in &loops {
            let positions = hoistable_positions(prog, fid, &cfg, lp, ctx);
            if positions.is_empty() {
                continue;
            }
            let func = prog.func_mut(fid);
            let ph = ensure_preheader(func, &cfg, lp);
            // Extract in original order, then remove from their blocks.
            let mut extracted: Vec<Instr> = Vec::new();
            let mut by_block: HashMap<BlockId, Vec<usize>> = HashMap::new();
            for &(b, i) in &positions {
                by_block.entry(b).or_default().push(i);
            }
            // positions are already in dominance order (rpo, idx).
            for &(b, i) in &positions {
                extracted.push(func.blocks[b.0 as usize].instrs[i].clone());
            }
            for (b, mut idxs) in by_block {
                idxs.sort_unstable();
                for &i in idxs.iter().rev() {
                    func.blocks[b.0 as usize].instrs.remove(i);
                }
            }
            hoisted_total += extracted
                .iter()
                .filter(|i| matches!(i, Instr::LoadMem { hidden: false, .. }))
                .count();
            func.blocks[ph.0 as usize].instrs.extend(extracted);
            moved = true;
            break; // CFG changed: rebuild
        }
        if !moved {
            break;
        }
    }
    hoisted_total
}

/// Finds the backward slice of hoistable loop-invariant loads, in
/// dominance (rpo, index) order.
fn hoistable_positions(
    prog: &Program,
    fid: FuncId,
    cfg: &Cfg,
    lp: &NaturalLoop,
    ctx: &KillCtx<'_>,
) -> Vec<(BlockId, usize)> {
    let func = prog.func(fid);

    // Gather loop-wide kill facts.
    let mut stored_aps: Vec<ApId> = Vec::new();
    let mut stored_locals: HashSet<VarId> = HashSet::new();
    let mut stored_globals: HashSet<GlobalId> = HashSet::new();
    let mut wild = false;
    let mut has_call = false;
    let mut defs_in_loop: HashMap<u32, usize> = HashMap::new();
    for &b in &lp.body {
        for instr in &func.blocks[b.0 as usize].instrs {
            if let Some(d) = instr.dst() {
                *defs_in_loop.entry(d.0).or_insert(0) += 1;
            }
            match instr {
                Instr::StoreMem { ap, .. } => stored_aps.push(*ap),
                Instr::StoreSlot { addr, .. } => match addr.base {
                    SlotBase::Local(v) => {
                        stored_locals.insert(v);
                    }
                    SlotBase::Global(g) => {
                        stored_globals.insert(g);
                    }
                },
                Instr::StoreInd { .. } => wild = true,
                Instr::Call {
                    addr_aps,
                    addr_slots,
                    ..
                }
                | Instr::CallMethod {
                    addr_aps,
                    addr_slots,
                    ..
                } => {
                    has_call = true;
                    stored_aps.extend(addr_aps.iter().copied());
                    for sb in addr_slots {
                        match sb {
                            SlotBase::Local(v) => {
                                stored_locals.insert(*v);
                            }
                            SlotBase::Global(g) => {
                                stored_globals.insert(*g);
                            }
                        }
                    }
                    for s in ctx.modref.callees(instr) {
                        stored_aps.extend(s.stores.iter().copied());
                        stored_globals.extend(s.stored_globals.iter().copied());
                        wild |= s.wild_store;
                    }
                }
                _ => {}
            }
        }
    }

    // Blocks that must be dominated: latches and in-loop exit sources.
    let mut must_dominate: Vec<BlockId> = lp.latches.clone();
    for &b in &lp.body {
        if cfg.succs[b.0 as usize].iter().any(|s| !lp.contains(*s)) && !must_dominate.contains(&b) {
            must_dominate.push(b);
        }
    }

    // Loop positions in dominance order.
    let mut order: Vec<(BlockId, usize)> = Vec::new();
    for &b in &cfg.rpo {
        if lp.contains(b) {
            for i in 0..func.blocks[b.0 as usize].instrs.len() {
                order.push((b, i));
            }
        }
    }

    // Fixpoint-mark hoistable instructions.
    let mut hoistable: HashSet<(BlockId, usize)> = HashSet::new();
    let mut hoisted_regs: HashSet<u32> = HashSet::new();
    let operand_ok =
        |op: &Operand, hoisted_regs: &HashSet<u32>, defs: &HashMap<u32, usize>| match op {
            Operand::Reg(r) => !defs.contains_key(&r.0) || hoisted_regs.contains(&r.0),
            _ => true,
        };
    loop {
        let mut changed = false;
        for &(b, i) in &order {
            if hoistable.contains(&(b, i)) {
                continue;
            }
            if !must_dominate.iter().all(|&m| cfg.dominates(b, m)) {
                continue;
            }
            let instr = &func.blocks[b.0 as usize].instrs[i];
            let ok = match instr {
                Instr::LoadSlot { addr, .. } if addr.is_simple() => match addr.base {
                    SlotBase::Local(v) => {
                        !stored_locals.contains(&v)
                            && (func.vars[v.0 as usize].class == VarClass::Register
                                || (!wild && !has_call))
                    }
                    // A call's stored globals are already in `stored_globals`.
                    SlotBase::Global(g) => !stored_globals.contains(&g) && !wild,
                },
                Instr::Copy { src, .. } => operand_ok(src, &hoisted_regs, &defs_in_loop),
                Instr::Un { src, .. } => operand_ok(src, &hoisted_regs, &defs_in_loop),
                Instr::Bin { lhs, rhs, .. } => {
                    operand_ok(lhs, &hoisted_regs, &defs_in_loop)
                        && operand_ok(rhs, &hoisted_regs, &defs_in_loop)
                }
                Instr::ConstText { .. } => true,
                Instr::LoadMem {
                    addr,
                    ap,
                    hidden: false,
                    ..
                } => {
                    let Some(idx) = ctx.idx(*ap) else {
                        continue;
                    };
                    operand_ok(&addr.base, &hoisted_regs, &defs_in_loop)
                        && addr
                            .indices
                            .iter()
                            .all(|(op, _, _)| operand_ok(op, &hoisted_regs, &defs_in_loop))
                        && !stored_aps.iter().any(|&s| ctx.store_kills(s, idx))
                        && !(wild && ctx.wild_kills(idx))
                }
                _ => false,
            };
            if ok {
                hoistable.insert((b, i));
                if let Some(d) = instr.dst() {
                    hoisted_regs.insert(d.0);
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Backward slice from hoistable LoadMems.
    let load_positions: Vec<(BlockId, usize)> = order
        .iter()
        .copied()
        .filter(|pos| {
            hoistable.contains(pos)
                && matches!(
                    func.blocks[pos.0 .0 as usize].instrs[pos.1],
                    Instr::LoadMem { hidden: false, .. }
                )
        })
        .collect();
    if load_positions.is_empty() {
        return Vec::new();
    }
    // Map reg -> defining hoistable position (unique defs only matter).
    let mut def_pos: HashMap<u32, (BlockId, usize)> = HashMap::new();
    for &(b, i) in &order {
        if hoistable.contains(&(b, i)) {
            if let Some(d) = func.blocks[b.0 as usize].instrs[i].dst() {
                def_pos.insert(d.0, (b, i));
            }
        }
    }
    let mut needed: HashSet<(BlockId, usize)> = HashSet::new();
    let mut work: Vec<(BlockId, usize)> = load_positions.clone();
    while let Some(pos) = work.pop() {
        if !needed.insert(pos) {
            continue;
        }
        let instr = &func.blocks[pos.0 .0 as usize].instrs[pos.1];
        let mut uses: Vec<Operand> = Vec::new();
        match instr {
            Instr::Copy { src, .. } | Instr::Un { src, .. } => uses.push(*src),
            Instr::Bin { lhs, rhs, .. } => {
                uses.push(*lhs);
                uses.push(*rhs);
            }
            Instr::LoadMem { addr, .. } => {
                uses.push(addr.base);
                for (op, _, _) in &addr.indices {
                    uses.push(*op);
                }
            }
            _ => {}
        }
        for u in uses {
            if let Operand::Reg(r) = u {
                if defs_in_loop.contains_key(&r.0) {
                    if let Some(&dp) = def_pos.get(&r.0) {
                        work.push(dp);
                    }
                }
            }
        }
    }
    let mut out: Vec<(BlockId, usize)> = order.into_iter().filter(|p| needed.contains(p)).collect();
    out.dedup();
    out
}

// ---- available-load CSE -----------------------------------------------------

fn cse(prog: &mut Program, fid: FuncId, ctx: &KillCtx<'_>) -> usize {
    let cfg = Cfg::new(prog.func(fid));
    let ins = solve(prog.func(fid), &cfg, ctx, Meet::Must).ins;

    // Dry pass: which APs are ever reused?
    let mut reuse: HashSet<usize> = HashSet::new();
    for &b in &cfg.rpo {
        let bi = b.0 as usize;
        let mut avail = ins[bi].clone();
        for instr in &prog.func(fid).blocks[bi].instrs {
            if let Instr::LoadMem {
                ap, hidden: false, ..
            } = instr
            {
                if let Some(i) = ctx.idx(*ap) {
                    if avail.contains(i) {
                        reuse.insert(i);
                    }
                }
            }
            transfer(instr, &mut avail, ctx);
        }
    }
    if reuse.is_empty() {
        return 0;
    }

    // Allocate scratch slots for reused APs.
    let integer = prog.types.integer();
    let mut scratch: HashMap<usize, VarId> = HashMap::new();
    {
        let func = prog.func_mut(fid);
        for &i in &reuse {
            let ty = ctx.aps.path(ctx.interesting[i]).ty(integer);
            let v = VarId(func.vars.len() as u32);
            func.vars.push(VarDecl {
                name: format!("$rle{i}"),
                ty,
                size: 1,
                class: VarClass::Register,
            });
            scratch.insert(i, v);
        }
    }

    // Rewrite pass.
    let mut eliminated = 0usize;
    for &b in &cfg.rpo {
        let bi = b.0 as usize;
        let mut avail = ins[bi].clone();
        let old = std::mem::take(&mut prog.func_mut(fid).blocks[bi].instrs);
        let mut new_instrs = Vec::with_capacity(old.len());
        for instr in old {
            match &instr {
                Instr::LoadMem {
                    dst,
                    ap,
                    hidden: false,
                    ..
                } => {
                    let idx = ctx.idx(*ap);
                    if let Some(i) = idx {
                        if avail.contains(i) {
                            if let Some(&sv) = scratch.get(&i) {
                                new_instrs.push(Instr::LoadSlot {
                                    dst: *dst,
                                    addr: SlotAddr::var(SlotBase::Local(sv)),
                                });
                                eliminated += 1;
                                // AP remains available; no transfer needed
                                // (a scratch read generates/kills nothing).
                                continue;
                            }
                        }
                    }
                    let dst = *dst;
                    transfer(&instr, &mut avail, ctx);
                    new_instrs.push(instr);
                    if let Some(i) = idx {
                        if let Some(&sv) = scratch.get(&i) {
                            new_instrs.push(Instr::StoreSlot {
                                addr: SlotAddr::var(SlotBase::Local(sv)),
                                src: Operand::Reg(dst),
                            });
                        }
                    }
                }
                Instr::StoreMem { ap, src, .. } => {
                    let idx = ctx.idx(*ap);
                    let src = *src;
                    transfer(&instr, &mut avail, ctx);
                    new_instrs.push(instr);
                    if let Some(i) = idx {
                        if let Some(&sv) = scratch.get(&i) {
                            new_instrs.push(Instr::StoreSlot {
                                addr: SlotAddr::var(SlotBase::Local(sv)),
                                src,
                            });
                        }
                    }
                }
                _ => {
                    transfer(&instr, &mut avail, ctx);
                    new_instrs.push(instr);
                }
            }
        }
        prog.func_mut(fid).blocks[bi].instrs = new_instrs;
    }
    eliminated
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbaa::analysis::{Level, Tbaa};
    use tbaa::World;
    use tbaa_ir::compile_to_ir;

    fn count_visible_loads(p: &Program) -> usize {
        p.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.instrs.iter())
            .filter(|i| matches!(i, Instr::LoadMem { hidden: false, .. }))
            .count()
    }

    fn rle_with(src: &str, level: Level) -> (Program, RleStats) {
        let mut p = compile_to_ir(src).unwrap();
        let a = Tbaa::build(&p, level, World::Closed);
        let stats = run_rle(&mut p, &a);
        (p, stats)
    }

    #[test]
    fn straightline_cse_eliminates_second_load() {
        let (p, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x, y: INTEGER;
             BEGIN
               t := NEW(T);
               t.f := 5;
               x := t.f;
               y := t.f;
             END M.",
            Level::FieldTypeDecl,
        );
        // Store makes t.f available; both loads are redundant.
        assert_eq!(stats.eliminated, 2);
        assert_eq!(count_visible_loads(&p), 0);
    }

    #[test]
    fn intervening_may_alias_store_kills() {
        // Store to u.f may alias t.f (same field, compatible types), so the
        // second load survives.
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t, u: T; x, y: INTEGER;
             BEGIN
               t := NEW(T); u := NEW(T);
               x := t.f;
               u.f := 9;
               y := t.f;
             END M.",
            Level::FieldTypeDecl,
        );
        assert_eq!(stats.eliminated, 0);
    }

    #[test]
    fn intervening_different_field_does_not_kill() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f, g: INTEGER; END;
             VAR t, u: T; x, y: INTEGER;
             BEGIN
               t := NEW(T); u := NEW(T);
               x := t.f;
               u.g := 9;
               y := t.f;
             END M.",
            Level::FieldTypeDecl,
        );
        assert_eq!(stats.eliminated, 1, "t.f reloaded after unrelated store");
    }

    #[test]
    fn typedecl_vs_fieldtypedecl_opportunities() {
        // With TypeDecl the store to u.g kills t.f (all same-typed); with
        // FieldTypeDecl it does not — the Table 6 effect.
        let src = "MODULE M;
             TYPE T = OBJECT f, g: INTEGER; END;
             VAR t, u: T; x, y: INTEGER;
             BEGIN
               t := NEW(T); u := NEW(T);
               x := t.f;
               u.g := 9;
               y := t.f;
             END M.";
        let (_, td) = rle_with(src, Level::TypeDecl);
        let (_, ftd) = rle_with(src, Level::FieldTypeDecl);
        assert_eq!(td.eliminated, 0);
        assert_eq!(ftd.eliminated, 1);
    }

    #[test]
    fn loop_invariant_load_is_hoisted() {
        // Figure 6: a.b^ is loop invariant.
        let (p, stats) = rle_with(
            "MODULE M;
             TYPE Arr = ARRAY OF INTEGER; B = OBJECT data: Arr; END;
             VAR a: B; s: INTEGER;
             BEGIN
               a := NEW(B);
               a.data := NEW(Arr, 100);
               FOR i := 0 TO 99 DO
                 s := s + a.data[i];
               END;
             END M.",
            Level::SmFieldTypeRefs,
        );
        // a.data is hoisted out of the loop; a.data[i] stays (varying i).
        assert!(stats.hoisted >= 1, "stats: {stats:?}");
        let _ = p;
    }

    #[test]
    fn loop_with_aliasing_store_does_not_hoist() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t, u: T; s: INTEGER;
             BEGIN
               t := NEW(T); u := NEW(T);
               t.f := 1;
               FOR i := 0 TO 9 DO
                 s := s + t.f;
                 u.f := i;
               END;
             END M.",
            Level::FieldTypeDecl,
        );
        assert_eq!(stats.hoisted, 0, "store to u.f may alias t.f");
    }

    #[test]
    fn call_with_store_kills_via_modref() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Clobber (u: T) = BEGIN u.f := 0 END Clobber;
             VAR t: T; x, y: INTEGER;
             BEGIN
               t := NEW(T);
               x := t.f;
               Clobber(t);
               y := t.f;
             END M.",
            Level::SmFieldTypeRefs,
        );
        assert_eq!(stats.eliminated, 0);
    }

    #[test]
    fn call_without_store_preserves_availability() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Pure (u: T): INTEGER = BEGIN RETURN u.f END Pure;
             VAR t: T; x, y, z: INTEGER;
             BEGIN
               t := NEW(T);
               x := t.f;
               z := Pure(t);
               y := t.f;
             END M.",
            Level::SmFieldTypeRefs,
        );
        assert_eq!(stats.eliminated, 1);
    }

    #[test]
    fn root_var_reassignment_kills() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x, y: INTEGER;
             BEGIN
               t := NEW(T);
               x := t.f;
               t := NEW(T);
               y := t.f;
             END M.",
            Level::FieldTypeDecl,
        );
        assert_eq!(stats.eliminated, 0, "t changed; t.f is a new location");
    }

    #[test]
    fn prefix_store_kills_longer_path() {
        let (p, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
                  H = OBJECT t: T; END;
             VAR h: H; x, y: INTEGER;
             BEGIN
               h := NEW(H);
               h.t := NEW(T);
               x := h.t.f;
               h.t := NEW(T);
               y := h.t.f;
             END M.",
            Level::SmFieldTypeRefs,
        );
        // Store-to-load forwarding removes both pointer loads of h.t, but
        // the store to the *prefix* h.t kills the availability of h.t.f,
        // so both .f loads must survive.
        assert_eq!(stats.eliminated, 2, "only the h.t pointer loads forward");
        assert_eq!(count_visible_loads(&p), 2, "both .f loads remain");
    }

    #[test]
    fn store_to_load_forwarding() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; x: INTEGER;
             BEGIN
               t := NEW(T);
               t.f := 41;
               x := t.f;
             END M.",
            Level::FieldTypeDecl,
        );
        assert_eq!(stats.eliminated, 1);
    }

    #[test]
    fn conditional_paths_not_eliminated() {
        // Partially redundant: load on one path only — RLE must not touch
        // it (the paper's Conditional category is exactly these).
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             VAR t: T; c: BOOLEAN; x, y: INTEGER;
             BEGIN
               t := NEW(T);
               IF c THEN x := t.f END;
               y := t.f;
             END M.",
            Level::FieldTypeDecl,
        );
        assert_eq!(stats.eliminated, 0);
    }

    #[test]
    fn var_param_wild_store_kills_taken_fields() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE T = OBJECT f: INTEGER; END;
             PROCEDURE Sneak (VAR v: INTEGER) = BEGIN v := 7 END Sneak;
             VAR t: T; x, y: INTEGER;
             BEGIN
               t := NEW(T);
               x := t.f;
               Sneak(t.f);
               y := t.f;
             END M.",
            Level::SmFieldTypeRefs,
        );
        assert_eq!(stats.eliminated, 0, "address of t.f escapes to the call");
    }

    #[test]
    fn while_loop_invariant_hoists_in_rotated_form() {
        let (_, stats) = rle_with(
            "MODULE M;
             TYPE Node = OBJECT v: INTEGER; next: Node; END;
                  H = OBJECT lim: INTEGER; END;
             VAR n: Node; h: H; s: INTEGER;
             BEGIN
               h := NEW(H); h.lim := 10;
               n := NEW(Node);
               WHILE s < h.lim DO
                 s := s + 1;
               END;
             END M.",
            Level::SmFieldTypeRefs,
        );
        // h.lim is loaded in the guard and in the bottom test; the bottom
        // test load is inside the loop and invariant -> hoisted or CSE'd.
        assert!(stats.removed() >= 1, "stats: {stats:?}");
    }
}
