//! The indexed liveness and allocation checks in lock-step with the scans
//! they replaced, and the per-shape checks against what they must say at
//! every invocation.
//!
//! `mod reference` is the analyzer's program model as it stood before it
//! was indexed: every access carries an eagerly formatted label, V101
//! collects and sorts every ordered-before write of the program per read,
//! and V201 filters the whole access list twice per op pair. It is kept
//! verbatim as the oracle (the `indexed_arbiter.rs` / `seq_buffers.rs`
//! pattern): over random strip-mined programs with one seeded defect the
//! two diagnostic lists must be equal — code, op, message, order.

use proptest::prelude::*;

use isrf_core::config::ConfigName;
use isrf_gen::{Defect, Generated, Spec};
use isrf_verify::{codes, Diagnostic, Verifier};

mod reference {
    use isrf_core::config::MachineConfig;
    use isrf_kernel::ir::StreamKind;
    use isrf_sim::{ProgOp, StreamBinding, StreamProgram, VerifyEnv};
    use isrf_verify::Diagnostic;

    struct Access {
        prog_op: usize,
        binding: StreamBinding,
        write: bool,
        indexed: bool,
        label: String,
    }

    pub struct Analysis<'a> {
        cfg: &'a MachineConfig,
        env: &'a VerifyEnv,
        program: &'a StreamProgram,
        accesses: Vec<Access>,
        before: Vec<Vec<u64>>,
    }

    fn bit_get(row: &[u64], j: usize) -> bool {
        row[j / 64] & (1 << (j % 64)) != 0
    }

    fn binding_footprint(b: &StreamBinding, indexed: bool, lanes: u32) -> Option<(u32, u32)> {
        if indexed {
            return Some((b.range.base, b.range.base + b.range.words_per_bank));
        }
        if b.records == 0 || b.record_words == 0 {
            return None;
        }
        let min_rec = b.absolute_record(0);
        let max_rec = if b.stride_records == 0 {
            b.start_record + b.run_records.min(b.records) - 1
        } else {
            b.absolute_record(b.records - 1)
        };
        let lo = b.range.base + (min_rec / lanes) * b.record_words;
        let hi = b.range.base + (max_rec / lanes) * b.record_words + b.record_words;
        Some((lo, hi))
    }

    fn range_interval(b: &StreamBinding) -> (u32, u32) {
        (b.range.base, b.range.base + b.range.words_per_bank)
    }

    fn interval_covers(intervals: &mut [(u32, u32)], lo: u32, hi: u32) -> bool {
        if lo >= hi {
            return true;
        }
        intervals.sort_unstable();
        let mut need = lo;
        for &(s, e) in intervals.iter() {
            if s > need {
                return false;
            }
            if e > need {
                need = e;
                if need >= hi {
                    return true;
                }
            }
        }
        false
    }

    fn diag(code: &str, check: &str, prog_op: usize, message: String) -> Diagnostic {
        Diagnostic {
            code: code.into(),
            check: check.into(),
            message,
            prog_op: Some(prog_op),
            kernel: None,
            kernel_op: None,
            line: None,
            notes: Vec::new(),
        }
    }

    impl<'a> Analysis<'a> {
        pub fn new(cfg: &'a MachineConfig, env: &'a VerifyEnv, program: &'a StreamProgram) -> Self {
            let n = program.len();
            let wlen = n.div_ceil(64).max(1);
            let mut before: Vec<Vec<u64>> = Vec::with_capacity(n);
            let mut last_kernel: Option<usize> = None;
            for i in 0..n {
                let (op, deps) = program.node(i);
                let mut row = vec![0u64; wlen];
                let mut preds: Vec<usize> = deps.iter().map(|d| d.index()).collect();
                if let ProgOp::Kernel { .. } = op {
                    if let Some(k) = last_kernel {
                        preds.push(k);
                    }
                    last_kernel = Some(i);
                }
                for j in preds {
                    row[j / 64] |= 1 << (j % 64);
                    for (w, b) in row.iter_mut().zip(&before[j]) {
                        *w |= b;
                    }
                }
                before.push(row);
            }

            let mut accesses = Vec::new();
            for i in 0..n {
                let (op, _) = program.node(i);
                let mut push =
                    |binding: StreamBinding, write: bool, indexed: bool, label: String| {
                        accesses.push(Access {
                            prog_op: i,
                            binding,
                            write,
                            indexed,
                            label,
                        });
                    };
                match op {
                    ProgOp::Load { dst, .. } => {
                        push(*dst, true, false, format!("load (op {i}) destination"));
                    }
                    ProgOp::Store { src, .. } => {
                        push(*src, false, false, format!("store (op {i}) source"));
                    }
                    ProgOp::GatherDyn {
                        index_stream, dst, ..
                    } => {
                        push(
                            *index_stream,
                            false,
                            false,
                            format!("gather (op {i}) index stream"),
                        );
                        push(*dst, true, false, format!("gather (op {i}) destination"));
                    }
                    ProgOp::Kernel {
                        kernel, bindings, ..
                    } => {
                        for (decl, b) in kernel.streams.iter().zip(bindings) {
                            let write = matches!(
                                decl.kind,
                                StreamKind::SeqOut | StreamKind::CondOut | StreamKind::IdxInWrite
                            );
                            push(
                                *b,
                                write,
                                decl.kind.is_indexed(),
                                format!("kernel `{}` stream `{}`", kernel.name, decl.name),
                            );
                        }
                    }
                }
            }

            Analysis {
                cfg,
                env,
                program,
                accesses,
                before,
            }
        }

        fn bank_words(&self) -> u32 {
            self.cfg.srf.bank_words(self.cfg.lanes) as u32
        }

        fn footprint(&self, a: &Access) -> Option<(u32, u32)> {
            binding_footprint(&a.binding, a.indexed, self.cfg.lanes as u32)
        }

        fn exceeds_bank(&self, b: &StreamBinding) -> bool {
            b.range.base + b.range.words_per_bank > self.bank_words()
        }

        pub fn check_liveness(&self, out: &mut Vec<Diagnostic>) {
            let check = "liveness";
            for a in &self.accesses {
                let (lo, hi) = range_interval(&a.binding);
                if self.exceeds_bank(&a.binding) {
                    continue;
                }
                if hi > self.env.allocated_words_per_bank {
                    out.push(diag(
                        "V102",
                        check,
                        a.prog_op,
                        format!(
                            "{} is bound to SRF words [{lo}, {hi}) per bank, but only {} words \
                             have been allocated",
                            a.label, self.env.allocated_words_per_bank
                        ),
                    ));
                    continue;
                }
                if a.write {
                    continue;
                }
                let mut covered: Vec<(u32, u32)> = self.env.filled.clone();
                for w in &self.accesses {
                    if w.write && bit_get(&self.before[a.prog_op], w.prog_op) {
                        covered.push(range_interval(&w.binding));
                    }
                }
                if !interval_covers(&mut covered, lo, hi) {
                    out.push(diag(
                        "V101",
                        check,
                        a.prog_op,
                        format!(
                            "{} reads SRF words [{lo}, {hi}) per bank, but no memory load, \
                             prior kernel output, or pre-existing data fills them",
                            a.label
                        ),
                    ));
                }
            }
        }

        pub fn check_allocation(&self, out: &mut Vec<Diagnostic>) {
            let check = "allocation";
            for a in &self.accesses {
                let b = &a.binding;
                if self.exceeds_bank(b) {
                    let (lo, hi) = range_interval(b);
                    out.push(diag(
                        "V202",
                        check,
                        a.prog_op,
                        format!(
                            "{} is bound to SRF words [{lo}, {hi}) per bank, beyond the bank \
                             capacity of {} words",
                            a.label,
                            self.bank_words()
                        ),
                    ));
                    continue;
                }
                if b.records > 0 && b.record_words > 0 {
                    let max_rec = if !a.indexed && b.stride_records == 0 {
                        b.start_record + b.run_records.min(b.records) - 1
                    } else {
                        b.absolute_record(b.records - 1)
                    };
                    let lanes = self.cfg.lanes as u32;
                    let need = (max_rec / lanes) * b.record_words + b.record_words;
                    if need > b.range.words_per_bank {
                        out.push(diag(
                            "V103",
                            check,
                            a.prog_op,
                            format!(
                                "{} needs {need} words per bank for its {} records of {} \
                                 word(s), but its range holds only {}",
                                a.label, b.records, b.record_words, b.range.words_per_bank
                            ),
                        ));
                    }
                }
            }

            for j in 0..self.program.len() {
                for i in 0..j {
                    if bit_get(&self.before[j], i) {
                        continue;
                    }
                    let war_exempt = {
                        let (op_i, deps_i) = self.program.node(i);
                        let (op_j, _) = self.program.node(j);
                        !matches!(op_i, ProgOp::Kernel { .. })
                            && matches!(op_j, ProgOp::Kernel { .. })
                            && deps_i.iter().all(|d| bit_get(&self.before[j], d.index()))
                    };
                    let conflict = self
                        .accesses
                        .iter()
                        .filter(|a| a.prog_op == i)
                        .find_map(|a| {
                            self.accesses
                                .iter()
                                .filter(|b| b.prog_op == j)
                                .find(|b| {
                                    (a.write || (b.write && !war_exempt))
                                        && match (self.footprint(a), self.footprint(b)) {
                                            (Some((al, ah)), Some((bl, bh))) => al < bh && bl < ah,
                                            _ => false,
                                        }
                                })
                                .map(|b| (a, b))
                        });
                    if let Some((a, b)) = conflict {
                        let (al, ah) = self.footprint(a).expect("checked");
                        let (bl, bh) = self.footprint(b).expect("checked");
                        let (lo, hi) = (al.max(bl), ah.min(bh));
                        out.push(diag(
                            "V201",
                            check,
                            j,
                            format!(
                                "{} and {} touch overlapping SRF words [{lo}, {hi}) per bank \
                                 with no ordering dependence between ops {i} and {j}",
                                a.label, b.label
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Liveness then allocation findings by the replaced scans.
fn reference_findings(g: &Generated) -> Vec<Diagnostic> {
    let ctx = reference::Analysis::new(&g.cfg, &g.env, &g.program);
    let mut out = Vec::new();
    ctx.check_liveness(&mut out);
    ctx.check_allocation(&mut out);
    out
}

const DEFECTS: [Option<Defect>; 10] = [
    None,
    Some(Defect::DropDep),
    Some(Defect::DropGatherDep),
    Some(Defect::DropLoad),
    Some(Defect::PastAllocation),
    Some(Defect::PastBank),
    Some(Defect::Overflow),
    Some(Defect::WarNotExempt),
    Some(Defect::BadIndex),
    Some(Defect::BadFlow),
];

/// Everything [`Verifier::verify`] finds in `g`, in its order.
fn findings(g: &Generated) -> Vec<Diagnostic> {
    Verifier::new()
        .verify(&g.cfg, &g.env, &g.program)
        .err()
        .map_or_else(Vec::new, |e| e.diagnostics)
}

fn codes_of(d: &[Diagnostic]) -> Vec<&str> {
    d.iter().map(|d| d.code.as_str()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn indexed_checks_match_the_scans_they_replaced(
        cfg_idx in 0usize..4,
        strips in 1usize..41,
        kernels in 1usize..4,
        flags in 0u32..32,
        defect_idx in 0usize..DEFECTS.len(),
        strike in 0usize..40,
    ) {
        let spec = Spec {
            config: ConfigName::ALL[cfg_idx],
            strips,
            double_buffered: flags & 1 != 0,
            kernels,
            gather: flags & 2 != 0,
            lookup: flags & 4 != 0,
            ragged: flags & 8 != 0,
            late_drain: flags & 16 != 0,
            cacheable: false,
            repeat: 0,
            side_gathers: 0,
            defect: DEFECTS[defect_idx].map(|d| (d, strike % strips)),
        };
        let g = spec.generate();
        let want = reference_findings(&g);
        let all = findings(&g);

        // Liveness and allocation report first, in the reference's order.
        prop_assert!(all.len() >= want.len(), "{spec:?}: {all:#?} against {want:#?}");
        let (scans, per_kernel) = all.split_at(want.len());
        prop_assert_eq!(scans, &want[..], "{:?}", spec);
        let only_scans: Vec<Diagnostic> = all
            .iter()
            .filter(|d| d.check == "liveness" || d.check == "allocation")
            .cloned()
            .collect();
        prop_assert_eq!(&only_scans, &want, "{:?}", spec);

        // A program without a seeded defect is clean, and a seeded one is seen.
        match spec.defect {
            None => prop_assert!(all.is_empty(), "{spec:?}: {all:#?}"),
            Some((Defect::DropDep, _)) => {
                let (i, j) = g.dropped.expect("the strip has a load");
                let hit = want.iter().any(|d| {
                    d.code == codes::OVERLAP_HAZARD
                        && d.prog_op == Some(j)
                        && d.message.ends_with(&format!("between ops {i} and {j}"))
                });
                prop_assert!(hit, "{spec:?}: {want:#?}");
            }
            Some((Defect::PastAllocation, _)) => {
                prop_assert!(codes_of(&want).contains(&codes::UNALLOCATED_BINDING));
            }
            Some((Defect::PastBank, _)) => {
                prop_assert!(codes_of(&want).contains(&codes::CAPACITY_EXCEEDED));
            }
            Some((Defect::Overflow, _)) => {
                prop_assert!(codes_of(&want).contains(&codes::BINDING_OVERFLOW));
            }
            _ => {}
        }

        // The per-shape checks speak at every invocation of a hazardous
        // shape, each finding under its own op and otherwise alike.
        let (code, ops): (&str, Vec<usize>) = match spec.defect {
            Some((Defect::BadIndex, _)) => {
                (codes::INDEX_OUT_OF_BOUNDS, g.lookups.iter().map(|l| l.0).collect())
            }
            Some((Defect::BadFlow, _)) => (
                codes::PROPAGATED_INDEX_OOB,
                g.lookups.iter().filter(|l| l.1.is_some()).map(|l| l.0).collect(),
            ),
            _ => ("", Vec::new()),
        };
        let at: Vec<usize> = per_kernel.iter().filter_map(|d| d.prog_op).collect();
        prop_assert_eq!(&at, &ops, "{:?}: {:#?}", spec, per_kernel);
        for d in per_kernel {
            prop_assert_eq!(&d.code, code);
            let first = &per_kernel[0];
            prop_assert_eq!(
                (&d.message, &d.kernel, d.kernel_op, d.line),
                (&first.message, &first.kernel, first.kernel_op, first.line)
            );
        }
        if code == codes::PROPAGATED_INDEX_OOB {
            // The dataflow note names this invocation's own producer.
            for (d, l) in per_kernel.iter().zip(g.lookups.iter().filter(|l| l.1.is_some())) {
                let producer = format!("(op {})", l.1.expect("filtered"));
                prop_assert!(d.notes.iter().any(|n| n.contains(&producer)), "{d:#?}");
            }
        }
    }
}

/// Defects the random draw may place where they are benign, pinned where
/// they are not.
#[test]
fn seeded_defects_are_reported_where_they_bite() {
    let spec = |defect, late_drain| Spec {
        late_drain,
        lookup: true,
        kernels: 2,
        defect: Some(defect),
        ..Spec::bfs_shaped(ConfigName::Isrf4, 8)
    };
    let run = |s: &Spec| {
        let g = s.generate();
        let found = findings(&g);
        let want = reference_findings(&g);
        assert_eq!(found[..want.len()], want[..]);
        found
    };
    // A missing first load leaves a fresh buffer unfilled; a later one
    // finds the previous strip's data there.
    assert_eq!(
        codes_of(&run(&spec((Defect::DropLoad, 0), false))),
        [codes::UNFILLED_READ]
    );
    assert!(run(&spec((Defect::DropLoad, 4), false)).is_empty());
    // A gather that waits for nothing races its own index load (and every
    // earlier user of its buffers).
    let found = run(&spec((Defect::DropGatherDep, 5), false));
    let race = "load (op 31) destination and gather (op 32) index stream touch overlapping";
    assert!(
        found.iter().any(|d| d.message.starts_with(race)),
        "{found:#?}"
    );
    // The snapshot exemption holds exactly while the store waits on nothing
    // the overwriting kernel does not.
    assert!(run(&spec((Defect::WarNotExempt, 3), false)).is_empty());
    let found = run(&spec((Defect::WarNotExempt, 3), true));
    assert_eq!(codes_of(&found), [codes::OVERLAP_HAZARD]);
    assert!(found[0].message.starts_with("store (op "), "{found:#?}");
    assert!(found[0]
        .message
        .contains("and kernel `lookup` stream `out`"));
}

/// Twenty thousand ops in a debug build: clean, and with one dependence
/// removed exactly that pair. (About 50 MB of ordering bitsets; the scans
/// this replaced need minutes here.)
#[test]
fn twenty_thousand_ops_verify_clean_and_one_dropped_dependence_is_one_finding() {
    let mut spec = Spec {
        lookup: true,
        kernels: 2,
        ..Spec::bfs_shaped(ConfigName::Isrf4, 3400)
    };
    let g = spec.generate();
    assert!(g.program.len() >= 20_000, "{} ops", g.program.len());
    let found = findings(&g);
    assert!(found.is_empty(), "{found:#?}");

    spec.defect = Some((Defect::DropDep, 1700));
    let g = spec.generate();
    let (i, j) = g.dropped.expect("the strip has a load");
    let found = findings(&g);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!(
        (found[0].code.as_str(), found[0].prog_op),
        (codes::OVERLAP_HAZARD, Some(j))
    );
    assert_eq!(
        found[0].message,
        format!(
            "load (op {i}) destination and kernel `add2` stream `in` touch overlapping SRF \
             words [0, 4) per bank with no ordering dependence between ops {i} and {j}"
        )
    );
}
