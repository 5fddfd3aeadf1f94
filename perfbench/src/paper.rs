//! `paper`: a cut-down `reproduce` on large tori. The paper's costly
//! algorithms do the work: tile enumeration and SAT synthesis of `A'`,
//! the MIS `S_k` on grid powers, and the engine's solver walk.

use crate::layers::{
    self, Encoder, Synthesised, CLASSIFY, E7_SOLVE, SOLVABLE, SPEEDUP, SYNTHESIZE, TILES,
};
use crate::{derive_seed, layer, run_passes, timed, Opts, Passes, Report};
use lcl_grids::algorithms::orientations::predicted_class;
use lcl_grids::core::problems::{vertex_colouring, XSet};
use lcl_grids::core::speedup::{speedup, RowColeVishkin};
use lcl_grids::core::synthesis::{enumerate_tiles, synthesize, SynthesisConfig, TileShape};
use lcl_grids::engine::{Engine, Instance, PreparedProblem, ProblemSpec, Registry};
use lcl_grids::grid::{Metric, Torus2};
use lcl_grids::local::{GridInstance, IdAssignment};
use lcl_grids::symmetry::mis_torus_power;
use std::sync::Arc;
use std::time::Instant;

/// Torus sides of the E7 4-colouring solves.
const E7_SIDES: [usize; 3] = [16, 32, 64];
/// Torus side of the E12 speed-up run.
const E12_SIDE: usize = 128;

/// Inputs and engines of one pass; built fresh per pass so that E7's
/// synthesis starts from a cold registry every time.
struct Ready {
    e7: Arc<PreparedProblem>,
    e7_instances: Vec<(usize, Instance)>,
    e6: Vec<(XSet, Arc<PreparedProblem>)>,
    odd5: Instance,
    e12: GridInstance,
}

impl Ready {
    fn new(seed: u64) -> Result<Ready, String> {
        let registry = Arc::new(Registry::new());
        let engine = |max_k: usize| {
            Engine::builder()
                .max_synthesis_k(max_k)
                .registry(Arc::clone(&registry))
                .build()
        };
        let e7 = engine(3)
            .prepare(&ProblemSpec::vertex_colouring(4))
            .map_err(|e| e.to_string())?;
        let e6_engine = engine(1);
        let e6 = XSet::all()
            .map(|x| {
                e6_engine
                    .prepare(&ProblemSpec::orientation(x))
                    .map(|p| (x, p))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Ready {
            e7,
            e7_instances: E7_SIDES
                .iter()
                .map(|&n| {
                    let ids = IdAssignment::Shuffled {
                        seed: derive_seed(seed, n as u64),
                    };
                    (n, Instance::square(n, &ids))
                })
                .collect(),
            e6,
            odd5: Instance::from(Torus2::square(5)),
            e12: GridInstance::new(
                E12_SIDE,
                &IdAssignment::Shuffled {
                    seed: derive_seed(seed, E12_SIDE as u64),
                },
            ),
        })
    }
}

/// What a pass measured that must repeat exactly across passes.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counts {
    /// Per E7 side: (rounds, ℓ, anchors) — ℓ and anchors are 0 for
    /// solvers that do not report them.
    e7: Vec<(u64, u64, u64)>,
    e12_rounds: u64,
    e12_k: usize,
}

fn detail(labelling: &lcl_grids::Labelling, key: &str) -> u64 {
    labelling
        .report
        .detail(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// One pass: E2, E3, E7, E12 and E6, each output checked.
fn pass(ready: &Ready, report: &mut Report) -> Counts {
    // E2: tile counts (§7: 16 at k=1 3×2; 2079 at k=3 7×5).
    let tiles = [(1, 3, 2), (3, 7, 5)].map(|(k, rows, cols)| {
        layer(TILES, || {
            enumerate_tiles(k, TileShape::new(rows, cols)).len()
        })
    });
    report.attempted += 2;
    report.check(tiles == [16, 2079], || {
        format!("E2: tile counts {tiles:?}, want [16, 2079]")
    });

    // E3: 4-colouring synthesis fails at k ≤ 2 and succeeds at k = 3.
    let p4 = vertex_colouring(4);
    let found = [1, 2, 3].map(|k| {
        layer(SYNTHESIZE, || {
            synthesize(&p4, &SynthesisConfig::for_k(k)).is_some()
        })
    });
    report.attempted += 3;
    report.check(found == [false, false, true], || {
        format!("E3: synthesis outcomes {found:?}")
    });

    // E7: 4-colouring through the engine; every labelling re-checked.
    let mut counts = Counts {
        e7: Vec::new(),
        e12_rounds: 0,
        e12_k: 0,
    };
    for (n, inst) in &ready.e7_instances {
        report.attempted += 1;
        match layer(E7_SOLVE, || ready.e7.solve(inst)) {
            Ok(lab) => {
                let valid = ready.e7.spec().check_instance(inst, &lab.labels);
                report.check(valid.is_ok(), || {
                    format!("E7 n={n}: invalid labelling: {valid:?}")
                });
                counts.e7.push((
                    lab.report.rounds.total(),
                    detail(&lab, "ell"),
                    detail(&lab, "anchors"),
                ));
            }
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("E7 n={n}: {e}"));
                counts.e7.push((0, 0, 0));
            }
        }
    }

    // E12: the speed-up normal form; RowColeVishkin 3-colours each row.
    report.attempted += 1;
    let run = layer(SPEEDUP, || speedup(&RowColeVishkin, &ready.e12));
    let torus = ready.e12.torus();
    let rows_ok = (0..torus.node_count()).all(|v| {
        let east = torus.index(torus.offset(torus.pos(v), 1, 0));
        run.labels[v] < 3 && run.labels[v] != run.labels[east]
    });
    report.check(rows_ok, || {
        "E12: speed-up output is not a row 3-colouring".to_string()
    });
    counts.e12_rounds = run.rounds.total();
    counts.e12_k = run.k;

    // E6: the orientation census agrees with Theorem 22 on all 32 rows.
    let mut agree = 0;
    for (x, prepared) in &ready.e6 {
        report.attempted += 2;
        match layer(CLASSIFY, || prepared.classify()) {
            Ok(class) => agree += usize::from(predicted_class(*x).agrees_with(&class)),
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("E6 X={x}: classify: {e}"));
            }
        }
        if let Err(e) = layer(SOLVABLE, || prepared.solvable(&ready.odd5)) {
            report.failed += 1;
            report.check(false, || format!("E6 X={x}: solvable: {e}"));
        }
    }
    report.check(agree == 32, || {
        format!("E6: agreed with Theorem 22 on {agree}/32")
    });
    counts
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    if opts.trace {
        return run_traced(opts, report);
    }
    let mut passes = Passes::default();
    let mut first: Option<Counts> = None;
    run_passes(
        opts.seconds,
        &mut passes,
        || Ready::new(opts.seed),
        |ready, passes| {
            // One operation is one whole pass, as one census is in
            // `census`: the experiments differ too much in cost for a
            // quantile over them to mean anything.
            let (counts, took) = timed(|| pass(ready, report));
            passes.ops_ms.push(vec![took * 1e3]);
            match &first {
                None => first = Some(counts),
                Some(f) => report.check(*f == counts, || {
                    format!("paper: pass counts differ: {f:?} vs {counts:?}")
                }),
            }
            Ok(())
        },
    )?;
    passes.finish(report);
    Ok(())
}

fn run_traced(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let ready = Ready::new(opts.seed)?;
    let (untraced, untraced_s) = timed(|| pass(&ready, report));

    let ready = Ready::new(opts.seed)?;
    let t0 = layers::begin(1 << 20);
    let counts = pass(&ready, report);
    let traced = layers::end(t0);
    report.check(untraced == counts, || {
        format!("paper: traced pass differs: {untraced:?} vs {counts:?}")
    });
    report.set("trace.overhead_ratio", traced.wall_s() / untraced_s);
    // E3 and E7 synthesise 4-colouring, E6 orientations.
    let direct: Vec<(usize, TileShape, Encoder)> = (1..=3)
        .map(|k| (k, SynthesisConfig::for_k(k).shape, Encoder::Vertex))
        .collect();
    traced.report(
        report,
        &Synthesised {
            under: &[
                (E7_SOLVE, Encoder::Vertex),
                (CLASSIFY, Encoder::SuperWindow),
                (SOLVABLE, Encoder::SuperWindow),
            ],
            otherwise: None,
            direct: &direct,
        },
    );

    for ((n, inst), &(rounds, ell, anchors)) in ready.e7_instances.iter().zip(&counts.e7) {
        report.set(&format!("paper.e7.rounds.n{n}"), rounds as f64);
        report.set(&format!("paper.e7.ell.n{n}"), ell as f64);
        report.set(&format!("paper.e7.anchors.n{n}"), anchors as f64);
        // The anchor MIS of the final attempt, re-run from outside with
        // the ℓ the solve reported.
        if let (Some(gi), true) = (inst.as_torus2(), ell > 0) {
            let started = Instant::now();
            std::hint::black_box(mis_torus_power(
                &gi.torus(),
                Metric::Linf,
                ell as usize,
                gi.ids(),
            ));
            report.add(
                "symmetry.mis_power_ms",
                started.elapsed().as_secs_f64() * 1e3,
            );
        }
    }
    report.set(
        &format!("paper.e12.rounds.n{E12_SIDE}"),
        counts.e12_rounds as f64,
    );
    let started = Instant::now();
    std::hint::black_box(mis_torus_power(
        &ready.e12.torus(),
        Metric::L1,
        counts.e12_k / 2,
        ready.e12.ids(),
    ));
    report.add(
        "symmetry.mis_power_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    Ok(())
}
