//! The `ProxyApp::step` contract the work-metered runner relies on: an
//! app's state, `verify()` and `thread_ops(threads)` after a step are the
//! same bits whatever team the step ran on.
//!
//! Per kernel, a random small configuration is stepped on teams of 1, 2, 3
//! and `threads` members. Every step's `threads`-way operation counts, the
//! final state and `verify()` must agree across the teams, and
//! `run_real_campaign`'s metered trace — stepped on one member — must be
//! those counts priced, so a metered trace is the one any team would give.

use std::fmt::Debug;

use ebird_apps::minife::mesh::MeshDims;
use ebird_apps::{MiniFe, MiniFeParams, MiniMd, MiniMdParams, MiniQmc, MiniQmcParams, ProxyApp};
use ebird_cluster::{run_real_campaign, JobConfig, RealTiming};
use ebird_runtime::Pool;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const NS_PER_OP: f64 = 3.0;

/// What one team's run leaves: each step's `threads`-way counts in order,
/// the final state as `Debug` text (an `f64` prints its shortest
/// round-trip form, so equal text is equal bits) and `verify()`.
type Run = (Vec<u64>, String, Result<(), String>);

fn run_on_team<A: ProxyApp + Clone + Debug>(
    app: &A,
    team: usize,
    threads: usize,
    steps: usize,
) -> Run {
    let pool = Pool::new(team);
    let mut app = app.clone();
    let mut ops = Vec::with_capacity(steps * threads);
    for _ in 0..steps {
        assert!(
            app.step(&pool, None).is_empty(),
            "an untimed step stamps nothing"
        );
        ops.extend(app.thread_ops(threads));
    }
    (ops, format!("{app:?}"), app.verify())
}

fn check_team_neutral<A>(app: A, threads: usize, steps: usize) -> Result<(), TestCaseError>
where
    A: ProxyApp + Clone + Debug + 'static,
{
    let one = run_on_team(&app, 1, threads, steps);
    for team in [2, 3, threads] {
        let other = run_on_team(&app, team, threads, steps);
        prop_assert_eq!(&other.0, &one.0, "thread_ops on a team of {}", team);
        prop_assert!(other.1 == one.1, "state after a team of {} differs", team);
        prop_assert_eq!(&other.2, &one.2, "verify() on a team of {}", team);
    }
    let cfg = JobConfig::new(1, 1, steps, threads);
    let trace = run_real_campaign(
        &cfg,
        |_, _| Box::new(app.clone()),
        RealTiming::Metered {
            ns_per_op: NS_PER_OP,
        },
    );
    match (&one.2, trace) {
        (Ok(()), Ok(trace)) => {
            let traced: Vec<u64> = trace
                .samples()
                .iter()
                .map(|s| s.compute_time_ns())
                .collect();
            let priced: Vec<u64> = one
                .0
                .iter()
                .map(|&n| ((n as f64 * NS_PER_OP).round() as u64).max(1))
                .collect();
            prop_assert_eq!(traced, priced);
        }
        (Err(_), Err(_)) => {}
        (verified, traced) => {
            prop_assert!(
                false,
                "verify() {:?} but the campaign gave {:?}",
                verified,
                traced.map(|_| ())
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn minife_is_team_neutral(
        nx in 2usize..6,
        ny in 2usize..6,
        nz in 1usize..13,
        threads in 4usize..9,
        steps in 1usize..8,
    ) {
        let app = MiniFe::new(MiniFeParams { dims: MeshDims::new(nx, ny, nz) });
        check_team_neutral(app, threads, steps)?;
    }

    #[test]
    fn minimd_is_team_neutral(
        x in 2usize..4,
        y in 2usize..4,
        z in 2usize..4,
        seed in 0u64..u64::MAX,
        threads in 4usize..9,
        // Past step 20's first neighbor rebuild, where per-atom neighbor
        // counts — and so per-thread ops — diverge.
        steps in 1usize..25,
    ) {
        let mut params = MiniMdParams::test_scale();
        params.cells = (x, y, z);
        params.seed = seed;
        check_team_neutral(MiniMd::new(params), threads, steps)?;
    }

    #[test]
    fn miniqmc_is_team_neutral(
        walkers in 1usize..13,
        electrons in 1usize..7,
        seed in 0u64..u64::MAX,
        threads in 4usize..9,
        steps in 1usize..6,
    ) {
        let mut params = MiniQmcParams::test_scale();
        params.walkers = walkers;
        params.electrons = electrons;
        params.seed = seed;
        check_team_neutral(MiniQmc::new(params), threads, steps)?;
    }
}
