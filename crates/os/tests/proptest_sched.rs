//! Property tests pinning the in-place [`Scheduler::apply`] to the pure
//! [`step`] transition function that `bc-check` explores.
//!
//! The tenants system drives `apply`, which runs the transition on its
//! own state; the checker proves properties of `step`, which runs the
//! same body on a clone. Random walks over `enabled_events` in worlds of
//! up to 4 tenants × 3 accelerators (the checker's largest) require, at
//! every step, that `apply` returns `step`'s actions and leaves `step`'s
//! next state, and that `step` leaves its input as it was for every
//! event, enabled or not.

use bc_os::sched::{enabled_events, step, SchedEvent, SchedState, Scheduler};
use proptest::prelude::*;

/// Every event a world of `accels` accelerators can name, plus one
/// accelerator past the end (never enabled).
fn every_event(accels: usize) -> Vec<SchedEvent> {
    (0..=accels)
        .flat_map(|accel| {
            [
                SchedEvent::Dispatch { accel },
                SchedEvent::QuantumExpired { accel },
                SchedEvent::JobDone { accel },
                SchedEvent::Violation { accel },
                SchedEvent::DrainComplete { accel },
                SchedEvent::TeardownComplete { accel },
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn apply_matches_step_on_random_walks(
        tenants in 1usize..5,
        accels in 1usize..4,
        picks in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        let mut sched = Scheduler::new(tenants, accels);
        let mut s = SchedState::new(tenants, accels);
        let universe = every_event(accels);
        for (i, pick) in picks.iter().enumerate() {
            let enabled = enabled_events(&s);
            // `step` is pure for every event, and defined exactly on the
            // enabled ones.
            for &ev in &universe {
                let before = s.clone();
                let out = step(&s, ev);
                prop_assert_eq!(&s, &before, "step {} changed its input on {:?}", i, ev);
                prop_assert_eq!(out.is_some(), enabled.contains(&ev), "step {} on {:?}", i, ev);
            }
            if enabled.is_empty() {
                prop_assert!(s.is_terminal(), "stuck at step {}", i);
                break;
            }
            let ev = enabled[(*pick % enabled.len() as u64) as usize];
            let (next, actions) = step(&s, ev).expect("enabled event steps");
            prop_assert_eq!(sched.apply(ev), actions, "actions of {:?} at step {}", ev, i);
            prop_assert_eq!(sched.state(), &next, "state after {:?} at step {}", ev, i);
            prop_assert_eq!(sched.is_terminal(), next.is_terminal());
            s = next;
        }
    }

    /// `dispatch_idle` is `apply(Dispatch)` on every idle, scrubbed
    /// accelerator in index order while the queue lasts.
    #[test]
    fn dispatch_idle_is_a_run_of_dispatch_steps(
        tenants in 1usize..5,
        accels in 1usize..4,
        picks in proptest::collection::vec(any::<u64>(), 1..80),
    ) {
        let mut sched = Scheduler::new(tenants, accels);
        let mut s = SchedState::new(tenants, accels);
        for pick in &picks {
            let mut expected = Vec::new();
            for accel in 0..accels {
                let ev = SchedEvent::Dispatch { accel };
                if enabled_events(&s).contains(&ev) {
                    let (next, actions) = step(&s, ev).expect("enabled dispatch steps");
                    expected.extend(actions);
                    s = next;
                }
            }
            prop_assert_eq!(sched.dispatch_idle(), expected);
            prop_assert_eq!(sched.state(), &s);
            let rest: Vec<SchedEvent> = enabled_events(&s)
                .into_iter()
                .filter(|e| !matches!(e, SchedEvent::Dispatch { .. }))
                .collect();
            if rest.is_empty() {
                break;
            }
            let ev = rest[(*pick % rest.len() as u64) as usize];
            let (next, actions) = step(&s, ev).expect("enabled event steps");
            prop_assert_eq!(sched.apply(ev), actions);
            s = next;
        }
    }
}
