//! Fail-point injection (feature `failpoints`).
//!
//! A *fail point* is a named site in the engine where a test can inject a
//! fault: a panic, forced eval-fuel exhaustion, a deadline expiring
//! mid-phase, or a forced store eviction. The facility is compiled to
//! nothing unless the `failpoints` cargo feature is enabled — with the
//! feature off, [`check`] is a `const` `None` that the optimizer deletes.
//!
//! # Sites
//!
//! | site                | honored actions                  |
//! |---------------------|----------------------------------|
//! | `search.pop`        | `ExpireDeadline`                 |
//! | `verify.candidate`  | `Panic`, `ExhaustFuel`           |
//! | `deduce.plan`       | `Panic`                          |
//! | `enumerate.level`   | `ExpireDeadline`                 |
//! | `store.evict`       | `EvictStores`                    |
//! | `serve.request`     | `Panic`                          |
//!
//! Arming a site with an action it does not honor is a no-op (the site
//! consumes the trigger but injects nothing). `serve.request` sits in
//! the serve daemon's worker, *inside* its `catch_unwind` but outside
//! the engine's per-candidate isolation — it models an unguarded engine
//! panic, which the deeper sites cannot (the engine absorbs those
//! itself).
//!
//! # Determinism
//!
//! The registry is **thread-local**: tests arming fail points cannot
//! interfere with each other even when the test harness runs them on
//! concurrent threads, and an armed fault always fires at the same
//! (skip, fires)-counted occurrence of its site — runs with identical
//! configurations behave identically.

/// The fault a fail point injects when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the site (exercises the engine's panic isolation).
    Panic,
    /// Run the site's evaluation with zero fuel.
    ExhaustFuel,
    /// Latch the governing budget's deadline as expired.
    ExpireDeadline,
    /// Force an LRU sweep that evicts every other enumeration store.
    EvictStores,
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::FailAction;
    use std::cell::RefCell;
    use std::collections::HashMap;

    #[derive(Clone, Copy, Debug)]
    struct Config {
        action: FailAction,
        /// Occurrences of the site to let pass before firing.
        skip: u64,
        /// How many times to fire once triggered (then disarm).
        fires: u64,
        /// Total times this site has fired since it was armed.
        hits: u64,
    }

    thread_local! {
        static REGISTRY: RefCell<HashMap<&'static str, Config>> =
            RefCell::new(HashMap::new());
    }

    /// Arms `site` to inject `action` on its next `fires` occurrences.
    pub fn arm(site: &'static str, action: FailAction, fires: u64) {
        arm_after(site, action, 0, fires);
    }

    /// Arms `site` to skip its first `skip` occurrences, then inject
    /// `action` on the following `fires` occurrences.
    pub fn arm_after(site: &'static str, action: FailAction, skip: u64, fires: u64) {
        REGISTRY.with(|r| {
            r.borrow_mut().insert(
                site,
                Config {
                    action,
                    skip,
                    fires,
                    hits: 0,
                },
            );
        });
    }

    /// Disarms one site.
    pub fn disarm(site: &str) {
        REGISTRY.with(|r| {
            r.borrow_mut().remove(site);
        });
    }

    /// Disarms every site (call between tests).
    pub fn reset() {
        REGISTRY.with(|r| r.borrow_mut().clear());
    }

    /// Times `site` has fired since it was armed (0 when unarmed).
    pub fn hits(site: &str) -> u64 {
        REGISTRY.with(|r| r.borrow().get(site).map_or(0, |c| c.hits))
    }

    /// Called by the engine at each named site: returns the action to
    /// inject now, if any, advancing the skip/fire counters.
    pub fn check(site: &str) -> Option<FailAction> {
        REGISTRY.with(|r| {
            let mut reg = r.borrow_mut();
            let config = reg.get_mut(site)?;
            if config.skip > 0 {
                config.skip -= 1;
                return None;
            }
            if config.fires == 0 {
                return None;
            }
            config.fires -= 1;
            config.hits += 1;
            Some(config.action)
        })
    }

    /// An RAII guard that disarms a site when dropped — keeps tests from
    /// leaking armed fail points into each other on panic.
    pub struct FailGuard {
        site: &'static str,
    }

    impl FailGuard {
        /// Arms `site` and returns a guard that disarms it on drop.
        pub fn arm(site: &'static str, action: FailAction, fires: u64) -> FailGuard {
            arm(site, action, fires);
            FailGuard { site }
        }

        /// Like [`FailGuard::arm`] with a leading skip count.
        pub fn arm_after(
            site: &'static str,
            action: FailAction,
            skip: u64,
            fires: u64,
        ) -> FailGuard {
            arm_after(site, action, skip, fires);
            FailGuard { site }
        }

        /// Times the guarded site has fired so far.
        pub fn hits(&self) -> u64 {
            hits(self.site)
        }
    }

    impl Drop for FailGuard {
        fn drop(&mut self) {
            disarm(self.site);
        }
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{arm, arm_after, check, disarm, hits, reset, FailGuard};

/// With the feature off, every site check is statically `None` and the
/// call sites compile away.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn check(_site: &str) -> Option<FailAction> {
    None
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_inject_nothing() {
        reset();
        assert_eq!(check("verify.candidate"), None);
        assert_eq!(hits("verify.candidate"), 0);
    }

    #[test]
    fn fires_count_down_then_disarm() {
        reset();
        arm("t.site", FailAction::Panic, 2);
        assert_eq!(check("t.site"), Some(FailAction::Panic));
        assert_eq!(check("t.site"), Some(FailAction::Panic));
        assert_eq!(check("t.site"), None);
        assert_eq!(hits("t.site"), 2);
        disarm("t.site");
    }

    #[test]
    fn skip_delays_the_trigger() {
        reset();
        arm_after("t.skip", FailAction::ExhaustFuel, 2, 1);
        assert_eq!(check("t.skip"), None);
        assert_eq!(check("t.skip"), None);
        assert_eq!(check("t.skip"), Some(FailAction::ExhaustFuel));
        assert_eq!(check("t.skip"), None);
        disarm("t.skip");
    }

    #[test]
    fn guard_disarms_on_drop() {
        reset();
        {
            let g = FailGuard::arm("t.guard", FailAction::EvictStores, 10);
            assert_eq!(check("t.guard"), Some(FailAction::EvictStores));
            assert_eq!(g.hits(), 1);
        }
        assert_eq!(check("t.guard"), None);
    }
}

#[cfg(all(test, not(feature = "failpoints")))]
mod tests {
    use super::*;

    #[test]
    fn disabled_facility_is_inert() {
        assert_eq!(check("verify.candidate"), None);
    }
}
