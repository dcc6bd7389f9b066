//! Deterministic, per-core fault injection for robustness tests.
//!
//! A *failpoint* is a named site in production code (e.g. the frame
//! allocator's grow path) that tests can arm to fail on a chosen
//! schedule. Production code asks [`should_fail`] at each site; the
//! call is a single thread-local flag check when nothing is armed, so
//! shipping the hooks costs nothing on hot paths.
//!
//! # Determinism contract
//!
//! The registry is **thread-local**. The deterministic simulator
//! (`rvm_sync::sim`) runs every virtual core on one OS thread, so one
//! armed schedule covers a whole simulated machine while concurrently
//! running tests on other threads observe nothing. Schedules depend
//! only on the trigger parameters and the per-`(site, core)` hit
//! counter: replaying the same operation sequence with the same seed
//! produces the same injection schedule, which is what makes the
//! injection sweeps in `tests/fault_injection.rs` reproducible
//! (DESIGN.md §11).
//!
//! Call sites pass the acting core explicitly — the registry never
//! guesses which virtual core is running.

use std::cell::RefCell;

/// Failpoint site: single-frame allocation ([`should_fail`] at the top
/// of `FramePool::try_alloc`).
pub const FRAME_ALLOC: &str = "frame-alloc";
/// Failpoint site: contiguous block allocation (`try_alloc_block`).
pub const BLOCK_ALLOC: &str = "block-alloc";
/// Failpoint site: frame-table chunk growth (`try_grow_contiguous`).
pub const CHUNK_GROW: &str = "chunk-grow";
/// Failpoint site: outbound-magazine flush. Failing this site *defers*
/// the flush (frames stay parked) — it never surfaces as a user error.
pub const MAGAZINE_FLUSH: &str = "magazine-flush";
/// Failpoint site: superpage promotion (the opportunistic re-fold
/// attempt in `RadixVm`). Failing this site vetoes the promotion — the
/// mapping simply stays at 4 KiB; it never surfaces as a user error.
pub const PROMOTE: &str = "promote";
/// Failpoint site: a TLB shootdown round with at least one remote target
/// (`Machine::shootdown`, keyed by the sender). Failing this site
/// suppresses the round — the targets keep their stale entries, which the
/// frame generation check then reports as `VmError::StaleTranslation`.
pub const SHOOTDOWN: &str = "shootdown";

/// When an armed failpoint fires, as a function of the site's per-core
/// hit counter (1-based: the first `should_fail` call is hit 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Fire exactly on the `n`-th hit, once; hits before and after pass.
    Nth(u64),
    /// Fire on every `k`-th hit (hit `k`, `2k`, `3k`, …). `EveryK(1)`
    /// fires always.
    EveryK(u64),
    /// Fire on ~`num`/`den` of hits, decided by a seeded hash of
    /// `(seed, site, core, hit)` — deterministic (same seed ⇒ same
    /// schedule), but spread pseudo-randomly through the run.
    Random { seed: u64, num: u32, den: u32 },
}

struct Entry {
    site: &'static str,
    core: usize,
    trigger: Trigger,
    hits: u64,
    fired: u64,
}

thread_local! {
    /// Armed entries for this thread; linear scan (a handful at most).
    static REGISTRY: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
}

/// SplitMix64: a well-mixed deterministic hash for [`Trigger::Random`].
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a: stable across runs and platforms (site names are short).
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in site.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Arms `site` on `core` with `trigger`, replacing any previous arming
/// of the same `(site, core)` pair (the hit counter restarts).
pub fn arm(site: &'static str, core: usize, trigger: Trigger) {
    REGISTRY.with(|r| {
        let mut reg = r.borrow_mut();
        reg.retain(|e| !(e.site == site && e.core == core));
        reg.push(Entry {
            site,
            core,
            trigger,
            hits: 0,
            fired: 0,
        });
    });
}

/// Arms `site` with `trigger` on every core in `0..ncores` (each core
/// keeps its own independent hit counter).
pub fn arm_all(site: &'static str, ncores: usize, trigger: Trigger) {
    for core in 0..ncores {
        arm(site, core, trigger);
    }
}

/// Disarms `site` on `core` (no-op if not armed).
pub fn disarm(site: &'static str, core: usize) {
    REGISTRY.with(|r| {
        r.borrow_mut()
            .retain(|e| !(e.site == site && e.core == core));
    });
}

/// Disarms every failpoint on this thread. Tests should call this on
/// both entry and exit so a panicking predecessor cannot leak schedules
/// into the next test on the same thread.
pub fn disarm_all() {
    REGISTRY.with(|r| r.borrow_mut().clear());
}

/// Asks whether the failpoint at `site` should fire for `core` now,
/// advancing the per-`(site, core)` hit counter if armed. Returns
/// `false` (without counting) when the pair is not armed.
#[inline]
pub fn should_fail(site: &str, core: usize) -> bool {
    REGISTRY.with(|r| {
        let mut reg = r.borrow_mut();
        if reg.is_empty() {
            return false;
        }
        let e = match reg.iter_mut().find(|e| e.site == site && e.core == core) {
            Some(e) => e,
            None => return false,
        };
        e.hits += 1;
        let fire = match e.trigger {
            Trigger::Nth(n) => e.hits == n,
            Trigger::EveryK(k) => k > 0 && e.hits.is_multiple_of(k),
            Trigger::Random { seed, num, den } => {
                debug_assert!(den > 0, "Random trigger with zero denominator");
                let h = mix(seed ^ site_hash(site) ^ ((core as u64) << 32) ^ e.hits);
                den > 0 && (h % den as u64) < num as u64
            }
        };
        if fire {
            e.fired += 1;
        }
        fire
    })
}

/// Hits recorded for `(site, core)` since arming (0 if not armed).
pub fn hits(site: &str, core: usize) -> u64 {
    REGISTRY.with(|r| {
        r.borrow()
            .iter()
            .find(|e| e.site == site && e.core == core)
            .map_or(0, |e| e.hits)
    })
}

/// Times `(site, core)` actually fired since arming (0 if not armed).
pub fn fired(site: &str, core: usize) -> u64 {
    REGISTRY.with(|r| {
        r.borrow()
            .iter()
            .find(|e| e.site == site && e.core == core)
            .map_or(0, |e| e.fired)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes this module's tests: they share the thread-local
    /// registry when the harness reuses worker threads.
    fn with_clean_registry(f: impl FnOnce()) {
        disarm_all();
        f();
        disarm_all();
    }

    #[test]
    fn unarmed_sites_never_fire_or_count() {
        with_clean_registry(|| {
            assert!(!should_fail(FRAME_ALLOC, 0));
            assert_eq!(hits(FRAME_ALLOC, 0), 0);
        });
    }

    #[test]
    fn nth_fires_exactly_once() {
        with_clean_registry(|| {
            arm(FRAME_ALLOC, 0, Trigger::Nth(3));
            let fires: Vec<bool> = (0..6).map(|_| should_fail(FRAME_ALLOC, 0)).collect();
            assert_eq!(fires, [false, false, true, false, false, false]);
            assert_eq!(hits(FRAME_ALLOC, 0), 6);
            assert_eq!(fired(FRAME_ALLOC, 0), 1);
        });
    }

    #[test]
    fn every_k_fires_periodically() {
        with_clean_registry(|| {
            arm(BLOCK_ALLOC, 1, Trigger::EveryK(2));
            let fires: Vec<bool> = (0..6).map(|_| should_fail(BLOCK_ALLOC, 1)).collect();
            assert_eq!(fires, [false, true, false, true, false, true]);
        });
    }

    #[test]
    fn cores_count_independently() {
        with_clean_registry(|| {
            arm_all(CHUNK_GROW, 2, Trigger::Nth(2));
            assert!(!should_fail(CHUNK_GROW, 0));
            // Core 1's counter is untouched by core 0's hits.
            assert!(!should_fail(CHUNK_GROW, 1));
            assert!(should_fail(CHUNK_GROW, 0));
            assert!(should_fail(CHUNK_GROW, 1));
        });
    }

    #[test]
    fn random_schedule_is_deterministic_and_seed_sensitive() {
        with_clean_registry(|| {
            let schedule = |seed: u64| -> Vec<bool> {
                arm(
                    MAGAZINE_FLUSH,
                    0,
                    Trigger::Random {
                        seed,
                        num: 1,
                        den: 3,
                    },
                );
                (0..64).map(|_| should_fail(MAGAZINE_FLUSH, 0)).collect()
            };
            let a = schedule(42);
            let b = schedule(42);
            assert_eq!(a, b, "same seed must replay the same schedule");
            let c = schedule(43);
            assert_ne!(a, c, "different seeds must diverge");
            let rate = a.iter().filter(|&&f| f).count();
            assert!(
                (8..=40).contains(&rate),
                "1/3 trigger fired {rate}/64 times — hash badly skewed"
            );
        });
    }

    #[test]
    fn rearming_resets_the_counter() {
        with_clean_registry(|| {
            arm(FRAME_ALLOC, 0, Trigger::Nth(1));
            assert!(should_fail(FRAME_ALLOC, 0));
            arm(FRAME_ALLOC, 0, Trigger::Nth(1));
            assert!(should_fail(FRAME_ALLOC, 0), "counter restarted at 0");
            disarm(FRAME_ALLOC, 0);
            assert!(!should_fail(FRAME_ALLOC, 0));
        });
    }
}
