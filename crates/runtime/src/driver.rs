//! Event generation and session driving.
//!
//! Two populations exercise an app (paper §1, observation D1/D2):
//!
//! * **Users** ([`UserEventSource`]) play the app purposefully: they favour
//!   high-weight entry points and *salient* input values — menu choices,
//!   meaningful commands, habitual quantities. [`param_favorites`] derives
//!   those salient values deterministically from the entry point identity,
//!   and the corpus generator picks qualified-condition constants from the
//!   same set, which is exactly why real users keep satisfying the app's
//!   own branch conditions while random fuzzing rarely does.
//! * **Random drivers** ([`RandomEventSource`]) model Monkey-style blackbox
//!   input: uniform entry choice, uniform draws from the full parameter
//!   domain. (The smarter fuzzers of the paper's Table 4 live in
//!   `bombdroid-attacks` and build on this.)

use crate::package::InstalledPackage;
use crate::value::RtValue;
use crate::vm::Vm;
use bombdroid_crypto::sha1;
use bombdroid_dex::{DexFile, ParamDomain, Value};
use rand::{rngs::StdRng, Rng};
use std::sync::Arc;

/// One event to fire: entry-point index plus arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct EventInvocation {
    /// Index into the DEX file's entry-point table.
    pub entry_index: usize,
    /// Arguments matching the entry point's parameter domains.
    pub args: Vec<RtValue>,
}

/// A stream of events aimed at an app.
pub trait EventSource {
    /// Produces the next event, or `None` when the source is exhausted.
    fn next_event(&mut self, dex: &DexFile, rng: &mut StdRng) -> Option<EventInvocation>;
}

/// Number of salient values derived per parameter.
pub const FAVORITE_COUNT: usize = 6;

/// Derives the salient ("user favourite") values of a parameter. Stable
/// across processes: keyed by the entry-point event name and parameter
/// index, so the corpus generator and the user driver agree without
/// sharing state.
pub fn param_favorites(domain: &ParamDomain, event: &str, param_index: usize) -> Vec<Value> {
    match domain {
        ParamDomain::Choice(vs) => vs.clone(),
        ParamDomain::IntRange(lo, hi) => {
            let span = (hi - lo).max(1) as u128;
            let mut out = vec![Value::Int(*lo), Value::Int(*hi)];
            for k in 0..FAVORITE_COUNT {
                let d = sha1::digest(format!("fav|{event}|{param_index}|{k}").as_bytes());
                let x = d[..8]
                    .iter()
                    .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
                    as u128;
                out.push(Value::Int(lo + (x % span) as i64));
            }
            out
        }
        ParamDomain::Text { .. } => (0..FAVORITE_COUNT)
            .map(|k| {
                let d = sha1::digest(format!("favtext|{event}|{param_index}|{k}").as_bytes());
                Value::str(syllable_word(&d[..4]))
            })
            .collect(),
    }
}

/// Renders bytes as a pronounceable lowercase word (used for favourite
/// text inputs — "commands users actually type").
fn syllable_word(bytes: &[u8]) -> String {
    const SYL: [&str; 16] = [
        "an", "be", "co", "du", "el", "fi", "go", "hu", "in", "jo", "ka", "li", "mo", "nu", "or",
        "pa",
    ];
    let mut s = String::new();
    for b in bytes {
        s.push_str(SYL[(b >> 4) as usize]);
        s.push_str(SYL[(b & 0xf) as usize]);
    }
    s
}

/// Draws uniformly from a parameter domain (fuzzer behaviour).
pub fn uniform_arg(domain: &ParamDomain, rng: &mut StdRng) -> RtValue {
    match domain {
        ParamDomain::IntRange(lo, hi) => RtValue::Int(rng.gen_range(*lo..=*hi)),
        ParamDomain::Choice(vs) => vs[rng.gen_range(0..vs.len())].clone().into(),
        ParamDomain::Text { max_len } => {
            let len = rng.gen_range(0..=*max_len as usize);
            // A short text is drawn on the stack, so the string's own
            // allocation is its only one.
            let mut short = [0u8; 32];
            let mut long = Vec::new();
            let letters = if len <= short.len() {
                &mut short[..len]
            } else {
                long.resize(len, 0);
                &mut long[..]
            };
            for b in letters.iter_mut() {
                *b = rng.gen_range(b'a'..=b'z');
            }
            RtValue::Str(Arc::from(
                std::str::from_utf8(letters).expect("ASCII letters"),
            ))
        }
    }
}

/// Uniform random events over all entry points — the raw-input baseline.
#[derive(Debug, Clone, Default)]
pub struct RandomEventSource;

impl EventSource for RandomEventSource {
    fn next_event(&mut self, dex: &DexFile, rng: &mut StdRng) -> Option<EventInvocation> {
        if dex.entry_points.is_empty() {
            return None;
        }
        let entry_index = rng.gen_range(0..dex.entry_points.len());
        let ep = &dex.entry_points[entry_index];
        let args = ep.params.iter().map(|d| uniform_arg(d, rng)).collect();
        Some(EventInvocation { entry_index, args })
    }
}

/// What a user session needs to know about one package, computed once per
/// package instead of per event: the entry-point weights and every
/// parameter's favourites (see [`InstalledPackage::user_event_table`]).
#[derive(Debug)]
pub(crate) struct UserEventTable {
    /// The code the table was built from; a source checks each event's dex
    /// against it.
    dex: Arc<DexFile>,
    /// Each entry point's weight, clamped at zero.
    weights: Vec<f64>,
    /// The clamped weights summed in entry order.
    total: f64,
    /// [`param_favorites`] of every parameter, indexed by entry point and
    /// then by parameter.
    favorites: Vec<Vec<Vec<RtValue>>>,
}

impl UserEventTable {
    pub(crate) fn build(dex: &Arc<DexFile>) -> Self {
        let weights: Vec<f64> = dex
            .entry_points
            .iter()
            .map(|e| e.user_weight.max(0.0))
            .collect();
        let total = weights.iter().sum();
        let favorites = dex
            .entry_points
            .iter()
            .map(|ep| {
                ep.params
                    .iter()
                    .enumerate()
                    .map(|(i, d)| {
                        param_favorites(d, &ep.event, i)
                            .into_iter()
                            .map(RtValue::from)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        UserEventTable {
            dex: Arc::clone(dex),
            weights,
            total,
            favorites,
        }
    }
}

/// User-style sessions: entry points weighted by `user_weight`, arguments
/// drawn from favourites most of the time and from the full domain
/// otherwise.
///
/// A cheap handle on its package's user-event table: creating one per
/// session costs a reference count. It serves only events of the package
/// it was created for.
#[derive(Debug, Clone)]
pub struct UserEventSource {
    table: Arc<UserEventTable>,
}

impl UserEventSource {
    /// A source of user events for `pkg`.
    pub fn new(pkg: &InstalledPackage) -> Self {
        UserEventSource {
            table: Arc::clone(pkg.user_event_table()),
        }
    }
}

impl EventSource for UserEventSource {
    fn next_event(&mut self, dex: &DexFile, rng: &mut StdRng) -> Option<EventInvocation> {
        let table = &*self.table;
        debug_assert!(
            std::ptr::eq(dex, Arc::as_ptr(&table.dex)),
            "a UserEventSource serves only the dex it was built for"
        );
        let entries = &table.dex.entry_points;
        if entries.is_empty() {
            return None;
        }
        // Subtract each weight from the roll in turn: a prefix-sum search
        // compares different floats, can pick a different entry, and so
        // would change every recorded session.
        let entry_index = if table.total <= 0.0 {
            rng.gen_range(0..entries.len())
        } else {
            let mut roll = rng.gen_range(0.0..table.total);
            let mut chosen = entries.len() - 1;
            for (i, &w) in table.weights.iter().enumerate() {
                if roll < w {
                    chosen = i;
                    break;
                }
                roll -= w;
            }
            chosen
        };
        let args = entries[entry_index]
            .params
            .iter()
            .zip(&table.favorites[entry_index])
            .map(|(d, favs)| {
                if rng.gen_bool(0.75) && !favs.is_empty() {
                    favs[rng.gen_range(0..favs.len())].clone()
                } else {
                    uniform_arg(d, rng)
                }
            })
            .collect();
        Some(EventInvocation { entry_index, args })
    }
}

/// Summary of a driven session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionReport {
    /// Events fired.
    pub events: u64,
    /// Events that completed without fault.
    pub completed: u64,
    /// Events ending in a fault (including responses firing).
    pub faulted: u64,
    /// Virtual ms at session end.
    pub end_ms: u64,
}

/// Drives `vm` with events from `source` for `minutes` of virtual time at
/// `events_per_minute`, inserting idle think-time between events.
///
/// Stops early if the app is killed or the source runs dry; a frozen app
/// keeps consuming wall-clock without progress, as on a real device.
pub fn run_session(
    vm: &mut Vm,
    source: &mut dyn EventSource,
    rng: &mut StdRng,
    minutes: u64,
    events_per_minute: u64,
) -> SessionReport {
    let mut report = SessionReport::default();
    let deadline_ms = vm.clock_ms() + minutes * 60_000;
    let idle_ms = 60_000 / events_per_minute.max(1);
    let dex = Arc::clone(&vm.pkg.dex);
    while vm.clock_ms() < deadline_ms {
        if vm.is_killed() || vm.is_frozen() {
            break;
        }
        let Some(ev) = source.next_event(&dex, rng) else {
            break;
        };
        let outcome = vm.fire_entry(ev.entry_index, ev.args);
        report.events += 1;
        if outcome.completed() {
            report.completed += 1;
        } else {
            report.faulted += 1;
        }
        vm.advance_ms(idle_ms);
    }
    report.end_ms = vm.clock_ms();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn favorites_are_deterministic_and_in_domain() {
        let d = ParamDomain::IntRange(10, 1_000);
        let a = param_favorites(&d, "onTap", 0);
        let b = param_favorites(&d, "onTap", 0);
        assert_eq!(a, b);
        for v in &a {
            match v {
                Value::Int(i) => assert!((10..=1_000).contains(i)),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Different events get different favourites.
        assert_ne!(a, param_favorites(&d, "onSwipe", 0));
    }

    #[test]
    fn text_favorites_are_pronounceable() {
        let d = ParamDomain::Text { max_len: 12 };
        for v in param_favorites(&d, "onSearch", 1) {
            let Value::Str(s) = v else {
                panic!("not a string")
            };
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn uniform_arg_respects_domains() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            match uniform_arg(&ParamDomain::IntRange(-5, 5), &mut rng) {
                RtValue::Int(i) => assert!((-5..=5).contains(&i)),
                other => panic!("unexpected {other:?}"),
            }
        }
        match uniform_arg(
            &ParamDomain::Choice(vec![Value::str("a"), Value::str("b")]),
            &mut rng,
        ) {
            RtValue::Str(s) => assert!(&*s == "a" || &*s == "b"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn user_args_mostly_hit_favorites() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = ParamDomain::IntRange(0, 1_000_000);
        let pkg = install_entries(&[("e", vec![d.clone()], 1.0)]);
        let mut source = UserEventSource::new(&pkg);
        let favs: Vec<i64> = param_favorites(&d, "e", 0)
            .iter()
            .map(|v| match v {
                Value::Int(i) => *i,
                _ => unreachable!(),
            })
            .collect();
        let mut hits = 0;
        for _ in 0..1_000 {
            let ev = source.next_event(&pkg.dex, &mut rng).expect("one entry");
            if let [RtValue::Int(i)] = ev.args[..] {
                if favs.contains(&i) {
                    hits += 1;
                }
            }
        }
        // ~75% should be favourites; a uniform draw over a million values
        // would essentially never hit them.
        assert!(hits > 600, "only {hits}/1000 favourite hits");
    }

    /// The user event stream as first specified: favourites derived from
    /// the entry point on every draw. [`UserEventSource`] must draw from
    /// the RNG in exactly this order and return exactly these events.
    fn reference_user_event(dex: &DexFile, rng: &mut StdRng) -> Option<EventInvocation> {
        if dex.entry_points.is_empty() {
            return None;
        }
        let total: f64 = dex
            .entry_points
            .iter()
            .map(|e| e.user_weight.max(0.0))
            .sum();
        let entry_index = if total <= 0.0 {
            rng.gen_range(0..dex.entry_points.len())
        } else {
            let mut roll = rng.gen_range(0.0..total);
            let mut chosen = dex.entry_points.len() - 1;
            for (i, e) in dex.entry_points.iter().enumerate() {
                let w = e.user_weight.max(0.0);
                if roll < w {
                    chosen = i;
                    break;
                }
                roll -= w;
            }
            chosen
        };
        let ep = &dex.entry_points[entry_index];
        let mut args = Vec::new();
        for (i, d) in ep.params.iter().enumerate() {
            if rng.gen_bool(0.75) {
                let favs = param_favorites(d, &ep.event, i);
                if !favs.is_empty() {
                    args.push(favs[rng.gen_range(0..favs.len())].clone().into());
                    continue;
                }
            }
            args.push(uniform_arg(d, rng));
        }
        Some(EventInvocation { entry_index, args })
    }

    /// Installs a one-class app whose entry points have the given
    /// parameter domains and user weights.
    fn install_entries(entries: &[(&str, Vec<ParamDomain>, f64)]) -> crate::InstalledPackage {
        use bombdroid_apk::{package_app, AppMeta, DeveloperKey, StringsXml};
        use bombdroid_dex::{Class, EntryPoint, MethodBuilder, MethodRef};
        let mut dex = DexFile::new();
        let mut class = Class::new("U");
        for (event, params, weight) in entries {
            let mut b = MethodBuilder::new("U", event, params.len() as u16);
            b.ret_void();
            class.methods.push(b.finish());
            dex.entry_points.push(EntryPoint {
                event: Arc::from(*event),
                method: MethodRef::new("U", event),
                params: params.clone(),
                user_weight: *weight,
            });
        }
        dex.classes.push(class);
        let dev = DeveloperKey::generate(&mut StdRng::seed_from_u64(0x05E5));
        let apk = package_app(&dex, StringsXml::new(), AppMeta::named("users"), &dev);
        crate::InstalledPackage::install(&apk).expect("signed install")
    }

    /// Fires `events` draws from the source and the reference on twin RNGs
    /// per seed and requires the same entry, the same arguments, the same
    /// panics (an empty `Choice` cannot be sampled) and the same RNG state
    /// after every draw. Returns how often each entry fired and how many
    /// draws panicked.
    fn assert_matches_reference(
        pkg: &crate::InstalledPackage,
        seeds: u64,
        events: usize,
    ) -> (Vec<u64>, u64) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let dex = &pkg.dex;
        let mut fired = vec![0u64; dex.entry_points.len()];
        let mut panics = 0;
        for seed in 0..seeds {
            let mut source = UserEventSource::new(pkg);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference_rng = rng.clone();
            for n in 0..events {
                let got = catch_unwind(AssertUnwindSafe(|| source.next_event(dex, &mut rng)));
                let want = catch_unwind(AssertUnwindSafe(|| {
                    reference_user_event(dex, &mut reference_rng)
                }));
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got, want, "seed {seed}, event {n}");
                        fired[got.expect("entries exist").entry_index] += 1;
                    }
                    (Err(_), Err(_)) => panics += 1,
                    (got, want) => panic!(
                        "seed {seed}, event {n}: source panicked {}, reference {}",
                        got.is_err(),
                        want.is_err()
                    ),
                }
                assert_eq!(rng, reference_rng, "seed {seed}, event {n}: RNG drift");
            }
        }
        (fired, panics)
    }

    #[test]
    fn user_events_match_the_per_event_reference() {
        let choice =
            ParamDomain::Choice(vec![Value::Int(3), Value::str("menu"), Value::Bool(true)]);
        let pkg = install_entries(&[
            ("onTap", vec![ParamDomain::IntRange(-40, 9_000)], 3.0),
            ("onIdle", vec![ParamDomain::IntRange(0, 5)], 0.0),
            (
                "onSearch",
                vec![ParamDomain::Text { max_len: 12 }, choice.clone()],
                1.5,
            ),
            ("onBack", vec![], -2.0),
            ("onPick", vec![choice, ParamDomain::IntRange(7, 7)], 0.75),
            ("onEmpty", vec![ParamDomain::Choice(vec![])], 0.25),
            ("onLast", vec![ParamDomain::Text { max_len: 0 }], 1.0),
        ]);
        let (fired, panics) = assert_matches_reference(&pkg, 64, 200);
        // Positive weights fire, the zero- and negative-weight entries never
        // do, and the empty `Choice` falls back to `uniform_arg`, which
        // panics on both sides.
        assert!(fired
            .iter()
            .enumerate()
            .all(|(i, &n)| (n > 0) == [0, 2, 4, 6].contains(&i)));
        assert!(panics > 0, "the empty-favourites entry was never drawn");
    }

    #[test]
    fn sources_share_their_package_table() {
        let pkg = install_entries(&[("e", vec![ParamDomain::IntRange(0, 9)], 1.0)]);
        let a = UserEventSource::new(&pkg);
        // A copy of the package taken after first use keeps the table.
        let b = UserEventSource::new(&pkg.clone());
        assert!(Arc::ptr_eq(&a.table, &b.table));
        assert!(Arc::ptr_eq(&a.table, &a.clone().table));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "serves only the dex it was built for")]
    fn a_source_refuses_another_dex() {
        let entries = [("e", vec![ParamDomain::IntRange(0, 9)], 1.0)];
        let (pkg, other) = (install_entries(&entries), install_entries(&entries));
        let mut source = UserEventSource::new(&pkg);
        let mut rng = StdRng::seed_from_u64(1);
        // Equal content is not enough: the table must be this dex's own.
        assert_eq!(*pkg.dex, *other.dex);
        source.next_event(&other.dex, &mut rng);
    }

    #[test]
    fn user_events_without_positive_weight_match_the_reference() {
        let pkg = install_entries(&[
            ("onA", vec![ParamDomain::IntRange(1, 1_000)], 0.0),
            ("onB", vec![ParamDomain::Text { max_len: 4 }], -1.0),
        ]);
        // No positive weight: entries are drawn uniformly.
        let (fired, panics) = assert_matches_reference(&pkg, 16, 100);
        assert!(fired.iter().all(|&n| n > 0) && panics == 0);
    }
}
