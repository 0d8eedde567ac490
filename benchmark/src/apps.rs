//! Inputs and oracles shared by the workloads: signing keys, protection
//! configs, and a drive that observes what an installed app does.

use bombdroid_apk::{ApkFile, DeveloperKey};
use bombdroid_core::ProtectConfig;
use bombdroid_corpus::{flagship, generate_app, Category, GeneratedApp};
use bombdroid_crypto::sha256;
use bombdroid_runtime::{DeviceEnv, EventSource, InstalledPackage, RandomEventSource, Vm};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

/// Events per behaviour drive. Long enough that bombs on common paths
/// are reached, short next to a 10 000-event profiling pass.
pub const DRIVE_EVENTS: u64 = 500;

/// The eight flagships, Table 2 order.
pub const FLAGSHIPS: [fn() -> GeneratedApp; 8] = [
    flagship::androfish,
    flagship::angulo,
    flagship::swjournal,
    flagship::calendar,
    flagship::brouter,
    flagship::binaural_beat,
    flagship::hash_droid,
    flagship::catlog,
];

/// An input app: a flagship, or a generated app of a Table 1 category.
#[derive(Debug, Clone, Copy)]
pub enum AppSpec {
    /// Index into [`FLAGSHIPS`].
    Flagship(usize),
    /// `generate_app` output for this category and seed.
    Generated {
        /// Table 1 category.
        category: Category,
        /// Generator seed.
        seed: u64,
    },
}

impl AppSpec {
    /// Builds the app and signs it with `key`.
    pub fn apk(self, key: &DeveloperKey) -> ApkFile {
        let app = match self {
            AppSpec::Flagship(i) => FLAGSHIPS[i](),
            AppSpec::Generated { category, seed } => {
                generate_app(&format!("app-{seed:016x}"), category, seed)
            }
        };
        app.apk(key)
    }
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// The legitimate developer's key. Fixed, so app bytes depend only on the
/// workload seed.
pub fn developer_key() -> DeveloperKey {
    DeveloperKey::generate(&mut StdRng::seed_from_u64(0xDE7E_10BE))
}

/// The paper's default protection (double trigger, 10 000 profiling
/// events).
pub fn paper_config() -> ProtectConfig {
    ProtectConfig::default()
}

/// The single-trigger control: no inner trigger and no bogus bombs, the
/// floor a working attacker must crack.
pub fn control_config() -> ProtectConfig {
    ProtectConfig {
        double_trigger: false,
        bogus_ratio: 0.0,
        ..ProtectConfig::default()
    }
}

/// Everything observable about one drive of an installed app.
#[derive(Debug)]
pub struct Observation {
    logs: Vec<String>,
    statics: Vec<(String, String)>,
    responses: usize,
    piracy_reports: u64,
    decrypt_failures: u64,
    /// VM instructions executed. Not part of behaviour: protection is
    /// allowed to cost instructions.
    instr: u64,
}

impl Observation {
    /// No detection response, no piracy report and no fragment whose key
    /// failed to re-derive: what a legit install must show.
    pub fn quiet(&self) -> bool {
        self.responses == 0 && self.piracy_reports == 0 && self.decrypt_failures == 0
    }

    /// Instructions the drive executed.
    pub fn instr(&self) -> u64 {
        self.instr
    }

    /// Whether two drives behaved the same, ignoring instruction counts.
    pub fn same_behaviour(&self, other: &Observation) -> bool {
        self.logs == other.logs
            && self.statics == other.statics
            && self.responses == other.responses
            && self.piracy_reports == other.piracy_reports
            && self.decrypt_failures == other.decrypt_failures
    }
}

/// Installs `apk` on a device drawn from `seed` and fires
/// [`DRIVE_EVENTS`] random events drawn from the same seed.
pub fn observe(apk: &ApkFile, seed: u64) -> Result<Observation, String> {
    let pkg = InstalledPackage::install(apk).map_err(|e| format!("install: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let env = DeviceEnv::sample(&mut rng);
    let mut vm = Vm::boot(pkg, env, seed ^ 0xBEEF);
    let dex = Arc::clone(&vm.pkg.dex);
    let mut source = RandomEventSource;
    for _ in 0..DRIVE_EVENTS {
        let Some(ev) = source.next_event(&dex, &mut rng) else {
            break;
        };
        let _ = vm.fire_entry(ev.entry_index, ev.args);
        if vm.is_killed() || vm.is_frozen() {
            break;
        }
    }
    let t = vm.telemetry();
    Ok(Observation {
        logs: t.logs.clone(),
        statics: vm.statics_snapshot(),
        responses: t.responses.len(),
        piracy_reports: t.piracy_reports,
        decrypt_failures: t.decrypt_failures,
        instr: t.instr_executed,
    })
}

/// Digest of a signed APK's bytes — every entry, the certificate and the
/// signature — folded to 64 bits, plus the length of its `classes.dex`.
pub fn apk_digest(apk: &ApkFile) -> (u64, usize) {
    let mut h = sha256::Sha256::new();
    let mut dex_len = 0;
    for (name, bytes) in apk.entries() {
        if name == bombdroid_apk::container::entry::CLASSES_DEX {
            dex_len = bytes.len();
        }
        h.update(name.as_bytes());
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(&bytes);
    }
    h.update(format!("{:?}", apk.cert).as_bytes());
    h.update(&apk.signature.to_le_bytes());
    let d = h.finalize();
    (
        u64::from_le_bytes(d[..8].try_into().expect("32-byte digest")),
        dex_len,
    )
}
