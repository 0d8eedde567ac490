//! The resilience matrix: every adversary analysis of paper §2.1/§5 run
//! against three protection levels — naive bombs (Listing 2), SSN
//! (Listing 1), and BombDroid — reproducing the paper's security analysis
//! as executable experiments.

use crate::{brute, deletion, forced, instrument, slicing, symbolic, textsearch};
use bombdroid_apk::{repackage, ApkFile, DeveloperKey};
use bombdroid_core::{NaiveProtector, ProtectConfig, Protector};
use bombdroid_runtime::{run_session, DeviceEnv, InstalledPackage, UserEventSource, Vm};
use bombdroid_ssn::{SsnConfig, SsnProtector};
use rand::{rngs::StdRng, SeedableRng};
use std::fmt;

/// The protection schemes compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Plain-condition bombs, plaintext payloads (paper Listing 2).
    Naive,
    /// SSN: probabilistic + reflection-hidden + delayed response.
    Ssn,
    /// BombDroid: cryptographically obfuscated double-trigger bombs.
    BombDroid,
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Protection::Naive => "naive",
            Protection::Ssn => "SSN",
            Protection::BombDroid => "BombDroid",
        })
    }
}

/// The attacks of §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Grep the disassembly for detection APIs.
    TextSearch,
    /// Path exploration with a constraint solver.
    SymbolicExecution,
    /// Patch guards, execute suspected payloads directly.
    ForcedExecution,
    /// Backward slicing + slice execution (HARVESTER).
    Slicing,
    /// Code instrumentation (force RNG, check reflection, strip nodes).
    CodeInstrumentation,
    /// Delete suspicious code and ship.
    CodeDeletion,
}

impl AttackKind {
    /// All attacks, in paper §2.1 order.
    pub const ALL: [AttackKind; 6] = [
        AttackKind::TextSearch,
        AttackKind::SymbolicExecution,
        AttackKind::ForcedExecution,
        AttackKind::Slicing,
        AttackKind::CodeInstrumentation,
        AttackKind::CodeDeletion,
    ];
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AttackKind::TextSearch => "text search",
            AttackKind::SymbolicExecution => "symbolic execution",
            AttackKind::ForcedExecution => "forced execution",
            AttackKind::Slicing => "slicing (HARVESTER)",
            AttackKind::CodeInstrumentation => "code instrumentation",
            AttackKind::CodeDeletion => "code deletion",
        })
    }
}

/// One matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Attack applied.
    pub attack: AttackKind,
    /// Protection under attack.
    pub protection: Protection,
    /// Whether the attack defeats the protection.
    pub defeated: bool,
    /// Evidence string for the report.
    pub note: String,
}

/// Extra (non-matrix) measurement: brute-force cracking by strength.
#[derive(Debug, Clone, PartialEq)]
pub struct BruteSummary {
    /// Conditions found / cracked under the budget.
    pub report: brute::BruteReport,
}

/// Everything the attack lab produces for one app.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// The matrix cells (6 attacks × 3 protections).
    pub cells: Vec<MatrixCell>,
    /// Brute-force summary against the BombDroid build.
    pub brute: BruteSummary,
}

impl ResilienceReport {
    /// Looks up a cell.
    pub fn cell(&self, attack: AttackKind, protection: Protection) -> &MatrixCell {
        self.cells
            .iter()
            .find(|c| c.attack == attack && c.protection == protection)
            .expect("full matrix")
    }
}

/// Builds all three protected variants of `app` and runs the full matrix.
///
/// # Panics
///
/// Panics on internal protection errors (the input app is expected to be
/// well-formed and signed).
pub fn resilience_matrix(app: &bombdroid_corpus::GeneratedApp, seed: u64) -> ResilienceReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let dev = DeveloperKey::generate(&mut rng);
    let pirate = DeveloperKey::generate(&mut rng);
    let apk = app.apk(&dev);

    let naive = NaiveProtector::new(ProtectConfig::fast_profile())
        .protect(&apk, &mut rng)
        .expect("naive protect")
        .package(&dev);
    let ssn = SsnProtector::new(SsnConfig::default())
        .protect(&apk, &mut rng)
        .package(&dev);
    let bomb = Protector::new(ProtectConfig::fast_profile())
        .protect(&apk, &mut rng)
        .expect("bombdroid protect")
        .package(&dev);

    let mut cells = Vec::new();
    for (protection, papk) in [
        (Protection::Naive, &naive),
        (Protection::Ssn, &ssn),
        (Protection::BombDroid, &bomb),
    ] {
        for attack in AttackKind::ALL {
            cells.push(run_cell(attack, protection, &apk, papk, &pirate, seed));
        }
    }

    let brute_report = brute::brute_force_campaign(&bomb, 100_000);
    ResilienceReport {
        cells,
        brute: BruteSummary {
            report: brute_report,
        },
    }
}

fn run_cell(
    attack: AttackKind,
    protection: Protection,
    original: &ApkFile,
    protected: &ApkFile,
    pirate: &DeveloperKey,
    seed: u64,
) -> MatrixCell {
    let (defeated, note) = match attack {
        AttackKind::TextSearch => {
            let exposed = textsearch::exposes_get_public_key(&protected.dex);
            (
                exposed,
                if exposed {
                    "detection API greppable in plaintext".to_string()
                } else {
                    "no detection API visible".to_string()
                },
            )
        }
        AttackKind::SymbolicExecution => {
            let out = symbolic::analyze_dex(&protected.dex, symbolic::Limits::default());
            let defeated = !out.exposed.is_empty() || out.keys_recovered() > 0;
            (
                defeated,
                format!(
                    "{} payloads exposed, {} keys recovered, {} hash barriers",
                    out.exposed.len(),
                    out.keys_recovered(),
                    out.hash_barriers()
                ),
            )
        }
        AttackKind::ForcedExecution => {
            let report = forced::forced_execution(protected, seed);
            let decrypt_sites = count_decrypt_sites(&protected.dex);
            // Against encrypted bombs a handful of *weak* (small-domain)
            // constants may fall to lucky probes — that is §5.1's
            // brute-force caveat, not forced execution working. The attack
            // defeats the protection only when it exposes payloads at
            // scale.
            let defeated = if decrypt_sites == 0 {
                report.total_payloads_exposed > 0
            } else {
                report.total_payloads_exposed * 5 > decrypt_sites
            };
            (
                defeated,
                format!(
                    "{} payloads executed across {} encrypted sites, {} decrypt failures",
                    report.total_payloads_exposed, decrypt_sites, report.total_decrypt_failures
                ),
            )
        }
        AttackKind::Slicing => {
            let outcomes = slicing::slice_attack(protected, &[0, 1, 42, 999], seed);
            let uncovered = outcomes.iter().filter(|o| o.payload_uncovered).count();
            let decrypt_sites = count_decrypt_sites(&protected.dex);
            let defeated = if decrypt_sites == 0 {
                uncovered > 0
            } else {
                uncovered * 5 > decrypt_sites
            };
            (
                defeated,
                format!("{uncovered}/{} slices uncovered payloads", outcomes.len()),
            )
        }
        AttackKind::CodeInstrumentation => {
            instrumentation_cell(protection, original, protected, pirate, seed)
        }
        AttackKind::CodeDeletion => {
            // Each protection calls for different surgery: plaintext
            // payloads are snipped out, SSN nodes stripped, encrypted
            // bombs' DecryptExec sites nopped.
            let strategy: fn(&mut bombdroid_dex::DexFile) = match protection {
                Protection::Naive => |dex| strip_plain_payloads(dex),
                Protection::Ssn => |dex| {
                    instrument::strip_ssn_nodes(dex);
                },
                Protection::BombDroid => |dex| {
                    deletion::delete_bombs(dex);
                },
            };
            let report =
                deletion::deletion_attack_with(original, protected, pirate, strategy, 5, 2, seed);
            // The attack succeeds when the stripped repackage both stays
            // behaviourally intact AND no longer detects anything.
            let defeated = !report.corrupted();
            (
                defeated,
                format!(
                    "{}/{} sessions diverged, faults {}→{}",
                    report.divergent_sessions,
                    report.sessions,
                    report.reference_faults,
                    report.deleted_faults
                ),
            )
        }
    };
    MatrixCell {
        attack,
        protection,
        defeated,
        note,
    }
}

/// Code instrumentation: patch the app (force RNG to 0, strip identified
/// nodes / plain payloads), repackage, and check whether the attacker got
/// what they wanted — a *working* app that no longer detects repackaging.
fn instrumentation_cell(
    protection: Protection,
    original: &ApkFile,
    protected: &ApkFile,
    pirate: &DeveloperKey,
    seed: u64,
) -> (bool, String) {
    let patched = repackage(protected, pirate, |dex| {
        instrument::force_random_zero(dex);
        match protection {
            Protection::Ssn => {
                instrument::strip_ssn_nodes(dex);
            }
            Protection::Naive => {
                strip_plain_payloads(dex);
            }
            Protection::BombDroid => {
                // The best available move: force the hash guards.
                instrument::force_hash_branches(dex);
            }
        }
    });
    // Ship it to users: does anyone still detect the repackaging, and does
    // the patched app even still work? (Forcing BombDroid's guards drives
    // every execution into failed decryptions — a crash-machine no pirate
    // can sell.)
    let ref_pkg =
        std::sync::Arc::new(InstalledPackage::install(original).expect("install original"));
    let pkg = std::sync::Arc::new(InstalledPackage::install(&patched).expect("install patched"));
    let mut detections = 0u64;
    let mut ref_faults = 0u64;
    let mut patched_faults = 0u64;
    let mut events = 0u64;
    for s in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ (s * 7919));
        let env = DeviceEnv::sample(&mut rng);
        let mut vm = Vm::boot(pkg.clone(), env, seed ^ s);
        let mut source = UserEventSource::new(&vm.pkg);
        let r = run_session(&mut vm, &mut source, &mut rng, 10, 60);
        events += r.events;
        patched_faults += r.faulted;
        if vm.telemetry().detection_fired() {
            detections += 1;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ (s * 7919));
        let env = DeviceEnv::sample(&mut rng);
        let mut vm = Vm::boot(ref_pkg.clone(), env, seed ^ s);
        let mut source = UserEventSource::new(&vm.pkg);
        let r = run_session(&mut vm, &mut source, &mut rng, 10, 60);
        ref_faults += r.faulted;
    }
    let intact = patched_faults <= ref_faults + events / 20; // ≤5% extra faults
    (
        detections == 0 && intact,
        format!(
            "{detections}/5 user devices still detected repackaging; \
             patched app faults {patched_faults} vs {ref_faults} baseline"
        ),
    )
}

fn count_decrypt_sites(dex: &bombdroid_dex::DexFile) -> usize {
    dex.methods()
        .flat_map(|m| m.body.iter())
        .filter(|i| matches!(i, bombdroid_dex::Instr::DecryptExec { .. }))
        .count()
}

/// Strips plaintext detection payloads (the naive scheme's downfall).
fn strip_plain_payloads(dex: &mut bombdroid_dex::DexFile) {
    use bombdroid_dex::{HostApi, Instr};
    for method in dex.methods_mut() {
        for instr in &mut method.body {
            let suspicious = matches!(
                instr,
                Instr::HostCall {
                    api: HostApi::GetPublicKey
                        | HostApi::Marker(_)
                        | HostApi::ReportPiracy
                        | HostApi::KillProcess
                        | HostApi::Freeze
                        | HostApi::LeakMemory
                        | HostApi::NullOutField
                        | HostApi::UiNotify(_),
                    ..
                }
            );
            if suspicious {
                *instr = Instr::Nop;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_reproduces_section_5() {
        let app = bombdroid_corpus::flagship::catlog();
        let report = resilience_matrix(&app, 99);
        assert_eq!(report.cells.len(), 18);

        // Naive bombs fall to essentially everything.
        assert!(
            report
                .cell(AttackKind::TextSearch, Protection::Naive)
                .defeated
        );
        assert!(
            report
                .cell(AttackKind::SymbolicExecution, Protection::Naive)
                .defeated
        );
        assert!(
            report
                .cell(AttackKind::ForcedExecution, Protection::Naive)
                .defeated
        );

        // SSN survives text search but falls to instrumentation and
        // symbolic execution (§2.1).
        assert!(
            !report
                .cell(AttackKind::TextSearch, Protection::Ssn)
                .defeated
        );
        assert!(
            report
                .cell(AttackKind::SymbolicExecution, Protection::Ssn)
                .defeated
        );
        assert!(
            report
                .cell(AttackKind::CodeInstrumentation, Protection::Ssn)
                .defeated
        );

        // BombDroid survives every attack (G1–G4).
        for attack in AttackKind::ALL {
            let cell = report.cell(attack, Protection::BombDroid);
            assert!(
                !cell.defeated,
                "BombDroid must resist {attack}: {}",
                cell.note
            );
        }

        // Brute force cracks the weak conditions only.
        let b = &report.brute.report;
        assert!(b.total > 0);
        assert!(b.cracked < b.total, "strong conditions must survive");
    }
}
