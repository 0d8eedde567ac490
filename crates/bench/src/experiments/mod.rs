//! The experiment implementations. See the crate docs for the mapping to
//! the paper's tables and figures.
//!
//! Each table/figure lives in its own module, and every fan-out workload
//! (one task per flagship, per category, per user session batch) runs on
//! the deterministic fleet engine ([`bombdroid_core::fleet`]): a
//! `table3(..)`-style entry point is a thin wrapper over a
//! `table3_with(FleetConfig, ..)` variant that schedules the per-app tasks
//! on a worker pool. Results are bit-identical regardless of thread count —
//! every task derives its randomness from `(base_seed, task index)` alone.
//!
//! Protection artifacts are shared through [`harness::ProtectedAppCache`]:
//! all experiments protect flagship `i` under the same
//! [`harness::PROTECT_BASE`]`+ i` seed, so a full `repro all` run protects
//! each `(app, config)` pair exactly once instead of once per experiment.

pub mod ablation;
pub mod analysts;
pub mod brute;
pub mod codesize;
pub mod falsepos;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod guided;
pub mod harness;
pub mod population;
pub mod resilience;
pub mod service;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

pub use ablation::{ablation, AblationReport};
pub use analysts::{analysts, analysts_with, AnalystRow};
pub use brute::{brute_force, brute_force_with, measure_hash_rate, BruteRow};
pub use codesize::{code_size, code_size_with, CodeSizeRow};
pub use falsepos::{false_positives, false_positives_with, FalsePositiveRow};
pub use fig3::{fig3, Fig3Data};
pub use fig4::{fig4, fig4_with, Fig4Row};
pub use fig5::{fig5, fig5_with, Fig5Series};
pub use guided::{
    accept_guided_json, guided_configs, guided_curves, guided_json, validate_guided_json,
    GuidedCurveRow, GUIDED_SCHEMA_VERSION,
};
pub use harness::{
    default_fleet, drive_events, flagships, protect_app, shared_cache, time_to_first_bomb,
    ExperimentError, ProtectedAppCache, PROTECT_BASE,
};
pub use population::{
    accept_population_json, population_config, population_json, population_rows,
    validate_population_json, PopulationBombRow, PopulationResume, PopulationScaleRow,
    POPULATION_SCHEMA_VERSION,
};
pub use resilience::{resilience_reports, resilience_reports_with};
pub use service::{
    service_json, service_smoke, validate_service_json, ServiceJobRow, ServiceSmokeResult,
    SERVICE_SCHEMA_VERSION,
};
pub use table1::{table1, table1_with, Table1Row};
pub use table2::{table2, table2_with, Table2Row};
pub use table3::{table3, table3_with, Table3Row};
pub use table4::{table4, table4_with, Table4Row};
pub use table5::{table5, table5_with, Table5Row};
