//! Report-key schema stability: the pinned constants below are the
//! `report_key` values a set of representative cells hashed to *before*
//! the `MetadataOrg` sharing axis existed (captured at commit 232af78,
//! the last pre-axis tree). Every persistent [`ReportStore`] entry in
//! the wild is addressed by keys like these; a config-field addition
//! that shifts any of them silently turns every warm store cold — or
//! worse, re-addresses old content. This suite makes that failure loud.
//!
//! Extending the key schema is allowed only in ways that leave default
//! and legacy configurations hashing exactly as before: hash a new
//! field *append-only*, contributing nothing in its default state (the
//! `MetadataOrg::PrivatePerCore` arm of `hash_tifs_config`). Update
//! these pins only with a deliberate, store-invalidating key-format
//! bump, and say so in the commit.

use tifs_core::{ImlStorage, MetadataOrg, TifsConfig};
use tifs_experiments::engine::{report_key, report_key_cell, run_cell, ExecMode, SystemSpec};
use tifs_experiments::harness::{ExpConfig, SystemKind};
use tifs_sim::config::SystemConfig;
use tifs_trace::workload::{CellPrograms, CellWorkload, WorkloadSpec};

fn pin_exp() -> ExpConfig {
    ExpConfig {
        instructions: 60_000,
        warmup: 60_000,
        seed: 42,
    }
}

struct Pin {
    label: &'static str,
    spec: fn() -> WorkloadSpec,
    system: fn() -> SystemSpec,
    key: u128,
}

fn ablated() -> SystemSpec {
    SystemSpec::tifs(
        "no EOS",
        TifsConfig {
            end_of_stream: false,
            ..TifsConfig::virtualized()
        },
    )
}

/// Keys minted by the pre-`MetadataOrg` schema for coupled cells over
/// named kinds, an ablation `TifsConfig`, and a payload-carrying
/// probabilistic kind.
const PINS: &[Pin] = &[
    Pin {
        label: "web_zeus/next-line/coupled",
        spec: WorkloadSpec::web_zeus,
        system: || SystemSpec::Kind(SystemKind::NextLine),
        key: 0x72e4_a7d9_20d0_d473_6157_eec7_af05_aefa,
    },
    Pin {
        label: "web_zeus/tifs-virtualized/coupled",
        spec: WorkloadSpec::web_zeus,
        system: || SystemSpec::Kind(SystemKind::TifsVirtualized),
        key: 0x9010_c99d_be23_aa62_33b4_4185_100c_49bf,
    },
    Pin {
        label: "oltp_db2/ablation-no-eos/coupled",
        spec: WorkloadSpec::oltp_db2,
        system: ablated,
        key: 0x1e21_aab5_a427_1e07_8fe0_84d9_5c44_111d,
    },
    Pin {
        label: "oltp_db2/probabilistic-25/coupled",
        spec: WorkloadSpec::oltp_db2,
        system: || SystemSpec::Kind(SystemKind::Probabilistic(0.25)),
        key: 0x7ca1_48af_c1ac_9eeb_42b6_2641_47c9_dda0,
    },
];

#[test]
fn pre_sharing_axis_keys_are_unchanged() {
    let exp = pin_exp();
    let sys = SystemConfig::table2();
    let mut drifted = Vec::new();
    for pin in PINS {
        let key = report_key(
            &(pin.spec)(),
            exp.seed,
            &(pin.system)(),
            &exp,
            &sys,
            ExecMode::Coupled,
        );
        if key.0 != pin.key {
            drifted.push(format!(
                "{}: 0x{:032x} (pinned 0x{:032x})",
                pin.label, key.0, pin.key
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "report_key drifted from its pre-MetadataOrg pins — every persistent \
         report store in the wild just went cold. Extend the key schema \
         append-only (defaults hash as before) or bump the format \
         deliberately and update these pins:\n  {}",
        drifted.join("\n  ")
    );
}

#[test]
fn explicit_private_org_hashes_as_the_legacy_default() {
    // `TifsConfig::virtualized()` now carries `MetadataOrg::PrivatePerCore`
    // explicitly; its key must still be the pre-axis ablation key (the
    // pinned `no EOS` cell exercises exactly this path).
    let exp = pin_exp();
    let sys = SystemConfig::table2();
    let explicit = SystemSpec::tifs(
        "relabelled",
        TifsConfig {
            end_of_stream: false,
            metadata: MetadataOrg::PrivatePerCore,
            ..TifsConfig::virtualized()
        },
    );
    let key = report_key(
        &WorkloadSpec::oltp_db2(),
        exp.seed,
        &explicit,
        &exp,
        &sys,
        ExecMode::Coupled,
    );
    assert_eq!(key.0, 0x1e21_aab5_a427_1e07_8fe0_84d9_5c44_111d);
}

// ---------------------------------------------------------------------------
// SimReport byte pins — the canonical bytes behind the keys.
// ---------------------------------------------------------------------------
//
// Key stability alone is not enough: a warm store only stays *correct* if
// the bytes a key addresses are reproduced bit-for-bit by the current
// simulator. The FNV-1a fingerprints below were captured from the tree
// immediately before the hot-structure overhaul (open-addressed indexes,
// ring IMLs, structural drain queues) landed; every cell here must keep
// hashing to the same value, proving the overhaul changed the cost of the
// simulation and not its content. Budgets are deliberately small so the
// suite stays cheap in debug runs — every hot structure is still
// exercised (fill queues, L2 directory, index table, IMLs, SVBs, and
// shared-pool stamps).

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn byte_exp() -> ExpConfig {
    ExpConfig {
        instructions: 12_000,
        warmup: 12_000,
        seed: 42,
    }
}

fn shared_pool() -> SystemSpec {
    SystemSpec::tifs(
        "shared-pool",
        TifsConfig {
            metadata: MetadataOrg::shared_pool(1),
            ..TifsConfig::virtualized()
        },
    )
}

fn shared_quota_1port() -> SystemSpec {
    SystemSpec::tifs(
        "shared-quota/w1",
        TifsConfig {
            metadata: MetadataOrg::shared_quota(1),
            ..TifsConfig::virtualized()
        },
    )
}

/// A 2-port pool of 96 entries per core, small enough that pooled
/// eviction runs inside the 12k-instruction windows.
fn shared_pool_2port_small() -> SystemSpec {
    SystemSpec::tifs(
        "shared-pool/w2/96",
        TifsConfig {
            storage: ImlStorage::Virtualized {
                entries_per_core: 96,
            },
            metadata: MetadataOrg::shared_pool(2),
            ..TifsConfig::virtualized()
        },
    )
}

/// Context switches every ~3k instructions: several flushes per core
/// inside the 12k-instruction windows.
fn web_zeus_switching() -> WorkloadSpec {
    WorkloadSpec::web_zeus().with_ctx_switch_period(3_000)
}

/// Table II with so few L2 MSHRs that prefetch and IML-read requests
/// are rejected and retried.
fn few_mshrs() -> SystemConfig {
    SystemConfig {
        l2_mshrs: 6,
        ..SystemConfig::table2()
    }
}

struct BytePin {
    label: &'static str,
    spec: fn() -> WorkloadSpec,
    system: fn() -> SystemSpec,
    sys: fn() -> SystemConfig,
    fnv: u64,
}

const BYTE_PINS: &[BytePin] = &[
    BytePin {
        label: "web_zeus/next-line/coupled",
        spec: WorkloadSpec::web_zeus,
        system: || SystemSpec::Kind(SystemKind::NextLine),
        sys: SystemConfig::table2,
        fnv: 0x579b_3738_f0ad_862a,
    },
    BytePin {
        label: "web_zeus/fdip/coupled",
        spec: WorkloadSpec::web_zeus,
        system: || SystemSpec::Kind(SystemKind::Fdip),
        sys: SystemConfig::table2,
        fnv: 0x284a_796b_1037_2b65,
    },
    BytePin {
        label: "oltp_db2/discontinuity/coupled",
        spec: WorkloadSpec::oltp_db2,
        system: || SystemSpec::Kind(SystemKind::Discontinuity),
        sys: SystemConfig::table2,
        fnv: 0xd504_6722_78ae_138c,
    },
    BytePin {
        label: "oltp_db2/tifs-virtualized/coupled",
        spec: WorkloadSpec::oltp_db2,
        system: || SystemSpec::Kind(SystemKind::TifsVirtualized),
        sys: SystemConfig::table2,
        fnv: 0x8f2d_9eb6_e563_b0bb,
    },
    BytePin {
        label: "dss_qry2/tifs-dedicated/coupled",
        spec: WorkloadSpec::dss_qry2,
        system: || SystemSpec::Kind(SystemKind::TifsDedicated),
        sys: SystemConfig::table2,
        fnv: 0x2150_c656_ae8c_db92,
    },
    BytePin {
        label: "web_zeus/tifs-unbounded/coupled",
        spec: WorkloadSpec::web_zeus,
        system: || SystemSpec::Kind(SystemKind::TifsUnbounded),
        sys: SystemConfig::table2,
        fnv: 0x4804_4d28_6c8c_1382,
    },
    BytePin {
        label: "oltp_db2/shared-pool/coupled",
        spec: WorkloadSpec::oltp_db2,
        system: shared_pool,
        sys: SystemConfig::table2,
        fnv: 0xdd78_27cb_7370_15e8,
    },
    // Rows below were captured before the wake-gated TIFS tick and the
    // decode-free FDIP exploration landed: they reach the paths those
    // changes must leave untouched (flushes, port-contended streams,
    // MSHR-rejected refills and issues, a second FDIP program image).
    BytePin {
        label: "web_zeus+ctx-switch/tifs-virtualized/coupled",
        spec: web_zeus_switching,
        system: || SystemSpec::Kind(SystemKind::TifsVirtualized),
        sys: SystemConfig::table2,
        fnv: 0x77b2_419e_1bc2_9a20,
    },
    BytePin {
        label: "dss_qry2/shared-quota-w1/coupled",
        spec: WorkloadSpec::dss_qry2,
        system: shared_quota_1port,
        sys: SystemConfig::table2,
        fnv: 0xfe3a_bae6_bdef_eeb4,
    },
    BytePin {
        label: "web_zeus/shared-pool-w2-96/coupled",
        spec: WorkloadSpec::web_zeus,
        system: shared_pool_2port_small,
        sys: SystemConfig::table2,
        fnv: 0xe31d_0199_0e0e_0126,
    },
    BytePin {
        label: "oltp_db2/fdip/coupled",
        spec: WorkloadSpec::oltp_db2,
        system: || SystemSpec::Kind(SystemKind::Fdip),
        sys: SystemConfig::table2,
        fnv: 0x2db5_1d67_aa10_d98e,
    },
    BytePin {
        label: "web_zeus/tifs-virtualized/coupled/6-mshrs",
        spec: WorkloadSpec::web_zeus,
        system: || SystemSpec::Kind(SystemKind::TifsVirtualized),
        sys: few_mshrs,
        fnv: 0x1906_70f8_7996_b3f9,
    },
    BytePin {
        label: "web_zeus+ctx-switch/fdip/coupled/6-mshrs",
        spec: web_zeus_switching,
        system: || SystemSpec::Kind(SystemKind::Fdip),
        sys: few_mshrs,
        fnv: 0x7e47_6668_e9ef_3893,
    },
];

#[test]
fn pre_overhaul_report_bytes_are_unchanged() {
    let exp = byte_exp();
    let mut drifted = Vec::new();
    for pin in BYTE_PINS {
        let programs = CellPrograms::build(&(pin.spec)().into(), exp.seed);
        let system = (pin.system)();
        let sys = (pin.sys)();
        let report = run_cell(&programs, &system, &exp, &sys);
        let fnv = fnv64(&report.to_canonical_bytes());
        if fnv != pin.fnv {
            drifted.push(format!(
                "{}: 0x{:016x} (pinned 0x{:016x})",
                pin.label, fnv, pin.fnv
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "SimReport canonical bytes drifted from their pre-overhaul pins — \
         warm stores would now serve reports the current simulator cannot \
         reproduce. A structural change leaked into simulated behavior:\n  {}",
        drifted.join("\n  ")
    );
}

#[test]
fn byte_pins_reach_flush_retry_and_pool_paths() {
    // The flush, few-MSHR and small-pool rows above only guard those
    // paths if the cells actually take them inside the pinned budget.
    let exp = byte_exp();
    let system = SystemSpec::Kind(SystemKind::TifsVirtualized);
    let switching = CellPrograms::build(&web_zeus_switching().into(), exp.seed);
    let report = run_cell(&switching, &system, &exp, &SystemConfig::table2());
    assert!(
        report.cores.iter().all(|c| c.flushes > 0),
        "every core must context-switch inside the window"
    );
    let programs = CellPrograms::build(&WorkloadSpec::web_zeus().into(), exp.seed);
    let report = run_cell(&programs, &system, &exp, &few_mshrs());
    assert!(report.l2.mshr_rejects > 0, "6 MSHRs must reject requests");
    let report = run_cell(
        &programs,
        &shared_pool_2port_small(),
        &exp,
        &SystemConfig::table2(),
    );
    assert!(report.prefetcher_counter("iml_pool_evictions").unwrap() > 0.0);
    assert!(report.prefetcher_counter("meta_port_conflicts").unwrap() > 0.0);
}

#[test]
fn mix_cells_address_disjoint_content_and_degenerate_mixes_hash_as_pins() {
    // The workload-mix axis (PR 10) extends the key schema append-only
    // at the *front* of the key: a true mix hashes a `mix` tag, its
    // position count, and each position's spec before the shared
    // suffix, while a degenerate mix canonicalizes to `Homogeneous`
    // and must reproduce the legacy key *byte-for-byte* — including
    // the pre-axis pins above, which predate `CellWorkload` entirely.
    let exp = pin_exp();
    let sys = SystemConfig::table2();

    // Degenerate mixes of any width hash exactly as the pinned
    // homogeneous cells they collapse to.
    for pin in PINS {
        for copies in [1usize, 2, 4] {
            let cell = CellWorkload::Mix(vec![(pin.spec)(); copies]);
            let key = report_key_cell(
                &cell,
                exp.seed,
                &(pin.system)(),
                &exp,
                &sys,
                ExecMode::Coupled,
            );
            assert_eq!(
                key.0, pin.key,
                "{copies}-copy degenerate mix drifted from pin {}",
                pin.label
            );
        }
    }

    // True mixes land in fresh address space: distinct from every pin,
    // from each other, and order-sensitive (per-(core,spec) keying —
    // the bug this PR fixes was mixes aliasing their position-0 spec).
    let a = WorkloadSpec::web_zeus;
    let b = WorkloadSpec::oltp_db2;
    let mixes: Vec<(&str, CellWorkload)> = vec![
        ("a,b", CellWorkload::Mix(vec![a(), b()])),
        ("b,a", CellWorkload::Mix(vec![b(), a()])),
        ("a,a,b", CellWorkload::Mix(vec![a(), a(), b()])),
    ];
    let mut keys = Vec::new();
    for (label, cell) in &mixes {
        let key = report_key_cell(
            cell,
            exp.seed,
            &SystemSpec::Kind(SystemKind::TifsVirtualized),
            &exp,
            &sys,
            ExecMode::Coupled,
        );
        for pin in PINS {
            assert_ne!(
                key.0, pin.key,
                "mix {label} must not collide with pin {}",
                pin.label
            );
        }
        keys.push((*label, key.0));
    }
    for (i, (a_label, a)) in keys.iter().enumerate() {
        for (b_label, b) in &keys[i + 1..] {
            assert_ne!(a, b, "mix keys must be distinct: {a_label} vs {b_label}");
        }
    }
}

#[test]
fn shared_orgs_address_disjoint_content_from_every_pin() {
    let exp = pin_exp();
    let sys = SystemConfig::table2();
    for org in [
        MetadataOrg::shared_quota(0),
        MetadataOrg::shared_quota(1),
        MetadataOrg::shared_pool(1),
    ] {
        let shared = SystemSpec::tifs(
            "shared",
            TifsConfig {
                metadata: org,
                ..TifsConfig::virtualized()
            },
        );
        let key = report_key(
            &WorkloadSpec::web_zeus(),
            exp.seed,
            &shared,
            &exp,
            &sys,
            ExecMode::Coupled,
        );
        for pin in PINS {
            assert_ne!(
                key.0, pin.key,
                "{org:?} must not collide with pin {}",
                pin.label
            );
        }
    }
}
