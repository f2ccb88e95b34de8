//! Golden FNV-1a hashes of every deterministic file the experiment suite
//! writes under `results/`.
//!
//! The test regenerates the whole suite (what `--bin all` runs, at CI
//! scale) into a fresh directory through `SCORE_RESULTS_DIR` and checks
//! each file's length and hash. Every paper figure and every float the
//! JSON writer spells reaches one of these bytes, so a change that moves
//! a figure, a digit or a field order fails here instead of relying on a
//! hand-run `cmp`. A change that means to move them updates the table
//! below and says why.
//!
//! The one wall-clock file is named in [`WALL_CLOCK`] with the reason it
//! cannot be pinned; any file the suite writes that is in neither table
//! fails the test, so a new output cannot go unpinned by accident.

use score_experiments as exp;
use score_sim::TopologyKind;
use std::collections::BTreeSet;
use std::path::Path;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Files whose bytes differ between any two runs, and why.
const WALL_CLOCK: [(&str, &str); 1] = [(
    "fig5a_flowtable_ops.csv",
    "Fig. 5a is a timing experiment: every row is a measured duration",
)];

/// `(file, length in bytes, FNV-1a of the bytes)` of the 68 deterministic
/// files, at CI scale.
const GOLDEN: [(&str, usize, u64); 68] = [
    ("ext_control_overhead.csv", 204, 0x0659_374e_bf7d_7f2f),
    ("ext_dynamic.csv", 1120, 0x10e7_6e69_373c_ba61),
    (
        "ext_dynamic_diurnal_none_fcf.json",
        68623,
        0x31fe_9fa6_7424_571d,
    ),
    (
        "ext_dynamic_diurnal_none_hcf.json",
        68623,
        0x3b1d_7fae_dae6_6a2b,
    ),
    (
        "ext_dynamic_diurnal_none_hlf.json",
        70411,
        0x1d36_c752_7dad_b4c6,
    ),
    (
        "ext_dynamic_diurnal_none_matrix.json",
        357245,
        0x76c9_fe32_29cf_f12a,
    ),
    (
        "ext_dynamic_diurnal_none_rr.json",
        74039,
        0x0078_2b2c_9e08_6738,
    ),
    (
        "ext_dynamic_diurnal_oracle_fcf.json",
        70061,
        0xde8f_2358_8951_6851,
    ),
    (
        "ext_dynamic_diurnal_oracle_hcf.json",
        68671,
        0xa03b_ad6d_1896_7e4a,
    ),
    (
        "ext_dynamic_diurnal_oracle_hlf.json",
        70462,
        0x42da_4452_90f6_eaf1,
    ),
    (
        "ext_dynamic_diurnal_oracle_matrix.json",
        359451,
        0x4dc5_fcc3_b562_695f,
    ),
    (
        "ext_dynamic_diurnal_oracle_rr.json",
        74082,
        0x9171_c915_a176_d07d,
    ),
    (
        "ext_dynamic_flash-crowd_none_fcf.json",
        101258,
        0xbed0_9643_1c7e_4bc3,
    ),
    (
        "ext_dynamic_flash-crowd_none_hcf.json",
        101258,
        0x168c_4206_22fc_e871,
    ),
    (
        "ext_dynamic_flash-crowd_none_hlf.json",
        101699,
        0xc991_3b40_8673_0e87,
    ),
    (
        "ext_dynamic_flash-crowd_none_matrix.json",
        507647,
        0xddfe_d5b9_ac4e_1cf7,
    ),
    (
        "ext_dynamic_flash-crowd_none_rr.json",
        100011,
        0x4aa5_268d_4be0_91fc,
    ),
    (
        "ext_dynamic_flash-crowd_oracle_fcf.json",
        101858,
        0x3953_2318_3044_4494,
    ),
    (
        "ext_dynamic_flash-crowd_oracle_hcf.json",
        101858,
        0x0ed1_74be_8dd8_7a3a,
    ),
    (
        "ext_dynamic_flash-crowd_oracle_hlf.json",
        102011,
        0xa1a9_fed8_3a07_2ab2,
    ),
    (
        "ext_dynamic_flash-crowd_oracle_matrix.json",
        510519,
        0xff47_5dff_7d32_a9c3,
    ),
    (
        "ext_dynamic_flash-crowd_oracle_rr.json",
        100613,
        0xaa74_ddce_23b5_3165,
    ),
    ("ext_faults.csv", 633, 0x4160_3744_679c_d880),
    ("ext_faults_breeze_hcf.json", 78156, 0x0454_c435_409f_b072),
    ("ext_faults_breeze_hlf.json", 79336, 0x9e66_0d53_321f_3ec0),
    ("ext_faults_breeze_rr.json", 86689, 0x82cc_f540_3479_c8d4),
    ("ext_faults_cascade_hcf.json", 89868, 0x3d18_0c28_bcc9_9127),
    ("ext_faults_cascade_hlf.json", 90151, 0x5d8b_9e34_0a72_68fd),
    ("ext_faults_cascade_rr.json", 96964, 0x291a_03b2_741a_b49a),
    ("ext_faults_storm_hcf.json", 80135, 0xb794_f394_d98e_84f9),
    ("ext_faults_storm_hlf.json", 82439, 0xf186_0a5f_4c59_9be1),
    ("ext_faults_storm_rr.json", 86406, 0xc50a_c108_313b_d05c),
    ("ext_oversub_1x.json", 89768, 0xd5d8_8fa9_1d84_34f7),
    ("ext_oversub_2x.json", 89759, 0x0b6b_c2de_7f5b_6bca),
    ("ext_oversub_4x.json", 89745, 0xc8f9_641b_c2f6_3996),
    ("ext_oversub_8x.json", 89735, 0xb085_9c4e_51ed_1565),
    ("ext_oversub_matrix.json", 453178, 0xe033_8c23_f2cc_8ba2),
    ("ext_oversubscription.csv", 152, 0x63f4_8af8_68d3_5f2e),
    ("ext_policy_comparison.csv", 151, 0xc6ac_bf2e_c40e_07c8),
    ("ext_policy_matrix.json", 545252, 0x2fe6_d1d3_1475_5ace),
    ("ext_weight_sensitivity.csv", 224, 0x046e_fa1b_e7f5_cda2),
    ("ext_weights_matrix.json", 249327, 0xa928_7dbc_3547_921d),
    ("fig2_hlf.json", 81038, 0x6a10_3ea7_fca4_b8ff),
    ("fig2_migration_ratio.csv", 158, 0xa5e5_2e12_3b75_ae47),
    ("fig2_rr.json", 80460, 0x32d4_4627_5b0d_9521),
    (
        "fig3_canonical-tree_dense_hlf.csv",
        2376,
        0x8a14_32de_5eff_7edd,
    ),
    (
        "fig3_canonical-tree_dense_rr.csv",
        2376,
        0x85f7_d631_1bc9_1937,
    ),
    (
        "fig3_canonical-tree_matrix.json",
        683863,
        0x84da_1c16_be2f_357a,
    ),
    (
        "fig3_canonical-tree_medium_hlf.csv",
        2377,
        0x0725_85f2_0bcc_d633,
    ),
    (
        "fig3_canonical-tree_medium_rr.csv",
        2377,
        0x6e7d_4bd5_dee1_d602,
    ),
    (
        "fig3_canonical-tree_sparse_hlf.csv",
        2378,
        0x26c7_dbca_564e_8575,
    ),
    (
        "fig3_canonical-tree_sparse_rr.csv",
        2378,
        0x521f_3ae8_15e7_2ca9,
    ),
    ("fig3_fat-tree_dense_hlf.csv", 2376, 0x2fea_ccdf_6fd6_14e2),
    ("fig3_fat-tree_dense_rr.csv", 2376, 0x07a4_8cb5_e572_ecb0),
    ("fig3_fat-tree_matrix.json", 650925, 0x7a83_4b10_fd77_04dc),
    ("fig3_fat-tree_medium_hlf.csv", 2377, 0x8824_05e6_8774_36a8),
    ("fig3_fat-tree_medium_rr.csv", 2377, 0x92fb_07b1_5ce7_3094),
    ("fig3_fat-tree_sparse_hlf.csv", 2378, 0x4397_d545_f7e7_7c7b),
    ("fig3_fat-tree_sparse_rr.csv", 2378, 0x0285_2ecb_2757_8f6a),
    ("fig3_tm_dense.csv", 22702, 0xe604_a21e_969f_d3a7),
    ("fig3_tm_medium.csv", 18564, 0xc476_726e_1422_f90b),
    ("fig3_tm_sparse.csv", 15339, 0x5dd9_3135_3335_d7c7),
    ("fig4_score.json", 75398, 0xfaea_d3da_b70e_4d6f),
    ("fig4a_utilization_cdf.csv", 18701, 0x1ea7_6d85_acd0_e83e),
    ("fig4b_cost_ratio.csv", 4566, 0xf5fd_53f2_f6e6_bf3b),
    ("fig5b_migrated_bytes.csv", 248, 0x216a_f161_1bc7_f507),
    ("fig5c_migration_time.csv", 340, 0xed7d_2e83_d8e3_4e85),
    ("fig5d_downtime.csv", 319, 0x01f8_de54_2d7f_1eef),
];

/// Everything `--bin all` runs, at CI scale.
fn run_suite() {
    exp::fig2::run(false);
    exp::fig3_tm::run(false);
    exp::fig3_cost::run(TopologyKind::CanonicalTree, false);
    exp::fig3_cost::run(TopologyKind::FatTree, false);
    exp::fig4::run(false);
    exp::fig5a::run(false);
    exp::fig5b::run(false);
    exp::fig5cd::run(false);
    exp::ext_policies::run(false);
    exp::ext_weights::run(false);
    exp::ext_overhead::run(false);
    exp::ext_oversub::run(false);
    exp::ext_dynamic::run(false);
    exp::ext_faults::run(false);
}

fn file_names(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .expect("read the regenerated results directory")
        .map(|entry| {
            entry
                .expect("list a regenerated file")
                .file_name()
                .into_string()
                .expect("result file names are UTF-8")
        })
        .collect()
}

// One test in this binary: it sets the process-wide `SCORE_RESULTS_DIR`.
#[test]
fn regenerated_results_match_their_golden_hashes() {
    let dir = std::env::temp_dir().join(format!("score-results-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("SCORE_RESULTS_DIR", &dir);
    run_suite();

    let expected: BTreeSet<String> = GOLDEN
        .iter()
        .map(|&(name, _, _)| name)
        .chain(WALL_CLOCK.iter().map(|&(name, _)| name))
        .map(str::to_string)
        .collect();
    assert_eq!(expected.len(), GOLDEN.len() + WALL_CLOCK.len());
    assert_eq!(
        file_names(&dir),
        expected,
        "the suite's outputs are not exactly the pinned and the wall-clock files"
    );

    let mut mismatches = Vec::new();
    for (name, len, hash) in GOLDEN {
        let bytes = std::fs::read(dir.join(name)).expect("read a regenerated file");
        let got = (bytes.len(), fnv1a(&bytes));
        if got != (len, hash) {
            mismatches.push(format!(
                "    (\"{name}\", {}, {:#018x}), // was ({len}, {hash:#018x})",
                got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} deterministic files changed (regenerated under {}):\n{}",
        mismatches.len(),
        GOLDEN.len(),
        dir.display(),
        mismatches.join("\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}
