//! Output quality recorded for the seeds the benchmark was defined on.

use crate::Report;

/// `stream_churn`'s final view depends on how many mutations a run
/// offers, so its recorded F1 holds for this `--seconds` only.
pub const STREAM_SECONDS: f64 = 20.0;

/// F1 of each workload's output, as `(workload, seed, f1)`: the
/// production run's matches for the batch workloads, the final live
/// matched view for `stream_churn`. A listed seed must reproduce its F1
/// exactly; other seeds are held to one F1 across all their runs.
const RECORDED_F1: &[(&str, u64, f64)] = &[
    ("persons_ram", 0, 0.9341021416803954),
    ("persons_ram", 1, 0.9037520391517129),
    ("persons_ram", 2, 0.8985270049099836),
    ("persons_ram", 3, 0.8230452674897119),
    ("persons_ram", 4, 0.9201009251471824),
    ("persons_ram", 5, 0.8964941569282137),
    ("persons_ram", 6, 0.9126530612244897),
    ("persons_ram", 7, 0.9042904290429042),
    ("persons_ram", 8, 0.8997632202052093),
    ("persons_ram", 9, 0.9016666666666666),
    ("persons_ram", 10, 0.8881889763779527),
    ("persons_ram", 11, 0.8987854251012145),
    ("persons_ram", 12, 0.8919135308246596),
    ("persons_ram", 13, 0.8733067729083666),
    ("persons_ram", 14, 0.8901927912824812),
    ("persons_ram", 15, 0.8747044917257684),
    ("persons_ram", 16, 0.8621477532368621),
    ("persons_ram", 17, 0.927536231884058),
    ("persons_ram", 18, 0.8429360694554064),
    ("persons_ram", 19, 0.8847703464947623),
    ("persons_ram", 20, 0.8951747088186357),
    ("products_ooc", 0, 0.865130890052356),
    ("products_ooc", 1, 0.8150458000389788),
    ("products_ooc", 2, 0.8247422680412371),
    ("products_ooc", 3, 0.8859455481972038),
    ("products_ooc", 4, 0.8343693603368759),
    ("products_ooc", 5, 0.8706611570247934),
    ("products_ooc", 6, 0.8600682593856654),
    ("products_ooc", 7, 0.8795601142011208),
    ("products_ooc", 8, 0.8204273671829052),
    ("products_ooc", 9, 0.8607857364983934),
    ("products_ooc", 10, 0.8985261372070831),
    ("products_ooc", 11, 0.8522854525094168),
    ("products_ooc", 12, 0.8455005055611728),
    ("products_ooc", 13, 0.8339630145158082),
    ("products_ooc", 14, 0.706367924528302),
    ("products_ooc", 15, 0.8636410414737058),
    ("products_ooc", 16, 0.8683274021352314),
    ("products_ooc", 17, 0.8755020080321285),
    ("products_ooc", 18, 0.8912974179152056),
    ("products_ooc", 19, 0.8588805277806412),
    ("products_ooc", 20, 0.805912843156076),
    ("stream_churn", 0, 0.9138110072689511),
    ("stream_churn", 1, 0.9293139293139292),
    ("stream_churn", 2, 0.9152366094643785),
    ("stream_churn", 3, 0.911764705882353),
    ("stream_churn", 4, 0.9119496855345912),
    ("stream_churn", 5, 0.9211222869242985),
    ("stream_churn", 6, 0.914199698946312),
    ("stream_churn", 7, 0.8702290076335877),
    ("stream_churn", 8, 0.9061488673139159),
    ("stream_churn", 9, 0.9373673036093417),
    ("stream_churn", 10, 0.9210669569951008),
    ("stream_churn", 11, 0.9116840373011519),
    ("stream_churn", 12, 0.9187205034084951),
    ("stream_churn", 13, 0.9221374045801528),
    ("stream_churn", 14, 0.9026915113871636),
    ("stream_churn", 15, 0.877507919746568),
    ("stream_churn", 16, 0.9273021001615509),
    ("stream_churn", 17, 0.9241680305510093),
    ("stream_churn", 18, 0.9286422200198217),
    ("stream_churn", 19, 0.9150259067357513),
    ("stream_churn", 20, 0.9181571815718156),
];

/// Check `f1` against the value recorded for `(workload, seed)`, if any.
pub fn check_f1(rep: &mut Report, workload: &str, seed: u64, f1: f64) {
    match RECORDED_F1
        .iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
    {
        Some(&(_, _, want)) => rep.check(
            f1 == want,
            &format!("f1 {f1} differs from the {want} recorded for seed {seed}"),
        ),
        None => eprintln!("{workload}: no F1 recorded for seed {seed}; got {f1}"),
    }
}
