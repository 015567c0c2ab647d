//! Regression tests pinning the PR-1 `gen_range` fix in the R/S
//! generator: the match-draw originally inferred `i32` against an `i64`
//! comparison, skewing the R→S match rate. These properties nail the
//! match-rate and the selectivity distributions across seeds and
//! parameter settings, so a type-inference regression (or any silent
//! distribution change) fails loudly.

use pier_workload::{RsParams, RsWorkload};

/// Fraction of R rows whose `num1` lands inside S's key range.
fn match_fraction(wl: &RsWorkload) -> f64 {
    let n_s = wl.s.len() as i64;
    let matched =
        wl.r.iter()
            .filter(|t| t.get(1).as_i64().unwrap() < n_s)
            .count();
    matched as f64 / wl.r.len() as f64
}

#[test]
fn match_rate_tracks_match_pct_across_seeds() {
    for seed in [1u64, 2, 77, 0xF1E1D] {
        for match_pct in [0u32, 50, 90, 100] {
            let wl = RsWorkload::generate(RsParams {
                s_rows: 400,
                match_pct,
                seed,
                ..Default::default()
            });
            let frac = match_fraction(&wl);
            let want = match_pct as f64 / 100.0;
            assert!(
                (frac - want).abs() < 0.04,
                "seed {seed} match_pct {match_pct}: fraction {frac}"
            );
        }
    }
}

#[test]
fn unmatched_r_rows_point_strictly_past_the_table() {
    // The 10% non-matching rows must reference keys in [n_s, 2*n_s) —
    // never negative, never accidentally inside the table (the failure
    // mode of a truncating integer draw).
    let wl = RsWorkload::generate(RsParams {
        s_rows: 300,
        match_pct: 0,
        seed: 9,
        ..Default::default()
    });
    let n_s = wl.s.len() as i64;
    for t in &wl.r {
        let num1 = t.get(1).as_i64().unwrap();
        assert!((n_s..2 * n_s).contains(&num1), "num1 {num1} out of range");
    }
}

#[test]
fn attribute_values_are_uniform_over_0_to_100() {
    // num2/num3 drive predicate selectivities, so their distribution is
    // load-bearing: check bounds and coarse uniformity per decile.
    let wl = RsWorkload::generate(RsParams {
        s_rows: 1000,
        seed: 5,
        ..Default::default()
    });
    let mut deciles = [0usize; 10];
    for t in &wl.r {
        for col in [2, 3] {
            let v = t.get(col).as_i64().unwrap();
            assert!((0..100).contains(&v), "attribute {v} out of range");
            if col == 2 {
                deciles[(v / 10) as usize] += 1;
            }
        }
    }
    let expect = wl.r.len() as f64 / 10.0;
    for (i, &n) in deciles.iter().enumerate() {
        let dev = (n as f64 - expect).abs() / expect;
        assert!(dev < 0.15, "decile {i} off by {dev:.2}");
    }
}

#[test]
fn predicate_selectivity_matches_dialed_percentages() {
    use pier_core::plan::JoinStrategy;
    for (sel_r, sel_s) in [(10u32, 90u32), (25, 50), (75, 25)] {
        let wl = RsWorkload::generate(RsParams {
            s_rows: 800,
            sel_r_pct: sel_r,
            sel_s_pct: sel_s,
            seed: 11,
            ..Default::default()
        });
        let j = wl.join_spec(JoinStrategy::SymmetricHash);
        let frac_r =
            wl.r.iter()
                .filter(|t| j.left.pred.as_ref().unwrap().matches(t))
                .count() as f64
                / wl.r.len() as f64;
        let frac_s =
            wl.s.iter()
                .filter(|t| j.stages[0].right.pred.as_ref().unwrap().matches(t))
                .count() as f64
                / wl.s.len() as f64;
        assert!(
            (frac_r - sel_r as f64 / 100.0).abs() < 0.05,
            "sel_r {sel_r}: {frac_r}"
        );
        assert!(
            (frac_s - sel_s as f64 / 100.0).abs() < 0.05,
            "sel_s {sel_s}: {frac_s}"
        );
    }
}

#[test]
fn expected_join_size_scales_with_match_rate() {
    use pier_core::plan::JoinStrategy;
    // End-to-end consequence of the fixed draw: doubling match_pct
    // roughly doubles the reference result, all else fixed.
    let gen = |match_pct| {
        RsWorkload::generate(RsParams {
            s_rows: 500,
            match_pct,
            seed: 3,
            ..Default::default()
        })
        .expected(JoinStrategy::SymmetricHash)
        .len() as f64
    };
    let lo = gen(45);
    let hi = gen(90);
    assert!(lo > 0.0);
    let ratio = hi / lo;
    assert!((ratio - 2.0).abs() < 0.35, "ratio {ratio}");
}
