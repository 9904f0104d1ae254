//! Small-n smoke runs of the lemma-verification experiments: every bound
//! the paper proves must hold on these concrete instances.

use plurality_consensus::usd_core::backend::Backend;
use plurality_consensus::usd_experiments::lemmas;

#[test]
fn lemma31_bound_holds_at_small_n() {
    for &k in &[4usize, 8] {
        let cell = lemmas::lemma31_cell(Backend::Agent, 5_000, k, 3, 17);
        assert!(
            cell.within_bound,
            "Lemma 3.1 ceiling violated at k={k}: {cell:?}"
        );
        // The plateau must be a meaningful fraction of n/2.
        assert!(cell.plateau > 1_000.0);
        assert!(cell.max_u_worst >= cell.plateau * 0.8);
    }
}

#[test]
fn lemma33_bound_holds_at_small_n() {
    let cell = lemmas::lemma33_cell(Backend::Agent, 5_000, 5, 4, 18);
    assert!(cell.crossings > 0, "winner never crossed the levels");
    assert!(
        cell.min_tau_over_kn >= 1.0 / 25.0,
        "Lemma 3.3 violated: min tau/kn = {}",
        cell.min_tau_over_kn
    );
}

#[test]
fn lemma34_bound_holds_at_small_n() {
    let cell = lemmas::lemma34_cell(Backend::Agent, 5_000, 5, 4, 19);
    if cell.min_doubling_kn.is_finite() {
        assert!(
            cell.min_doubling_kn >= 1.0 / 24.0,
            "Lemma 3.4 violated: min doubling/kn = {}",
            cell.min_doubling_kn
        );
    }
}

#[test]
fn lemma_bounds_hold_through_the_leaping_backends() {
    // The observation layer's promise: the same lemma probes run on the
    // block-leaping engines, where observations are block checkpoints
    // rather than per-event — the paper's kn-scale bounds must still hold.
    for backend in [Backend::Batch, Backend::BatchGraph] {
        let cell = lemmas::lemma31_cell(backend, 2_000, 4, 2, 21);
        assert!(cell.within_bound, "{backend}: {cell:?}");
        // Crossing instants resolve to the ~√n block boundary on these
        // engines, so allow the bound a one-block slack.
        let c33 = lemmas::lemma33_cell(backend, 2_000, 4, 2, 22);
        let slack = (2_000f64).sqrt() / (4.0 * 2_000.0);
        assert!(
            c33.crossings == 0 || c33.min_tau_over_kn >= 1.0 / 25.0 - slack,
            "{backend}: Lemma 3.3 violated: {}",
            c33.min_tau_over_kn
        );
    }
}

#[test]
fn oliveto_witt_instantiation_is_valid_for_paper_sizes() {
    use plurality_consensus::drift_analysis::NegativeDriftParams;
    // The Lemma 3.1 proof's Theorem A.1 instantiation must satisfy the
    // theorem's arithmetic hypothesis at the paper's n = 10^6 (and at the
    // reduced sizes our experiments use).
    for &n in &[100_000u64, 1_000_000] {
        let report = NegativeDriftParams::lemma31(n).report();
        assert!(report.condition_holds, "n={n}: {report:?}");
        assert!(report.horizon > (n as f64).powi(4), "horizon too small");
    }
}

#[test]
fn lemma32_constants_satisfy_the_lemma_hypothesis_in_regime() {
    use plurality_consensus::drift_analysis::bernstein::lemma32_condition_holds;
    // Lemma 3.3 applies Lemma 3.2 with p = 5/k, q = 6.25/k², T = n/(2k)
    // and requires T ≥ 32(p−q²)/(2q) + 2/3)·ln n — which the paper shows
    // holds when k = o(√n/log n). Verify at the paper's parameters.
    let n = 1_000_000f64;
    for &k in &[16f64, 27.0, 50.0] {
        let p = 5.0 / k;
        let q = 6.25 / (k * k);
        let t = n / (2.0 * k);
        assert!(
            lemma32_condition_holds(t, p, q, n),
            "hypothesis fails at k={k}"
        );
    }
}
