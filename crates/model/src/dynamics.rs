//! §IV.C closed-form peer dynamics.
//!
//! All quantities are in *block units*: a sub-stream needs `R/K` blocks
//! per second (`substream_rate`), uplink shares are expressed in blocks
//! per second, and gaps `l` in blocks. The equations:
//!
//! * Eq. (3) — catch-up: `t↑ = l / (r↑ − R/K)`,
//! * Eq. (4) — starvation: `t↓ = l / (R/K − r↓)`,
//! * Eq. (5) — dilution: `r↓ = D_p/(D_p+1) · R/K`,
//! * Eq. (6) — competition loss: `t_lose = (D_p+1)(T_s − t_δ)/(R/K)` and
//!   `P(t_lose ≤ T_a) = P(t_δ ≥ T_s − T_a·R/K/(D_p+1))`.

/// Eq. (3): time for a child to close a gap of `l` blocks against a
/// parent pushing at `r_up` blocks/s while the stream advances at
/// `substream_rate`. `None` when the parent cannot outrun the stream.
pub fn catch_up_time(l: f64, r_up: f64, substream_rate: f64) -> Option<f64> {
    (r_up > substream_rate && l >= 0.0).then(|| l / (r_up - substream_rate))
}

/// Eq. (4): time until a child served at only `r_down < R/K` blocks/s
/// falls a further `l` blocks behind (its lag budget). `None` when the
/// rate actually suffices.
pub fn starvation_time(l: f64, r_down: f64, substream_rate: f64) -> Option<f64> {
    (r_down < substream_rate && l >= 0.0).then(|| l / (substream_rate - r_down))
}

/// Eq. (5): per-subscription rate after a parent that exactly satisfied
/// `D_p` subscriptions accepts one more.
pub fn diluted_rate(d_p: u32, substream_rate: f64) -> f64 {
    let d = d_p as f64;
    d / (d + 1.0) * substream_rate
}

/// Eq. (6) precursor: time for a child with initial slack `t_delta`
/// blocks to hit the `T_s` threshold when its parent's rate is diluted by
/// one extra subscription.
pub fn time_to_lose(d_p: u32, ts: f64, t_delta: f64, substream_rate: f64) -> f64 {
    (d_p as f64 + 1.0) * (ts - t_delta).max(0.0) / substream_rate
}

/// Eq. (6): probability that some child loses the competition within the
/// cool-down `T_a`, assuming the initial slack `t_δ` of the children is
/// uniform on `[0, T_s]` (the stationary distribution of a lag that is
/// reset by adaptation).
pub fn p_lose_within(d_p: u32, ts: f64, ta: f64, substream_rate: f64) -> f64 {
    if ts <= 0.0 {
        return 1.0;
    }
    // t_lose ≤ T_a  ⇔  t_δ ≥ T_s − T_a·(R/K)/(D_p+1).
    let threshold = ts - ta * substream_rate / (d_p as f64 + 1.0);
    (1.0 - threshold / ts).clamp(0.0, 1.0)
}

/// Empirical counterpart of [`p_lose_within`]: fraction of slack samples
/// that lose within `T_a`. Used to validate the simulator against the
/// model without the uniform-slack assumption.
pub fn p_lose_within_empirical(
    d_p: u32,
    ts: f64,
    ta: f64,
    substream_rate: f64,
    slacks: &[f64],
) -> f64 {
    if slacks.is_empty() {
        return 0.0;
    }
    let losing = slacks
        .iter()
        .filter(|&&t_delta| time_to_lose(d_p, ts, t_delta, substream_rate) <= ta)
        .count();
    losing as f64 / slacks.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: f64 = 1.6; // blocks/s per sub-stream (768 kbps, K=6)

    #[test]
    fn eq3_catch_up() {
        // 16-block gap, parent pushes at 2× stream rate → 16/1.6 = 10 s.
        assert_eq!(catch_up_time(16.0, 3.2, RATE), Some(10.0));
        // Parent at exactly stream rate never catches up.
        assert_eq!(catch_up_time(16.0, RATE, RATE), None);
        assert_eq!(catch_up_time(16.0, 1.0, RATE), None);
    }

    #[test]
    fn eq4_starvation() {
        // 16-block budget at half rate → 16/0.8 = 20 s.
        assert_eq!(starvation_time(16.0, 0.8, RATE), Some(20.0));
        assert_eq!(starvation_time(16.0, RATE, RATE), None);
        assert_eq!(starvation_time(16.0, 2.0, RATE), None);
    }

    #[test]
    fn eq5_dilution() {
        assert!((diluted_rate(1, RATE) - 0.8).abs() < 1e-12);
        assert!((diluted_rate(3, RATE) - 1.2).abs() < 1e-12);
        // Large degree → dilution negligible.
        assert!(diluted_rate(1000, RATE) > RATE * 0.999);
    }

    #[test]
    fn eq6_time_to_lose_scales_with_degree() {
        let t1 = time_to_lose(1, 96.0, 0.0, RATE);
        let t7 = time_to_lose(7, 96.0, 0.0, RATE);
        assert!((t1 - 2.0 * 96.0 / RATE).abs() < 1e-9);
        assert!((t7 / t1 - 4.0).abs() < 1e-9, "t_lose linear in D_p+1");
        // No slack left → instant loss.
        assert_eq!(time_to_lose(3, 96.0, 96.0, RATE), 0.0);
    }

    #[test]
    fn eq6_probability_monotone_in_degree() {
        // Higher-degree parents dilute less per extra child → children
        // lose less often within T_a (the paper's §V.B stability
        // argument for clogging under high-degree public peers).
        let ts = 96.0;
        let ta = 20.0;
        let mut prev = f64::INFINITY;
        for d in [1u32, 2, 4, 8, 16] {
            let p = p_lose_within(d, ts, ta, RATE);
            assert!(p <= prev + 1e-12, "p_lose must fall with degree");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn eq6_limits() {
        // Huge cool-down → loss certain.
        assert_eq!(p_lose_within(2, 96.0, 1e9, RATE), 1.0);
        // Zero cool-down → loss impossible.
        assert_eq!(p_lose_within(2, 96.0, 0.0, RATE), 0.0);
    }

    #[test]
    fn empirical_matches_uniform_closed_form() {
        let ts = 96.0;
        let ta = 30.0;
        let d = 3;
        // Dense uniform grid of slacks approximates the uniform law.
        let slacks: Vec<f64> = (0..9600).map(|i| i as f64 / 100.0).collect();
        let emp = p_lose_within_empirical(d, ts, ta, RATE, &slacks);
        let model = p_lose_within(d, ts, ta, RATE);
        assert!((emp - model).abs() < 0.01, "emp {emp} vs model {model}");
    }
}
