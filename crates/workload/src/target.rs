//! Distribution-targeted synthesis: target specs, the accept/reject
//! rule, and the round-based feedback controller.
//!
//! A [`TargetSpec`] asks for a histogram shape over one or more
//! *property axes* — any of [`crate::analysis::NUMERIC_PROPS`] plus the
//! engine-estimated `runtime_ms` — and the [`Controller`] steers the
//! streamed synthesis toward it with two mechanisms:
//!
//! * **Accept/reject**: each round the controller turns the cumulative
//!   *candidate* histogram `c` and the target `t` into per-bucket
//!   acceptance probabilities `p_b = t'_b / (M · c_b)` where `M` is the
//!   largest `t'_b / c_b` ratio (so the scarcest bucket accepts at 1.0)
//!   and `t'` is the target nudged away from what has already been
//!   accepted. Multi-axis probabilities multiply.
//! * **Profile annealing**: knobs of the [`GenProfile`] that directly
//!   govern an axis (table weights, nesting probability, predicate
//!   range) are nudged toward the target between rounds, so the
//!   candidate pool itself drifts closer and the acceptance rate stays
//!   off the floor.
//!
//! Byte-identity across `--jobs` and shard counts is preserved because
//! every per-candidate decision is a **pure function** of the round plan
//! and `mix(seed ⊕ salt, index)` — the plan in turn derives only from
//! previous rounds' merged, order-independent counts. Round 0 under a
//! target is calibration only (nothing is accepted); the reported
//! acceptance rate covers steering rounds alone.

use crate::analysis::{default_edges, NUMERIC_PROPS};
use crate::gen::GenProfile;
use crate::stream::mix;
use serde::{Deserialize, Serialize};
use squ_engine::RUNTIME_BUCKET_EDGES_MS;

/// Salt separating accept/reject draws from the stream's item seeds.
const ACCEPT_SALT: u64 = 0xACCE_97ED;
/// Acceptance-probability floor for buckets the target still wants.
const PROB_FLOOR: f64 = 0.02;
/// Default per-bucket tolerance when the spec leaves it out.
const DEFAULT_TOLERANCE: f64 = 0.05;

/// One target axis: a property, histogram edges, and desired bucket
/// weights (`edges.len() + 1` buckets, same convention as
/// [`crate::analysis::histogram`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AxisTarget {
    /// Property name: one of [`NUMERIC_PROPS`] or `runtime_ms`.
    pub property: String,
    /// Ascending bucket edges; empty means "use the default edges for
    /// this property" ([`default_edges`], or the engine's
    /// [`RUNTIME_BUCKET_EDGES_MS`] for `runtime_ms`).
    pub edges: Vec<f64>,
    /// Desired bucket mass; normalized to sum 1 on load.
    pub weights: Vec<f64>,
}

/// A distribution target: one or more axes plus a tolerance, parsed
/// from the `--target <spec.json>` file.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TargetSpec {
    /// The axes to steer.
    pub axes: Vec<AxisTarget>,
    /// Per-bucket tolerance on `|achieved − target|` (default 0.05).
    pub tolerance: f64,
}

/// JSON shape of the spec file, with optional fields spelled out as
/// `Option` (the derive treats absent fields as `None`).
#[derive(Deserialize)]
struct RawAxis {
    property: String,
    edges: Option<Vec<f64>>,
    weights: Vec<f64>,
}

#[derive(Deserialize)]
struct RawSpec {
    axes: Vec<RawAxis>,
    tolerance: Option<f64>,
}

impl TargetSpec {
    /// Parse and validate a spec from its JSON text. Omitted fields get
    /// defaults: per-property edges and a tolerance of 0.05.
    pub fn from_json(text: &str) -> Result<TargetSpec, String> {
        let raw: RawSpec = serde_json::from_str(text).map_err(|e| format!("target spec: {e}"))?;
        let mut spec = TargetSpec {
            axes: raw
                .axes
                .into_iter()
                .map(|a| AxisTarget {
                    property: a.property,
                    edges: a.edges.unwrap_or_default(),
                    weights: a.weights,
                })
                .collect(),
            tolerance: raw.tolerance.unwrap_or(DEFAULT_TOLERANCE),
        };
        spec.normalize()?;
        Ok(spec)
    }

    /// Validate and normalize in place: fill default edges, check edge
    /// ordering and weight arity, normalize weights to sum 1.
    pub fn normalize(&mut self) -> Result<(), String> {
        if self.axes.is_empty() {
            return Err("target spec: at least one axis is required".into());
        }
        if !(self.tolerance > 0.0 && self.tolerance <= 1.0) {
            return Err(format!(
                "target spec: tolerance {} outside (0, 1]",
                self.tolerance
            ));
        }
        for i in 0..self.axes.len() {
            for j in i + 1..self.axes.len() {
                if self.axes[i].property == self.axes[j].property {
                    return Err(format!(
                        "target spec: duplicate axis {:?}",
                        self.axes[i].property
                    ));
                }
            }
        }
        for axis in &mut self.axes {
            let known =
                axis.property == "runtime_ms" || NUMERIC_PROPS.contains(&axis.property.as_str());
            if !known {
                return Err(format!(
                    "target spec: unknown property {:?} (expected one of {NUMERIC_PROPS:?} or \"runtime_ms\")",
                    axis.property
                ));
            }
            if axis.edges.is_empty() {
                axis.edges = if axis.property == "runtime_ms" {
                    RUNTIME_BUCKET_EDGES_MS.to_vec()
                } else {
                    default_edges(&axis.property)
                };
            }
            if !axis.edges.iter().all(|e| e.is_finite()) {
                return Err(format!("target spec: {}: non-finite edge", axis.property));
            }
            if !axis.edges.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "target spec: {}: edges must be strictly ascending",
                    axis.property
                ));
            }
            if axis.weights.len() != axis.edges.len() + 1 {
                return Err(format!(
                    "target spec: {}: {} weights for {} buckets (edges + 1)",
                    axis.property,
                    axis.weights.len(),
                    axis.edges.len() + 1
                ));
            }
            if axis.weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                return Err(format!(
                    "target spec: {}: weights must be finite and non-negative",
                    axis.property
                ));
            }
            let sum: f64 = axis.weights.iter().sum();
            if sum <= 0.0 {
                return Err(format!(
                    "target spec: {}: weights must not all be zero",
                    axis.property
                ));
            }
            for w in &mut axis.weights {
                *w /= sum;
            }
        }
        Ok(())
    }
}

/// Bucket of `v` under `edges` — same convention as
/// [`crate::analysis::histogram`]: the first edge `e` with `v < e`,
/// else the overflow bucket.
pub fn bucket_index(edges: &[f64], v: f64) -> usize {
    for (i, e) in edges.iter().enumerate() {
        if v < *e {
            return i;
        }
    }
    edges.len()
}

/// Per-axis acceptance probabilities for one round.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisAccept {
    /// Property this axis buckets on.
    pub property: String,
    /// Bucket edges (same as the target axis).
    pub edges: Vec<f64>,
    /// Acceptance probability per bucket.
    pub probs: Vec<f64>,
}

/// The accept/reject rule of one round.
#[derive(Debug, Clone, PartialEq)]
pub enum AcceptRule {
    /// Accept every candidate (untargeted synthesis).
    All,
    /// Accept nothing — round 0 under a target only measures the
    /// candidate distribution.
    Calibrate,
    /// Per-axis bucket probabilities; multi-axis probabilities multiply.
    Probs(Vec<AxisAccept>),
}

/// Everything a shard needs to process one round deterministically.
#[derive(Debug, Clone)]
pub struct RoundPlan {
    /// Round number (0-based).
    pub round: u32,
    /// The (possibly annealed) generation profile for this round.
    pub profile: GenProfile,
    /// The accept/reject rule.
    pub accept: AcceptRule,
}

/// Pure accept/reject decision for candidate `index` whose per-axis
/// values are `values` (aligned with the rule's axes). Identical for
/// any sharding because it depends only on `(rule, seed, index)`.
pub fn accepts(rule: &AcceptRule, seed: u64, index: u64, values: &[f64]) -> bool {
    let axes = match rule {
        AcceptRule::All => return true,
        AcceptRule::Calibrate => return false,
        AcceptRule::Probs(axes) => axes,
    };
    debug_assert_eq!(values.len(), axes.len());
    let mut p = 1.0_f64;
    for (axis, &v) in axes.iter().zip(values) {
        p *= axis.probs[bucket_index(&axis.edges, v)];
    }
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    let u = (mix(seed ^ ACCEPT_SALT, index) >> 11) as f64 / (1u64 << 53) as f64;
    u < p
}

/// Order-independent per-round tallies: total and per-axis-bucket
/// candidate/accepted counts. Shards produce one each; merging is
/// element-wise addition, so any grouping yields the same totals.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundCounts {
    /// Candidates generated this round.
    pub candidates: u64,
    /// Candidates accepted this round.
    pub accepted: u64,
    /// Per-axis candidate counts by bucket (aligned with the spec axes).
    pub axis_candidates: Vec<Vec<u64>>,
    /// Per-axis accepted counts by bucket.
    pub axis_accepted: Vec<Vec<u64>>,
}

impl RoundCounts {
    /// Empty tallies shaped for `spec` (no axes without a target).
    pub fn for_spec(spec: Option<&TargetSpec>) -> RoundCounts {
        let shape = |spec: &TargetSpec| {
            spec.axes
                .iter()
                .map(|a| vec![0u64; a.edges.len() + 1])
                .collect::<Vec<_>>()
        };
        RoundCounts {
            candidates: 0,
            accepted: 0,
            axis_candidates: spec.map(shape).unwrap_or_default(),
            axis_accepted: spec.map(shape).unwrap_or_default(),
        }
    }

    /// Record one candidate's per-axis values.
    pub fn record(&mut self, spec: Option<&TargetSpec>, values: &[f64], accepted: bool) {
        self.candidates += 1;
        if accepted {
            self.accepted += 1;
        }
        if let Some(spec) = spec {
            for (i, (axis, &v)) in spec.axes.iter().zip(values).enumerate() {
                let b = bucket_index(&axis.edges, v);
                self.axis_candidates[i][b] += 1;
                if accepted {
                    self.axis_accepted[i][b] += 1;
                }
            }
        }
    }

    /// Element-wise addition (commutative, the shard-merge operation).
    pub fn merge(&mut self, other: &RoundCounts) {
        self.candidates += other.candidates;
        self.accepted += other.accepted;
        merge_axes(&mut self.axis_candidates, &other.axis_candidates);
        merge_axes(&mut self.axis_accepted, &other.axis_accepted);
    }
}

fn merge_axes(into: &mut Vec<Vec<u64>>, from: &[Vec<u64>]) {
    if into.is_empty() {
        *into = from.to_vec();
        return;
    }
    for (a, b) in into.iter_mut().zip(from) {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
    }
}

/// Per-axis convergence summary for `synth.json`.
#[derive(Debug, Clone, Serialize)]
pub struct AxisReport {
    /// Property name.
    pub property: String,
    /// Bucket edges.
    pub edges: Vec<f64>,
    /// Target bucket fractions.
    pub target: Vec<f64>,
    /// Achieved (accepted) bucket fractions.
    pub achieved: Vec<f64>,
    /// `max_b |achieved_b − target_b|`.
    pub deviation: f64,
}

/// The round-based feedback controller (see the module docs).
pub struct Controller {
    base: GenProfile,
    spec: Option<TargetSpec>,
    totals: RoundCounts,
    /// The most recent round's tallies alone: acceptance probabilities
    /// derive from these, because only the latest round's candidates
    /// reflect the *current* annealed profile — cumulative fractions
    /// would keep steering against a distribution that no longer exists.
    last: RoundCounts,
    rounds: u32,
    steer_candidates: u64,
    steer_accepted: u64,
}

impl Controller {
    /// A controller steering `base` toward `spec` (or accepting
    /// everything when `spec` is `None`).
    pub fn new(base: GenProfile, spec: Option<TargetSpec>) -> Controller {
        let totals = RoundCounts::for_spec(spec.as_ref());
        Controller {
            base,
            spec,
            last: totals.clone(),
            totals,
            rounds: 0,
            steer_candidates: 0,
            steer_accepted: 0,
        }
    }

    /// The spec being targeted, if any.
    pub fn spec(&self) -> Option<&TargetSpec> {
        self.spec.as_ref()
    }

    /// Rounds observed so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The plan for the next round. Pure over the controller's merged,
    /// order-independent state.
    pub fn plan(&self) -> RoundPlan {
        let Some(spec) = &self.spec else {
            return RoundPlan {
                round: self.rounds,
                profile: self.base.clone(),
                accept: AcceptRule::All,
            };
        };
        if self.rounds == 0 {
            return RoundPlan {
                round: 0,
                profile: self.base.clone(),
                accept: AcceptRule::Calibrate,
            };
        }
        let axes = spec
            .axes
            .iter()
            .enumerate()
            .map(|(i, axis)| AxisAccept {
                property: axis.property.clone(),
                edges: axis.edges.clone(),
                probs: self.axis_probs(i, axis),
            })
            .collect();
        RoundPlan {
            round: self.rounds,
            profile: self.annealed_profile(spec),
            accept: AcceptRule::Probs(axes),
        }
    }

    /// Fold one round's merged tallies into the controller.
    pub fn observe(&mut self, counts: &RoundCounts) {
        let calibration = self.spec.is_some() && self.rounds == 0;
        if !calibration {
            self.steer_candidates += counts.candidates;
            self.steer_accepted += counts.accepted;
        }
        self.totals.merge(counts);
        self.last = counts.clone();
        self.rounds += 1;
    }

    /// Accepted / candidates over steering rounds (1.0 before any).
    pub fn acceptance_rate(&self) -> f64 {
        if self.steer_candidates == 0 {
            1.0
        } else {
            self.steer_accepted as f64 / self.steer_candidates as f64
        }
    }

    /// Per-axis target vs. achieved summaries (empty without a target).
    pub fn axis_reports(&self) -> Vec<AxisReport> {
        let Some(spec) = &self.spec else {
            return Vec::new();
        };
        spec.axes
            .iter()
            .enumerate()
            .map(|(i, axis)| {
                let achieved = fractions(&self.totals.axis_accepted[i]);
                let deviation = axis
                    .weights
                    .iter()
                    .zip(&achieved)
                    .map(|(t, a)| (t - a).abs())
                    .fold(0.0_f64, f64::max);
                AxisReport {
                    property: axis.property.clone(),
                    edges: axis.edges.clone(),
                    target: axis.weights.clone(),
                    achieved,
                    deviation,
                }
            })
            .collect()
    }

    /// Is every axis within the spec tolerance? (Trivially true without
    /// a target; false until something has been accepted.)
    pub fn converged(&self) -> bool {
        let Some(spec) = &self.spec else {
            return true;
        };
        if self.totals.accepted == 0 {
            return false;
        }
        self.axis_reports()
            .iter()
            .all(|r| r.deviation <= spec.tolerance)
    }

    /// Acceptance probabilities for axis `i`: `p_b = t'_b / (M · c_b)`
    /// with `t'` the feedback-nudged target and `M` the max ratio.
    fn axis_probs(&self, i: usize, axis: &AxisTarget) -> Vec<f64> {
        let cand = fractions(&self.last.axis_candidates[i]);
        let accepted_total: u64 = self.totals.axis_accepted[i].iter().sum();
        // Nudge the target away from mass already accepted, so later
        // rounds fill what's still missing instead of re-sampling the
        // whole shape.
        let nudged: Vec<f64> = if accepted_total == 0 {
            axis.weights.clone()
        } else {
            let achieved = fractions(&self.totals.axis_accepted[i]);
            let raw: Vec<f64> = axis
                .weights
                .iter()
                .zip(&achieved)
                .map(|(t, a)| (t + 0.5 * (t - a)).max(0.0))
                .collect();
            let sum: f64 = raw.iter().sum();
            if sum > 0.0 {
                raw.iter().map(|w| w / sum).collect()
            } else {
                axis.weights.clone()
            }
        };
        let ratio: Vec<f64> = nudged
            .iter()
            .zip(&cand)
            .map(|(t, c)| if *t > 0.0 { t / c.max(1e-9) } else { 0.0 })
            .collect();
        let m = ratio.iter().copied().fold(0.0_f64, f64::max);
        if m <= 0.0 {
            return vec![1.0; nudged.len()];
        }
        ratio
            .iter()
            .zip(&nudged)
            .map(|(r, t)| {
                if *t > 0.0 {
                    (r / m).clamp(PROB_FLOOR, 1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Nudge profile knobs that directly govern a targeted axis, so the
    /// candidate pool drifts toward the target between rounds.
    fn annealed_profile(&self, spec: &TargetSpec) -> GenProfile {
        let mut p = self.base.clone();
        for (i, axis) in spec.axes.iter().enumerate() {
            let cand = fractions(&self.last.axis_candidates[i]);
            match axis.property.as_str() {
                "table_count" | "join_count" => {
                    // join_count of a k-table query is ~k − 1
                    let shift = if axis.property == "join_count" {
                        1.0
                    } else {
                        0.0
                    };
                    for (k, w) in &mut p.table_count_weights {
                        let b = bucket_index(&axis.edges, *k as f64 - shift);
                        let ratio = (axis.weights[b] / cand[b].max(1e-6)).clamp(0.5, 2.0);
                        *w *= ratio;
                    }
                }
                "nestedness" => {
                    // bucket 0 is "not nested" under the default edges
                    let t0 = axis.weights[0];
                    p.nested_prob = ((p.nested_prob + (1.0 - t0)) / 2.0).clamp(0.0, 0.95);
                }
                "predicate_count" => {
                    let t_mean = bucket_mean(&axis.edges, &axis.weights);
                    let c_mean = bucket_mean(&axis.edges, &cand);
                    let delta = (t_mean - c_mean) * 0.5;
                    let (lo, hi) = p.extra_pred_range;
                    let lo = ((lo as f64 + delta).round().max(0.0) as usize).min(24);
                    let hi = ((hi as f64 + delta).round().max(lo as f64) as usize).min(24);
                    p.extra_pred_range = (lo, hi);
                }
                // remaining axes (runtime_ms, char_count, …) are steered
                // by accept/reject alone
                _ => {}
            }
        }
        p
    }
}

/// Normalize counts to fractions (uniform when the total is zero).
fn fractions(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        vec![1.0 / counts.len().max(1) as f64; counts.len()]
    } else {
        counts.iter().map(|&c| c as f64 / total as f64).collect()
    }
}

/// Mean of a bucket distribution using representative bucket values.
fn bucket_mean(edges: &[f64], weights: &[f64]) -> f64 {
    weights
        .iter()
        .enumerate()
        .map(|(b, w)| w * bucket_rep(edges, b))
        .sum()
}

/// Representative value of bucket `b`: midpoints for interior buckets,
/// half the first edge below, 1.25× the last edge above.
fn bucket_rep(edges: &[f64], b: usize) -> f64 {
    if b == 0 {
        edges[0] / 2.0
    } else if b < edges.len() {
        (edges[b - 1] + edges[b]) / 2.0
    } else {
        edges[edges.len() - 1] * 1.25
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_json(property: &str, weights: &str) -> String {
        format!(r#"{{"axes": [{{"property": "{property}", "weights": {weights}}}]}}"#)
    }

    #[test]
    fn from_json_fills_defaults_and_normalizes() {
        let spec = TargetSpec::from_json(&spec_json("join_count", "[2, 2, 4, 1, 1, 0]")).unwrap();
        assert_eq!(spec.tolerance, DEFAULT_TOLERANCE);
        assert_eq!(spec.axes[0].edges, default_edges("join_count"));
        let sum: f64 = spec.axes[0].weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((spec.axes[0].weights[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn runtime_axis_uses_engine_edges() {
        let spec = TargetSpec::from_json(&spec_json("runtime_ms", "[1, 1, 1, 1, 1, 1]")).unwrap();
        assert_eq!(spec.axes[0].edges, RUNTIME_BUCKET_EDGES_MS.to_vec());
    }

    #[test]
    fn bad_specs_are_rejected() {
        for (json, needle) in [
            (r#"{"axes": []}"#.to_string(), "at least one axis"),
            (spec_json("no_such_prop", "[1]"), "unknown property"),
            (spec_json("join_count", "[1, 2]"), "weights for"),
            (spec_json("join_count", "[0, 0, 0, 0, 0, 0]"), "all be zero"),
            (spec_json("join_count", "[1, -2, 1, 1, 1, 1]"), "non-negative"),
            (
                r#"{"tolerance": 0, "axes": [{"property": "join_count", "weights": [1,1,1,1,1,1]}]}"#
                    .to_string(),
                "tolerance",
            ),
            (
                r#"{"axes": [{"property": "join_count", "edges": [3, 1], "weights": [1,1,1]}]}"#
                    .to_string(),
                "ascending",
            ),
            (
                r#"{"axes": [{"property": "join_count", "weights": [1,1,1,1,1,1]}, {"property": "join_count", "weights": [1,1,1,1,1,1]}]}"#
                    .to_string(),
                "duplicate",
            ),
        ] {
            let err = TargetSpec::from_json(&json).unwrap_err();
            assert!(err.contains(needle), "{json} -> {err}");
        }
    }

    #[test]
    fn bucket_index_matches_histogram_convention() {
        let edges = [1.0, 3.0, 6.0];
        assert_eq!(bucket_index(&edges, 0.0), 0);
        assert_eq!(bucket_index(&edges, 1.0), 1);
        assert_eq!(bucket_index(&edges, 2.9), 1);
        assert_eq!(bucket_index(&edges, 3.0), 2);
        assert_eq!(bucket_index(&edges, 100.0), 3);
    }

    #[test]
    fn accepts_is_pure_and_respects_all_and_calibrate() {
        assert!(accepts(&AcceptRule::All, 1, 2, &[]));
        assert!(!accepts(&AcceptRule::Calibrate, 1, 2, &[]));
        let rule = AcceptRule::Probs(vec![AxisAccept {
            property: "join_count".into(),
            edges: vec![2.0],
            probs: vec![1.0, 0.0],
        }]);
        // below the edge: p = 1; above: p = 0 — and pure in (seed, index)
        assert!(accepts(&rule, 9, 4, &[1.0]));
        assert!(!accepts(&rule, 9, 4, &[5.0]));
        for i in 0..100 {
            assert_eq!(accepts(&rule, 9, i, &[1.0]), accepts(&rule, 9, i, &[1.0]));
        }
    }

    #[test]
    fn fractional_probs_accept_roughly_that_fraction() {
        let rule = AcceptRule::Probs(vec![AxisAccept {
            property: "join_count".into(),
            edges: vec![2.0],
            probs: vec![0.25, 1.0],
        }]);
        let hits = (0..10_000)
            .filter(|&i| accepts(&rule, 7, i, &[0.0]))
            .count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }

    #[test]
    fn controller_without_target_accepts_everything() {
        let mut c = Controller::new(GenProfile::default(), None);
        assert!(matches!(c.plan().accept, AcceptRule::All));
        let mut counts = RoundCounts::for_spec(None);
        counts.record(None, &[], true);
        c.observe(&counts);
        assert!((c.acceptance_rate() - 1.0).abs() < 1e-12);
        assert!(c.converged());
        assert!(c.axis_reports().is_empty());
    }

    #[test]
    fn round_zero_under_a_target_calibrates() {
        let spec = TargetSpec::from_json(&spec_json("join_count", "[1,1,1,1,1,1]")).unwrap();
        let c = Controller::new(GenProfile::default(), Some(spec));
        assert!(matches!(c.plan().accept, AcceptRule::Calibrate));
    }

    #[test]
    fn steering_round_boosts_scarce_buckets() {
        let spec = TargetSpec::from_json(
            r#"{"axes": [{"property": "join_count", "edges": [2.0], "weights": [1, 1]}]}"#,
        )
        .unwrap();
        let mut c = Controller::new(GenProfile::default(), Some(spec.clone()));
        // calibration observed: 90% of candidates land below the edge
        let counts = RoundCounts {
            candidates: 100,
            accepted: 0,
            axis_candidates: vec![vec![90, 10]],
            axis_accepted: vec![vec![0, 0]],
        };
        c.observe(&counts);
        let plan = c.plan();
        let AcceptRule::Probs(axes) = &plan.accept else {
            panic!("expected probs")
        };
        // scarce bucket accepts at 1.0, abundant one is throttled to
        // c_scarce/c_abundant = 1/9
        assert!((axes[0].probs[1] - 1.0).abs() < 1e-9);
        assert!((axes[0].probs[0] - 10.0 / 90.0).abs() < 1e-9);
    }

    #[test]
    fn convergence_tracks_tolerance() {
        let spec = TargetSpec::from_json(
            r#"{"tolerance": 0.05, "axes": [{"property": "join_count", "edges": [2.0], "weights": [1, 1]}]}"#,
        )
        .unwrap();
        let mut c = Controller::new(GenProfile::default(), Some(spec));
        c.observe(&RoundCounts {
            candidates: 100,
            accepted: 0,
            axis_candidates: vec![vec![50, 50]],
            axis_accepted: vec![vec![0, 0]],
        });
        assert!(!c.converged(), "nothing accepted yet");
        c.observe(&RoundCounts {
            candidates: 100,
            accepted: 96,
            axis_candidates: vec![vec![50, 50]],
            axis_accepted: vec![vec![48, 48]],
        });
        assert!(c.converged());
        assert!((c.acceptance_rate() - 0.96).abs() < 1e-9);
        let reports = c.axis_reports();
        assert!(reports[0].deviation <= 0.05);
    }

    #[test]
    fn annealing_nudges_the_right_knobs() {
        let json = r#"{"axes": [{"property": "nestedness", "weights": [1, 9, 0, 0]}, {"property": "predicate_count", "edges": [1, 3, 6, 10, 20], "weights": [0, 0, 0, 1, 9, 0]}]}"#;
        let spec = TargetSpec::from_json(json).unwrap();
        let base = GenProfile::default();
        let mut c = Controller::new(base.clone(), Some(spec.clone()));
        c.observe(&RoundCounts {
            candidates: 100,
            accepted: 0,
            axis_candidates: vec![vec![85, 15, 0, 0], vec![10, 40, 40, 10, 0, 0]],
            axis_accepted: vec![vec![0; 4], vec![0; 6]],
        });
        let plan = c.plan();
        // nestedness target wants 90% nested → nested_prob rises
        assert!(plan.profile.nested_prob > base.nested_prob);
        // predicate target mean is far above the candidate mean → the
        // extra-predicate range shifts up
        assert!(plan.profile.extra_pred_range.1 > base.extra_pred_range.1);
    }

    #[test]
    fn round_counts_merge_is_elementwise_addition() {
        let spec = TargetSpec::from_json(&spec_json("join_count", "[1,1,1,1,1,1]")).unwrap();
        let mut a = RoundCounts::for_spec(Some(&spec));
        let mut b = RoundCounts::for_spec(Some(&spec));
        a.record(Some(&spec), &[1.0], true);
        b.record(Some(&spec), &[5.0], false);
        b.record(Some(&spec), &[1.0], true);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.candidates, 3);
        assert_eq!(ab.accepted, 2);
        assert_eq!(ab.axis_candidates[0][1], 2);
    }
}
