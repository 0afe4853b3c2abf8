//! The caching sub-problem `P1` (eq. 18/21–22) and its solvers.
//!
//! Given multipliers `μ`, `P1` decomposes per SBS `n` into
//!
//! ```text
//! min_x  Σ_t [ β_n Σ_k (x_{k,t} − x_{k,t−1})⁺ − Σ_k r_{k,t} x_{k,t} ]
//! s.t.   Σ_k x_{k,t} ≤ C_n,   x ∈ {0,1},
//! ```
//!
//! with per-item rewards `r_{k,t} = Σ_m μ^t_{n,m,k}`. Theorem 1 of the
//! paper shows the LP relaxation is exact (total unimodularity). Two
//! solvers are provided:
//!
//! * [`solve_caching_mcmf`] — the production path. The relaxation is an
//!   integral *network* LP: think of the `C_n` cache slots as units of
//!   flow walking through time. A unit can idle (pool arcs) or occupy an
//!   item-interval chain: entering item `k` at slot `t` costs `β_n`
//!   (free at `t = 0` for initially cached items), holding it collects
//!   `r_{k,t}`, leaving is free. The min-cost flow of value `C_n` is the
//!   optimal integral caching plan.
//!
//!   The network covers only the *kept* items: those initially cached
//!   plus those with a nonzero reward at some slot, in ascending `k`.
//!   An item outside that set is never worth entering: it costs `β_n`,
//!   earns nothing, and the pool arc beside it always has spare
//!   capacity (flow stays below `C_n` while augmenting), so no shortest
//!   path can strictly improve through it. Dropping it keeps the
//!   relative order of the other nodes and arcs, so the index
//!   tie-breaks, the plan and the objective bits are those of the
//!   network over the whole catalog. A zero-reward item that is
//!   initially cached ties with the pool arc and is always kept; for
//!   `β_n` within the flow solver's tie tolerance every item is kept.
//!   In the primal-dual loop the rewards and the kept set are read off
//!   the multiplier support only
//!   ([`crate::workspace::SbsSubproblem::fill_caching_inputs`]), so `P1`
//!   scales with the demand support, not with `T·M·K`.
//! * [`solve_caching_lp`] — the paper's literal formulation (eq. 21–22)
//!   solved with the in-repo simplex; used to cross-check the flow
//!   solution on small instances.

use crate::observe::SubSolveMetrics;
use crate::plan::{CachePlan, CacheState};
use crate::problem::ProblemInstance;
use crate::tensor::Tensor4;
use crate::workspace::{parallel_map_with, Parallelism, SbsSubproblem, SlotWorkspace};
use crate::CoreError;
use jocal_optim::mcmf::{FlowGoal, FlowNetwork};
use jocal_optim::simplex::{LinearProgram, Sense};
use jocal_sim::topology::{ContentId, SbsId};
use std::time::Instant;

/// Solution of `P1` for one SBS: the caching trajectory and the objective
/// value `h − Σ r·x`.
#[derive(Debug, Clone, PartialEq)]
pub struct SbsCachingSolution {
    /// `x[t][k]` — whether content `k` is cached at slot `t`.
    pub x: Vec<Vec<bool>>,
    /// Optimal value of the per-SBS `P1` objective.
    pub objective: f64,
}

/// `β_n` above which `P1` prunes unrewarded items.
///
/// A pruned item's detour is longer than the pool arc beside it by
/// exactly `β_n`. The flow solver treats cost differences below its
/// tie tolerance (`1e-12`) as ties and its potentials carry rounding of a
/// few ulps, so a `β_n` inside that margin can tie the detour with the
/// pool arc and change the low bits of the objective (it does at
/// `β_n = 1e-13`; from `1e-11` up, pruned and full networks agree on
/// every instance tried). At or below `1e-9` every item is kept.
pub(crate) const PRUNE_MIN_BETA: f64 = 1e-9;

/// Solves `P1` for one SBS via min-cost flow.
///
/// `rewards[t][k]` is `r_{k,t} = Σ_m μ^t_{n,m,k} ≥ 0`;
/// `initially_cached[k]` is the pre-horizon state `x^0`.
///
/// The flow network covers only the *kept* items: those initially
/// cached, plus those with a nonzero reward at some slot (every item
/// when `β ≤ 1e-9`). Any other item stays uncached, and
/// the plan and objective are bit-identical to the network over the
/// whole catalog (see the module docs).
///
/// # Errors
///
/// Returns [`CoreError::ShapeMismatch`] for inconsistent inputs and
/// propagates solver failures.
pub fn solve_caching_mcmf(
    capacity: usize,
    beta: f64,
    initially_cached: &[bool],
    rewards: &[Vec<f64>],
) -> Result<SbsCachingSolution, CoreError> {
    let horizon = rewards.len();
    let k_total = initially_cached.len();
    if horizon == 0 {
        return Err(CoreError::shape("caching horizon must be positive"));
    }
    for (t, row) in rewards.iter().enumerate() {
        if row.len() != k_total {
            return Err(CoreError::shape(format!(
                "rewards row {t} has {} entries, catalog is {k_total}",
                row.len()
            )));
        }
    }
    if capacity == 0 || k_total == 0 {
        return Ok(SbsCachingSolution {
            x: vec![vec![false; k_total]; horizon],
            objective: 0.0,
        });
    }
    if beta <= PRUNE_MIN_BETA {
        return solve_caching_flow(capacity, beta, initially_cached, rewards);
    }
    let kept: Vec<usize> = (0..k_total)
        .filter(|&k| initially_cached[k] || rewards.iter().any(|row| row[k] != 0.0))
        .collect();
    let kept_initially: Vec<bool> = kept.iter().map(|&k| initially_cached[k]).collect();
    let kept_rewards: Vec<Vec<f64>> = rewards
        .iter()
        .map(|row| kept.iter().map(|&k| row[k]).collect())
        .collect();
    let sol = solve_caching_flow(capacity, beta, &kept_initially, &kept_rewards)?;
    let mut x = vec![vec![false; k_total]; horizon];
    for (row, kept_row) in x.iter_mut().zip(&sol.x) {
        for (&k, &cached) in kept.iter().zip(kept_row) {
            row[k] = cached;
        }
    }
    Ok(SbsCachingSolution {
        x,
        objective: sol.objective,
    })
}

/// Builds and solves the `P1` flow network over exactly the items
/// (columns) given, in their order. Shapes must be validated and
/// `capacity` positive; `x` comes back over the same columns.
fn solve_caching_flow(
    capacity: usize,
    beta: f64,
    initially_cached: &[bool],
    rewards: &[Vec<f64>],
) -> Result<SbsCachingSolution, CoreError> {
    let horizon = rewards.len();
    let k_total = initially_cached.len();

    // Node layout: 0 = source, 1 = sink, 2..2+T+1 = pools, then per (t,k)
    // an in/out pair.
    let pool = |t: usize| 2 + t;
    let base = 2 + horizon + 1;
    let node_in = |t: usize, k: usize| base + 2 * (t * k_total + k);
    let node_out = |t: usize, k: usize| base + 2 * (t * k_total + k) + 1;
    let num_nodes = base + 2 * horizon * k_total;

    let mut net = FlowNetwork::new(num_nodes);
    let cap = capacity as i64;
    net.add_edge(0, pool(0), cap, 0.0)?;
    net.add_edge(pool(horizon), 1, cap, 0.0)?;
    for t in 0..horizon {
        net.add_edge(pool(t), pool(t + 1), cap, 0.0)?;
    }
    // Hold arcs, recorded for solution extraction.
    let mut hold_edges = vec![Vec::with_capacity(k_total); horizon];
    for t in 0..horizon {
        for k in 0..k_total {
            let entry_cost = if t == 0 && initially_cached[k] {
                0.0
            } else {
                beta
            };
            net.add_edge(pool(t), node_in(t, k), 1, entry_cost)?;
            let hold = net.add_edge(node_in(t, k), node_out(t, k), 1, -rewards[t][k])?;
            hold_edges[t].push(hold);
            net.add_edge(node_out(t, k), pool(t + 1), 1, 0.0)?;
            if t + 1 < horizon {
                net.add_edge(node_out(t, k), node_in(t + 1, k), 1, 0.0)?;
            }
        }
    }

    let result = net.solve(0, 1, FlowGoal::Exact(cap))?;
    let x = hold_edges
        .iter()
        .map(|row| row.iter().map(|&hold| net.flow(hold) > 0).collect())
        .collect();
    Ok(SbsCachingSolution {
        x,
        objective: result.cost,
    })
}

/// Solves `P1` for one SBS via the paper's LP formulation (eq. 21–22)
/// using the in-repo simplex solver.
///
/// Intended for validation on small instances; the flow solver is faster
/// and produces the same optimum (Theorem 1).
///
/// # Errors
///
/// Same contract as [`solve_caching_mcmf`].
#[allow(clippy::needless_range_loop)] // LP variable indices mirror eq. 20–22.
pub fn solve_caching_lp(
    capacity: usize,
    beta: f64,
    initially_cached: &[bool],
    rewards: &[Vec<f64>],
) -> Result<SbsCachingSolution, CoreError> {
    let horizon = rewards.len();
    let k_total = initially_cached.len();
    if horizon == 0 {
        return Err(CoreError::shape("caching horizon must be positive"));
    }
    for (t, row) in rewards.iter().enumerate() {
        if row.len() != k_total {
            return Err(CoreError::shape(format!(
                "rewards row {t} has {} entries, catalog is {k_total}",
                row.len()
            )));
        }
    }
    if capacity == 0 || k_total == 0 {
        return Ok(SbsCachingSolution {
            x: vec![vec![false; k_total]; horizon],
            objective: 0.0,
        });
    }

    // Variables: x[t][k] then p[t][k] (the (·)⁺ linearization, eq. 20).
    let nx = horizon * k_total;
    let xv = |t: usize, k: usize| t * k_total + k;
    let pv = |t: usize, k: usize| nx + t * k_total + k;
    let mut lp = LinearProgram::new(2 * nx, Sense::Minimize);
    for t in 0..horizon {
        for k in 0..k_total {
            lp.set_objective_coeff(xv(t, k), -rewards[t][k]);
            lp.set_objective_coeff(pv(t, k), beta);
            lp.set_bounds(xv(t, k), 0.0, 1.0);
            lp.set_bounds(pv(t, k), 0.0, f64::INFINITY);
            // p ≥ x_t − x_{t−1} (eq. 22), with x^0 given.
            if t == 0 {
                let x0 = if initially_cached[k] { 1.0 } else { 0.0 };
                lp.add_ge_constraint(vec![(pv(t, k), 1.0), (xv(t, k), -1.0)], -x0);
            } else {
                lp.add_ge_constraint(
                    vec![(pv(t, k), 1.0), (xv(t, k), -1.0), (xv(t - 1, k), 1.0)],
                    0.0,
                );
            }
        }
        // Capacity (eq. 1).
        lp.add_le_constraint(
            (0..k_total).map(|k| (xv(t, k), 1.0)).collect(),
            capacity as f64,
        );
    }
    let sol = lp.solve()?;
    let mut x = vec![vec![false; k_total]; horizon];
    for t in 0..horizon {
        for k in 0..k_total {
            let v = sol.x[xv(t, k)];
            debug_assert!(
                !(0.01..=0.99).contains(&v),
                "LP relaxation returned fractional x = {v} (violates Theorem 1)"
            );
            x[t][k] = v > 0.5;
        }
    }
    Ok(SbsCachingSolution {
        x,
        objective: sol.objective,
    })
}

/// Solves `P1` for every SBS of `problem` given the multiplier tensor,
/// sequentially. See [`solve_caching_all_with`].
///
/// # Errors
///
/// Propagates sub-solver failures.
pub fn solve_caching_all(
    problem: &ProblemInstance,
    mu: &Tensor4,
) -> Result<(CachePlan, f64), CoreError> {
    solve_caching_all_with(problem, mu, Parallelism::Sequential)
}

/// Solves `P1` for every SBS of `problem` given the multiplier tensor,
/// assembling a [`CachePlan`] and the summed objective. Per-SBS flow
/// problems fan out per `parallelism`; the plan and objective are
/// assembled in SBS order, so the result is identical for every
/// setting.
///
/// # Errors
///
/// Propagates sub-solver failures.
pub fn solve_caching_all_with(
    problem: &ProblemInstance,
    mu: &Tensor4,
    parallelism: Parallelism,
) -> Result<(CachePlan, f64), CoreError> {
    solve_caching_all_observed(problem, mu, None, parallelism, &SubSolveMetrics::disabled())
}

/// [`solve_caching_all_with`] reading `mu` only at `support` (ascending
/// flat indices outside which every multiplier is zero; `None` reads
/// all of it) and recording per-SBS flow-solve spans into `metrics`.
/// The result is bit-identical for every support that covers the
/// nonzero multipliers. Span observation happens during the SBS-order
/// assembly, so enabling it cannot perturb the plan.
///
/// # Errors
///
/// Propagates sub-solver failures.
pub fn solve_caching_all_observed(
    problem: &ProblemInstance,
    mu: &Tensor4,
    support: Option<&[usize]>,
    parallelism: Parallelism,
    metrics: &SubSolveMetrics,
) -> Result<(CachePlan, f64), CoreError> {
    let horizon = problem.horizon();
    let network = problem.network();
    let timed = metrics.is_enabled();
    let results = parallel_map_with(
        parallelism,
        network.num_sbs(),
        SlotWorkspace::new,
        |ws, i| {
            let started = timed.then(Instant::now);
            let sub = SbsSubproblem::new(problem, SbsId(i));
            let res = solve_sbs_caching(&sub, mu, support, ws);
            let elapsed_us = started.map_or(0, |s| {
                u64::try_from(s.elapsed().as_micros()).unwrap_or(u64::MAX)
            });
            (res, elapsed_us)
        },
    );
    let mut plan = CachePlan::empty(network, horizon);
    let mut objective = 0.0;
    for (i, (res, elapsed_us)) in results.into_iter().enumerate() {
        let (cached, sbs_objective) = res?;
        if timed {
            metrics.span_us.observe(elapsed_us);
        }
        objective += sbs_objective;
        for (t, k) in cached {
            plan.state_mut(t).set(SbsId(i), ContentId(k), true);
        }
    }
    Ok((plan, objective))
}

/// Solves `P1` for one SBS over its kept items, returning the cached
/// `(t, k)` pairs and the objective.
fn solve_sbs_caching(
    sub: &SbsSubproblem<'_>,
    mu: &Tensor4,
    support: Option<&[usize]>,
    ws: &mut SlotWorkspace,
) -> Result<(Vec<(usize, usize)>, f64), CoreError> {
    if mu.horizon() == 0 {
        return Err(CoreError::shape("caching horizon must be positive"));
    }
    let capacity = sub.sbs().cache_capacity();
    if capacity == 0 || sub.problem().network().num_contents() == 0 {
        return Ok((Vec::new(), 0.0));
    }
    sub.fill_caching_inputs(mu, support, ws);
    let sol = solve_caching_flow(
        capacity,
        sub.sbs().replacement_cost(),
        &ws.initially_cached,
        &ws.rewards,
    )?;
    let mut cached = Vec::new();
    for (t, row) in sol.x.iter().enumerate() {
        for (&k, &c) in ws.kept.iter().zip(row) {
            if c {
                cached.push((t, k));
            }
        }
    }
    Ok((cached, sol.objective))
}

/// Evaluates the `P1` objective `h − Σ r·x` of an arbitrary caching
/// trajectory (used in tests as an independent check).
#[must_use]
pub fn caching_objective(
    beta: f64,
    initially_cached: &[bool],
    rewards: &[Vec<f64>],
    x: &[Vec<bool>],
) -> f64 {
    let mut obj = 0.0;
    let mut prev: Vec<bool> = initially_cached.to_vec();
    for (t, row) in x.iter().enumerate() {
        for (k, &cached) in row.iter().enumerate() {
            if cached {
                obj -= rewards[t][k];
                if !prev[k] {
                    obj += beta;
                }
            }
        }
        prev = row.clone();
    }
    obj
}

/// Brute-force exact `P1` solver over all capacity-feasible subset
/// sequences (test oracle; exponential, `K ≤ 16`).
///
/// # Panics
///
/// Panics if `K > 16`.
#[must_use]
#[allow(clippy::needless_range_loop)] // Bitmask DP reads clearest with indices.
pub fn solve_caching_exhaustive(
    capacity: usize,
    beta: f64,
    initially_cached: &[bool],
    rewards: &[Vec<f64>],
) -> SbsCachingSolution {
    let k_total = initially_cached.len();
    assert!(
        k_total <= 16,
        "exhaustive caching oracle limited to K <= 16"
    );
    let horizon = rewards.len();
    // All subsets with |S| <= capacity.
    let subsets: Vec<u32> = (0u32..(1 << k_total))
        .filter(|s| (s.count_ones() as usize) <= capacity)
        .collect();
    let initial_mask: u32 = initially_cached
        .iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(k, _)| 1u32 << k)
        .sum();

    let stage = |t: usize, s: u32| -> f64 {
        let mut r = 0.0;
        for k in 0..k_total {
            if s & (1 << k) != 0 {
                r -= rewards[t][k];
            }
        }
        r
    };
    let switch = |prev: u32, next: u32| -> f64 { beta * (next & !prev).count_ones() as f64 };

    // DP over time.
    let mut best: Vec<(f64, usize)> = subsets
        .iter()
        .map(|&s| (switch(initial_mask, s) + stage(0, s), usize::MAX))
        .collect();
    let mut parents: Vec<Vec<usize>> = vec![vec![usize::MAX; subsets.len()]];
    for t in 1..horizon {
        let mut next: Vec<(f64, usize)> = vec![(f64::INFINITY, usize::MAX); subsets.len()];
        for (j, &s) in subsets.iter().enumerate() {
            let sc = stage(t, s);
            for (i, &p) in subsets.iter().enumerate() {
                let cand = best[i].0 + switch(p, s) + sc;
                if cand < next[j].0 {
                    next[j] = (cand, i);
                }
            }
        }
        parents.push(next.iter().map(|&(_, p)| p).collect());
        best = next;
    }
    let (mut idx, _) = best
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
        .map(|(i, v)| (i, v.0))
        .unwrap();
    let objective = best[idx].0;
    let mut masks = vec![0u32; horizon];
    for t in (0..horizon).rev() {
        masks[t] = subsets[idx];
        if t > 0 {
            idx = parents[t][idx];
        }
    }
    let x = masks
        .iter()
        .map(|&mask| (0..k_total).map(|k| mask & (1 << k) != 0).collect())
        .collect();
    SbsCachingSolution { x, objective }
}

/// Converts a per-SBS boolean trajectory into the plan-wide helper used
/// by tests.
#[must_use]
pub fn plan_from_single_sbs(problem: &ProblemInstance, x: &[Vec<bool>]) -> CachePlan {
    let mut plan = CachePlan::empty(problem.network(), x.len());
    for (t, row) in x.iter().enumerate() {
        for (k, &cached) in row.iter().enumerate() {
            plan.state_mut(t).set(SbsId(0), ContentId(k), cached);
        }
    }
    plan
}

/// Computes the replacement cost of a [`CachePlan`] (all SBSs) from an
/// initial state — the plan-wide `h` summed over time.
#[must_use]
pub fn total_replacement_cost(problem: &ProblemInstance, plan: &CachePlan) -> f64 {
    let mut prev: &CacheState = problem.initial_cache();
    let mut cost = 0.0;
    for t in 0..plan.horizon() {
        for (n, sbs) in problem.network().iter_sbs() {
            cost += sbs.replacement_cost() * plan.state(t).fetches_from(prev, n) as f64;
        }
        prev = plan.state(t);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rewards(rng: &mut StdRng, horizon: usize, k: usize, scale: f64) -> Vec<Vec<f64>> {
        (0..horizon)
            .map(|_| (0..k).map(|_| rng.gen_range(0.0..scale)).collect())
            .collect()
    }

    #[test]
    fn single_item_pay_beta_when_worth_it() {
        // One item, reward 5 per slot for 3 slots, beta 6: caching all 3
        // slots nets 15 − 6 = 9 → objective −9.
        let sol = solve_caching_mcmf(1, 6.0, &[false], &[vec![5.0], vec![5.0], vec![5.0]]).unwrap();
        assert_eq!(sol.x, vec![vec![true]; 3]);
        assert!((sol.objective + 9.0).abs() < 1e-9);
    }

    #[test]
    fn single_item_skip_when_not_worth_it() {
        let sol = solve_caching_mcmf(1, 100.0, &[false], &[vec![5.0], vec![5.0]]).unwrap();
        assert_eq!(sol.x, vec![vec![false]; 2]);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn initial_cache_entry_is_free() {
        // Initially cached: holding from t=0 costs nothing.
        let sol = solve_caching_mcmf(1, 100.0, &[true], &[vec![5.0], vec![5.0]]).unwrap();
        assert_eq!(sol.x, vec![vec![true]; 2]);
        assert!((sol.objective + 10.0).abs() < 1e-9);
    }

    #[test]
    fn reentry_after_eviction_pays_beta() {
        // Rewards force a gap: item A valuable at t=0 and t=2, item B at
        // t=1; capacity 1, beta small enough to make the swap worthwhile.
        let rewards = vec![vec![10.0, 0.0], vec![0.0, 10.0], vec![10.0, 0.0]];
        let sol = solve_caching_mcmf(1, 1.0, &[false, false], &rewards).unwrap();
        assert_eq!(sol.x[0], vec![true, false]);
        assert_eq!(sol.x[1], vec![false, true]);
        assert_eq!(sol.x[2], vec![true, false]);
        // cost = 3β − 30 = -27.
        assert!((sol.objective + 27.0).abs() < 1e-9);
    }

    #[test]
    fn high_beta_prevents_churn() {
        let rewards = vec![vec![10.0, 0.0], vec![0.0, 11.0], vec![10.0, 0.0]];
        let sol = solve_caching_mcmf(1, 50.0, &[false, false], &rewards).unwrap();
        // Keeping A throughout: 20 − 50 = −... let's check it keeps one
        // choice without churning: either hold A for t0..t2 (reward 20,
        // 1 fetch) or nothing. 20 < 50 → nothing? Hold B only at t1:
        // 11 − 50 < 0. Best is empty.
        assert_eq!(sol.x, vec![vec![false, false]; 3]);
    }

    #[test]
    fn capacity_limits_concurrent_items() {
        let rewards = vec![vec![10.0, 9.0, 8.0]];
        let sol = solve_caching_mcmf(2, 1.0, &[false; 3], &rewards).unwrap();
        assert_eq!(sol.x[0], vec![true, true, false]);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let sol = solve_caching_mcmf(0, 1.0, &[false; 2], &[vec![5.0, 5.0]]).unwrap();
        assert_eq!(sol.x[0], vec![false, false]);
    }

    #[test]
    fn objective_matches_independent_evaluation() {
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..20 {
            let k = rng.gen_range(1..6);
            let horizon = rng.gen_range(1..8);
            let capacity = rng.gen_range(0..=k);
            let beta = rng.gen_range(0.0..8.0);
            let initially: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.3)).collect();
            let rewards = random_rewards(&mut rng, horizon, k, 10.0);
            let sol = solve_caching_mcmf(capacity, beta, &initially, &rewards).unwrap();
            let eval = caching_objective(beta, &initially, &rewards, &sol.x);
            assert!(
                (sol.objective - eval).abs() < 1e-6,
                "trial {trial}: {} vs {eval}",
                sol.objective
            );
        }
    }

    #[test]
    fn mcmf_matches_lp_and_exhaustive() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..15 {
            let k = rng.gen_range(1..5);
            let horizon = rng.gen_range(1..5);
            let capacity = rng.gen_range(1..=k);
            let beta = rng.gen_range(0.0..6.0);
            let initially: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.3)).collect();
            let rewards = random_rewards(&mut rng, horizon, k, 8.0);
            let flow = solve_caching_mcmf(capacity, beta, &initially, &rewards).unwrap();
            let lp = solve_caching_lp(capacity, beta, &initially, &rewards).unwrap();
            let brute = solve_caching_exhaustive(capacity, beta, &initially, &rewards);
            assert!(
                (flow.objective - brute.objective).abs() < 1e-6,
                "trial {trial}: flow {} vs brute {}",
                flow.objective,
                brute.objective
            );
            assert!(
                (lp.objective - brute.objective).abs() < 1e-6,
                "trial {trial}: lp {} vs brute {}",
                lp.objective,
                brute.objective
            );
        }
    }

    /// The flow network over the whole catalog: the oracle that pruning
    /// must reproduce bit for bit.
    fn full_catalog_oracle(
        capacity: usize,
        beta: f64,
        initially_cached: &[bool],
        rewards: &[Vec<f64>],
    ) -> SbsCachingSolution {
        if capacity == 0 || initially_cached.is_empty() {
            return SbsCachingSolution {
                x: vec![vec![false; initially_cached.len()]; rewards.len()],
                objective: 0.0,
            };
        }
        solve_caching_flow(capacity, beta, initially_cached, rewards).unwrap()
    }

    /// A random `P1` instance whose reward columns are all-zero, sparse
    /// or dense, with some items initially cached whatever their reward.
    /// `beta_kind` picks β: 0, 1e-13, just above the pruning margin,
    /// small, or ordinary; some rewards are set to exactly β to force
    /// ties with the pool arc.
    fn sparse_instance(seed: u64, beta_kind: u8) -> (usize, f64, Vec<bool>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.gen_range(1..15);
        let horizon = rng.gen_range(1..7);
        let beta = match beta_kind {
            0 => 0.0,
            1 => 1e-13,
            2 => PRUNE_MIN_BETA * 1.5,
            3 => rng.gen_range(1e-6..1e-3),
            _ => rng.gen_range(0.1..20.0),
        };
        // One instance in eight keeps nothing: no reward, empty cache.
        let empty = rng.gen_bool(0.125);
        let initially: Vec<bool> = (0..k).map(|_| !empty && rng.gen_bool(0.3)).collect();
        let mut rewards = vec![vec![0.0; k]; horizon];
        for col in 0..k {
            let fill = if empty { 0.0 } else { rng.gen_range(0.0..1.0) };
            for row in &mut rewards {
                if rng.gen_bool(fill) {
                    row[col] = if rng.gen_bool(0.2) {
                        beta
                    } else {
                        rng.gen_range(0.0..10.0)
                    };
                }
            }
        }
        // Capacity from 0 to beyond the catalog, so C ≥ kept is common.
        let capacity = rng.gen_range(0..k + 3);
        (capacity, beta, initially, rewards)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(400))]

        /// Pruning unrewarded, uncached items leaves the plan and the
        /// objective bits of the full-catalog network unchanged.
        #[test]
        fn pruned_flow_matches_full_catalog_bitwise(seed in 0u64..1_000_000, beta_kind in 0u8..5) {
            let (capacity, beta, initially, rewards) = sparse_instance(seed, beta_kind);
            let pruned = solve_caching_mcmf(capacity, beta, &initially, &rewards).unwrap();
            let full = full_catalog_oracle(capacity, beta, &initially, &rewards);
            proptest::prop_assert_eq!(&pruned.x, &full.x);
            proptest::prop_assert_eq!(pruned.objective.to_bits(), full.objective.to_bits());
        }
    }

    #[test]
    fn pruning_keeps_cached_and_rewarded_items_only() {
        // Item 0 cached with no reward, item 1 rewarded once, item 2
        // neither: the network covers items 0 and 1, and item 2 stays
        // out of the plan even with spare capacity.
        let rewards = vec![vec![0.0, 0.0, 0.0], vec![0.0, 50.0, 0.0]];
        let sol = solve_caching_mcmf(3, 5.0, &[true, false, false], &rewards).unwrap();
        assert_eq!(
            sol.x,
            full_catalog_oracle(3, 5.0, &[true, false, false], &rewards).x
        );
        assert!(sol.x.iter().all(|row| !row[2]));
        assert!(sol.x[1][1]);
    }

    #[test]
    fn validates_shapes() {
        assert!(solve_caching_mcmf(1, 1.0, &[false], &[]).is_err());
        assert!(solve_caching_mcmf(1, 1.0, &[false, false], &[vec![1.0]]).is_err());
        assert!(solve_caching_lp(1, 1.0, &[false], &[]).is_err());
        assert!(solve_caching_lp(1, 1.0, &[false, false], &[vec![1.0]]).is_err());
    }
}
