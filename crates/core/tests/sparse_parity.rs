//! Dense-vs-sparse bit-parity property suite.
//!
//! The sparse hot path (nonzero-indexed P2 solves, cost evaluation and
//! ledger attribution; see `jocal_core::sparse`) claims to be
//! *bit-identical* to the dense reference sweep, not merely close. This
//! suite pins that claim across randomized densities and shapes plus
//! the structural edge cases: all-zero demand, a single nonzero entry,
//! and full density. The dense path is selected per instance via
//! `ProblemInstance::with_dense_oracle`.

use jocal_core::accounting::evaluate_per_slot;
use jocal_core::caching::{solve_caching_all, solve_caching_all_observed};
use jocal_core::ledger::{ledger_slot, ledger_slot_sparse};
use jocal_core::loadbalance::solve_load_all;
use jocal_core::primal_dual::{PrimalDualOptions, PrimalDualSolver};
use jocal_core::problem::ProblemInstance;
use jocal_core::tensor::Tensor4;
use jocal_core::{CacheState, Parallelism, SubSolveMetrics};
use jocal_sim::demand::DemandTrace;
use jocal_sim::scenario::ScenarioConfig;
use jocal_sim::topology::{ClassId, ContentId, Network, SbsId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn options() -> PrimalDualOptions {
    PrimalDualOptions {
        max_iterations: 12,
        ..PrimalDualOptions::default()
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Solves and evaluates `demand` on both paths and asserts every
/// artifact agrees bitwise.
fn assert_bit_parity(network: &Network, demand: &DemandTrace) {
    let sparse = ProblemInstance::fresh(network.clone(), demand.clone()).unwrap();
    let dense = sparse.clone().with_dense_oracle();
    assert!(sparse.sparse_enabled() && !dense.sparse_enabled());

    // Full Algorithm 1 solve: plans, multipliers, bounds, trajectory.
    let solver = PrimalDualSolver::new(options());
    let s = solver.solve(&sparse).unwrap();
    let d = solver.solve(&dense).unwrap();
    assert_eq!(s.cache_plan, d.cache_plan, "cache plans diverged");
    assert_eq!(
        bits(s.load_plan.tensor().as_slice()),
        bits(d.load_plan.tensor().as_slice()),
        "load plans diverged"
    );
    assert_eq!(bits(s.mu.as_slice()), bits(d.mu.as_slice()), "mu diverged");
    assert_eq!(s.iterations, d.iterations);
    assert_eq!(s.converged, d.converged);
    assert_eq!(s.lower_bound.to_bits(), d.lower_bound.to_bits());
    assert_eq!(s.gap.to_bits(), d.gap.to_bits());
    assert_eq!(s.history, d.history, "convergence trajectories diverged");

    // P2 alone, from the solved multipliers.
    let (ys, objs) = solve_load_all(&sparse, &s.mu, None).unwrap();
    let (yd, objd) = solve_load_all(&dense, &d.mu, None).unwrap();
    assert_eq!(
        bits(ys.tensor().as_slice()),
        bits(yd.tensor().as_slice()),
        "P2 load plans diverged"
    );
    assert_eq!(objs.to_bits(), objd.to_bits(), "P2 objectives diverged");

    // Cost accounting over the executed plans.
    let cs = evaluate_per_slot(&sparse, &s.cache_plan, &s.load_plan);
    let cd = evaluate_per_slot(&dense, &d.cache_plan, &d.load_plan);
    assert_eq!(cs.len(), cd.len());
    for (t, (a, b)) in cs.iter().zip(&cd).enumerate() {
        assert_eq!(a.bs_operating.to_bits(), b.bs_operating.to_bits(), "t={t}");
        assert_eq!(
            a.sbs_operating.to_bits(),
            b.sbs_operating.to_bits(),
            "t={t}"
        );
        assert_eq!(a.replacement.to_bits(), b.replacement.to_bits(), "t={t}");
        assert_eq!(a.replacement_count, b.replacement_count, "t={t}");
    }

    // Ledger attribution, slot by slot.
    let model = *sparse.cost_model();
    let mut prev = sparse.initial_cache().clone();
    for t in 0..demand.horizon() {
        let cache = s.cache_plan.state(t).clone();
        let lds = ledger_slot_sparse(
            network,
            &model,
            sparse.nonzeros(),
            &prev,
            &cache,
            &s.load_plan,
            t,
            t,
        );
        let ldd = ledger_slot(network, &model, demand, &prev, &cache, &d.load_plan, t, t);
        assert_eq!(lds, ldd, "ledger diverged at t={t}");
        prev = cache;
    }
}

fn masked_scenario(k: usize, horizon: usize, density: f64, seed: u64) -> (Network, DemandTrace) {
    let mut cfg = ScenarioConfig::tiny()
        .with_num_contents(k)
        .with_horizon(horizon);
    if density < 1.0 {
        cfg = cfg.with_nonzero_fraction(density);
    }
    let s = cfg.build(seed).unwrap();
    (s.network, s.demand)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random catalogs, horizons and mask densities (including fully
    /// dense) agree bitwise on every solver and accounting artifact.
    #[test]
    fn random_density_bit_parity(
        k in 3usize..12,
        horizon in 2usize..5,
        density_pct in 5usize..120,
        seed in 0u64..500,
    ) {
        // Percentages above 100 clamp to fully dense, so the dense
        // regime stays in the sampled mix.
        let density = (density_pct as f64 / 100.0).min(1.0);
        let (network, demand) = masked_scenario(k, horizon, density, seed);
        assert_bit_parity(&network, &demand);
    }
}

/// Multipliers supported on the λ-support plus a few stray entries (as a
/// warm start carries), some of them exactly zero, with the ascending
/// flat support that covers them.
fn supported_mu(problem: &ProblemInstance, rng: &mut StdRng) -> (Tensor4, Vec<usize>) {
    let network = problem.network();
    let mut mu = Tensor4::zeros(network, problem.horizon());
    let mut support = Vec::new();
    for t in 0..problem.horizon() {
        for (n, _) in network.iter_sbs() {
            let offset = mu.sbs_slot_offset(t, n);
            for e in problem.nonzeros().slot(t, n) {
                support.push(offset + e.idx as usize);
            }
        }
    }
    for _ in 0..rng.gen_range(0..4) {
        support.push(rng.gen_range(0..mu.len()));
    }
    support.sort_unstable();
    support.dedup();
    let data = mu.as_mut_slice();
    for &i in &support {
        if rng.gen_bool(0.8) {
            data[i] = rng.gen_range(0.0..30.0);
        }
    }
    (mu, support)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// P1 alone: the support-driven solve on a sparse instance, and the
    /// support-free one, match the dense oracle bitwise, for β = 0, a
    /// β below the pruning margin and an ordinary β, with and without
    /// an initial cache.
    #[test]
    fn p1_support_bit_parity(
        k in 3usize..40,
        horizon in 1usize..5,
        density_pct in 2usize..60,
        num_sbs in 1usize..3,
        beta_kind in 0u8..3,
        seed in 0u64..500,
    ) {
        let beta = [0.0, 1e-13, 10.0][beta_kind as usize];
        let cfg = ScenarioConfig { num_sbs, ..ScenarioConfig::tiny() }
            .with_num_contents(k)
            .with_horizon(horizon)
            .with_beta(beta)
            .with_nonzero_fraction(density_pct as f64 / 100.0);
        let s = cfg.build(seed).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut initial = CacheState::empty(&s.network);
        for (n, sbs) in s.network.iter_sbs() {
            for _ in 0..sbs.cache_capacity() {
                initial.set(n, ContentId(rng.gen_range(0..k)), true);
            }
        }
        let sparse = ProblemInstance::fresh(s.network, s.demand)
            .unwrap()
            .with_initial_cache(initial)
            .unwrap();
        let dense = sparse.clone().with_dense_oracle();
        let (mu, support) = supported_mu(&sparse, &mut rng);

        let (dp, dobj) = solve_caching_all(&dense, &mu).unwrap();
        let (sp, sobj) = solve_caching_all_observed(
            &sparse,
            &mu,
            Some(&support),
            Parallelism::Sequential,
            &SubSolveMetrics::disabled(),
        )
        .unwrap();
        prop_assert_eq!(&sp, &dp);
        prop_assert_eq!(sobj.to_bits(), dobj.to_bits());
        let (fp, fobj) = solve_caching_all(&sparse, &mu).unwrap();
        prop_assert_eq!(&fp, &dp);
        prop_assert_eq!(fobj.to_bits(), dobj.to_bits());
    }
}

#[test]
fn all_zero_demand_bit_parity() {
    let s = ScenarioConfig::tiny().with_horizon(3).build(5).unwrap();
    let zeros = DemandTrace::zeros(&s.network, 3);
    assert_bit_parity(&s.network, &zeros);
}

#[test]
fn single_nonzero_bit_parity() {
    let s = ScenarioConfig::tiny().with_horizon(3).build(6).unwrap();
    let mut demand = DemandTrace::zeros(&s.network, 3);
    demand
        .set_lambda(1, SbsId(0), ClassId(2), ContentId(3), 4.5)
        .unwrap();
    assert_bit_parity(&s.network, &demand);
}

#[test]
fn full_density_multi_sbs_bit_parity() {
    let cfg = ScenarioConfig {
        num_sbs: 2,
        ..ScenarioConfig::tiny()
    };
    let s = cfg.with_horizon(3).build(7).unwrap();
    assert_bit_parity(&s.network, &s.demand);
}

#[test]
fn production_sparse_regime_bit_parity() {
    // The regime the sparse path exists for: a large catalog at ~1%
    // density.
    let (network, demand) = masked_scenario(200, 3, 0.01, 11);
    assert_bit_parity(&network, &demand);
}
