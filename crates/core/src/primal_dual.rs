//! Algorithm 1: the primal-dual decomposition solver.
//!
//! Relaxes the coupling constraint `y ≤ x` (eq. 3) with multipliers
//! `μ ≥ 0` and alternates:
//!
//! 1. **P1** (caching) — solved exactly per SBS by min-cost flow
//!    ([`crate::caching`]); integrality is guaranteed by Theorem 1.
//! 2. **P2** (load balancing) — solved per SBS/slot by projected
//!    gradient ([`crate::loadbalance`]).
//! 3. **Dual update** — `μ ← [μ + δ_l (y − x)]⁺` with the paper's
//!    diminishing step `δ_l = scale/(1 + α l)` (eq. 15–17).
//!
//! Each iteration also performs **primal recovery**: the integral `X`
//! from P1 is fixed and the exact optimal `Y|X` is computed, yielding a
//! feasible plan and an upper bound (Algorithm 1 line 8). The dual value
//! `P1 + P2` is a lower bound (weak duality); the loop stops when the
//! relative gap drops below `ε` (Algorithm 1 line 2) or the iteration
//! budget is exhausted, returning the best feasible plan found.

use crate::accounting::{evaluate_plan, CostBreakdown};
use crate::caching::solve_caching_all_observed;
use crate::loadbalance::{
    solve_load_all_into_observed, solve_load_given_cache_into_observed, solve_load_given_cache_with,
};
use crate::observe::SubSolveMetrics;
use crate::plan::{verify_feasible, CachePlan, LoadPlan};
use crate::problem::ProblemInstance;
use crate::tensor::Tensor4;
use crate::workspace::Parallelism;
use crate::CoreError;
use jocal_optim::subgradient::{DualAscent, StepSchedule};
use jocal_sim::topology::{ClassId, ContentId};
use jocal_telemetry::{Counter, FieldValue, Gauge, Histogram, Telemetry, Tracer};

/// Options controlling the primal-dual loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimalDualOptions {
    /// Relative duality-gap target `ε` (the paper uses `10⁻⁴`).
    pub epsilon: f64,
    /// Maximum number of iterations `L`.
    pub max_iterations: usize,
    /// Step-decay slope `α` in `δ_l = scale/(1 + α l)`.
    pub step_alpha: f64,
    /// Step magnitude prefactor; `None` auto-scales from the instance's
    /// cost gradients (required because optimal multipliers scale with
    /// the marginal BS cost, which depends on the demand volume).
    pub step_scale: Option<f64>,
    /// Run the (relatively expensive) primal recovery every this many
    /// iterations. `1` recovers every iteration.
    pub recovery_every: usize,
    /// Fan-out of the per-SBS `P1`/`P2` sub-solves. The decomposition is
    /// exact and the reduction order fixed, so every setting produces
    /// identical solutions; this only trades wall-clock time.
    pub parallelism: Parallelism,
    /// ρ-aware absolute early exit for warm-started window solves:
    /// `Some(rho)` stops the dual ascent as soon as
    /// `UB − LB < ρ · min_n β_n` — once the remaining gap is smaller
    /// than a ρ-fraction of the cheapest cache fetch, further ascent
    /// cannot justify flipping a caching decision at rounding threshold
    /// ρ (a heuristic granularity argument, not a proof: ties inside the
    /// band are cut short). `None` (the default) disables the exit, so
    /// iteration counts — and everything downstream — are unchanged
    /// unless a caller opts in. Exits are counted in
    /// `pd_early_exit_total`.
    pub rho_early_exit: Option<f64>,
}

impl Default for PrimalDualOptions {
    fn default() -> Self {
        PrimalDualOptions {
            epsilon: 1e-4,
            max_iterations: 100,
            step_alpha: 0.05,
            step_scale: None,
            recovery_every: 1,
            parallelism: Parallelism::Auto,
            rho_early_exit: None,
        }
    }
}

impl PrimalDualOptions {
    /// A cheaper profile for the per-step window solves of the online
    /// algorithms. Because successive windows warm-start each other's
    /// multipliers, a short loop per window reaches the same quality as a
    /// long one (validated against the offline optimum in the benches).
    #[must_use]
    pub fn online() -> Self {
        PrimalDualOptions {
            epsilon: 1e-3,
            max_iterations: 15,
            step_alpha: 0.05,
            step_scale: None,
            recovery_every: 3,
            parallelism: Parallelism::Auto,
            rho_early_exit: None,
        }
    }
}

/// Warm-start state carried between consecutive solves (e.g. successive
/// RHC windows).
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Multipliers from the previous solve.
    pub mu: Tensor4,
    /// Load plan from the previous solve.
    pub y: LoadPlan,
}

/// Per-iteration convergence record of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Iteration counter `l` (1-based).
    pub iteration: usize,
    /// Best dual lower bound after this iteration.
    pub lower_bound: f64,
    /// Best feasible upper bound after this iteration.
    pub upper_bound: f64,
    /// Relative duality gap after this iteration.
    pub gap: f64,
}

/// Result of a primal-dual solve.
#[derive(Debug, Clone)]
pub struct PrimalDualSolution {
    /// Best feasible caching plan found.
    pub cache_plan: CachePlan,
    /// Exact optimal load plan for that caching plan.
    pub load_plan: LoadPlan,
    /// Cost breakdown of the returned plan (against the instance demand).
    pub breakdown: CostBreakdown,
    /// Best dual lower bound.
    pub lower_bound: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative duality gap.
    pub gap: f64,
    /// Whether the gap target was met.
    pub converged: bool,
    /// Final multipliers (for warm starting subsequent solves).
    pub mu: Tensor4,
    /// Per-iteration convergence history (LB/UB/gap), for diagnostics
    /// and the convergence plots in EXPERIMENTS.md.
    pub history: Vec<IterationStats>,
}

/// Pre-resolved handles for one primal-dual solve; all disabled when
/// the solver's telemetry is.
#[derive(Default)]
struct PdMetrics {
    solve_us: Histogram,
    solves: Counter,
    iterations: Counter,
    iterations_hist: Histogram,
    converged: Counter,
    last_gap: Gauge,
    dual_residual: Histogram,
    mu_clipped: Counter,
    early_exit: Counter,
    p1_us: Histogram,
    p2_us: Histogram,
    recovery_us: Histogram,
    p1: SubSolveMetrics,
    p2: SubSolveMetrics,
    recovery: SubSolveMetrics,
    tracer: Tracer,
}

impl PdMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        if !telemetry.is_enabled() {
            return Self::default();
        }
        PdMetrics {
            tracer: telemetry.tracer(),
            solve_us: telemetry.histogram("pd_solve_us"),
            solves: telemetry.counter("pd_solves_total"),
            iterations: telemetry.counter("pd_iterations_total"),
            iterations_hist: telemetry.histogram("pd_iterations"),
            converged: telemetry.counter("pd_converged_total"),
            last_gap: telemetry.gauge("pd_last_gap"),
            dual_residual: telemetry.histogram("pd_dual_residual_norm_1e6"),
            mu_clipped: telemetry.counter("pd_mu_clipped_total"),
            early_exit: telemetry.counter("pd_early_exit_total"),
            p1_us: telemetry.histogram("pd_p1_solve_us"),
            p2_us: telemetry.histogram("pd_p2_solve_us"),
            recovery_us: telemetry.histogram("pd_recovery_solve_us"),
            p1: SubSolveMetrics::resolve(telemetry, "p1"),
            p2: SubSolveMetrics::resolve(telemetry, "p2"),
            recovery: SubSolveMetrics::resolve(telemetry, "recovery"),
        }
    }
}

/// The primal-dual solver (Algorithm 1 of the paper).
#[derive(Debug, Clone, Default)]
pub struct PrimalDualSolver {
    options: PrimalDualOptions,
    telemetry: Telemetry,
}

impl PrimalDualSolver {
    /// Creates a solver with the given options (telemetry disabled).
    #[must_use]
    pub fn new(options: PrimalDualOptions) -> Self {
        PrimalDualSolver {
            options,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle (builder style). Observation never
    /// changes solutions: all recording is either off the decision path
    /// or merged in SBS order.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a telemetry handle in place.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The configured options.
    #[must_use]
    pub fn options(&self) -> &PrimalDualOptions {
        &self.options
    }

    /// Estimates the multiplier scale: the largest marginal BS-cost
    /// saving `φ'(u₀)·ω_m·λ_{m,k}` over all entries, damped by 1/10 so
    /// early steps do not overshoot.
    fn auto_step_scale(problem: &ProblemInstance) -> f64 {
        let network = problem.network();
        let demand = problem.demand();
        let model = problem.cost_model();
        let mut max_grad = 0.0_f64;
        if problem.sparse_enabled() {
            // Same accumulation driven by the nonzero index: skipped
            // entries contribute exactly `+0.0` to the flat `u0` sum and
            // to the `max` fold (see [`crate::sparse`]), so the estimate
            // is bit-identical to the dense sweep below.
            let nonzeros = problem.nonzeros();
            let k_total = network.num_contents();
            for t in 0..problem.horizon() {
                for (n, sbs) in network.iter_sbs() {
                    let classes = sbs.classes();
                    let entries = nonzeros.slot(t, n);
                    let mut u0 = 0.0;
                    for e in entries {
                        u0 += classes[e.idx as usize / k_total].omega_bs * e.lambda;
                    }
                    let dphi = model.bs_cost.derivative(u0);
                    for e in entries {
                        let g = dphi * classes[e.idx as usize / k_total].omega_bs * e.lambda;
                        max_grad = max_grad.max(g);
                    }
                }
            }
            return (max_grad / 10.0).max(1e-6);
        }
        for t in 0..problem.horizon() {
            for (n, sbs) in network.iter_sbs() {
                let mut u0 = 0.0;
                for (m, class) in sbs.classes().iter().enumerate() {
                    for k in 0..network.num_contents() {
                        u0 += class.omega_bs * demand.lambda(t, n, ClassId(m), ContentId(k));
                    }
                }
                let dphi = model.bs_cost.derivative(u0);
                for (m, class) in sbs.classes().iter().enumerate() {
                    for k in 0..network.num_contents() {
                        let g =
                            dphi * class.omega_bs * demand.lambda(t, n, ClassId(m), ContentId(k));
                        max_grad = max_grad.max(g);
                    }
                }
            }
        }
        (max_grad / 10.0).max(1e-6)
    }

    /// Runs Algorithm 1 on `problem`.
    ///
    /// # Errors
    ///
    /// Propagates sub-solver failures;
    /// [`CoreError::NoFeasibleSolution`] if no recovery step succeeded
    /// (cannot happen for well-formed instances since `X = 0, Y = 0` is
    /// feasible).
    pub fn solve(&self, problem: &ProblemInstance) -> Result<PrimalDualSolution, CoreError> {
        self.solve_with_warm(problem, None)
    }

    /// Runs Algorithm 1 with an optional warm start (multipliers and load
    /// plan from a related instance, e.g. the previous receding-horizon
    /// window).
    ///
    /// # Errors
    ///
    /// See [`PrimalDualSolver::solve`].
    pub fn solve_with_warm(
        &self,
        problem: &ProblemInstance,
        warm: Option<&WarmStart>,
    ) -> Result<PrimalDualSolution, CoreError> {
        let opts = &self.options;
        let par = opts.parallelism;
        let observing = self.telemetry.is_enabled();
        let pd = PdMetrics::resolve(&self.telemetry);
        let solve_span = pd.solve_us.start_span();
        // Causal span for the whole solve; children (iterations, P1/P2
        // sub-solves) nest under it on the driving thread.
        let solve_trace = pd.tracer.start("pd_solve");
        let network = problem.network();
        let horizon = problem.horizon();
        let scale = opts
            .step_scale
            .unwrap_or_else(|| Self::auto_step_scale(problem));
        let template = Tensor4::zeros(network, horizon);

        let mut ascent = DualAscent::new(
            template.len(),
            StepSchedule::ScaledHarmonic {
                scale,
                alpha: opts.step_alpha,
            },
        );
        let mut mu = template.clone();
        // Double-buffered P2 plans: `y_warm` carries the previous
        // iterate's solution (the warm start), `y_next` receives the new
        // one, and the two swap each iteration — no per-iteration tensor
        // allocation.
        let mut y_next = LoadPlan::zeros(network, horizon);
        let mut y_warm = LoadPlan::zeros(network, horizon);
        let mut have_warm = false;
        if let Some(w) = warm {
            if w.mu.same_shape(&template) {
                mu = w.mu.clone();
            }
            if w.y.tensor().same_shape(&template) {
                if problem.sparse_enabled() {
                    // Copy only indexed positions: off-index positions
                    // must stay 0.0 so this buffer can host compact
                    // sparse scatters once the double-buffers swap. The
                    // solve reads warm starts at free (= indexed)
                    // positions only, so the seed is bit-identical to a
                    // full clone.
                    let nonzeros = problem.nonzeros();
                    for t in 0..horizon {
                        for (n, _) in network.iter_sbs() {
                            let src = w.y.tensor().sbs_slot_slice(t, n);
                            let dst = y_warm.tensor_mut().sbs_slot_slice_mut(t, n);
                            for e in nonzeros.slot(t, n) {
                                dst[e.idx as usize] = src[e.idx as usize];
                            }
                        }
                    }
                } else {
                    y_warm = w.y.clone();
                }
                have_warm = true;
            }
        }

        // Same double-buffering for the recovery solves.
        let mut rec_next = LoadPlan::zeros(network, horizon);
        let mut rec_warm = LoadPlan::zeros(network, horizon);
        let mut have_rec_warm = false;
        let mut iterations = 0usize;

        // Primal seeding: evaluate the "hold the inherited cache" plan so
        // that a no-churn solution always competes against the recovered
        // candidates. Without it, near-tied window solves can churn on
        // arbitrary tie-breaking and pay unwarranted replacement cost.
        let mut best: Option<(CachePlan, LoadPlan, CostBreakdown)> = {
            let hold = CachePlan::from_states(vec![problem.initial_cache().clone(); horizon])?;
            let (y_hold, _) = solve_load_given_cache_with(problem, &hold, None, par)?;
            let breakdown = evaluate_plan(problem, &hold, &y_hold);
            ascent.record_primal_value(breakdown.total());
            Some((hold, y_hold, breakdown))
        };

        // Sparse dual update: the active coordinate set is the λ-support
        // (where P2 can place load) unioned with the warm multiplier
        // support (stale entries the dense update would overwrite).
        // Every coordinate outside the union keeps a zero load AND a
        // zero multiplier for the whole solve — `[0 + δ·(0 − x)]⁺ = 0` —
        // so skipping it is exact (see `DualAscent::ascend_at`). Built
        // once per solve with a single dense scan of the (warm)
        // multipliers; indices are ascending in the flat (t, n, m, k)
        // layout. Note the clip count and the residual norm below are
        // then measured over the active set only, so `pd_mu_clipped_total`
        // and `pd_dual_residual_norm_1e6` can differ from a dense-oracle
        // run (which also counts cached-but-undemanded coordinates);
        // decisions and bounds do not.
        let k_total = network.num_contents();
        let sparse = problem.sparse_enabled();
        let active: Vec<usize> = if sparse {
            let nonzeros = problem.nonzeros();
            let mu_flat = mu.as_slice();
            let mut active = Vec::with_capacity(nonzeros.total_nonzeros());
            let mut base = 0usize;
            for t in 0..horizon {
                for (n, sbs) in network.iter_sbs() {
                    let block = sbs.num_classes() * k_total;
                    let mu_block = &mu_flat[base..base + block];
                    let mut prev = 0usize;
                    for e in nonzeros.slot(t, n) {
                        let j = e.idx as usize;
                        for (w, &m) in mu_block.iter().enumerate().take(j).skip(prev) {
                            if m != 0.0 {
                                active.push(base + w);
                            }
                        }
                        active.push(base + j);
                        prev = j + 1;
                    }
                    for (w, &m) in mu_block.iter().enumerate().skip(prev) {
                        if m != 0.0 {
                            active.push(base + w);
                        }
                    }
                    base += block;
                }
            }
            active
        } else {
            Vec::new()
        };
        let min_beta = network
            .iter_sbs()
            .map(|(_, sbs)| sbs.replacement_cost())
            .fold(f64::INFINITY, f64::min);

        let mut violation = vec![0.0; if sparse { active.len() } else { template.len() }];
        let mut history = Vec::with_capacity(opts.max_iterations);
        for l in 0..opts.max_iterations {
            iterations = l + 1;
            let iter_trace = pd
                .tracer
                .start_with("pd_iteration", "iteration", iterations as u64);
            // --- Primal step: solve P1 and P2 under current μ. ----------
            let p1_trace = pd.tracer.start("p1");
            let p1_span = pd.p1_us.start_span();
            let support = sparse.then_some(active.as_slice());
            let (x_plan, p1_obj) = solve_caching_all_observed(problem, &mu, support, par, &pd.p1)?;
            pd.p1_us.record_span(p1_span);
            pd.tracer.finish(p1_trace);
            let p2_trace = pd.tracer.start("p2");
            let p2_span = pd.p2_us.start_span();
            let p2_obj = solve_load_all_into_observed(
                problem,
                &mu,
                have_warm.then_some(&y_warm),
                par,
                &mut y_next,
                &pd.p2,
            )?;
            pd.p2_us.record_span(p2_span);
            pd.tracer.finish(p2_trace);
            std::mem::swap(&mut y_next, &mut y_warm);
            have_warm = true;
            let y_plan = &y_warm;

            // Dual (lower) bound: the Lagrangian minimum at μ.
            ascent.record_dual_value(p1_obj + p2_obj);

            // --- Primal recovery: exact Y for the integral X. ------------
            if l % opts.recovery_every.max(1) == 0 || l + 1 == opts.max_iterations {
                let recovery_trace = pd.tracer.start("recovery");
                let recovery_span = pd.recovery_us.start_span();
                solve_load_given_cache_into_observed(
                    problem,
                    &x_plan,
                    have_rec_warm.then_some(&rec_warm),
                    par,
                    &mut rec_next,
                    &pd.recovery,
                )?;
                pd.recovery_us.record_span(recovery_span);
                pd.tracer.finish(recovery_trace);
                std::mem::swap(&mut rec_next, &mut rec_warm);
                have_rec_warm = true;
                let y_feas = &rec_warm;
                let breakdown = evaluate_plan(problem, &x_plan, y_feas);
                debug_assert!(verify_feasible(network, problem.demand(), &x_plan, y_feas).is_ok());
                ascent.record_primal_value(breakdown.total());
                let improved = best
                    .as_ref()
                    .is_none_or(|(_, _, b)| breakdown.total() < b.total());
                if improved {
                    // The one permitted snapshot: the best incumbent.
                    best = Some((x_plan.clone(), y_feas.clone(), breakdown));
                }
            }

            history.push(IterationStats {
                iteration: iterations,
                lower_bound: ascent.lower_bound(),
                upper_bound: ascent.upper_bound(),
                gap: ascent.relative_gap(),
            });

            if ascent.relative_gap() <= opts.epsilon {
                pd.tracer.finish(iter_trace);
                break;
            }

            // ρ-aware absolute exit: once the remaining gap is below a
            // ρ-fraction of the cheapest fetch, further ascent cannot
            // change a caching decision at rounding threshold ρ.
            if let Some(rho) = opts.rho_early_exit {
                let abs_gap = ascent.upper_bound() - ascent.lower_bound();
                if abs_gap.is_finite() && abs_gap < rho * min_beta {
                    pd.early_exit.incr();
                    pd.tracer.finish(iter_trace);
                    break;
                }
            }

            // --- Dual update (eq. 15–17). --------------------------------
            let step = ascent.current_step();
            let y_data = y_plan.tensor().as_slice();
            if sparse {
                // x expands only at active coordinates; everywhere else
                // both the load and the multiplier are identically zero,
                // so the projected step is a no-op there.
                let mut ai = 0usize;
                let mut base = 0usize;
                for t in 0..horizon {
                    for (n, sbs) in network.iter_sbs() {
                        let end = base + sbs.num_classes() * k_total;
                        while ai < active.len() && active[ai] < end {
                            let idx = active[ai];
                            let k = (idx - base) % k_total;
                            let xv = if x_plan.state(t).contains(n, ContentId(k)) {
                                1.0
                            } else {
                                0.0
                            };
                            violation[ai] = y_data[idx] - xv;
                            ai += 1;
                        }
                        base = end;
                    }
                }
                ascent.ascend_at(&active, &violation);
                let mu_flat = mu.as_mut_slice();
                let mult = ascent.multipliers();
                for &idx in &active {
                    mu_flat[idx] = mult[idx];
                }
            } else {
                // x needs expanding to the (t, n, m, k) layout.
                let mut idx = 0usize;
                for t in 0..horizon {
                    for (n, sbs) in network.iter_sbs() {
                        for _m in 0..sbs.num_classes() {
                            for k in 0..network.num_contents() {
                                let xv = if x_plan.state(t).contains(n, ContentId(k)) {
                                    1.0
                                } else {
                                    0.0
                                };
                                violation[idx] = y_data[idx] - xv;
                                idx += 1;
                            }
                        }
                    }
                }
                ascent.ascend(&violation);
                mu.as_mut_slice().copy_from_slice(ascent.multipliers());
            }

            if observing {
                // Convergence trace: everything off the decision path.
                let residual_norm = violation.iter().map(|v| v * v).sum::<f64>().sqrt();
                pd.dual_residual
                    .observe((residual_norm * 1e6).round() as u64);
                pd.mu_clipped.add(ascent.last_clipped() as u64);
                self.telemetry.event(
                    "pd_iter",
                    &[
                        ("iteration", FieldValue::U64(iterations as u64)),
                        ("lower_bound", FieldValue::F64(ascent.lower_bound())),
                        ("upper_bound", FieldValue::F64(ascent.upper_bound())),
                        ("gap", FieldValue::F64(ascent.relative_gap())),
                        ("step", FieldValue::F64(step)),
                        ("residual_norm", FieldValue::F64(residual_norm)),
                        ("p1_objective", FieldValue::F64(p1_obj)),
                        ("p2_objective", FieldValue::F64(p2_obj)),
                        ("mu_clipped", FieldValue::U64(ascent.last_clipped() as u64)),
                    ],
                );
            }
            pd.tracer.finish(iter_trace);
        }
        pd.tracer.finish(solve_trace);

        let Some((cache_plan, load_plan, breakdown)) = best else {
            return Err(CoreError::NoFeasibleSolution { iterations });
        };
        let gap = ascent.relative_gap();
        if observing {
            pd.solve_us.record_span(solve_span);
            pd.solves.incr();
            pd.iterations.add(iterations as u64);
            pd.iterations_hist.observe(iterations as u64);
            if gap <= opts.epsilon {
                pd.converged.incr();
            }
            pd.last_gap.set(gap);
            self.telemetry.event(
                "pd_done",
                &[
                    ("iterations", FieldValue::U64(iterations as u64)),
                    ("gap", FieldValue::F64(gap)),
                    (
                        "converged",
                        FieldValue::Str(if gap <= opts.epsilon { "yes" } else { "no" }),
                    ),
                ],
            );
        }
        Ok(PrimalDualSolution {
            cache_plan,
            load_plan,
            breakdown,
            lower_bound: ascent.lower_bound(),
            iterations,
            gap,
            converged: gap <= opts.epsilon,
            mu,
            history,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jocal_sim::demand::DemandTrace;
    use jocal_sim::scenario::ScenarioConfig;
    use jocal_sim::topology::{MuClass, Network, SbsId};

    /// One SBS, one class, two items, flat demand: the solver should
    /// cache the items (bandwidth permitting) and serve them locally.
    #[test]
    fn caches_popular_items_when_beta_small() {
        let net = Network::builder(2)
            .sbs(2, 100.0, 0.1, vec![MuClass::new(1.0, 0.0, 1.0).unwrap()])
            .unwrap()
            .build()
            .unwrap();
        let mut d = DemandTrace::zeros(&net, 3);
        for t in 0..3 {
            for k in 0..2 {
                d.set_lambda(t, SbsId(0), ClassId(0), ContentId(k), 5.0)
                    .unwrap();
            }
        }
        let problem = ProblemInstance::fresh(net.clone(), d).unwrap();
        let sol = PrimalDualSolver::new(PrimalDualOptions {
            max_iterations: 60,
            ..Default::default()
        })
        .solve(&problem)
        .unwrap();
        // Optimal: cache both items every slot (cost 0.2 total) and serve
        // all demand from the SBS (f = 0).
        assert!(
            sol.breakdown.total() < 1.0,
            "total={}",
            sol.breakdown.total()
        );
        assert_eq!(sol.cache_plan.state(1).occupancy(SbsId(0)), 2);
        verify_feasible(&net, problem.demand(), &sol.cache_plan, &sol.load_plan).unwrap();
    }

    #[test]
    fn huge_beta_means_no_caching() {
        let net = Network::builder(2)
            .sbs(2, 100.0, 1e9, vec![MuClass::new(1.0, 0.0, 1.0).unwrap()])
            .unwrap()
            .build()
            .unwrap();
        let mut d = DemandTrace::zeros(&net, 2);
        for t in 0..2 {
            d.set_lambda(t, SbsId(0), ClassId(0), ContentId(0), 2.0)
                .unwrap();
        }
        let problem = ProblemInstance::fresh(net, d).unwrap();
        let sol = PrimalDualSolver::default().solve(&problem).unwrap();
        assert_eq!(sol.breakdown.replacement_count, 0);
        // All served by BS: f = (2)² per slot = 8.
        assert!((sol.breakdown.total() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn solution_feasible_on_random_scenario() {
        let s = ScenarioConfig::tiny().build(9).unwrap();
        let problem = ProblemInstance::fresh(s.network.clone(), s.demand.clone()).unwrap();
        let sol = PrimalDualSolver::new(PrimalDualOptions {
            max_iterations: 50,
            ..Default::default()
        })
        .solve(&problem)
        .unwrap();
        verify_feasible(&s.network, &s.demand, &sol.cache_plan, &sol.load_plan).unwrap();
        assert!(sol.lower_bound <= sol.breakdown.total() + 1e-6);
        assert!(sol.iterations >= 1);
    }

    #[test]
    fn history_tracks_monotone_bounds() {
        let s = ScenarioConfig::tiny().build(8).unwrap();
        let problem = ProblemInstance::fresh(s.network.clone(), s.demand.clone()).unwrap();
        let sol = PrimalDualSolver::new(PrimalDualOptions {
            max_iterations: 25,
            ..Default::default()
        })
        .solve(&problem)
        .unwrap();
        assert!(!sol.history.is_empty());
        for pair in sol.history.windows(2) {
            // LB non-decreasing, UB non-increasing by construction.
            assert!(pair[1].lower_bound >= pair[0].lower_bound - 1e-9);
            assert!(pair[1].upper_bound <= pair[0].upper_bound + 1e-9);
        }
        let last = sol.history.last().unwrap();
        assert!((last.gap - sol.gap).abs() < 1e-9 || sol.converged);
    }

    #[test]
    fn telemetry_neither_perturbs_solutions_nor_stays_silent() {
        let s = ScenarioConfig::tiny().build(9).unwrap();
        let problem = ProblemInstance::fresh(s.network.clone(), s.demand.clone()).unwrap();
        let opts = PrimalDualOptions {
            max_iterations: 10,
            ..Default::default()
        };
        let plain = PrimalDualSolver::new(opts).solve(&problem).unwrap();
        let tele = Telemetry::enabled();
        let observed = PrimalDualSolver::new(opts)
            .with_telemetry(tele.clone())
            .solve(&problem)
            .unwrap();
        // Bit-identical decisions and bounds.
        assert_eq!(plain.cache_plan, observed.cache_plan);
        assert_eq!(plain.load_plan, observed.load_plan);
        assert_eq!(
            plain.breakdown.total().to_bits(),
            observed.breakdown.total().to_bits()
        );
        assert_eq!(plain.lower_bound.to_bits(), observed.lower_bound.to_bits());
        // ... while the registry saw the solve.
        assert_eq!(tele.counter("pd_solves_total").get(), 1);
        assert_eq!(
            tele.counter("pd_iterations_total").get(),
            observed.iterations as u64
        );
        assert!(tele.histogram("p2_sbs_solve_us").snapshot().count >= 1);
        assert!(tele.histogram("p1_sbs_solve_us").snapshot().count >= 1);
        assert!(tele.counter("p2_slot_solves_total").get() >= 1);
        let events = tele.take_events();
        assert!(events.iter().any(|e| e.name == "pd_iter"));
        assert!(events.iter().any(|e| e.name == "pd_done"));
    }

    #[test]
    fn tracing_records_well_nested_solver_spans() {
        let s = ScenarioConfig::tiny().build(9).unwrap();
        let problem = ProblemInstance::fresh(s.network.clone(), s.demand.clone()).unwrap();
        let opts = PrimalDualOptions {
            max_iterations: 6,
            ..Default::default()
        };
        let plain = PrimalDualSolver::new(opts).solve(&problem).unwrap();
        let tele = Telemetry::traced();
        let traced = PrimalDualSolver::new(opts)
            .with_telemetry(tele.clone())
            .solve(&problem)
            .unwrap();
        // Tracing is observation-only.
        assert_eq!(plain.cache_plan, traced.cache_plan);
        assert_eq!(
            plain.breakdown.total().to_bits(),
            traced.breakdown.total().to_bits()
        );
        let tracer = tele.tracer();
        assert_eq!(tracer.malformed_spans(), 0);
        let spans = tracer.spans();
        let solve = spans.iter().find(|s| s.name == "pd_solve").unwrap();
        assert_eq!(solve.parent, None);
        let iters: Vec<_> = spans.iter().filter(|s| s.name == "pd_iteration").collect();
        assert_eq!(iters.len(), traced.iterations);
        for iter in &iters {
            assert_eq!(iter.parent, Some(solve.id));
            assert!(iter.start_us >= solve.start_us && iter.end_us() <= solve.end_us());
        }
        // Every P1/P2 sub-solve nests in some iteration.
        for sub in spans.iter().filter(|s| s.name == "p1" || s.name == "p2") {
            assert!(iters.iter().any(|i| sub.parent == Some(i.id)), "{sub:?}");
        }
        assert!(spans.iter().any(|s| s.name == "recovery"));
    }

    #[test]
    fn rho_early_exit_saves_iterations_and_stays_feasible() {
        let s = ScenarioConfig::tiny().build(7).unwrap();
        let problem = ProblemInstance::fresh(s.network.clone(), s.demand.clone()).unwrap();
        let base = PrimalDualOptions {
            max_iterations: 30,
            epsilon: 1e-12,
            ..Default::default()
        };
        let slow = PrimalDualSolver::new(base).solve(&problem).unwrap();
        // A huge ρ makes the absolute-gap test pass as soon as both
        // bounds are finite, i.e. after the first iteration.
        let tele = Telemetry::enabled();
        let fast = PrimalDualSolver::new(PrimalDualOptions {
            rho_early_exit: Some(1e12),
            ..base
        })
        .with_telemetry(tele.clone())
        .solve(&problem)
        .unwrap();
        assert_eq!(fast.iterations, 1);
        assert!(fast.iterations < slow.iterations);
        assert_eq!(tele.counter("pd_early_exit_total").get(), 1);
        verify_feasible(&s.network, &s.demand, &fast.cache_plan, &fast.load_plan).unwrap();
        // Opting out reproduces the baseline exactly.
        let again = PrimalDualSolver::new(base).solve(&problem).unwrap();
        assert_eq!(again.iterations, slow.iterations);
        assert_eq!(
            again.breakdown.total().to_bits(),
            slow.breakdown.total().to_bits()
        );
    }

    #[test]
    fn warm_start_does_not_hurt() {
        let s = ScenarioConfig::tiny().build(4).unwrap();
        let problem = ProblemInstance::fresh(s.network.clone(), s.demand.clone()).unwrap();
        let solver = PrimalDualSolver::new(PrimalDualOptions {
            max_iterations: 30,
            ..Default::default()
        });
        let cold = solver.solve(&problem).unwrap();
        let warm = solver
            .solve_with_warm(
                &problem,
                Some(&WarmStart {
                    mu: cold.mu.clone(),
                    y: cold.load_plan.clone(),
                }),
            )
            .unwrap();
        assert!(warm.breakdown.total() <= cold.breakdown.total() * 1.05 + 1e-6);
    }
}
