//! Property tests validating the MIP engine against the brute-force
//! oracle on randomly generated small integer programs.

use gmm_ilp::branch::{solve_mip, MipOptions};
use gmm_ilp::brute::solve_brute;
use gmm_ilp::error::MipStatus;
use gmm_ilp::model::{LinExpr, Model, Objective, Sense};
use proptest::prelude::*;

/// Generator for small random pure-binary models.
fn binary_model_strategy() -> impl Strategy<Value = Model> {
    let n_vars = 2usize..8;
    let n_cons = 1usize..5;
    (n_vars, n_cons, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut model = Model::new();
        let vars: Vec<_> = (0..n)
            .map(|_| model.add_binary((next() % 21) as f64 - 10.0))
            .collect();
        if next() % 2 == 0 {
            model.set_objective_direction(Objective::Maximize);
        }
        for _ in 0..m {
            let mut expr = LinExpr::new();
            let mut max_activity = 0.0;
            for &v in &vars {
                if next() % 3 == 0 {
                    continue; // sparse rows
                }
                let c = (next() % 11) as f64 - 5.0;
                if c != 0.0 {
                    expr.push(v, c);
                    max_activity += c.max(0.0);
                }
            }
            if expr.is_empty() {
                continue;
            }
            let sense = match next() % 3 {
                0 => Sense::Le,
                1 => Sense::Ge,
                _ => Sense::Eq,
            };
            // Right-hand side near the activity range so the row is neither
            // trivially redundant nor trivially infeasible.
            let rhs = ((next() % 17) as f64) - 4.0;
            let rhs = rhs.min(max_activity + 2.0);
            model.add_constraint(expr, sense, rhs).unwrap();
        }
        model
    })
}

fn objectives_match(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => (x - y).abs() < 1e-6,
        (None, None) => true,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn best_bound_bnb_matches_brute_force(model in binary_model_strategy()) {
        let oracle = solve_brute(&model);
        let got = solve_mip(&model, &MipOptions::default()).unwrap();
        prop_assert_eq!(got.status == MipStatus::Optimal,
                        oracle.status == MipStatus::Optimal,
                        "status mismatch: got {:?}, oracle {:?}", got.status, oracle.status);
        prop_assert!(objectives_match(got.best_objective, oracle.best_objective),
                     "objective mismatch: got {:?}, oracle {:?}",
                     got.best_objective, oracle.best_objective);
        if let Some(x) = &got.best_solution {
            prop_assert!(model.check_feasible(x, 1e-6).is_ok());
        }
    }
}

// Mixed-integer models: continuous + integer variables, checked for
// solution feasibility and bound consistency (no brute oracle available).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mixed_models_produce_feasible_solutions(seed in any::<u64>()) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut model = Model::new();
        let n_int = 2 + (next() % 4) as usize;
        let n_cont = 1 + (next() % 3) as usize;
        let mut all = Vec::new();
        for _ in 0..n_int {
            all.push(model.add_integer(0.0, (next() % 5 + 1) as f64, (next() % 9) as f64 - 4.0).unwrap());
        }
        for _ in 0..n_cont {
            all.push(model.add_continuous(0.0, (next() % 10 + 1) as f64, (next() % 9) as f64 - 4.0).unwrap());
        }
        for _ in 0..3 {
            let mut expr = LinExpr::new();
            for &v in &all {
                let c = (next() % 7) as f64 - 3.0;
                if c != 0.0 { expr.push(v, c); }
            }
            if expr.is_empty() { continue; }
            model.add_constraint(expr, Sense::Le, (next() % 20) as f64).unwrap();
        }
        let r = solve_mip(&model, &MipOptions::default()).unwrap();
        if let Some(x) = &r.best_solution {
            prop_assert!(model.check_feasible(x, 1e-5).is_ok(),
                        "reported solution infeasible: {:?}", model.check_feasible(x, 1e-5));
            // Objective must match the solution.
            let obj = model.objective_value(x);
            prop_assert!((obj - r.best_objective.unwrap()).abs() < 1e-5);
        }
    }
}

/// Every 0/1 point of a pure-binary model, in mask order.
fn binary_points(model: &Model) -> impl Iterator<Item = Vec<f64>> {
    let n = model.num_vars();
    (0u32..1 << n).map(move |mask| (0..n).map(|j| ((mask >> j) & 1) as f64).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn root_start_matches_brute_force(model in binary_model_strategy()) {
        let oracle = solve_brute(&model);
        let cold = solve_mip(&model, &MipOptions::default()).unwrap();
        let with_start = |x: Vec<f64>| {
            solve_mip(&model, &MipOptions { root_start: Some(x), ..MipOptions::default() }).unwrap()
        };
        let (feasible, infeasible): (Vec<_>, Vec<_>) =
            binary_points(&model).partition(|x| model.check_feasible(x, 1e-9).is_ok());

        // Start at the worst feasible point: the search still reaches the
        // optimum, and the start is never reported as a seed.
        let sign = match model.objective_direction() {
            Objective::Maximize => -1.0,
            Objective::Minimize => 1.0,
        };
        let cost = |x: &Vec<f64>| sign * model.objective_value(x);
        let worst = feasible.iter().max_by(|a, b| cost(a).total_cmp(&cost(b)));
        if let Some(x) = worst {
            let got = with_start(x.clone());
            prop_assert_eq!(got.status, MipStatus::Optimal);
            prop_assert!(!got.incumbent_seeded);
            prop_assert!(objectives_match(got.best_objective, oracle.best_objective),
                         "objective mismatch: got {:?}, oracle {:?}",
                         got.best_objective, oracle.best_objective);
            prop_assert!(model.check_feasible(got.best_solution.as_ref().unwrap(), 1e-6).is_ok());
        }

        // An infeasible or fractional start is ignored: the solve is the
        // cold solve, pivot for pivot.
        let fractional = vec![0.5; model.num_vars()];
        for x in infeasible.into_iter().take(1).chain([fractional]) {
            let got = with_start(x);
            prop_assert_eq!(got.status, cold.status);
            prop_assert_eq!(&got.best_solution, &cold.best_solution);
            prop_assert_eq!(got.lp_iterations, cold.lp_iterations);
            prop_assert_eq!(got.nodes_explored, cold.nodes_explored);
        }
    }
}
