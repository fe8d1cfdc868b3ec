//! Model export: fixed-form **MPS** and CPLEX **LP** text formats.
//!
//! The paper's authors solved their formulations with CPLEX; exporting
//! our models in the formats commercial solvers read makes the
//! reproduction auditable — any model this crate solves can be re-solved
//! by CPLEX/Gurobi/HiGHS and the objectives compared.

use crate::model::{Model, Sense, VarId, VarKind};
use std::fmt::Write as _;

/// A sanitized, unique name per column/row (MPS is picky: ≤ 255 chars,
/// no spaces; we keep ≤ 32).
fn var_label(model: &Model, v: VarId) -> String {
    match model.var_name(v) {
        Some(name) => sanitize(name, v.index()),
        None => format!("x{}", v.index()),
    }
}

fn sanitize(name: &str, idx: usize) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .take(24)
        .collect();
    if s.is_empty() || s.chars().next().unwrap().is_ascii_digit() {
        s.insert(0, 'v');
    }
    // Suffix the index to guarantee uniqueness.
    let _ = write!(s, "_{idx}");
    s
}

/// Serialize a model as fixed-form MPS.
///
/// Conventions: the objective row is `COST`; MPS minimizes by default, so
/// a maximization model has its objective negated and a comment records
/// the flip. Integer variables are wrapped in `MARKER INTORG/INTEND`.
pub fn to_mps(model: &Model) -> String {
    let mut out = String::new();
    let maximize = matches!(
        model.objective_direction(),
        crate::model::Objective::Maximize
    );
    out.push_str("* Generated by gmm-ilp\n");
    if maximize {
        out.push_str("* NOTE: original objective was MAXIMIZE; coefficients negated.\n");
    }
    if model.obj_offset != 0.0 {
        let _ = writeln!(
            out,
            "* NOTE: objective offset {} not representable.",
            model.obj_offset
        );
    }
    out.push_str("NAME          GMM\n");

    // ROWS.
    out.push_str("ROWS\n N  COST\n");
    for (ci, con) in model.cons.iter().enumerate() {
        let tag = match con.sense {
            Sense::Le => 'L',
            Sense::Ge => 'G',
            Sense::Eq => 'E',
        };
        let _ = writeln!(out, " {tag}  R{ci}");
    }

    // COLUMNS: entries grouped by variable.
    out.push_str("COLUMNS\n");
    let sign = if maximize { -1.0 } else { 1.0 };
    let mut in_int = false;
    let mut marker = 0usize;
    // Per-variable constraint coefficients.
    let mut per_var: Vec<Vec<(usize, f64)>> = vec![Vec::new(); model.num_vars()];
    for (ci, con) in model.cons.iter().enumerate() {
        for &(v, c) in &con.terms {
            per_var[v.index()].push((ci, c));
        }
    }
    for i in 0..model.num_vars() {
        let v = VarId(i as u32);
        let integral = !matches!(model.var_kind(v), VarKind::Continuous);
        if integral && !in_int {
            let _ = writeln!(out, "    MARKER{marker}  'MARKER'  'INTORG'");
            marker += 1;
            in_int = true;
        } else if !integral && in_int {
            let _ = writeln!(out, "    MARKER{marker}  'MARKER'  'INTEND'");
            marker += 1;
            in_int = false;
        }
        let label = var_label(model, v);
        let obj = sign * model.obj_coeff(v);
        if obj != 0.0 {
            let _ = writeln!(out, "    {label}  COST  {obj}");
        }
        for &(ci, c) in &per_var[i] {
            let _ = writeln!(out, "    {label}  R{ci}  {c}");
        }
        // A column appearing nowhere still needs a presence for some
        // readers: give it a zero objective entry.
        if obj == 0.0 && per_var[i].is_empty() {
            let _ = writeln!(out, "    {label}  COST  0");
        }
    }
    if in_int {
        let _ = writeln!(out, "    MARKER{marker}  'MARKER'  'INTEND'");
    }

    // RHS.
    out.push_str("RHS\n");
    for (ci, con) in model.cons.iter().enumerate() {
        if con.rhs != 0.0 {
            let _ = writeln!(out, "    RHS  R{ci}  {}", con.rhs);
        }
    }

    // BOUNDS.
    out.push_str("BOUNDS\n");
    for i in 0..model.num_vars() {
        let v = VarId(i as u32);
        let label = var_label(model, v);
        let (lb, ub) = model.var_bounds(v);
        match (lb.is_finite(), ub.is_finite()) {
            (true, true) if lb == ub => {
                let _ = writeln!(out, " FX BND  {label}  {lb}");
            }
            (true, true) => {
                if lb != 0.0 {
                    let _ = writeln!(out, " LO BND  {label}  {lb}");
                }
                let _ = writeln!(out, " UP BND  {label}  {ub}");
            }
            (true, false) => {
                if lb != 0.0 {
                    let _ = writeln!(out, " LO BND  {label}  {lb}");
                }
                // default upper bound is +inf
            }
            (false, true) => {
                let _ = writeln!(out, " MI BND  {label}");
                let _ = writeln!(out, " UP BND  {label}  {ub}");
            }
            (false, false) => {
                let _ = writeln!(out, " FR BND  {label}");
            }
        }
    }
    out.push_str("ENDATA\n");
    out
}

/// Serialize a model in CPLEX LP format (human-readable).
pub fn to_lp(model: &Model) -> String {
    let mut out = String::new();
    let maximize = matches!(
        model.objective_direction(),
        crate::model::Objective::Maximize
    );
    out.push_str(if maximize {
        "Maximize\n obj:"
    } else {
        "Minimize\n obj:"
    });
    let mut first = true;
    for i in 0..model.num_vars() {
        let v = VarId(i as u32);
        let c = model.obj_coeff(v);
        if c == 0.0 {
            continue;
        }
        push_term(&mut out, c, &var_label(model, v), &mut first);
    }
    if first {
        out.push_str(" 0");
    }
    out.push_str("\nSubject To\n");
    for (ci, con) in model.cons.iter().enumerate() {
        let _ = write!(out, " R{ci}:");
        let mut first = true;
        for &(v, c) in &con.terms {
            push_term(&mut out, c, &var_label(model, v), &mut first);
        }
        let op = match con.sense {
            Sense::Le => "<=",
            Sense::Ge => ">=",
            Sense::Eq => "=",
        };
        let _ = writeln!(out, " {op} {}", con.rhs);
    }
    out.push_str("Bounds\n");
    for i in 0..model.num_vars() {
        let v = VarId(i as u32);
        let label = var_label(model, v);
        let (lb, ub) = model.var_bounds(v);
        match (lb.is_finite(), ub.is_finite()) {
            (true, true) if lb == ub => {
                let _ = writeln!(out, " {label} = {lb}");
            }
            (true, true) => {
                let _ = writeln!(out, " {lb} <= {label} <= {ub}");
            }
            (true, false) => {
                let _ = writeln!(out, " {label} >= {lb}");
            }
            (false, true) => {
                let _ = writeln!(out, " -inf <= {label} <= {ub}");
            }
            (false, false) => {
                let _ = writeln!(out, " {label} free");
            }
        }
    }
    let integers: Vec<String> = (0..model.num_vars())
        .map(|i| VarId(i as u32))
        .filter(|v| !matches!(model.var_kind(*v), VarKind::Continuous))
        .map(|v| var_label(model, v))
        .collect();
    if !integers.is_empty() {
        out.push_str("General\n");
        for chunk in integers.chunks(8) {
            let _ = writeln!(out, " {}", chunk.join(" "));
        }
    }
    out.push_str("End\n");
    out
}

fn push_term(out: &mut String, c: f64, label: &str, first: &mut bool) {
    if *first {
        if c < 0.0 {
            let _ = write!(out, " -");
        } else {
            let _ = write!(out, " ");
        }
        *first = false;
    } else if c < 0.0 {
        let _ = write!(out, " - ");
    } else {
        let _ = write!(out, " + ");
    }
    let mag = c.abs();
    if (mag - 1.0).abs() < 1e-15 {
        let _ = write!(out, "{label}");
    } else {
        let _ = write!(out, "{mag} {label}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{lin, Model, Objective};

    fn sample() -> Model {
        let mut m = Model::new();
        let x = m.add_binary(5.0);
        let y = m.add_integer(0.0, 10.0, 4.0).unwrap();
        let z = m.add_continuous(-1.0, f64::INFINITY, -2.5).unwrap();
        m.set_var_name(x, "take item");
        m.set_objective_direction(Objective::Maximize);
        m.add_constraint(lin(&[(x, 6.0), (y, 4.0)]), Sense::Le, 24.0)
            .unwrap();
        m.add_constraint(lin(&[(y, 1.0), (z, -1.0)]), Sense::Ge, 2.0)
            .unwrap();
        m.add_constraint(lin(&[(x, 1.0), (z, 1.0)]), Sense::Eq, 1.0)
            .unwrap();
        m
    }

    #[test]
    fn mps_has_all_sections() {
        let mps = to_mps(&sample());
        for section in ["NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"] {
            assert!(mps.contains(section), "missing {section}:\n{mps}");
        }
        // Maximize flip recorded, rows typed, markers placed.
        assert!(mps.contains("negated"));
        assert!(mps.contains(" L  R0"));
        assert!(mps.contains(" G  R1"));
        assert!(mps.contains(" E  R2"));
        assert!(mps.contains("'INTORG'"));
        assert!(mps.contains("'INTEND'"));
        // Sanitized name: spaces replaced.
        assert!(mps.contains("take_item_0"));
    }

    #[test]
    fn mps_objective_negated_for_maximize() {
        let mps = to_mps(&sample());
        assert!(mps.contains("take_item_0  COST  -5"), "{mps}");
    }

    #[test]
    fn lp_format_round_structure() {
        let lp = to_lp(&sample());
        assert!(lp.starts_with("Maximize"));
        assert!(lp.contains("Subject To"));
        assert!(lp.contains("R0: 6 take_item_0 + 4 x1 <= 24"));
        assert!(lp.contains("General"));
        assert!(lp.contains("End"));
        // Continuous var with lower bound -1 and no upper.
        assert!(lp.contains("x2 >= -1"));
    }

    #[test]
    fn lp_handles_pure_minimize_no_integers() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0).unwrap();
        m.add_constraint(lin(&[(x, 1.0)]), Sense::Le, 1.0).unwrap();
        let lp = to_lp(&m);
        assert!(lp.starts_with("Minimize"));
        assert!(!lp.contains("General"));
    }

    #[test]
    fn labels_unique_even_with_duplicate_names() {
        let mut m = Model::new();
        let a = m.add_binary(1.0);
        let b = m.add_binary(1.0);
        m.set_var_name(a, "same");
        m.set_var_name(b, "same");
        let mps = to_mps(&m);
        assert!(mps.contains("same_0"));
        assert!(mps.contains("same_1"));
    }
}
