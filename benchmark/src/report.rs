//! What the benchmark prints: one `metric` line per value for people, and
//! the one-line JSON result the contract asks for as the last line of
//! standard output.

use crate::catalog::{self, MetricDef};
use crate::measure::Report;

/// `metric <workload> <name> <value> <unit> [k= min= max=] [bound=]`.
fn metric_line(workload: &str, def: &MetricDef, v: &crate::measure::Value) -> String {
    let mut line = format!("metric {workload} {} {} {}", def.name, v.value, def.unit);
    if let Some(s) = v.spread {
        line += &format!(" k={} min={} max={}", s.k, s.min, s.max);
    }
    if let Some(b) = def.bound {
        line += &format!(" bound={b}");
    }
    line
}

/// Print every value of `report` by name with its unit, then the digest
/// and the checks.
pub fn print_lines(workload: &str, report: &Report) {
    for note in &report.notes {
        println!("# {workload} {note}");
    }
    for v in &report.values {
        let def = catalog::find(v.name).expect("every reported value is a catalog metric");
        println!("{}", metric_line(workload, def, v));
    }
    println!("digest {workload} {:016x}", report.digest);
    println!(
        "checks {workload} attempted={} failed={}",
        report.checks.attempted, report.checks.failed
    );
    for f in &report.checks.failures {
        println!("FAILED {workload}: {f}");
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of `defs` — one that
/// does not apply to this workload reads 0.
pub fn result_json<'a>(
    report: &Report,
    defs: impl Iterator<Item = &'a MetricDef>,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for def in defs {
        let value = report.get(def.name).unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("{} is not a finite number: {value}", def.name));
        }
        metrics
            .push(format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", def.name, def.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checks.failed == 0,
        report.checks.attempted.max(1),
        report.checks.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Value;
    use crate::stats::Spread;
    use crate::workloads::Checks;

    fn report() -> Report {
        Report {
            values: vec![
                Value {
                    name: "wall_s",
                    value: 4.5,
                    spread: Some(Spread { median: 4.5, min: 4.25, max: 5.0, k: 3 }),
                },
                Value { name: "sim_events_per_app_msg", value: 2.125, spread: None },
                Value { name: "storage_stall_s", value: 0.5, spread: None },
            ],
            digest: 0xAB,
            checks: Checks { attempted: 7, failed: 0, failures: Vec::new() },
            notes: Vec::new(),
        }
    }

    #[test]
    fn metric_line_carries_unit_spread_and_bound() {
        let r = report();
        let def = catalog::find("wall_s").expect("catalog");
        let line = metric_line("steady_mesh", def, &r.values[0]);
        assert_eq!(line, "metric steady_mesh wall_s 4.5 s k=3 min=4.25 max=5 bound=0.1");
    }

    #[test]
    fn result_line_lists_every_asked_metric_and_zero_fills() {
        let json = result_json(&report(), catalog::END_TO_END.iter()).expect("finite");
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(json.contains("\"wall_s\": {\"value\": 4.5, \"unit\": \"s\"}"));
        assert!(json.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(
            json.contains("\"sim_events_per_app_msg\": {\"value\": 2.125, \"unit\": \"count\"}")
        );
        assert!(!json.contains("storage_stall_s"));
        let mut bad = report();
        bad.values[0].value = f64::NAN;
        assert!(result_json(&bad, catalog::END_TO_END.iter()).is_err());
    }
}
