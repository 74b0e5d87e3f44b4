//! Perf-regression gate: parse `BENCH_*.json` baselines and compare
//! tracked timing columns against a fresh run.
//!
//! The bench bins write flat JSON of the shape
//!
//! ```json
//! { "suite": "...", "results": [ {"graph": "kings_7x7", "kernel_eval_ns": 1600.0, ...} ] }
//! ```
//!
//! and CI re-runs them with `--baseline <committed json>`: any tracked
//! ns/op column more than [`DEFAULT_TOLERANCE`] above the committed
//! value fails the gate (nonzero exit), and so does a tracked column the
//! run measured but the matching baseline row lacks. The parser below
//! handles exactly this format — flat result objects whose values are
//! numbers or strings (the first string-valued field labels the row) —
//! which keeps the workspace free of a JSON dependency; it is not a
//! general JSON reader.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Allowed slowdown before the gate trips: ratios above
/// `1.0 + DEFAULT_TOLERANCE` are regressions (the ISSUE's 15%).
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// One parsed result row: its label (first string field, e.g.
/// `"graph": "kings_7x7"` or `"workload": "mixed"`) and every numeric
/// column.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Row label used to match baseline and current rows.
    pub label: String,
    /// Numeric columns by field name.
    pub values: BTreeMap<String, f64>,
}

/// One tracked column that got slower than the baseline tolerates.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Row label the column belongs to.
    pub label: String,
    /// Column name.
    pub column: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
}

impl Regression {
    /// Slowdown factor `current / baseline`.
    pub fn ratio(&self) -> f64 {
        self.current / self.baseline
    }
}

/// Extracts the result rows from a bench JSON document.
///
/// # Errors
///
/// Returns a human-readable message when the document has no
/// `"results"` array or a row cannot be scanned.
pub fn parse_rows(json: &str) -> Result<Vec<BenchRow>, String> {
    let start = json
        .find("\"results\"")
        .ok_or("no \"results\" key in baseline JSON")?;
    let rest = &json[start..];
    let open = rest.find('[').ok_or("no results array")?;
    let mut rows = Vec::new();
    let mut chars = rest[open + 1..].char_indices().peekable();
    let body = &rest[open + 1..];
    while let Some((i, c)) = chars.next() {
        match c {
            ']' => return Ok(rows),
            '{' => {
                let close = body[i..]
                    .find('}')
                    .map(|j| i + j)
                    .ok_or("unterminated result object")?;
                rows.push(parse_row(&body[i + 1..close])?);
                while let Some(&(j, _)) = chars.peek() {
                    if j <= close {
                        chars.next();
                    } else {
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    Err("unterminated results array".to_string())
}

/// Scans one flat `"key": value, ...` object body.
fn parse_row(body: &str) -> Result<BenchRow, String> {
    let mut label = None;
    let mut values = BTreeMap::new();
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let after_key = &rest[q + 1..];
        let endq = after_key
            .find('"')
            .ok_or_else(|| format!("unterminated key in row: {body:?}"))?;
        let key = &after_key[..endq];
        let after = &after_key[endq + 1..];
        let colon = after
            .find(':')
            .ok_or_else(|| format!("missing ':' after {key:?}"))?;
        let value = after[colon + 1..].trim_start();
        if let Some(stripped) = value.strip_prefix('"') {
            let vend = stripped
                .find('"')
                .ok_or_else(|| format!("unterminated string value for {key:?}"))?;
            if label.is_none() {
                label = Some(stripped[..vend].to_string());
            }
            rest = &stripped[vend + 1..];
        } else {
            let vend = value
                .find([',', '}'])
                .unwrap_or(value.len())
                .min(value.len());
            let num: f64 = value[..vend]
                .trim()
                .parse()
                .map_err(|_| format!("non-numeric value for {key:?}: {:?}", &value[..vend]))?;
            values.insert(key.to_string(), num);
            rest = &value[vend..];
        }
    }
    Ok(BenchRow {
        label: label.unwrap_or_default(),
        values,
    })
}

/// Every tracked `(label, column, baseline, current)` value pair: rows
/// matched by label, columns by name.
///
/// Rows only one side has are skipped, so `--quick` runs compare the
/// subset they measured, and so are tracked columns the current row did
/// not measure.
///
/// # Errors
///
/// Names the row and column when the current row measured a tracked
/// column that its baseline row lacks: a baseline edit that drops a
/// key must not ungate that column silently.
fn tracked_pairs<'a>(
    current: &'a [BenchRow],
    baseline: &[BenchRow],
    tracked: &[&'a str],
) -> Result<Vec<(&'a str, &'a str, f64, f64)>, String> {
    let mut out = Vec::new();
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.label == cur.label) else {
            continue;
        };
        for &col in tracked {
            let Some(&c) = cur.values.get(col) else {
                continue;
            };
            let Some(&b) = base.values.get(col) else {
                return Err(format!(
                    "baseline row {:?} lacks tracked column {col:?} that the current run measured",
                    cur.label
                ));
            };
            out.push((cur.label.as_str(), col, b, c));
        }
    }
    Ok(out)
}

/// Compares `current` against `baseline` on the `tracked` columns.
///
/// Rows are matched by label and columns by name; rows present on only
/// one side are skipped (so `--quick` runs compare the subset they
/// measured). A column regresses when
/// `current > baseline * (1 + tolerance)`.
///
/// # Errors
///
/// When a matched baseline row lacks a tracked column the current row
/// measured.
pub fn find_regressions(
    current: &[BenchRow],
    baseline: &[BenchRow],
    tracked: &[&str],
    tolerance: f64,
) -> Result<Vec<Regression>, String> {
    Ok(tracked_pairs(current, baseline, tracked)?
        .into_iter()
        .filter(|&(_, _, b, c)| b > 0.0 && c > b * (1.0 + tolerance))
        .map(|(label, column, baseline, current)| Regression {
            label: label.to_string(),
            column: column.to_string(),
            baseline,
            current,
        })
        .collect())
}

/// The whole gate: parses both documents, prints a per-column
/// comparison, and returns `Err` with a summary when any tracked column
/// regressed beyond `tolerance`.
///
/// # Errors
///
/// Returns a printable report of every regression, a parse error, or
/// the missing-column error of [`find_regressions`].
pub fn enforce_gate(
    current_json: &str,
    baseline_json: &str,
    tracked: &[&str],
    tolerance: f64,
) -> Result<String, String> {
    let current = parse_rows(current_json)?;
    let baseline = parse_rows(baseline_json)?;
    let pairs = tracked_pairs(&current, &baseline, tracked)?;
    if pairs.is_empty() {
        return Err("baseline gate compared 0 columns — label/column mismatch?".to_string());
    }
    let mut table = String::new();
    for (label, col, b, c) in pairs {
        let _ = writeln!(
            table,
            "  {:<14} {:<32} base {:>12.2}  now {:>12.2}  ({:+6.1}%)",
            label,
            col,
            b,
            c,
            (c / b - 1.0) * 100.0,
        );
    }
    let regressions = find_regressions(&current, &baseline, tracked, tolerance)?;
    if regressions.is_empty() {
        Ok(table)
    } else {
        let mut msg = table;
        let _ = writeln!(
            msg,
            "PERF REGRESSION: {} tracked column(s) > {:.0}% over baseline:",
            regressions.len(),
            tolerance * 100.0
        );
        for r in &regressions {
            let _ = writeln!(
                msg,
                "  {} / {}: {:.2} -> {:.2} ({:.2}x)",
                r.label,
                r.column,
                r.baseline,
                r.current,
                r.ratio()
            );
        }
        Err(msg)
    }
}

/// Default output location shared by the bench bins: `file_name` at the
/// workspace root (two levels above this crate's manifest). Resolved at
/// *runtime* where possible — the compile-time manifest path is only a
/// fallback, so a relocated binary or moved checkout degrades to the
/// current directory instead of panicking on a stale absolute path.
pub fn default_out_path(file_name: &str) -> String {
    let candidates = [
        std::env::var("CARGO_MANIFEST_DIR")
            .ok()
            .map(|d| format!("{d}/../../{file_name}")),
        Some(format!("{}/../../{file_name}", env!("CARGO_MANIFEST_DIR"))),
    ];
    for c in candidates.into_iter().flatten() {
        if std::path::Path::new(&c)
            .parent()
            .is_some_and(|p| p.is_dir())
        {
            return c;
        }
    }
    file_name.to_string()
}

/// The bins' `--baseline` epilogue: reads `baseline_path`, runs
/// [`enforce_gate`] at [`DEFAULT_TOLERANCE`], prints the comparison, and
/// exits the process nonzero on a regression (or unreadable/mismatched
/// baseline).
pub fn enforce_gate_cli(current_json: &str, baseline_path: &str, tracked: &[&str]) {
    let base = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to read baseline {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    match enforce_gate(current_json, &base, tracked, DEFAULT_TOLERANCE) {
        Ok(table) => println!("perf gate vs {baseline_path}: OK\n{table}"),
        Err(msg) => {
            eprintln!("perf gate vs {baseline_path}: FAILED\n{msg}");
            eprintln!(
                "If this slowdown is intentional (or the baseline is stale), regenerate \
                 every committed BENCH_*.json with scripts/refresh_baselines.sh and commit \
                 the result alongside the change."
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "suite": "phase_step",
  "unix_time": 123,
  "sin_tier": "Avx512",
  "results": [
    {"graph": "kings_7x7", "nodes": 49, "kernel_eval_ns": 1000.0, "batch_eval_ns_per_replica": 800.5},
    {"graph": "kings_20x20", "nodes": 400, "kernel_eval_ns": 14000.0, "batch_eval_ns_per_replica": 11000.0}
  ]
}"#;

    #[test]
    fn parses_labels_and_numeric_columns() {
        let rows = parse_rows(SAMPLE).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "kings_7x7");
        assert_eq!(rows[0].values["kernel_eval_ns"], 1000.0);
        assert_eq!(rows[1].values["batch_eval_ns_per_replica"], 11000.0);
        // Non-tracked numeric fields are still available.
        assert_eq!(rows[1].values["nodes"], 400.0);
        // Top-level keys such as the sine tier label no row.
        assert!(rows.iter().all(|r| !r.values.contains_key("sin_tier")));
    }

    #[test]
    fn regression_detection_honors_tolerance() {
        let baseline = parse_rows(SAMPLE).unwrap();
        let faster = SAMPLE.replace("1000.0", "900.0");
        let current = parse_rows(&faster).unwrap();
        assert!(
            find_regressions(&current, &baseline, &["kernel_eval_ns"], 0.15)
                .unwrap()
                .is_empty()
        );

        let slower = SAMPLE.replace("\"kernel_eval_ns\": 1000.0", "\"kernel_eval_ns\": 1200.0");
        let current = parse_rows(&slower).unwrap();
        let regs = find_regressions(&current, &baseline, &["kernel_eval_ns"], 0.15).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].label, "kings_7x7");
        assert!((regs[0].ratio() - 1.2).abs() < 1e-12);
        // Inside tolerance: 1.10x is fine at 15%.
        let mild = SAMPLE.replace("\"kernel_eval_ns\": 1000.0", "\"kernel_eval_ns\": 1100.0");
        let current = parse_rows(&mild).unwrap();
        assert!(
            find_regressions(&current, &baseline, &["kernel_eval_ns"], 0.15)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn quick_runs_compare_the_row_subset() {
        let baseline = parse_rows(SAMPLE).unwrap();
        let quick = r#"{"results": [{"graph": "kings_7x7", "kernel_eval_ns": 1001.0}]}"#;
        let current = parse_rows(quick).unwrap();
        assert!(
            find_regressions(&current, &baseline, &["kernel_eval_ns"], 0.15)
                .unwrap()
                .is_empty()
        );
        let report = enforce_gate(quick, SAMPLE, &["kernel_eval_ns"], 0.15).unwrap();
        assert!(report.contains("kings_7x7"));
        assert!(!report.contains("kings_20x20"));
    }

    #[test]
    fn gate_fails_loudly_on_mismatched_documents() {
        let err = enforce_gate(
            r#"{"results": [{"graph": "other", "x": 1.0}]}"#,
            SAMPLE,
            &["kernel_eval_ns"],
            0.15,
        )
        .unwrap_err();
        assert!(err.contains("0 columns"));
        assert!(parse_rows("{}").is_err());
    }

    #[test]
    fn baseline_missing_a_measured_column_is_an_error() {
        // The baseline's 20x20 row lost its kernel_eval_ns key.
        let edited = SAMPLE.replace("\"kernel_eval_ns\": 14000.0, ", "");
        let baseline = parse_rows(&edited).unwrap();
        let current = parse_rows(SAMPLE).unwrap();
        let err = find_regressions(&current, &baseline, &["kernel_eval_ns"], 0.15).unwrap_err();
        assert!(err.contains("kings_20x20"), "{err}");
        assert!(err.contains("kernel_eval_ns"), "{err}");
        let err = enforce_gate(SAMPLE, &edited, &["kernel_eval_ns"], 0.15).unwrap_err();
        assert!(err.contains("kings_20x20") && err.contains("kernel_eval_ns"));
        // A quick run that never measured that row still passes.
        let quick = r#"{"results": [{"graph": "kings_7x7", "kernel_eval_ns": 1001.0}]}"#;
        assert!(enforce_gate(quick, &edited, &["kernel_eval_ns"], 0.15).is_ok());
    }

    #[test]
    fn gate_reports_every_regressed_column() {
        let slower = SAMPLE
            .replace("\"kernel_eval_ns\": 1000.0", "\"kernel_eval_ns\": 2000.0")
            .replace(
                "\"batch_eval_ns_per_replica\": 800.5",
                "\"batch_eval_ns_per_replica\": 1800.5",
            );
        let err = enforce_gate(
            &slower,
            SAMPLE,
            &["kernel_eval_ns", "batch_eval_ns_per_replica"],
            0.15,
        )
        .unwrap_err();
        assert!(err.contains("PERF REGRESSION"));
        assert!(err.contains("kernel_eval_ns"));
        assert!(err.contains("batch_eval_ns_per_replica"));
    }
}
