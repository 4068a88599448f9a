//! Output: the human-readable metric table, the one-line result object the
//! driver reads, and the detailed results JSON. No JSON dependency: the
//! values are numbers and a few plain strings.

use std::fmt::Write as _;

use crate::harness::Metric;

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with all its digits (never a rounded time).
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "every reported metric is a finite number");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// `name value unit (samples, min–max, IQR)` lines, one per metric.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        let s = &m.summary;
        println!(
            "{workload:<14} {:<34} {:>16.4} {:<7} n={:<6} min={:.4} q1={:.4} q3={:.4} max={:.4}",
            m.name, s.median, m.unit, s.samples, s.min, s.q1, s.q3, s.max
        );
    }
}

/// The driver's contract: the last line of standard output.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.summary.median),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Detailed JSON of one run of one workload: every metric with median, min,
/// max, IQR and sample count.
pub fn detailed_json(
    workload: &str,
    seed: u64,
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let s = &m.summary;
            format!(
                "    {}: {{\"unit\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \"q1\": {}, \"q3\": {}, \"iqr\": {}, \"samples\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_number(s.median),
                json_number(s.min),
                json_number(s.max),
                json_number(s.q1),
                json_number(s.q3),
                json_number(s.iqr()),
                s.samples
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {}, \"seed\": {seed}, \"traced\": {traced},\n  \"attempted\": {attempted}, \"failed\": {failed}, \"fail_ratio\": {},\n  \"metrics\": {{\n{}\n  }}\n}}",
        json_string(workload),
        json_number(crate::stats::ratio(failed as f64, attempted as f64)),
        body.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1.203_456_789), "1.203456789");
        assert_eq!(json_number(0.0), "0.0");
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let m = [Metric::new("setup_s", "s", Summary::exact(0.5, 3))];
        assert_eq!(
            contract_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
