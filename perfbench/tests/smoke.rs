//! Short-mode smoke: every workload runs briefly, every oracle passes, and
//! every metric `BENCHMARK.json` names is emitted with its unit.

use std::process::Command;

/// `(name, unit)` pairs of one metric list (`end_to_end` or `per_layer`)
/// of `BENCHMARK.json`, read without a JSON parser: the list's objects
/// are the only ones in its section with a `"unit"` key.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = doc.find(&format!("\"{section}\"")).expect("metric list present");
    let rest = &doc[start..];
    let end = rest[1..].find("\n  \"").map_or(rest.len(), |i| i + 1);
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(obj[at..].split('"').next()?.to_string())
    };
    rest[..end]
        .split('{')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

fn run_all(trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "all", "--seed", "7", "--seconds", "0.5", "--trace", trace])
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "benchmark failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn check(trace: &str, section: &str) {
    let stdout = run_all(trace);
    let wanted = listed(section);
    assert!(!wanted.is_empty(), "{section} lists metrics");
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with("{\"correct\"")).collect();
    // One result line per workload, then the summary.
    assert_eq!(results.len(), 5, "{stdout}");
    for line in &results {
        assert!(line.starts_with("{\"correct\": true,"), "an oracle failed: {line}");
        assert!(line.contains("\"failed\": 0,"), "an operation failed: {line}");
    }
    for line in &results[..4] {
        for (name, unit) in &wanted {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = line.find(&entry).unwrap_or_else(|| panic!("{name} missing: {line}"));
            let obj = line[at + entry.len()..].split('}').next().unwrap_or_default();
            assert!(obj.ends_with(&format!("\"unit\": \"{unit}\"")), "{name} lacks unit {unit}");
        }
    }
    assert_eq!(stdout.lines().last(), results.last().copied(), "the summary is the last line");
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    check("0", "end_to_end");
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    check("1", "per_layer");
}
