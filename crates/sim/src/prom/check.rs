//! An exposition checker for tests. Every text the `prom` writer
//! produces must pass it; `aum-bench` includes this file for its fleet
//! exposition.

use std::collections::{HashMap, HashSet};

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// Checks that `text` keeps the exposition format's rules:
///
/// - each sample belongs to the family whose `# HELP` and `# TYPE` came
///   last, so a family's header precedes its samples and its samples sit
///   together;
/// - no `# HELP` or `# TYPE` header repeats, and each `# TYPE` follows its
///   family's `# HELP`;
/// - a family named `*_total` is a counter;
/// - every value parses as a number;
/// - a histogram's `_bucket` rows are cumulative per label set and end
///   at `le="+Inf"` with its `_count`.
///
/// Blank lines are skipped.
pub fn check_exposition(text: &str) -> Result<(), String> {
    let mut helped = HashSet::new();
    let mut typed = HashSet::new();
    let mut current: Option<(&str, &str)> = None;
    // Per histogram series (its name and labels without `le`): the last
    // cumulative count and whether it was the `+Inf` row.
    let mut buckets: HashMap<String, (u64, bool)> = HashMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or_default();
            ensure!(helped.insert(name), "repeated HELP: {line}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap_or((rest, ""));
            ensure!(helped.contains(name), "TYPE before HELP: {line}");
            ensure!(typed.insert(name), "repeated TYPE: {line}");
            ensure!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown type: {line}"
            );
            ensure!(
                kind == "counter" || !name.ends_with("_total"),
                "a _total family that is not a counter: {line}"
            );
            current = Some((name, kind));
            continue;
        }
        ensure!(!line.starts_with('#'), "unknown comment: {line}");
        let Some((series, value)) = line.rsplit_once(' ') else {
            return Err(format!("sample without a value: {line}"));
        };
        ensure!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        let name = series.split('{').next().unwrap_or_default();
        let Some((family, kind)) = current else {
            return Err(format!("sample before any header: {line}"));
        };
        if kind != "histogram" {
            ensure!(name == family, "sample outside its family: {line}");
            continue;
        }
        let labels = &series[name.len()..];
        match name.strip_prefix(family) {
            Some("_bucket") => {
                let count: u64 = value.parse().map_err(|_| format!("bucket count: {line}"))?;
                let Some(le) = labels.rfind("le=\"") else {
                    return Err(format!("bucket without le: {line}"));
                };
                let key = format!("{family}{}", labels[..le].trim_end_matches(['{', ',']));
                let (last, _) = buckets.get(&key).copied().unwrap_or_default();
                ensure!(count >= last, "non-cumulative bucket: {line}");
                buckets.insert(key, (count, labels.ends_with("le=\"+Inf\"}")));
            }
            Some("_sum") => {}
            Some("_count") => {
                let count: u64 = value.parse().map_err(|_| format!("count: {line}"))?;
                let key = format!("{family}{}", labels.trim_end_matches('}'));
                ensure!(
                    buckets.get(&key) == Some(&(count, true)),
                    "buckets do not end at +Inf with the count: {line}"
                );
            }
            _ => return Err(format!("sample outside its family: {line}")),
        }
    }
    Ok(())
}
