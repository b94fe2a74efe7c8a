//! Prometheus text-format (exposition format v0.0.4) rendering.
//!
//! `repro attrib <study> --metrics-out <file.prom>` writes the final
//! [`MetricsSnapshot`] plus the run's
//! attribution [`Ledger`] in the plain-text format
//! every Prometheus-compatible scraper understands, so external tooling
//! can ingest simulator runs without parsing our JSONL traces.
//!
//! Only the subset of the format we need is implemented: `# HELP` /
//! `# TYPE` headers, `counter`, `gauge` and `histogram` types, and
//! `{label="value"}` label sets. Metric names are sanitized to
//! `[a-zA-Z0-9_:]` (the registry's `"tpot_secs/p50"` becomes
//! `tpot_secs_p50`); label *values* are escaped per the exposition spec
//! (`\` → `\\`, `"` → `\"`, newline → `\n`).

use core::fmt::Write as _;

use crate::attrib::{Ledger, Region};
use crate::hist::LogHistogram;
use crate::telemetry::MetricsSnapshot;

/// Replaces every character outside Prometheus's metric-name alphabet
/// with `_`, and prefixes a `_` if the name starts with a digit.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        let ok = ch.is_ascii_alphanumeric() || ch == '_' || ch == ':';
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { ch } else { '_' });
    }
    out
}

/// Escapes a label *value* per the text-exposition spec: backslash,
/// double-quote and newline must be escaped inside `label="value"`; every
/// other byte passes through untouched.
#[must_use]
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a metrics snapshot: every counter as a `counter` metric, every
/// gauge as a `gauge`, plus `aum_snapshot_sim_seconds` marking when the
/// snapshot was taken.
#[must_use]
pub fn render_registry(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP aum_snapshot_sim_seconds Simulated time of this metrics snapshot."
    );
    let _ = writeln!(out, "# TYPE aum_snapshot_sim_seconds gauge");
    let _ = writeln!(
        out,
        "aum_snapshot_sim_seconds {}",
        fmt_f64(snapshot.at.as_secs_f64())
    );
    for (name, value) in snapshot.counters.iter() {
        let metric = sanitize_name(name);
        let _ = writeln!(
            out,
            "# HELP {metric} Counter `{name}` from the AUM metrics registry."
        );
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    for (name, value) in snapshot.gauges.iter() {
        let metric = sanitize_name(name);
        let _ = writeln!(
            out,
            "# HELP {metric} Gauge `{name}` from the AUM metrics registry."
        );
        let _ = writeln!(out, "# TYPE {metric} gauge");
        let _ = writeln!(out, "{metric} {}", fmt_f64(*value));
    }
    out
}

/// Renders a family of per-node metrics snapshots as `node`-labeled
/// series: each registry metric renders as `aum_node_<name>` with one
/// `# HELP`/`# TYPE` header per family, followed by one
/// `{node="<label>"}` row per node that carries it, plus
/// `aum_node_snapshot_sim_seconds{node=...}` rows marking each
/// snapshot's time. Node labels come from config strings and are escaped
/// via [`escape_label_value`].
#[must_use]
pub fn render_node_registries(series: &[(String, &MetricsSnapshot)]) -> String {
    use std::collections::BTreeSet;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP aum_node_snapshot_sim_seconds Simulated time of each node's metrics snapshot."
    );
    let _ = writeln!(out, "# TYPE aum_node_snapshot_sim_seconds gauge");
    for (node, snapshot) in series {
        let _ = writeln!(
            out,
            "aum_node_snapshot_sim_seconds{{node=\"{}\"}} {}",
            escape_label_value(node),
            fmt_f64(snapshot.at.as_secs_f64())
        );
    }
    let counter_names: BTreeSet<&String> =
        series.iter().flat_map(|(_, s)| s.counters.keys()).collect();
    for name in counter_names {
        let metric = format!("aum_node_{}", sanitize_name(name));
        let _ = writeln!(
            out,
            "# HELP {metric} Counter `{name}` from the per-node AUM metrics registries."
        );
        let _ = writeln!(out, "# TYPE {metric} counter");
        for (node, snapshot) in series {
            if let Some(value) = snapshot.counters.get(name.as_str()) {
                let _ = writeln!(
                    out,
                    "{metric}{{node=\"{}\"}} {value}",
                    escape_label_value(node)
                );
            }
        }
    }
    let gauge_names: BTreeSet<&String> = series.iter().flat_map(|(_, s)| s.gauges.keys()).collect();
    for name in gauge_names {
        let metric = format!("aum_node_{}", sanitize_name(name));
        let _ = writeln!(
            out,
            "# HELP {metric} Gauge `{name}` from the per-node AUM metrics registries."
        );
        let _ = writeln!(out, "# TYPE {metric} gauge");
        for (node, snapshot) in series {
            if let Some(value) = snapshot.gauges.get(name.as_str()) {
                let _ = writeln!(
                    out,
                    "{metric}{{node=\"{}\"}} {}",
                    escape_label_value(node),
                    fmt_f64(*value)
                );
            }
        }
    }
    out
}

/// Renders an attribution ledger as whole-run totals:
/// `aum_attrib_seconds_total{region,cause}` and
/// `aum_attrib_joules_total{region,cause}` rows for every non-zero cell,
/// plus `aum_attrib_wall_seconds` and `aum_attrib_energy_joules`
/// conservation targets.
#[must_use]
pub fn render_ledger(ledger: &Ledger) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP aum_attrib_wall_seconds Wall time covered by the attribution ledger."
    );
    let _ = writeln!(out, "# TYPE aum_attrib_wall_seconds gauge");
    let _ = writeln!(
        out,
        "aum_attrib_wall_seconds {}",
        fmt_f64(ledger.wall_secs())
    );
    let _ = writeln!(
        out,
        "# HELP aum_attrib_energy_joules Modeled package energy covered by the attribution ledger."
    );
    let _ = writeln!(out, "# TYPE aum_attrib_energy_joules gauge");
    let _ = writeln!(
        out,
        "aum_attrib_energy_joules {}",
        fmt_f64(ledger.energy_j())
    );

    let _ = writeln!(
        out,
        "# HELP aum_attrib_seconds_total Attributed seconds by region and cause."
    );
    let _ = writeln!(out, "# TYPE aum_attrib_seconds_total counter");
    for region in Region::ALL {
        for (cause, secs) in ledger.region_time(region).iter() {
            if secs != 0.0 {
                let _ = writeln!(
                    out,
                    "aum_attrib_seconds_total{{region=\"{}\",cause=\"{}\"}} {}",
                    escape_label_value(region.label()),
                    escape_label_value(cause.label()),
                    fmt_f64(secs)
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "# HELP aum_attrib_joules_total Attributed joules by region and cause."
    );
    let _ = writeln!(out, "# TYPE aum_attrib_joules_total counter");
    for region in Region::ALL {
        for (cause, joules) in ledger.region_energy(region).iter() {
            if joules != 0.0 {
                let _ = writeln!(
                    out,
                    "aum_attrib_joules_total{{region=\"{}\",cause=\"{}\"}} {}",
                    escape_label_value(region.label()),
                    escape_label_value(cause.label()),
                    fmt_f64(joules)
                );
            }
        }
    }
    out
}

/// Renders a [`LogHistogram`] as a Prometheus `histogram`: cumulative
/// `<name>_bucket{le="..."}` rows at each occupied bucket's upper bound
/// (plus the mandatory `le="+Inf"`), then `<name>_sum` and `<name>_count`.
///
/// `labels` are attached to every row; values are escaped via
/// [`escape_label_value`]. Only occupied buckets emit a row — with fixed
/// log-linear boundaries the cumulative reading is unaffected and the
/// exposition stays proportional to occupancy, not the 4096-bucket grid.
#[must_use]
pub fn render_histogram(
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    h: &LogHistogram,
) -> String {
    let metric = sanitize_name(name);
    let rendered: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label_value(v)))
        .collect();
    // Label set with `le` appended, and without (for _sum/_count).
    let with_le = |le: &str| {
        let mut parts = rendered.clone();
        parts.push(format!("le=\"{le}\""));
        format!("{{{}}}", parts.join(","))
    };
    let bare = if rendered.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", rendered.join(","))
    };
    let mut out = String::new();
    let _ = writeln!(out, "# HELP {metric} {help}");
    let _ = writeln!(out, "# TYPE {metric} histogram");
    let mut cumulative = h.underflow();
    if cumulative > 0 {
        let le = with_le(&fmt_f64(crate::hist::min_value()));
        let _ = writeln!(out, "{metric}_bucket{le} {cumulative}");
    }
    for (idx, count) in h.nonzero_buckets() {
        cumulative += count;
        let (_, hi) = LogHistogram::bucket_bounds(idx);
        let le = with_le(&fmt_f64(hi));
        let _ = writeln!(out, "{metric}_bucket{le} {cumulative}");
    }
    let le = with_le("+Inf");
    let _ = writeln!(out, "{metric}_bucket{le} {}", h.count());
    let _ = writeln!(out, "{metric}_sum{bare} {}", fmt_f64(h.sum()));
    let _ = writeln!(out, "{metric}_count{bare} {}", h.count());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrib::{IntervalLedger, RegionSample, WorkFractions};
    use crate::time::SimTime;

    #[test]
    fn sanitize_maps_slashes_and_leading_digits() {
        assert_eq!(sanitize_name("tpot_secs/p50"), "tpot_secs_p50");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn label_values_escape_backslash_quote_and_newline() {
        // A pathological value exercising every escape the exposition
        // format requires, plus characters that must pass through.
        let pathological = "C:\\temp\\\"quoted\"\nnext λ";
        assert_eq!(
            escape_label_value(pathological),
            "C:\\\\temp\\\\\\\"quoted\\\"\\nnext λ"
        );
        assert_eq!(escape_label_value("plain"), "plain");
        // Escaped output never contains a raw quote or newline that would
        // terminate the label value early.
        let escaped = escape_label_value(pathological);
        assert!(!escaped.contains('\n'));
        let mut chars = escaped.chars().peekable();
        let mut prev_backslash = false;
        for ch in &mut chars {
            if ch == '"' {
                assert!(prev_backslash, "unescaped quote in {escaped:?}");
            }
            prev_backslash = ch == '\\' && !prev_backslash;
        }
    }

    #[test]
    fn histogram_rendering_is_cumulative_with_sum_and_count() {
        let h: LogHistogram = [0.01, 0.01, 0.5, 3.0, 1e-9].iter().copied().collect();
        let text = render_histogram(
            "aum_ttft_seconds",
            "TTFT distribution.",
            &[("scheme", "aum"), ("odd", "a\"b\nc\\d")],
            &h,
        );
        assert!(text.contains("# TYPE aum_ttft_seconds histogram"));
        // Escaped label value appears on every row.
        assert!(text.contains("odd=\"a\\\"b\\nc\\\\d\""));
        // Cumulative counts end at the total on +Inf.
        assert!(text.contains("le=\"+Inf\"}} 5") || text.contains("le=\"+Inf\"} 5"));
        assert!(text.contains("aum_ttft_seconds_count{scheme=\"aum\",odd="));
        assert!(text.contains("aum_ttft_seconds_sum{"));
        // Cumulative monotonicity across the _bucket rows.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-cumulative bucket row: {line}");
            last = v;
        }
        assert_eq!(last, 5);

        // Unlabelled histograms omit the empty brace set on _sum/_count.
        let bare = render_histogram("x", "h", &[], &h);
        assert!(bare.contains("\nx_sum "));
        assert!(bare.contains("\nx_count 5"));
    }

    #[test]
    fn registry_rendering_has_headers_and_rows() {
        let mut registry = crate::telemetry::MetricsRegistry::new();
        registry.counter_add("decisions", 3);
        registry.gauge_set("tpot_secs/p50", 0.031);
        let snap = registry.snapshot(SimTime::from_secs(2));
        let text = render_registry(&snap);
        assert!(text.contains("# TYPE decisions counter"));
        assert!(text.contains("decisions 3"));
        assert!(text.contains("# TYPE tpot_secs_p50 gauge"));
        assert!(text.contains("tpot_secs_p50 0.031"));
        assert!(text.contains("aum_snapshot_sim_seconds 2"));
    }

    #[test]
    fn node_registries_render_labeled_series_under_shared_headers() {
        let mut a = crate::telemetry::MetricsRegistry::new();
        a.counter_add("completed", 10);
        a.counter_add("redispatched", 2);
        a.gauge_set("health_factor", 1.0);
        let mut b = crate::telemetry::MetricsRegistry::new();
        b.counter_add("completed", 7);
        let snap_a = a.snapshot(SimTime::from_secs(3));
        let snap_b = b.snapshot(SimTime::from_secs(3));
        let text = render_node_registries(&[
            ("node0/GenA".to_string(), &snap_a),
            ("node1/GenB".to_string(), &snap_b),
        ]);
        assert!(text.contains("aum_node_completed{node=\"node0/GenA\"} 10"));
        assert!(text.contains("aum_node_completed{node=\"node1/GenB\"} 7"));
        assert!(text.contains("aum_node_redispatched{node=\"node0/GenA\"} 2"));
        // A metric absent on a node emits no row rather than a zero.
        assert!(!text.contains("aum_node_redispatched{node=\"node1/GenB\"}"));
        assert!(text.contains("aum_node_health_factor{node=\"node0/GenA\"} 1"));
        // Shared headers: exactly one TYPE line per metric family.
        let type_lines = text
            .lines()
            .filter(|l| *l == "# TYPE aum_node_completed counter")
            .count();
        assert_eq!(type_lines, 1);
        assert!(text.contains("aum_node_snapshot_sim_seconds{node=\"node0/GenA\"} 3"));
    }

    #[test]
    fn node_labels_from_config_strings_are_escaped() {
        // Node labels come from config strings, so the registry renderer
        // must survive the same pathological values the histogram path
        // already escapes: `"`, `\`, and newlines.
        let mut reg = crate::telemetry::MetricsRegistry::new();
        reg.counter_add("completed", 1);
        reg.gauge_set("health_factor", 0.5);
        let snap = reg.snapshot(SimTime::from_secs(1));
        let hostile = "node\"0\\weird\nname";
        let text = render_node_registries(&[(hostile.to_string(), &snap)]);
        // The raw hostile bytes never appear unescaped.
        assert!(!text.contains(hostile));
        assert!(text.contains("aum_node_completed{node=\"node\\\"0\\\\weird\\nname\"} 1"));
        assert!(text.contains("aum_node_health_factor{node=\"node\\\"0\\\\weird\\nname\"} 0.5"));
        // No sample line is split by a raw newline from the label value:
        // every non-comment line ends in a value that parses as a number.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "line broken by unescaped label: {line:?}"
            );
        }
    }

    #[test]
    fn ledger_rendering_labels_regions_and_causes() {
        let sample = RegionSample {
            region: crate::attrib::Region::AuHigh,
            busy_frac: 1.0,
            freq_ghz: 3.2,
            unlicensed_ghz: 3.2,
            thermal_drop_ghz: 0.0,
            work: WorkFractions {
                compute: 0.5,
                dram: 0.5,
                ..Default::default()
            },
            static_j: 5.0,
            dynamic_j: 15.0,
            shed: false,
        };
        let ledger = Ledger {
            intervals: vec![IntervalLedger::build(SimTime::ZERO, 1.0, 20.0, &[sample])],
        };
        let text = render_ledger(&ledger);
        assert!(text.contains("aum_attrib_seconds_total{region=\"au-high\",cause=\"compute\"} 0.5"));
        assert!(
            text.contains("aum_attrib_seconds_total{region=\"au-high\",cause=\"mem-dram\"} 0.5")
        );
        assert!(text.contains("aum_attrib_joules_total{region=\"au-high\",cause=\"compute\"}"));
        assert!(text.contains("aum_attrib_wall_seconds 1"));
        assert!(text.contains("aum_attrib_energy_joules 20"));
        // zero cells are suppressed
        assert!(!text.contains("cause=\"safe-mode-shed\""));
    }
}
