//! Prometheus text-format (exposition format v0.0.4) rendering.
//!
//! Every exposition the reproduction publishes goes through one writer:
//! [`family`] writes a metric family's `# HELP`/`# TYPE` pair, [`sample`]
//! writes one `name{label="value",…} value` line, and [`gauge`] and
//! [`counter`] write a family that holds one unlabeled sample. The
//! `render_*` functions below, the live endpoint's run-health families
//! ([`crate::live`]) and fleet-chaos's per-cell exposition are all built
//! from these four.
//!
//! `repro attrib <study> --metrics-out <file.prom>` writes the final
//! [`MetricsSnapshot`] plus the run's attribution [`Ledger`] in the
//! plain-text format every Prometheus-compatible scraper understands, so
//! external tooling can ingest simulator runs without parsing our JSONL
//! traces.
//!
//! Only the subset of the format we need is implemented: `counter`,
//! `gauge` and `histogram` families and `{label="value"}` label sets.
//! Metric names are sanitized to `[a-zA-Z0-9_:]` (the snapshot's
//! `"tpot_secs/p50"` becomes `tpot_secs_p50`); label keys are literals;
//! label *values* are escaped per the exposition spec (`\` → `\\`,
//! `"` → `\"`, newline → `\n`). Integer values print through `Display`,
//! floats through [`fmt_f64`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::attrib::{CauseVec, Ledger, Region};
use crate::hist::LogHistogram;
use crate::telemetry::MetricsSnapshot;

/// A metric family's type, as its `# TYPE` line names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic total.
    Counter,
    /// An instantaneous value.
    Gauge,
    /// Cumulative `_bucket` rows plus `_sum` and `_count`.
    Histogram,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A sample value: an integer prints through `Display`, a float through
/// [`fmt_f64`].
pub trait Value: Copy {
    /// Appends the value as the exposition spells it.
    fn write(self, out: &mut String);
}

impl Value for u64 {
    fn write(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Value for f64 {
    fn write(self, out: &mut String) {
        out.push_str(&fmt_f64(self));
    }
}

/// Writes the `# HELP`/`# TYPE` pair that opens metric family `name`.
pub fn family(out: &mut String, name: &str, kind: Kind, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {}", kind.label());
}

/// Writes one sample line, `name{key="value",…} value`, escaping each
/// label value; an empty label set writes no braces.
pub fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: impl Value) {
    out.push_str(name);
    for (i, (key, v)) in labels.iter().enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        let _ = write!(out, "{key}=\"{}\"", escape_label_value(v));
    }
    if !labels.is_empty() {
        out.push('}');
    }
    out.push(' ');
    value.write(out);
    out.push('\n');
}

/// Writes a gauge family that holds one unlabeled sample.
pub fn gauge(out: &mut String, name: &str, help: &str, value: impl Value) {
    family(out, name, Kind::Gauge, help);
    sample(out, name, &[], value);
}

/// Writes a counter family that holds one unlabeled sample. A family
/// named `*_total` is a counter.
pub fn counter(out: &mut String, name: &str, help: &str, value: impl Value) {
    family(out, name, Kind::Counter, help);
    sample(out, name, &[], value);
}

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
fn escape_label_value(value: &str) -> String {
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

/// A float as the exposition spells it: `NaN`, `+Inf`, `-Inf`, else
/// `Display`.
#[must_use]
pub fn fmt_f64(v: f64) -> String {
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
    gauge(
        &mut out,
        "aum_snapshot_sim_seconds",
        "Simulated time of this metrics snapshot.",
        snapshot.at.as_secs_f64(),
    );
    for (name, &value) in snapshot.counters.iter() {
        let help = format!("Counter `{name}` from the AUM metrics registry.");
        counter(&mut out, &sanitize_name(name), &help, value);
    }
    for (name, &value) in snapshot.gauges.iter() {
        let help = format!("Gauge `{name}` from the AUM metrics registry.");
        gauge(&mut out, &sanitize_name(name), &help, value);
    }
    out
}

/// Renders a family of per-node metrics snapshots as `node`-labeled
/// series: each snapshot metric renders as `aum_node_<name>` with one
/// `# HELP`/`# TYPE` header per family, followed by one
/// `{node="<label>"}` row per node that carries it, plus
/// `aum_node_snapshot_sim_seconds{node=...}` rows marking each
/// snapshot's time. Node labels come from config strings and are escaped
/// like every label value.
#[must_use]
pub fn render_node_registries(series: &[(&str, &MetricsSnapshot)]) -> String {
    let mut out = String::new();
    let name = "aum_node_snapshot_sim_seconds";
    let help = "Simulated time of each node's metrics snapshot.";
    family(&mut out, name, Kind::Gauge, help);
    for &(node, snapshot) in series {
        sample(&mut out, name, &[("node", node)], snapshot.at.as_secs_f64());
    }
    node_families(&mut out, series, Kind::Counter, "Counter", |s| &*s.counters);
    node_families(&mut out, series, Kind::Gauge, "Gauge", |s| &*s.gauges);
    out
}

/// One `aum_node_<name>` family per metric name any node's `map` holds,
/// with a row for each node that holds it.
fn node_families<V: Value>(
    out: &mut String,
    series: &[(&str, &MetricsSnapshot)],
    kind: Kind,
    what: &str,
    map: impl Fn(&MetricsSnapshot) -> &BTreeMap<String, V>,
) {
    let names: BTreeSet<&String> = series.iter().flat_map(|(_, s)| map(s).keys()).collect();
    for name in names {
        let metric = format!("aum_node_{}", sanitize_name(name));
        let help = format!("{what} `{name}` from the per-node AUM metrics registries.");
        family(out, &metric, kind, &help);
        for &(node, snapshot) in series {
            if let Some(&value) = map(snapshot).get(name.as_str()) {
                sample(out, &metric, &[("node", node)], value);
            }
        }
    }
}

/// Renders an attribution ledger as whole-run totals:
/// `aum_attrib_seconds_total{region,cause}` and
/// `aum_attrib_joules_total{region,cause}` rows for every non-zero cell,
/// plus `aum_attrib_wall_seconds` and `aum_attrib_energy_joules`
/// conservation targets.
#[must_use]
pub fn render_ledger(ledger: &Ledger) -> String {
    let mut out = String::new();
    gauge(
        &mut out,
        "aum_attrib_wall_seconds",
        "Wall time covered by the attribution ledger.",
        ledger.wall_secs(),
    );
    gauge(
        &mut out,
        "aum_attrib_energy_joules",
        "Modeled package energy covered by the attribution ledger.",
        ledger.energy_j(),
    );
    let mut totals = |name: &str, help: &str, by_cause: fn(&Ledger, Region) -> CauseVec| {
        family(&mut out, name, Kind::Counter, help);
        for region in Region::ALL {
            for (cause, value) in by_cause(ledger, region).iter() {
                if value != 0.0 {
                    let labels = [("region", region.label()), ("cause", cause.label())];
                    sample(&mut out, name, &labels, value);
                }
            }
        }
    };
    totals(
        "aum_attrib_seconds_total",
        "Attributed seconds by region and cause.",
        Ledger::region_time,
    );
    totals(
        "aum_attrib_joules_total",
        "Attributed joules by region and cause.",
        Ledger::region_energy,
    );
    out
}

/// Renders a [`LogHistogram`] as a Prometheus `histogram`: cumulative
/// `<name>_bucket{le="..."}` rows at each occupied bucket's upper bound
/// (plus the mandatory `le="+Inf"`), then `<name>_sum` and `<name>_count`.
///
/// `labels` are attached to every row. Only occupied buckets emit a row —
/// with fixed log-linear boundaries the cumulative reading is unaffected
/// and the exposition stays proportional to occupancy, not the
/// 4096-bucket grid.
#[must_use]
pub fn render_histogram(
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    h: &LogHistogram,
) -> String {
    let metric = sanitize_name(name);
    let mut out = String::new();
    family(&mut out, &metric, Kind::Histogram, help);
    let bucket_name = format!("{metric}_bucket");
    let bucket = |out: &mut String, le: &str, cumulative: u64| {
        let mut row = labels.to_vec();
        row.push(("le", le));
        sample(out, &bucket_name, &row, cumulative);
    };
    let mut cumulative = h.underflow();
    if cumulative > 0 {
        bucket(&mut out, &fmt_f64(crate::hist::min_value()), cumulative);
    }
    for (idx, count) in h.nonzero_buckets() {
        cumulative += count;
        let (_, hi) = LogHistogram::bucket_bounds(idx);
        bucket(&mut out, &fmt_f64(hi), cumulative);
    }
    bucket(&mut out, "+Inf", h.count());
    sample(&mut out, &format!("{metric}_sum"), labels, h.sum());
    sample(&mut out, &format!("{metric}_count"), labels, h.count());
    out
}

#[cfg(test)]
pub(crate) mod check;

#[cfg(test)]
mod tests {
    use super::check::check_exposition;
    use super::*;
    use crate::attrib::{IntervalLedger, RegionSample, WorkFractions};
    use crate::time::SimTime;

    /// A one-interval ledger, half compute and half DRAM on the AU-high
    /// region.
    fn sample_ledger() -> Ledger {
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
        Ledger {
            intervals: vec![IntervalLedger::build(SimTime::ZERO, 1.0, 20.0, &[sample])],
        }
    }

    #[test]
    fn every_renderer_keeps_the_exposition_rules() {
        let mut a = MetricsSnapshot::default();
        a.counter_add("completed", 10);
        a.gauge_set("tpot_secs/p50", 0.031);
        a.gauge_set("stalled", f64::INFINITY);
        let mut b = MetricsSnapshot::default();
        b.counter_add("completed", 7);
        b.counter_add("shed", 1);
        b.gauge_set("violation_rate", f64::NAN);
        let h: LogHistogram = [1e-9, 0.01, 0.01, 0.5, 3.0].into_iter().collect();
        let texts = [
            render_registry(&a),
            render_node_registries(&[("node0/GenA", &a), ("node1/\"Gen\\B\"\n", &b)]),
            render_ledger(&sample_ledger()),
            render_histogram("aum_ttft_seconds", "TTFT.", &[("scheme", "a\"b")], &h),
            render_histogram("x", "h", &[], &h),
        ];
        for text in &texts {
            check_exposition(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        }
        // `attrib --metrics-out` writes a snapshot, a ledger and a
        // histogram one after another; the file keeps the rules too.
        let file = format!("{}{}{}", texts[0], texts[2], texts[3]);
        assert_eq!(check_exposition(&file), Ok(()));
    }

    #[test]
    fn the_checker_rejects_broken_expositions() {
        let good = "# HELP g G.\n# TYPE g gauge\ng 1\n";
        assert_eq!(check_exposition(good), Ok(()));
        let hist = "# HELP h H.\n# TYPE h histogram\n";
        for bad in [
            format!("{good}{good}"),
            "g 1\n".to_string(),
            "# TYPE g gauge\ng 1\n".to_string(),
            "# HELP g G.\n# TYPE g gauge\ng one\n".to_string(),
            format!("{good}other 2\n"),
            format!("{hist}h_bucket{{le=\"1\"}} 3\nh_bucket{{le=\"+Inf\"}} 2\nh_count 2\n"),
            format!("{hist}h_bucket{{le=\"1\"}} 2\nh_count 2\n"),
            format!("{hist}h_bucket{{le=\"+Inf\"}} 2\nh_count 3\n"),
            "# HELP g_total G.\n# TYPE g_total gauge\ng_total 1\n".to_string(),
        ] {
            assert!(check_exposition(&bad).is_err(), "accepted:\n{bad}");
        }
    }

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
        let mut snap = MetricsSnapshot::default();
        snap.counter_add("decisions", 3);
        snap.gauge_set("tpot_secs/p50", 0.031);
        snap.at = SimTime::from_secs(2);
        let text = render_registry(&snap);
        assert!(text.contains("# TYPE decisions counter"));
        assert!(text.contains("decisions 3"));
        assert!(text.contains("# TYPE tpot_secs_p50 gauge"));
        assert!(text.contains("tpot_secs_p50 0.031"));
        assert!(text.contains("aum_snapshot_sim_seconds 2"));
    }

    #[test]
    fn node_registries_render_labeled_series_under_shared_headers() {
        let mut a = MetricsSnapshot::default();
        a.counter_add("completed", 10);
        a.counter_add("redispatched", 2);
        a.gauge_set("health_factor", 1.0);
        let mut b = MetricsSnapshot::default();
        b.counter_add("completed", 7);
        a.at = SimTime::from_secs(3);
        b.at = SimTime::from_secs(3);
        let text = render_node_registries(&[("node0/GenA", &a), ("node1/GenB", &b)]);
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
        let mut snap = MetricsSnapshot::default();
        snap.counter_add("completed", 1);
        snap.gauge_set("health_factor", 0.5);
        snap.at = SimTime::from_secs(1);
        let hostile = "node\"0\\weird\nname";
        let text = render_node_registries(&[(hostile, &snap)]);
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
        let text = render_ledger(&sample_ledger());
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
