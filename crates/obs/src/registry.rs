//! The metrics registry: named, labelled metric families whose values
//! live somewhere else.
//!
//! Every metric is a *collector* ([`counter_fn`](Registry::counter_fn),
//! [`gauge_fn`](Registry::gauge_fn), [`histogram_fn`](Registry::histogram_fn)):
//! a closure the registry samples at exposition time. The value already
//! has an owner — a session's atomics, a buffer pool's hit counter, a
//! finished experiment's report — so the hot path never touches the
//! registry and nothing is counted twice. Registration is the cold path
//! and takes the registry lock once; re-registering a name + label set
//! replaces the previous collector, so a fresh gateway run takes over
//! the canonical names. Exposition walks the families under the lock,
//! which is fine at scrape frequency.

use crate::metrics::HistogramSnapshot;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A sorted label set; the `BTreeMap` key, so exposition order is stable.
pub(crate) type Labels = Vec<(String, String)>;

/// What a family's children are (one kind per family, enforced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter (`_total` names by convention).
    Counter,
    /// A value that can move both ways.
    Gauge,
    /// Fixed-bucket log-scale histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One collector, sampled at exposition time.
pub(crate) enum Child {
    Counter(Box<dyn Fn() -> u64 + Send + Sync>),
    Gauge(Box<dyn Fn() -> f64 + Send + Sync>),
    Histogram(Box<dyn Fn() -> HistogramSnapshot + Send + Sync>),
}

impl Child {
    fn kind(&self) -> MetricKind {
        match self {
            Child::Counter(_) => MetricKind::Counter,
            Child::Gauge(_) => MetricKind::Gauge,
            Child::Histogram(_) => MetricKind::Histogram,
        }
    }
}

pub(crate) struct Family {
    pub(crate) help: String,
    pub(crate) kind: MetricKind,
    pub(crate) children: BTreeMap<Labels, Child>,
}

/// A registry of metric families, shareable across threads.
///
/// See the [module docs](self) for the collector model. Rendering
/// ([`render`](Registry::render)) produces Prometheus text format with
/// families sorted by name and children by label set.
#[derive(Default)]
pub struct Registry {
    pub(crate) families: Mutex<BTreeMap<String, Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self
            .families
            .lock()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect();
        f.debug_struct("Registry")
            .field("families", &names)
            .finish()
    }
}

fn to_labels(labels: &[(&str, &str)]) -> Labels {
    let mut v: Labels = labels
        .iter()
        .map(|(k, val)| (k.to_string(), val.to_string()))
        .collect();
    v.sort();
    v
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Installs `child` under `name` + `labels`, replacing any earlier
    /// collector there.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as another kind.
    fn collect(&self, name: &str, help: &str, labels: &[(&str, &str)], child: Child) {
        let mut families = self.families.lock().expect("registry poisoned");
        let kind = child.kind();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            children: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            kind,
            "metric family {name:?} already registered as a {}",
            family.kind.as_str()
        );
        family.children.insert(to_labels(labels), child);
    }

    /// Registers a counter: `f` is sampled at exposition time.
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.collect(name, help, labels, Child::Counter(Box::new(f)));
    }

    /// Registers a gauge. Values render as the shortest decimal that
    /// round-trips, so whole values (queue depths, byte counts) print
    /// without a fraction and scores keep every digit.
    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.collect(name, help, labels, Child::Gauge(Box::new(f)));
    }

    /// Registers a histogram: `f` snapshots it at exposition time.
    pub fn histogram_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> HistogramSnapshot + Send + Sync + 'static,
    ) {
        self.collect(name, help, labels, Child::Histogram(Box::new(f)));
    }

    /// Renders the registry in Prometheus text format (see [`crate::expo`]).
    pub fn render(&self) -> String {
        crate::expo::render(self)
    }

    /// A view of this registry that stamps `base` labels onto every
    /// registration made through it — the idiom for per-stream telemetry,
    /// where one component registers the same metric schema many times
    /// under different `{stream="..."}` label sets:
    ///
    /// ```
    /// let registry = ctc_obs::Registry::new();
    /// let scoped = registry.scoped(&[("stream", "s1")]);
    /// scoped.counter_fn("ctc_gateway_samples_total", "IQ samples.", &[], || 7);
    /// assert!(registry
    ///     .render()
    ///     .contains("ctc_gateway_samples_total{stream=\"s1\"} 7"));
    /// ```
    pub fn scoped<'r>(&'r self, base: &[(&str, &str)]) -> ScopedRegistry<'r> {
        ScopedRegistry {
            registry: self,
            base: to_labels(base),
        }
    }
}

/// A registry handle carrying a fixed base label set (see
/// [`Registry::scoped`]). Extra labels passed per registration are merged
/// with the base; on a key collision the per-registration label wins.
pub struct ScopedRegistry<'r> {
    registry: &'r Registry,
    base: Labels,
}

impl ScopedRegistry<'_> {
    /// The base labels merged with `extra`, per-registration keys winning.
    fn merged<'a>(&'a self, extra: &'a [(&'a str, &'a str)]) -> Vec<(&'a str, &'a str)> {
        let mut all: Vec<(&str, &str)> = self
            .base
            .iter()
            .filter(|(k, _)| !extra.iter().any(|(ek, _)| ek == k))
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        all.extend_from_slice(extra);
        all
    }

    /// A counter under the base labels.
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        extra: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.registry.counter_fn(name, help, &self.merged(extra), f);
    }

    /// A histogram under the base labels.
    pub fn histogram_fn(
        &self,
        name: &str,
        help: &str,
        extra: &[(&str, &str)],
        f: impl Fn() -> HistogramSnapshot + Send + Sync + 'static,
    ) {
        self.registry
            .histogram_fn(name, help, &self.merged(extra), f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_labels_are_different_children() {
        let r = Registry::new();
        r.counter_fn("y_total", "y", &[("k", "a")], || 1);
        r.counter_fn("y_total", "y", &[("k", "b")], || 0);
        let text = r.render();
        assert!(text.contains("y_total{k=\"a\"} 1\n"), "{text}");
        assert!(text.contains("y_total{k=\"b\"} 0\n"), "{text}");
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        r.counter_fn("z_total", "z", &[("a", "1"), ("b", "2")], || 1);
        r.counter_fn("z_total", "z", &[("b", "2"), ("a", "1")], || 2);
        assert!(r
            .render()
            .ends_with("# TYPE z_total counter\nz_total{a=\"1\",b=\"2\"} 2\n"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter_fn("w", "w", &[], || 0);
        r.gauge_fn("w", "w", &[], || 0.0);
    }

    #[test]
    fn collector_replaces_previous_registration() {
        let r = Registry::new();
        r.counter_fn("c_total", "c", &[], || 1);
        r.counter_fn("c_total", "c", &[], || 2);
        assert!(r.render().contains("c_total 2"));
    }
}
