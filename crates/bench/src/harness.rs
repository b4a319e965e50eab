//! The two measurement pieces every bench suite shares: [`JsonReport`],
//! the one writer of the `model` and `host` files, and [`Samples`], the
//! one sampler of wall-clock time.

use std::fmt::Display;
use std::path::Path;
use std::time::Instant;

/// Ordered, dependency-free writer for the bench JSON files:
/// insertion-ordered `"key": value` lines, one field per line, so two
/// runs with the same values render byte-identical files.  Values are
/// pre-rendered by the caller (numbers with explicit precision,
/// booleans, nested arrays/objects as raw strings) — the writer owns
/// only ordering, punctuation and the trailing-comma rule, plus the
/// shape of a [`Samples`] field.
#[derive(Debug, Clone, Default)]
pub struct JsonReport {
    fields: Vec<(String, String)>,
}

impl JsonReport {
    /// A report for one bench suite; `"bench": "<name>"` is always the
    /// first field.
    pub fn new(bench: &str) -> Self {
        let mut r = JsonReport { fields: Vec::new() };
        r.text("bench", bench);
        r
    }

    /// Append a field with a pre-rendered JSON value — a number
    /// (callers keep full control of formatting precision), a boolean,
    /// or a raw array/object string.
    pub fn field(&mut self, key: impl Into<String>, value: impl Display) -> &mut Self {
        self.fields.push((key.into(), value.to_string()));
        self
    }

    /// Append a string-valued field (quoted; bench keys and values are
    /// plain ASCII identifiers, so no escaping).
    pub fn text(&mut self, key: impl Into<String>, value: impl Display) -> &mut Self {
        self.fields.push((key.into(), format!("\"{value}\"")));
        self
    }

    /// Append a wall-clock measurement as
    /// `{"median": …, "min": …, "max": …, "n": …}`.
    pub fn samples(&mut self, key: impl Into<String>, s: &Samples) -> &mut Self {
        self.field(
            key,
            format_args!(
                "{{\"median\": {:.3}, \"min\": {:.3}, \"max\": {:.3}, \"n\": {}}}",
                s.median(),
                s.min(),
                s.max(),
                s.0.len()
            ),
        )
    }

    /// The rendered JSON object.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            out.push_str("  \"");
            out.push_str(k);
            out.push_str("\": ");
            out.push_str(v);
            out.push_str(if i + 1 == self.fields.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("}\n");
        out
    }

    /// Write the rendered object to `path`.
    pub fn write(&self, path: &Path) {
        std::fs::write(path, self.render())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
}

/// Every sample of one wall-clock measurement, in the order taken.  A
/// gate names the statistic it reads: best-of-k gates read
/// [`Samples::min`].
#[derive(Debug, Clone, PartialEq)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Wrap samples taken elsewhere (at least one).
    pub fn new(samples: Vec<f64>) -> Self {
        assert!(
            !samples.is_empty(),
            "a measurement needs at least one sample"
        );
        Samples(samples)
    }

    /// Time `n` calls of `f`, one sample per call, in milliseconds.
    pub fn time_ms<R>(n: usize, mut f: impl FnMut() -> R) -> Self {
        Samples::new(
            (0..n)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(f());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect(),
        )
    }

    /// The same samples through `f` (for example, milliseconds into a
    /// rate).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Samples(self.0.iter().map(|&x| f(x)).collect())
    }

    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// The middle sample, or the mean of the two middle samples of an
    /// even count.
    pub fn median(&self) -> f64 {
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        let mid = s.len() / 2;
        if s.len() % 2 == 1 {
            s[mid]
        } else {
            (s[mid - 1] + s[mid]) / 2.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_renders_ordered_fields() {
        let mut r = JsonReport::new("demo");
        r.field("count", 3)
            .field("rate", format_args!("{:.3}", 0.5f64))
            .field("flag", true)
            .text("label", "all")
            .field("curve", "[\n    {\"x\": 1}\n  ]");
        let s = r.render();
        assert!(s.starts_with("{\n  \"bench\": \"demo\",\n"));
        assert!(s.ends_with("\n}\n"));
        assert!(s.contains("  \"count\": 3,\n"));
        assert!(s.contains("  \"rate\": 0.500,\n"));
        assert!(s.contains("  \"flag\": true,\n"));
        assert!(s.contains("  \"label\": \"all\",\n"));
        // Insertion order is preserved and the last field has no comma.
        let count_at = s.find("\"count\"").unwrap();
        let flag_at = s.find("\"flag\"").unwrap();
        assert!(count_at < flag_at);
        assert!(s.contains("  \"curve\": [\n    {\"x\": 1}\n  ]\n}"));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(s, r.render());
    }

    #[test]
    fn sampler_statistics_are_exact_on_odd_and_even_counts() {
        let odd = Samples::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(
            (odd.median(), odd.min(), odd.max(), odd.0.len()),
            (3.0, 1.0, 5.0, 5)
        );
        let even = Samples::new(vec![8.0, 2.0, 6.0, 4.0]);
        assert_eq!(
            (even.median(), even.min(), even.max(), even.0.len()),
            (5.0, 2.0, 8.0, 4)
        );
        let one = Samples::new(vec![7.5]);
        assert_eq!((one.median(), one.min(), one.max()), (7.5, 7.5, 7.5));
        // Taking order is kept: the median sorts a copy.
        assert_eq!(odd, Samples::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]));
        assert_eq!(even.map(|x| x / 2.0).median(), 2.5);

        let mut r = JsonReport::new("demo");
        r.samples("t_ms", &even);
        assert!(r
            .render()
            .contains("\"t_ms\": {\"median\": 5.000, \"min\": 2.000, \"max\": 8.000, \"n\": 4}"));
    }

    #[test]
    fn time_ms_takes_one_sample_per_call() {
        let mut calls = 0;
        let s = Samples::time_ms(3, || calls += 1);
        assert_eq!((calls, s.0.len()), (3, 3));
        assert!(s.min() >= 0.0 && s.min() <= s.median() && s.median() <= s.max());
    }
}
