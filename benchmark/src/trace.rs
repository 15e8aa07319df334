//! Spans recorded from the benchmark's own call sites, and the stacked time
//! budget computed from them.
//!
//! A sampled request's **root** span is its TCP round trip at depth 1. Its
//! children are the same request replayed step by step through each
//! layer's public function, timed one call at a time; the children of
//! `serve.engine.submit` are **derived**: a direct replay of the same
//! pairs on the loaded model. Durations are real; a child's position inside
//! its parent is synthetic (children are laid end to end from the parent's
//! start), because the replay runs after the round trip, not inside it.
//!
//! Self time of a span = its duration − its children's. The root's self
//! time is therefore what no replayed layer accounts for — the epoll loop,
//! the kernel and the client socket — reported as
//! `serve.server.residual_us`. Budget rows are means of self times, so
//! they sum to the mean round trip by construction.

use serde_json::Value;
use std::path::Path;
use std::time::Duration;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub derived: bool,
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Adds a root span starting at `start_ns`; returns its index.
    pub fn root(
        &mut self,
        name: &'static str,
        request: u64,
        start_ns: u64,
        dur: Duration,
    ) -> usize {
        self.push(name, request, None, start_ns, dur, false)
    }

    /// Adds a child laid out after its parent's existing children.
    pub fn child(
        &mut self,
        name: &'static str,
        parent: usize,
        dur: Duration,
        derived: bool,
    ) -> usize {
        let start = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        let request = self.spans[parent].request;
        self.push(name, request, Some(parent), start, dur, derived)
    }

    fn push(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start_ns: u64,
        dur: Duration,
        derived: bool,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent,
            request,
            derived,
        });
        self.spans.len() - 1
    }

    /// Self time of span `i` in ns; negative when the replayed children
    /// took longer than the span they are attributed to.
    pub fn self_ns(&self, i: usize) -> i64 {
        let dur = |s: &Span| (s.end_ns - s.start_ns) as i64;
        dur(&self.spans[i])
            - self
                .spans
                .iter()
                .filter(|s| s.parent == Some(i))
                .map(dur)
                .sum::<i64>()
    }

    /// `(name, mean self time in ns per request, derived)` in first-seen
    /// order. The rows sum to the mean root duration.
    pub fn budget(&self) -> Vec<(&'static str, f64, bool)> {
        let requests = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .count()
            .max(1) as f64;
        let mut rows: Vec<(&'static str, f64, bool)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = self.self_ns(i) as f64;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => row.1 += self_ns,
                None => rows.push((s.name, self_ns, s.derived)),
            }
        }
        for row in &mut rows {
            row.1 /= requests;
        }
        rows
    }

    pub fn print_budget(&self, workload: &str) {
        let rows = self.budget();
        let total: f64 = rows.iter().map(|r| r.1).sum();
        println!("stacked budget, {workload}: mean self time per request (rows sum to the mean round trip)");
        for (i, (name, ns, derived)) in rows.iter().enumerate() {
            // The root span comes first; its self time is the residual.
            let label = if i == 0 {
                " (residual: epoll loop + kernel + client socket)"
            } else if *derived {
                " (derived)"
            } else {
                ""
            };
            println!(
                "  {:<26} {:>10.1} us {:>6.1} %{label}",
                name,
                ns / 1e3,
                100.0 * ns / total
            );
        }
        println!("  {:<26} {:>10.1} us", "= round trip", total / 1e3);
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::Num(s.start_ns as f64)),
                    ("end_ns".into(), Value::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("request".into(), Value::Num(s.request as f64)),
                    ("derived".into(), Value::Bool(s.derived)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let json = serde_json::to_string(&Value::Seq(spans)).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_rows_sum_to_the_mean_root() {
        let mut t = Trace::default();
        for (req, root_us) in [(0u64, 100u64), (1, 140)] {
            let root = t.root(
                "tcp.round_trip",
                req,
                req * 1_000_000,
                Duration::from_micros(root_us),
            );
            t.child(
                "wire.decode_request",
                root,
                Duration::from_micros(10),
                false,
            );
            let submit = t.child(
                "serve.engine.submit",
                root,
                Duration::from_micros(60),
                false,
            );
            t.child("core.heads", submit, Duration::from_micros(25), true);
        }
        let rows = t.budget();
        let total: f64 = rows.iter().map(|r| r.1).sum();
        assert_eq!(total, 120_000.0);
        let get = |n: &str| rows.iter().find(|r| r.0 == n).unwrap().1;
        assert_eq!(get("tcp.round_trip"), 50_000.0); // (30 + 70) / 2
        assert_eq!(get("serve.engine.submit"), 35_000.0);
        assert_eq!(get("core.heads"), 25_000.0);
        // Children are laid end to end inside their parent.
        assert_eq!(t.spans[2].start_ns, t.spans[1].end_ns);
        assert_eq!(t.spans[3].start_ns, t.spans[2].start_ns);
    }
}
