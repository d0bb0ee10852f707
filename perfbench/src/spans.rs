//! The driver's own span recorder: one span around each call the driver
//! makes into a layer of the library, kept in memory and folded into
//! per-name totals and self times when the run ends.

use std::time::Instant;

struct Rec {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Spans of one traced run.
pub struct Spans {
    origin: Instant,
    recs: Vec<Rec>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.recs.len();
        self.recs.push(Rec {
            name,
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.recs[id].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span called `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    fn dur(r: &Rec) -> f64 {
        r.end_s - r.start_s
    }

    /// Summed duration of every closed span called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.recs
            .iter()
            .filter(|r| r.name == name && r.end_s.is_finite())
            .map(Self::dur)
            .sum()
    }

    /// Summed self time of spans called `name`: each span's duration minus
    /// the durations of its direct children.
    pub fn self_time(&self, name: &str) -> f64 {
        let mut t = 0.0;
        for (i, r) in self.recs.iter().enumerate() {
            if r.name != name || !r.end_s.is_finite() {
                continue;
            }
            let children: f64 = self
                .recs
                .iter()
                .filter(|c| c.parent == Some(i) && c.end_s.is_finite())
                .map(Self::dur)
                .sum();
            t += Self::dur(r) - children;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new();
        let run = s.enter("run");
        let a = s.enter("a");
        s.time("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        s.exit(a);
        s.time("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit(run);
        let (run_t, a_t, b_t, leaf_t) =
            (s.total("run"), s.total("a"), s.total("b"), s.total("leaf"));
        assert!(leaf_t >= 0.004 && b_t >= 0.002);
        assert!((s.self_time("run") - (run_t - a_t - b_t)).abs() < 1e-12);
        assert!((s.self_time("a") - (a_t - leaf_t)).abs() < 1e-12);
        assert_eq!(s.self_time("leaf"), leaf_t);
        assert_eq!(s.total("missing"), 0.0);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut s = Spans::new();
        let outer = s.enter("outer");
        let _inner = s.enter("inner");
        s.exit(outer);
    }
}
