//! In-memory spans around the calls the harness makes into a layer.
//!
//! A traced run keeps a flat span list (`name, start_ns, end_ns, parent,
//! request_id`) and writes it out once, at exit. Per-layer timings are read
//! back off the same list, so a printed number and the trace file can never
//! disagree. An untraced run uses [`Tracer::off`], whose `span` is the bare
//! call.

use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `incr.maintain`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Spans of one request (one read, one write round) share this.
    pub request_id: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn on() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `call` inside a span; nested calls become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request_id: u64,
        call: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return call(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            request_id,
        });
        self.open.push(id);
        let out = call(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Durations of every span called `name`, in call order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Self time per span: its duration minus the part its direct children
    /// cover. Children of one parent never overlap here — every span is
    /// opened and closed on one thread.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The span list as JSON, one span per line, with each span's self time
    /// precomputed so a reader needs no second pass.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let own = self.self_times_ns();
        let mut out = String::from("{");
        for (k, v) in header {
            let _ = write!(out, "\"{k}\": \"{v}\", ");
        }
        out.push_str("\"spans\": [\n");
        for (i, (s, own_ns)) in self.spans.iter().zip(&own).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {own_ns}, \"parent\": {parent}, \"request_id\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request_id,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Tracer::on();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 7, |_| ());
        });
        t.span("root2", 8, |_| ());
        let names: Vec<_> = t
            .spans
            .iter()
            .map(|s| (s.name, s.parent, s.request_id))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", NO_PARENT, 7),
                ("inner", 0, 7),
                ("inner", 0, 7),
                ("root2", NO_PARENT, 8)
            ]
        );
        let own = t.self_times_ns();
        let outer = t.spans[0].end_ns - t.spans[0].start_ns;
        let inner: u64 = t.durations_ns("inner").iter().sum();
        assert!(inner >= 2_000_000);
        assert_eq!(own[0], outer - inner);
        assert_eq!(t.durations_ns("inner").len(), 2);
    }

    #[test]
    fn off_records_nothing_and_still_runs_the_call() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", 0, |_| 41 + 1), 42);
        assert!(t.spans.is_empty());
    }
}
