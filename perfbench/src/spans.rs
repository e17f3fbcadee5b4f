//! In-memory span recorder for the traced run.
//!
//! Spans are taken from outside the program, around every call the
//! benchmark makes into a layer: name, start, end, the span that caused
//! it, and the request it served where the benchmark sees requests. They
//! stay in memory until the run ends and are then written out once, as
//! Chrome/Perfetto `trace_events` JSON.
//!
//! An untraced run uses [`Recorder::off`], whose `open`/`close` read no
//! clock and store nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// Id of a recorded span; [`NO_SPAN`] for "no parent" and for every
/// span of a disabled recorder.
pub type SpanId = u32;

/// The parent of a root span.
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request: Option<u64>,
}

impl Span {
    /// Wall duration, seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recorder keeping every span, timed from `epoch`.
    pub fn on(epoch: Instant) -> Recorder {
        Recorder {
            on: true,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder's epoch (0 when off).
    pub fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Start a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: Option<u64>) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.now();
        self.record(name, start_ns, start_ns, parent, request)
    }

    /// End a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        if self.on && id != NO_SPAN {
            let end = self.now();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Record a span whose bounds the caller measured with [`Recorder::now`].
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        request: Option<u64>,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Spans recorded so far, in opening order. `SpanId`s index this.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forget the per-request spans recorded from index `from` on,
    /// keeping the call spans above them, so a long traced run keeps
    /// full detail for its first operation only.
    pub fn drop_request_spans(&mut self, from: usize) {
        let mut remap: Vec<SpanId> = (0..from as SpanId).collect();
        let mut kept = Vec::with_capacity(self.spans.len() - from);
        for (i, mut s) in self.spans.drain(from..).enumerate() {
            if s.request.is_some() {
                remap.push(NO_SPAN);
                continue;
            }
            if s.parent != NO_SPAN {
                s.parent = remap[s.parent as usize];
            }
            remap.push((from + kept.len()) as SpanId);
            kept.push(s);
            debug_assert_eq!(remap.len(), from + i + 1);
        }
        self.spans.extend(kept);
    }

    /// Render every span as Chrome/Perfetto `trace_events` JSON, with
    /// `extra` (already-rendered JSON members) appended to the object.
    pub fn to_chrome_json(&self, extra: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            );
            if s.parent != NO_SPAN {
                let _ = write!(out, ",\"parent\":{}", s.parent);
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}}");
        }
        out.push(']');
        if !extra.is_empty() {
            out.push(',');
            out.push_str(extra);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut r = Recorder::off();
        let id = r.open("x", NO_SPAN, None);
        r.close(id);
        assert_eq!(id, NO_SPAN);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn on_records_parented_spans() {
        let mut r = Recorder::on(Instant::now());
        let root = r.open("root", NO_SPAN, None);
        let child = r.open("child", root, Some(7));
        r.close(child);
        r.close(root);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, root);
        assert_eq!(s[1].request, Some(7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = r.to_chrome_json("\"k\":1");
        let late = r.open("late", NO_SPAN, None);
        r.open("leaf", late, Some(1));
        r.open("call", late, None);
        r.drop_request_spans(2);
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[3].name, s[3].parent), ("call", late));
        assert!(json.starts_with("{\"traceEvents\":[{") && json.ends_with(",\"k\":1}"));
    }
}
