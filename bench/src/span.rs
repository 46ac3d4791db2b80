//! Spans recorded by the benchmark around its calls into each layer:
//! `{id, parent, req, layer, name, start_ns, end_ns}`, kept in a
//! pre-allocated vector and written out when the run ends.

use crate::host::now_ns;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// Id of the span that caused this one; 0 for a request's root.
    pub parent: u32,
    /// Frame index within the replayed stream: spans of one request
    /// share it.
    pub req: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One rung's recorder. Disabled, every call is a no-op that reads no
/// clock, so the untraced rung runs the same code.
pub struct Recorder {
    pub spans: Vec<Span>,
    enabled: bool,
}

impl Recorder {
    pub fn new(enabled: bool, capacity: usize) -> Recorder {
        Recorder {
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            enabled,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A clock reading, or 0 when disabled.
    pub fn clock(&self) -> u64 {
        if self.enabled {
            now_ns()
        } else {
            0
        }
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn push(
        &mut self,
        parent: u32,
        req: usize,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            req: req as u32,
            layer,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserves a root span's id before its children are recorded; the
    /// root's end is filled in by [`finish`](Self::finish).
    pub fn open_root(
        &mut self,
        req: usize,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
    ) -> u32 {
        self.push(0, req, layer, name, start_ns, start_ns)
    }

    pub fn finish(&mut self, id: u32, end_ns: u64) {
        if id > 0 {
            self.spans[id as usize - 1].end_ns = end_ns;
        }
    }

    /// Durations of the spans with this name, sorted.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect();
        d.sort_unstable();
        d
    }
}
