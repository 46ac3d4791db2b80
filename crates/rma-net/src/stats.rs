//! Connection and protocol counters for the network front-end, plus
//! the per-frame service-time distribution. Shared (`Arc`) between
//! the event-loop thread and [`NetServer::stats`] callers; every
//! update is one relaxed atomic.
//!
//! [`NetServer::stats`]: crate::NetServer::stats

use rma_obs::{Histogram, HistogramSnapshot};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Live counters. Snapshot with [`snapshot`](Self::snapshot).
#[derive(Debug, Default)]
pub struct NetStats {
    /// Currently open connections (gauge).
    pub(crate) connections: AtomicU64,
    /// Connections ever accepted.
    pub(crate) accepted: AtomicU64,
    /// Connections ever closed (peer hangup, protocol error or
    /// shutdown).
    pub(crate) closed: AtomicU64,
    /// Payload + header bytes read off sockets.
    pub(crate) bytes_in: AtomicU64,
    /// Bytes written to sockets.
    pub(crate) bytes_out: AtomicU64,
    /// Request frames decoded.
    pub(crate) frames_in: AtomicU64,
    /// Response frames sent (several per request when scans stream).
    pub(crate) frames_out: AtomicU64,
    /// Malformed frames; each one closed its connection.
    pub(crate) decode_errors: AtomicU64,
    /// Ops answered [`Refused`](rma_db::Reply::Refused) (degraded
    /// read-only mode), reported as a typed wire error code.
    pub(crate) refused_ops: AtomicU64,
    /// Submits that carried more than one part (wire-side group commit).
    pub(crate) merged_submits: AtomicU64,
    /// Parts — requests, scan continuations — inside merged submits.
    pub(crate) merged_requests: AtomicU64,
    /// Scan continuation chunks submitted beyond each scan's first.
    pub(crate) scan_chunks: AtomicU64,
    /// Times a connection's reads were paused (in-flight cap or
    /// write-buffer cap reached).
    pub(crate) backpressure_pauses: AtomicU64,
    /// High-water mark of any single connection's write buffer.
    pub(crate) peak_conn_write_buf: AtomicU64,
    /// Decode-to-final-frame wall time per request, nanoseconds.
    pub(crate) frame_service_ns: Histogram,
}

impl NetStats {
    pub(crate) fn bump(field: &AtomicU64) {
        field.fetch_add(1, Relaxed);
    }

    pub(crate) fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Relaxed);
    }

    pub(crate) fn track_peak(&self, wbuf_len: usize) {
        self.peak_conn_write_buf.fetch_max(wbuf_len as u64, Relaxed);
    }

    /// Freezes every counter and the service-time distribution.
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            connections: self.connections.load(Relaxed),
            accepted: self.accepted.load(Relaxed),
            closed: self.closed.load(Relaxed),
            bytes_in: self.bytes_in.load(Relaxed),
            bytes_out: self.bytes_out.load(Relaxed),
            frames_in: self.frames_in.load(Relaxed),
            frames_out: self.frames_out.load(Relaxed),
            decode_errors: self.decode_errors.load(Relaxed),
            refused_ops: self.refused_ops.load(Relaxed),
            merged_submits: self.merged_submits.load(Relaxed),
            merged_requests: self.merged_requests.load(Relaxed),
            scan_chunks: self.scan_chunks.load(Relaxed),
            backpressure_pauses: self.backpressure_pauses.load(Relaxed),
            peak_conn_write_buf: self.peak_conn_write_buf.load(Relaxed),
            frame_service_ns: self.frame_service_ns.snapshot(),
        }
    }
}

/// A frozen [`NetStats`] snapshot. Render with
/// [`render_text`](Self::render_text) (Prometheus-style, matching the
/// engine's `MetricsSnapshot::render_text` conventions).
#[derive(Debug, Clone)]
pub struct NetSnapshot {
    /// Currently open connections.
    pub connections: u64,
    /// Connections ever accepted.
    pub accepted: u64,
    /// Connections ever closed.
    pub closed: u64,
    /// Bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Request frames decoded.
    pub frames_in: u64,
    /// Response frames sent.
    pub frames_out: u64,
    /// Malformed frames (each closed its connection).
    pub decode_errors: u64,
    /// Ops refused in degraded read-only mode.
    pub refused_ops: u64,
    /// Passes whose one submit carried more than one request or scan
    /// continuation (wire-side group commit).
    pub merged_submits: u64,
    /// Requests and scan continuations that travelled inside a merged
    /// submit.
    pub merged_requests: u64,
    /// Scan continuation chunks beyond each scan's first.
    pub scan_chunks: u64,
    /// Read-pause events (backpressure).
    pub backpressure_pauses: u64,
    /// High-water mark of any single connection's write buffer,
    /// bytes.
    pub peak_conn_write_buf: u64,
    /// Decode-to-final-frame wall time per request, nanoseconds.
    pub frame_service_ns: HistogramSnapshot,
}

impl NetSnapshot {
    /// Prometheus-style text exposition of every counter plus the
    /// frame service-time summary.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        // A high-water mark is a gauge: a scraper takes a counter's rate.
        let peak = self.peak_conn_write_buf;
        for (name, v) in [
            ("rma_net_connections", self.connections),
            ("rma_net_peak_conn_write_buf_bytes", peak),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        let counters: [(&str, u64); 12] = [
            ("rma_net_accepted_total", self.accepted),
            ("rma_net_closed_total", self.closed),
            ("rma_net_bytes_in_total", self.bytes_in),
            ("rma_net_bytes_out_total", self.bytes_out),
            ("rma_net_frames_in_total", self.frames_in),
            ("rma_net_frames_out_total", self.frames_out),
            ("rma_net_decode_errors_total", self.decode_errors),
            ("rma_net_refused_ops_total", self.refused_ops),
            ("rma_net_merged_submits_total", self.merged_submits),
            ("rma_net_merged_requests_total", self.merged_requests),
            ("rma_net_scan_chunks_total", self.scan_chunks),
            (
                "rma_net_backpressure_pauses_total",
                self.backpressure_pauses,
            ),
        ];
        for (name, v) in counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        let _ = writeln!(out, "# TYPE rma_net_frame_service_ns summary");
        self.frame_service_ns
            .write_summary(&mut out, "rma_net_frame_service_ns", "");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_text_lists_every_family_once() {
        let stats = NetStats::default();
        NetStats::bump(&stats.accepted);
        NetStats::add(&stats.bytes_in, 123);
        stats.track_peak(777);
        stats.track_peak(5); // smaller: peak must survive
        stats.frame_service_ns.record(1000);
        let text = stats.snapshot().render_text();
        for family in [
            "rma_net_connections",
            "rma_net_accepted_total",
            "rma_net_closed_total",
            "rma_net_bytes_in_total",
            "rma_net_bytes_out_total",
            "rma_net_frames_in_total",
            "rma_net_frames_out_total",
            "rma_net_decode_errors_total",
            "rma_net_refused_ops_total",
            "rma_net_merged_submits_total",
            "rma_net_merged_requests_total",
            "rma_net_scan_chunks_total",
            "rma_net_backpressure_pauses_total",
            "rma_net_peak_conn_write_buf_bytes",
            "rma_net_frame_service_ns",
        ] {
            assert_eq!(
                text.matches(&format!("# TYPE {family} ")).count(),
                1,
                "family {family} missing or duplicated:\n{text}"
            );
        }
        assert!(text.contains("# TYPE rma_net_peak_conn_write_buf_bytes gauge"));
        assert!(text.contains("# TYPE rma_net_backpressure_pauses_total counter"));
        assert!(text.contains("rma_net_accepted_total 1"));
        assert!(text.contains("rma_net_bytes_in_total 123"));
        assert!(text.contains("rma_net_peak_conn_write_buf_bytes 777"));
        assert!(text.contains("rma_net_frame_service_ns_count 1"));
    }
}
