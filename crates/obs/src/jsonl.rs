//! JSONL (one JSON object per line) streaming sink.
//!
//! Each event becomes one line with a `"type"` discriminator — `"span"`
//! or `"counter"` — so downstream tooling can stream-filter with
//! `grep`/`jq` without loading the whole file.

use crate::chrome::json_string;
use crate::recorder::{Recorder, Span};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A recorder that appends one JSON object per event to a file.
///
/// Writes go through an internal buffer; the file is flushed on drop (and
/// on [`JsonlRecorder::flush`]). Span timestamps are microseconds from the
/// recorder's construction instant.
#[derive(Debug)]
pub struct JsonlRecorder {
    epoch: Instant,
    writer: Mutex<BufWriter<std::fs::File>>,
}

impl JsonlRecorder {
    /// Creates (truncating) `path` and returns a recorder streaming to it.
    #[expect(clippy::disallowed_methods, reason = "span stamps are wall time")]
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlRecorder {
            epoch: Instant::now(),
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Flushes buffered lines to the file.
    pub fn flush(&self) -> std::io::Result<()> {
        self.writer.lock().expect("jsonl writer poisoned").flush()
    }

    fn write_line(&self, line: &str) {
        // Sink errors (disk full, closed fd) must not fail the run; the
        // stream just ends early.
        let mut writer = self.writer.lock().expect("jsonl writer poisoned");
        let _ = writeln!(writer, "{line}");
    }
}

impl Recorder for JsonlRecorder {
    fn span(&self, span: &Span) {
        let start_us = span.start.saturating_duration_since(self.epoch).as_micros() as u64;
        self.write_line(&format!(
            "{{\"type\":\"span\",\"name\":{},\"track\":{},\"start_us\":{},\"dur_us\":{}}}",
            json_string(span.name),
            span.track,
            start_us,
            span.duration().as_micros() as u64,
        ));
    }

    fn counter(&self, name: &'static str, value: u64) {
        self.write_line(&format!(
            "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}",
            json_string(name),
            value,
        ));
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanGuard;
    use std::sync::Arc;

    #[test]
    fn jsonl_recorder_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join(format!(
            "mitosis-obs-jsonl-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("events.jsonl");
        {
            let recorder = JsonlRecorder::create(&path).expect("create jsonl");
            recorder.counter("faults", 3);
            drop(SpanGuard::start(Arc::new(recorder), "phase", 1));
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"counter\""));
        assert!(lines[1].contains("\"type\":\"span\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
