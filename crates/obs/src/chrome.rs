//! chrome://tracing (`trace_event` format) export.
//!
//! The exported JSON loads directly into `chrome://tracing` or
//! <https://ui.perfetto.dev>: each span becomes a complete (`"ph":"X"`)
//! event, with the span's `track` mapped to the `tid` axis so the lane
//! groups of a parallel replay render as parallel rows under one process.

use crate::memory::{MemoryRecorder, RecordedSpan};
use crate::recorder::Recorder;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Renders spans as a chrome://tracing `trace_event` JSON document.
pub fn chrome_trace_json(spans: &[RecordedSpan]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (index, span) in spans.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"mitosis\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
            json_string(span.name),
            span.start_us,
            span.dur_us,
            span.track,
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Escapes a string as a JSON string literal (quotes included).
pub(crate) fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A recorder that buffers spans in memory and writes a chrome://tracing
/// JSON file when dropped.
///
/// Counters are ignored — pair it with a [`crate::JsonlRecorder`] through a
/// [`crate::FanoutRecorder`] when those are wanted too.
#[derive(Debug)]
pub struct ChromeTraceRecorder {
    path: PathBuf,
    memory: MemoryRecorder,
}

impl ChromeTraceRecorder {
    /// Creates (truncating) `path` and returns a recorder that writes the
    /// trace there when dropped, so an unwritable path fails here rather
    /// than at the end of the run.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        std::fs::File::create(path.as_ref())?;
        Ok(ChromeTraceRecorder {
            path: path.as_ref().to_path_buf(),
            memory: MemoryRecorder::new(),
        })
    }

    /// Writes the trace collected so far to the configured path.
    pub fn flush(&self) -> std::io::Result<()> {
        let mut file = std::fs::File::create(&self.path)?;
        file.write_all(self.memory.to_chrome_trace().as_bytes())?;
        file.write_all(b"\n")
    }
}

impl Recorder for ChromeTraceRecorder {
    fn span(&self, span: &crate::recorder::Span) {
        self.memory.span(span);
    }
}

impl Drop for ChromeTraceRecorder {
    fn drop(&mut self) {
        // Best effort: a trace export must never turn a finished run into a
        // failure. `flush()` exists for callers that want the error.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_json_has_one_event_per_span() {
        let spans = vec![
            RecordedSpan {
                name: "prepare_replay",
                track: 0,
                start_us: 10,
                dur_us: 100,
            },
            RecordedSpan {
                name: "group_replay",
                track: 2,
                start_us: 120,
                dur_us: 50,
            },
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"prepare_replay\""));
        assert!(json.contains("\"tid\":2"));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
