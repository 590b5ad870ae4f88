//! JSONL (one JSON object per line) streaming sink.
//!
//! Each event becomes one line with a `"type"` discriminator —
//! `"span"`, `"counter"`, `"log2"` or `"interval"` — so downstream tooling
//! can stream-filter with `grep`/`jq` without loading the whole file.

use crate::chrome::json_string;
use crate::interval::IntervalSample;
use crate::recorder::{Recorder, Span};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// A recorder that appends one JSON object per event to a file.
///
/// Writes go through an internal buffer; the file is flushed on drop (and
/// on [`JsonlRecorder::flush`]). Span timestamps are microseconds from the
/// recorder's construction instant.
#[derive(Debug)]
pub struct JsonlRecorder {
    path: PathBuf,
    epoch: Instant,
    writer: Mutex<BufWriter<std::fs::File>>,
}

impl JsonlRecorder {
    /// Creates (truncating) `path` and returns a recorder streaming to it.
    #[expect(clippy::disallowed_methods, reason = "span stamps are wall time")]
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path.as_ref())?;
        Ok(JsonlRecorder {
            path: path.as_ref().to_path_buf(),
            epoch: Instant::now(),
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// The path the recorder streams to.
    pub fn path(&self) -> &Path {
        &self.path
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

    fn log2(&self, name: &'static str, value: u64) {
        self.write_line(&format!(
            "{{\"type\":\"log2\",\"name\":{},\"value\":{}}}",
            json_string(name),
            value,
        ));
    }

    fn interval(&self, sample: &IntervalSample) {
        self.write_line(&interval_json(sample));
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Renders one interval sample as a JSON object (no trailing newline).
pub fn interval_json(sample: &IntervalSample) -> String {
    let mut per_thread = String::from("[");
    for (index, cycles) in sample.per_thread_cycles.iter().enumerate() {
        if index > 0 {
            per_thread.push(',');
        }
        per_thread.push_str(&cycles.to_string());
    }
    per_thread.push(']');

    let mut features = String::from("{");
    for (index, (name, value)) in crate::interval::FEATURE_NAMES
        .iter()
        .zip(sample.features())
        .enumerate()
    {
        if index > 0 {
            features.push(',');
        }
        features.push_str(&format!("{}:{:.6}", json_string(name), value));
    }
    features.push('}');

    format!(
        concat!(
            "{{\"type\":\"interval\",\"track\":{},\"index\":{},",
            "\"start_access\":{},\"end_access\":{},\"accesses\":{},",
            "\"compute_cycles\":{},\"data_cycles\":{},\"translation_cycles\":{},",
            "\"demand_faults\":{},",
            "\"mmu\":{{\"accesses\":{},\"tlb_l1_hits\":{},\"tlb_l2_hits\":{},",
            "\"tlb_misses\":{},\"translation_cycles\":{},",
            "\"walk\":{{\"walks\":{},\"faults\":{},\"walk_cycles\":{},",
            "\"levels_accessed\":{},\"local_dram_accesses\":{},",
            "\"remote_dram_accesses\":{},\"pte_cache_hits\":{},",
            "\"interfered_accesses\":{}}}}},",
            "\"per_thread_cycles\":{},\"features\":{}}}",
        ),
        sample.track,
        sample.index,
        sample.start_access,
        sample.end_access,
        sample.accesses,
        sample.compute_cycles,
        sample.data_cycles,
        sample.translation_cycles,
        sample.demand_faults,
        sample.mmu.accesses,
        sample.mmu.tlb_l1_hits,
        sample.mmu.tlb_l2_hits,
        sample.mmu.tlb_misses,
        sample.mmu.translation_cycles,
        sample.mmu.walk.walks,
        sample.mmu.walk.faults,
        sample.mmu.walk.walk_cycles,
        sample.mmu.walk.levels_accessed,
        sample.mmu.walk.local_dram_accesses,
        sample.mmu.walk.remote_dram_accesses,
        sample.mmu.walk.pte_cache_hits,
        sample.mmu.walk.interfered_accesses,
        per_thread,
        features,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_mmu::MmuStats;

    #[test]
    fn interval_json_is_balanced_and_typed() {
        let sample = IntervalSample {
            track: 1,
            index: 2,
            start_access: 100,
            end_access: 200,
            accesses: 200,
            compute_cycles: 10,
            data_cycles: 20,
            translation_cycles: 30,
            demand_faults: 0,
            mmu: MmuStats::default(),
            per_thread_cycles: vec![40, 20],
        };
        let json = interval_json(&sample);
        assert!(json.starts_with("{\"type\":\"interval\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert!(json.contains("\"per_thread_cycles\":[40,20]"));
        assert!(json.contains("\"thread_cycle_imbalance\""));
    }

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
            recorder.log2("walk_cycles", 17);
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"counter\""));
        assert!(lines[1].contains("\"type\":\"log2\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
