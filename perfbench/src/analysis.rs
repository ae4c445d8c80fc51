//! Span arithmetic: self time, and the split of one frame's end-to-end
//! latency along its blocking path.
//!
//! The blocking path is walked backwards from the sink's `signal_source`:
//! the sink's `on_event` was caused by the `call_module` that delivered its
//! last input, which ran inside the sender's `on_event`, and so on up to
//! the source's `on_event`, which the pacer caused. Along that chain the
//! spans cover `on_event` start → causal call return in each module; what
//! they leave uncovered is the pacer's admission lag and the hop from each
//! `call_module` return to the receiver's `on_event` start (queueing,
//! wakes, and the runtime's own decode), which together are the residual.

use crate::probe::{Kind, Span};
use std::collections::BTreeMap;

/// Length of the union of `intervals`, each clipped to `[start, end)`.
pub fn covered(start: u64, end: u64, intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                total += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + run.map_or(0, |(a, b)| b - a)
}

/// A span's duration minus the part of it its children cover.
pub fn self_time(start: u64, end: u64, children: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

/// One traced frame that reached the sink, split by layer. Times in ns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameSplit {
    /// Capture → sink `signal_source` (pipeline clock).
    pub e2e: u64,
    /// Pacer stamp → source `on_event` start.
    pub admit_lag: u64,
    /// Blocking-path time covered by spans.
    pub covered: u64,
    /// Blocking-path hops between modules on one device.
    pub same_device_hops: u64,
    /// Blocking-path hops between devices.
    pub cross_device_hops: u64,
    /// All `call_module` spans on cross-device edges.
    pub cross_sends: u64,
    /// `on_event` self time, summed per module (by interned name).
    pub module_self: BTreeMap<u32, u64>,
    /// `handle` time, summed per service.
    pub handle: BTreeMap<u32, u64>,
    /// `call_service` time not covered by its `handle`, summed per service.
    pub wait: BTreeMap<u32, u64>,
}

impl FrameSplit {
    /// End-to-end time no span on the blocking path covers.
    pub fn residual(&self) -> u64 {
        self.e2e.saturating_sub(self.covered)
    }
}

/// Splits every complete traced frame in `spans` (sorted in place).
/// Frames whose blocking path cannot be walked back to the source (cut by
/// the start or end of recording) are skipped.
pub fn split_frames(spans: &mut [Span]) -> Vec<FrameSplit> {
    spans.sort_unstable_by_key(|s| (s.pipeline, s.seq, s.start));
    spans
        .chunk_by(|a, b| (a.pipeline, a.seq) == (b.pipeline, b.seq))
        .filter_map(split_frame)
        .collect()
}

fn children(frame: &[Span], parent: u64) -> impl Iterator<Item = &Span> {
    frame.iter().filter(move |s| s.parent == parent)
}

/// Splits the spans of one frame.
pub fn split_frame(frame: &[Span]) -> Option<FrameSplit> {
    let by_id = |id: u64| frame.iter().find(|s| s.id == id);
    let signal = frame
        .iter()
        .find(|s| s.kind == Kind::Signal { sink: true })?;
    let mut split = FrameSplit {
        e2e: signal.aux,
        ..FrameSplit::default()
    };

    let mut cur = by_id(signal.parent)?;
    split.covered = signal.start.saturating_sub(cur.start);
    for _ in 0..frame.len() {
        if cur.kind == (Kind::Event { source: true }) {
            split.admit_lag = cur.aux;
            break;
        }
        // The k-th `on_event` of a module for this frame was caused by the
        // k-th `call_module` targeting it, in send order.
        let mut events: Vec<&Span> = frame
            .iter()
            .filter(|s| matches!(s.kind, Kind::Event { .. }) && s.name == cur.name)
            .collect();
        events.sort_by_key(|s| s.start);
        let k = events.iter().position(|s| s.id == cur.id)?;
        let mut sends: Vec<&Span> = frame
            .iter()
            .filter(|s| matches!(s.kind, Kind::CallModule { .. }) && s.name == cur.name)
            .collect();
        sends.sort_by_key(|s| s.end);
        let cause = *sends.get(k)?;
        // A fast receiver may start before the sender's call returns.
        let handoff = cause.end.min(cur.start);
        let hop = cur.start - handoff;
        if cause.kind == (Kind::CallModule { cross: true }) {
            split.cross_device_hops += hop;
        } else {
            split.same_device_hops += hop;
        }
        let sender = by_id(cause.parent)?;
        split.covered += handoff.saturating_sub(sender.start);
        cur = sender;
    }
    if cur.kind != (Kind::Event { source: true }) {
        return None;
    }

    for span in frame {
        let span_children = || children(frame, span.id).map(|c| (c.start, c.end));
        match span.kind {
            Kind::Event { .. } => {
                *split.module_self.entry(span.name).or_default() +=
                    self_time(span.start, span.end, span_children());
            }
            Kind::CallService => {
                *split.wait.entry(span.name).or_default() +=
                    self_time(span.start, span.end, span_children());
            }
            Kind::Handle => {
                *split.handle.entry(span.name).or_default() += span.end - span.start;
            }
            Kind::CallModule { cross: true } => split.cross_sends += span.end - span.start,
            Kind::CallModule { cross: false } | Kind::Signal { .. } => {}
        }
    }
    Some(split)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_nested_and_overlapping_intervals() {
        assert_eq!(covered(0, 100, []), 0);
        // Nested: [20,30) inside [10,50).
        assert_eq!(covered(0, 100, [(10, 50), (20, 30)]), 40);
        // Overlapping: [10,50) ∪ [40,70) = [10,70).
        assert_eq!(covered(0, 100, [(40, 70), (10, 50)]), 60);
        // Disjoint and touching.
        assert_eq!(covered(0, 100, [(0, 10), (10, 20), (30, 35)]), 25);
        // Clipped to the parent.
        assert_eq!(covered(20, 60, [(0, 30), (50, 90)]), 20);
        assert_eq!(covered(20, 60, [(0, 10), (70, 90)]), 0);
    }

    #[test]
    fn self_time_subtracts_only_the_union_of_children() {
        assert_eq!(self_time(0, 100, []), 100);
        assert_eq!(self_time(0, 100, [(10, 50), (20, 30)]), 60);
        assert_eq!(self_time(0, 100, [(10, 50), (40, 70)]), 40);
        // A child running past its parent (another thread) counts only
        // inside the parent.
        assert_eq!(self_time(0, 100, [(90, 150)]), 90);
        assert_eq!(self_time(0, 100, [(0, 100), (0, 100)]), 0);
    }

    fn span(id: u64, parent: u64, kind: Kind, name: u32, start: u64, end: u64, aux: u64) -> Span {
        Span {
            pipeline: 0,
            seq: 7,
            id,
            parent,
            kind,
            name,
            start,
            end,
            aux,
        }
    }

    /// src(0) → mid(1) → sink(2), mid calling service 9; capture at 0.
    fn chain() -> Vec<Span> {
        vec![
            span(1, 0, Kind::Event { source: true }, 0, 10, 40, 10),
            span(2, 1, Kind::CallModule { cross: true }, 1, 15, 35, 0),
            span(3, 0, Kind::Event { source: false }, 1, 50, 120, 0),
            span(4, 3, Kind::CallService, 9, 55, 95, 0),
            span(5, 4, Kind::Handle, 9, 60, 90, 0),
            span(6, 3, Kind::CallModule { cross: false }, 2, 100, 110, 0),
            span(7, 0, Kind::Event { source: false }, 2, 118, 140, 0),
            span(8, 7, Kind::Signal { sink: true }, 2, 130, 132, 130),
        ]
    }

    #[test]
    fn blocking_path_splits_into_spans_lag_and_hops() {
        let split = split_frame(&chain()).expect("complete frame");
        assert_eq!(split.e2e, 130);
        assert_eq!(split.admit_lag, 10);
        // src 10→35, mid 50→110, sink 118→130.
        assert_eq!(split.covered, 25 + 60 + 12);
        assert_eq!(split.cross_device_hops, 15);
        assert_eq!(split.same_device_hops, 8);
        assert_eq!(split.residual(), 33);
        assert_eq!(
            split.residual(),
            split.admit_lag + split.cross_device_hops + split.same_device_hops
        );
        assert_eq!(split.cross_sends, 20);
        assert_eq!(split.module_self[&0], 10);
        assert_eq!(split.module_self[&1], 70 - 40 - 10);
        assert_eq!(split.module_self[&2], 20);
        assert_eq!(split.handle[&9], 30);
        assert_eq!(split.wait[&9], 10);
    }

    #[test]
    fn fan_in_follows_the_input_that_arrived_last() {
        // src → a, src → b; both → sink, which signals on its second input.
        let frame = vec![
            span(1, 0, Kind::Event { source: true }, 0, 0, 30, 0),
            span(2, 1, Kind::CallModule { cross: false }, 1, 5, 10, 0),
            span(3, 1, Kind::CallModule { cross: false }, 2, 20, 25, 0),
            span(4, 0, Kind::Event { source: false }, 1, 12, 40, 0),
            span(5, 4, Kind::CallModule { cross: false }, 3, 35, 38, 0),
            span(6, 0, Kind::Event { source: false }, 2, 27, 90, 0),
            span(7, 6, Kind::CallModule { cross: false }, 3, 80, 85, 0),
            span(8, 0, Kind::Event { source: false }, 3, 41, 45, 0),
            span(9, 0, Kind::Event { source: false }, 3, 88, 99, 0),
            span(10, 9, Kind::Signal { sink: true }, 3, 95, 96, 100),
        ];
        let split = split_frame(&frame).expect("complete frame");
        // sink#2 (88→95) ← b (27→85) ← src (0→25).
        assert_eq!(split.covered, 7 + 58 + 25);
        assert_eq!(split.same_device_hops, 2 + 3);
        assert_eq!(split.module_self[&3], 4 + 10);
    }

    #[test]
    fn frames_cut_by_the_recording_window_are_skipped() {
        let mut partial = chain();
        partial.retain(|s| s.id != 1);
        assert_eq!(split_frame(&partial), None);
        let mut no_sink = chain();
        no_sink.retain(|s| s.id != 8);
        assert_eq!(split_frame(&no_sink), None);

        let mut two = chain();
        two.extend(partial.iter().map(|s| Span { seq: 8, ..*s }));
        assert_eq!(split_frames(&mut two).len(), 1);
    }
}
