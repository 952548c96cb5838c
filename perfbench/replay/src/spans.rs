//! The replay's own spans: wall-clock intervals recorded around each
//! call into the `hprc-*` crates, on numbered lanes (one per thread).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use hprc_obs::SpanRecord;

/// One completed span, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Rec {
    pub name: String,
    pub lane: usize,
    pub start: u64,
    pub end: u64,
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Rec>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` on `lane`.
    pub fn time<T>(&self, lane: usize, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans
            .lock()
            .expect("span log poisoned by a panicking replay thread")
            .push(Rec {
                name: name.into(),
                lane,
                start,
                end,
            });
        out
    }

    pub fn records(&self) -> Vec<Rec> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking replay thread")
            .clone()
    }
}

/// Self time (ns) per span name. A span's self time is its
/// duration minus what its child spans on the same lane cover; spans
/// come from closures, so on one lane they nest properly.
pub fn self_times(recs: &[Rec]) -> BTreeMap<String, u64> {
    let mut by_lane: BTreeMap<usize, Vec<&Rec>> = BTreeMap::new();
    for r in recs {
        by_lane.entry(r.lane).or_default().push(r);
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for lane in by_lane.values_mut() {
        lane.sort_by_key(|r| (r.start, std::cmp::Reverse(r.end)));
        let mut child_ns = vec![0u64; lane.len()];
        let mut open: Vec<usize> = Vec::new();
        for i in 0..lane.len() {
            while open.last().is_some_and(|&p| lane[p].end <= lane[i].start) {
                open.pop();
            }
            if let Some(&p) = open.last() {
                child_ns[p] += lane[i].end - lane[i].start;
            }
            open.push(i);
        }
        for (r, child) in lane.iter().zip(child_ns) {
            *out.entry(r.name.clone()).or_default() += (r.end - r.start).saturating_sub(child);
        }
    }
    out
}

/// Nanoseconds of `[from, to)` that no span on any lane covers.
pub fn uncovered(recs: &[Rec], from: u64, to: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = recs
        .iter()
        .map(|r| (r.start.max(from), r.end.min(to)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = from;
    for (s, e) in iv {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (to - from) - covered
}

/// Self time (µs) per name of a registry snapshot's spans. Spans are
/// listed in completion order with their per-thread depth, so the
/// spans at depth `d + 1` completed since the last depth-`d` span are
/// exactly that span's children.
pub fn registry_self_times(spans: &[SpanRecord]) -> BTreeMap<String, u64> {
    let mut pending: Vec<u64> = Vec::new();
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let d = s.depth as usize;
        if pending.len() < d + 2 {
            pending.resize(d + 2, 0);
        }
        let children = std::mem::take(&mut pending[d + 1]);
        *out.entry(s.name.clone()).or_default() += s.dur_us.saturating_sub(children);
        pending[d] += s.dur_us;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, lane: usize, start: u64, end: u64) -> Rec {
        Rec {
            name: name.to_string(),
            lane,
            start,
            end,
        }
    }

    #[test]
    fn children_are_subtracted_from_their_parent_only() {
        let recs = [
            rec("outer", 0, 0, 100),
            rec("inner", 0, 10, 40),
            rec("inner", 0, 50, 60),
            rec("other-lane", 1, 0, 100),
        ];
        let t = self_times(&recs);
        assert_eq!(t["outer"], 60);
        assert_eq!(t["inner"], 40);
        assert_eq!(t["other-lane"], 100);
    }

    #[test]
    fn uncovered_counts_gaps_across_lanes() {
        let recs = [
            rec("a", 0, 10, 50),
            rec("b", 1, 40, 70),
            rec("c", 0, 90, 95),
        ];
        assert_eq!(uncovered(&recs, 0, 100), 10 + 20 + 5);
    }

    #[test]
    fn registry_depths_nest_in_completion_order() {
        let span = |name: &str, depth, dur_us| SpanRecord {
            name: name.to_string(),
            depth,
            start_us: 0,
            dur_us,
        };
        let spans = [
            span("sched", 1, 30),
            span("sim", 1, 20),
            span("exp", 0, 100),
            span("sim", 1, 5),
            span("exp", 0, 10),
        ];
        let t = registry_self_times(&spans);
        assert_eq!(t["exp"], 50 + 5);
        assert_eq!(t["sim"], 25);
        assert_eq!(t["sched"], 30);
    }
}
