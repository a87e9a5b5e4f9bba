//! Offline analysis of captured trace-event streams.
//!
//! [`analyze`] consumes a [`TraceSnapshot`] — from [`crate::snapshot_events`]
//! after an instrumented run, or from [`import_chrome_trace`] for a trace
//! file on disk — and reconstructs a per-arm performance report:
//!
//! * **Utilization timelines** — per-thread busy time (union of root spans)
//!   against the arm wall clock.
//! * **Packer overlap** — the fraction of `pipeline.pack` / `fleet.pack`
//!   time hidden under concurrent chunk shading, plus bus contention: time
//!   where two or more `gpu.xfer` transfers are in flight at once.
//! * **Critical path** — the longest *time-respecting* chain through the
//!   chunk/pack span DAG (an edge exists only where the predecessor ends
//!   before the successor begins), with per-stage self-time attribution
//!   along the winning path. Because path members never overlap in time,
//!   the critical path can never exceed the arm wall.
//! * **Fleet balance** — per-device chunk counts, steal counts, busy time
//!   and utilization against the fleet makespan.
//!
//! Streams are segmented into *arms* by `bench.arm` spans (the bench
//! harness brackets each measured configuration with one); a stream with no
//! arm markers is analyzed as a single arm named `trace`. See DESIGN.md §17
//! for the DAG reconstruction rules and the metric glossary.

use crate::json::{self, Value};
use crate::{ArgValue, Event, Phase, TraceSnapshot};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Span categories treated as chunk-execution nodes in the critical-path DAG.
const CHUNK_CATS: [&str; 2] = ["pipeline.chunk", "fleet.chunk"];
/// Span categories treated as staging (pack) nodes in the critical-path DAG.
const PACK_CATS: [&str; 2] = ["pipeline.pack", "fleet.pack"];
/// Category bracketing one measured bench configuration.
const ARM_CAT: &str = "bench.arm";
/// Category of per-stage spans nested inside chunk spans.
const STAGE_CAT: &str = "pipeline.stage";
/// Category of host↔device transfer spans (the shared-bus occupancy signal).
const XFER_CAT: &str = "gpu.xfer";

// ---------------------------------------------------------------------------
// Span reconstruction
// ---------------------------------------------------------------------------

/// One reconstructed span: a begin/end pair matched on its thread's stack.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Sink thread id the span was recorded on.
    pub tid: u64,
    /// Category of the begin event.
    pub cat: &'static str,
    /// Span name.
    pub name: String,
    /// Begin timestamp, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End timestamp. An end-less begin (a span still open when the stream
    /// was captured) closes at the stream's maximum timestamp; an
    /// begin-less end is dropped.
    pub end_ns: u64,
    /// Nesting depth on its thread at begin time (0 = root span).
    pub depth: usize,
    /// Arguments recorded on the begin event.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| match v {
                ArgValue::U64(n) => Some(*n),
                ArgValue::I64(n) => u64::try_from(*n).ok(),
                _ => None,
            })
    }
}

/// Rebuild matched spans from an event stream. Events must be in per-thread
/// record order (the order [`crate::snapshot_events`] and
/// [`import_chrome_trace`] provide); begin/end pairing uses one stack per
/// thread, so ragged interleavings across threads are fine.
pub fn build_spans(events: &[Event]) -> Vec<SpanRec> {
    let max_ts = events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
    let mut spans: Vec<SpanRec> = Vec::new();
    let mut stacks: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for ev in events {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.phase {
            Phase::Begin => {
                let depth = stack.len();
                stack.push(spans.len());
                spans.push(SpanRec {
                    tid: ev.tid,
                    cat: ev.cat,
                    name: ev.name.clone(),
                    start_ns: ev.ts_ns,
                    end_ns: max_ts,
                    depth,
                    args: ev.args.clone(),
                });
            }
            Phase::End => {
                if let Some(idx) = stack.pop() {
                    spans[idx].end_ns = ev.ts_ns.max(spans[idx].start_ns);
                }
            }
            Phase::Instant | Phase::Counter => {}
        }
    }
    spans
}

// ---------------------------------------------------------------------------
// Interval arithmetic
// ---------------------------------------------------------------------------

/// Merge intervals into a sorted, disjoint union.
fn merge_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.retain(|(a, b)| b > a);
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (a, b) in iv {
        match out.last_mut() {
            Some((_, e)) if a <= *e => *e = (*e).max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

fn union_len(iv: &[(u64, u64)]) -> u64 {
    iv.iter().map(|(a, b)| b - a).sum()
}

/// Length of `[a, b)` ∩ the (sorted, disjoint) union.
fn intersect_len(a: u64, b: u64, union: &[(u64, u64)]) -> u64 {
    union
        .iter()
        .map(|&(s, e)| e.min(b).saturating_sub(s.max(a)))
        .sum()
}

/// Sweep-line over intervals: returns `(any_busy, contended)` — total time
/// with ≥ 1 interval active and with ≥ 2 active.
fn occupancy(iv: &[(u64, u64)]) -> (u64, u64) {
    let mut points: Vec<(u64, i64)> = Vec::with_capacity(iv.len() * 2);
    for &(a, b) in iv {
        if b > a {
            points.push((a, 1));
            points.push((b, -1));
        }
    }
    points.sort_unstable();
    let (mut busy, mut contended) = (0u64, 0u64);
    let mut active = 0i64;
    let mut prev = 0u64;
    for (ts, delta) in points {
        if active >= 1 {
            busy += ts - prev;
        }
        if active >= 2 {
            contended += ts - prev;
        }
        active += delta;
        prev = ts;
    }
    (busy, contended)
}

// ---------------------------------------------------------------------------
// Report structures
// ---------------------------------------------------------------------------

/// Busy time and utilization for one timeline row (thread).
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadUtil {
    /// Sink thread id.
    pub tid: u64,
    /// Registered thread name (`thread-<tid>` if never named).
    pub name: String,
    /// Union of root-span time on this thread, seconds.
    pub busy_s: f64,
    /// `busy_s / wall_s`, clamped to `[0, 1]`.
    pub utilization: f64,
}

/// Pack-overlap and bus-contention accounting for one arm.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverlapStats {
    /// Total `pipeline.pack` + `fleet.pack` span time, seconds.
    pub pack_total_s: f64,
    /// Pack time overlapped by chunk execution on any thread, seconds.
    pub pack_hidden_s: f64,
    /// Time with at least one `gpu.xfer` transfer in flight, seconds.
    pub bus_busy_s: f64,
    /// Time with two or more transfers in flight at once, seconds.
    pub bus_contended_s: f64,
}

impl OverlapStats {
    /// Fraction of pack time hidden under shading. An arm that never packs
    /// (single-chunk plans) is perfectly overlapped by definition: `1.0`.
    pub fn pack_overlap_efficiency(&self) -> f64 {
        if self.pack_total_s <= 0.0 {
            1.0
        } else {
            (self.pack_hidden_s / self.pack_total_s).clamp(0.0, 1.0)
        }
    }
}

/// The longest time-respecting chain through the chunk/pack DAG.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CriticalPath {
    /// Summed duration of path members, seconds. Path members never overlap
    /// in time, so this never exceeds the arm wall.
    pub total_s: f64,
    /// Number of spans on the path.
    pub nodes: usize,
    /// Self-time attribution along the path, `(bucket, seconds)` sorted by
    /// bucket name. Buckets are the `pipeline.stage` names (`upload`,
    /// `distance`, …) plus `pack` (staging nodes) and `other`
    /// (chunk time not covered by any stage span).
    pub stages: Vec<(String, f64)>,
}

/// Per-device load for one fleet arm.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceLoad {
    /// Device ordinal (the `device` span argument).
    pub device: u64,
    /// Timeline-row name of the device thread (e.g. `device0.7800gtx`).
    pub label: String,
    /// Chunks executed.
    pub chunks: u64,
    /// Of those, chunks obtained by stealing another device's queue.
    pub stolen: u64,
    /// Summed `fleet.chunk` span time, seconds.
    pub busy_s: f64,
    /// `busy_s` / fleet makespan, clamped to `[0, 1]`.
    pub utilization: f64,
}

/// Fleet load-balance metrics (present when the arm ran `fleet.chunk` spans).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBalance {
    /// First chunk begin → last chunk end across all devices, seconds.
    pub makespan_s: f64,
    /// Total stolen chunks across devices.
    pub steals: u64,
    /// Per-device load rows, sorted by device ordinal.
    pub devices: Vec<DeviceLoad>,
}

impl FleetBalance {
    /// Mean device busy time over max device busy time — `1.0` is a
    /// perfectly balanced fleet.
    pub fn load_balance(&self) -> f64 {
        let max = self.devices.iter().map(|d| d.busy_s).fold(0.0f64, f64::max);
        if max <= 0.0 || self.devices.is_empty() {
            return 1.0;
        }
        let mean = self.devices.iter().map(|d| d.busy_s).sum::<f64>() / self.devices.len() as f64;
        (mean / max).clamp(0.0, 1.0)
    }
}

/// Analysis of one bench arm (one `bench.arm` bracket, or the whole stream).
#[derive(Debug, Clone, PartialEq)]
pub struct ArmAnalysis {
    /// Arm name (`bench.arm` span name, or `trace` for unbracketed streams).
    pub name: String,
    /// Arm wall clock, seconds.
    pub wall_s: f64,
    /// Per-thread utilization rows, sorted by tid.
    pub threads: Vec<ThreadUtil>,
    /// Pack-overlap and bus-contention accounting.
    pub overlap: OverlapStats,
    /// Longest time-respecting chain through the chunk/pack DAG.
    pub critical_path: CriticalPath,
    /// Fleet load balance; `None` when the arm ran no `fleet.chunk` spans.
    pub fleet: Option<FleetBalance>,
}

/// Full analyzer output: one report per arm, in chronological order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceAnalysis {
    /// Per-arm reports.
    pub arms: Vec<ArmAnalysis>,
}

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

/// Analyze a captured snapshot: segment into arms and compute utilization,
/// overlap, critical-path, and fleet-balance reports for each.
pub fn analyze(snap: &TraceSnapshot) -> TraceAnalysis {
    let arms = segment_arms(&snap.events)
        .into_iter()
        .map(|(name, bounds, events)| analyze_arm(name, bounds, &events, &snap.threads))
        .collect();
    TraceAnalysis { arms }
}

/// Split the stream into `(name, (start, end), events)` per `bench.arm`
/// bracket. Arm marker events themselves are excluded from the slices. A
/// stream without brackets is one arm named `trace` spanning all events.
#[allow(clippy::type_complexity)]
fn segment_arms(events: &[Event]) -> Vec<(String, (u64, u64), Vec<Event>)> {
    let mut arms: Vec<SpanRec> = build_spans(events)
        .into_iter()
        .filter(|s| s.cat == ARM_CAT)
        .collect();
    if arms.is_empty() {
        let lo = events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
        let hi = events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
        return vec![("trace".to_owned(), (lo, hi), events.to_vec())];
    }
    arms.sort_by_key(|s| (s.start_ns, s.end_ns));
    arms.into_iter()
        .map(|arm| {
            let slice: Vec<Event> = events
                .iter()
                .filter(|e| e.cat != ARM_CAT && e.ts_ns >= arm.start_ns && e.ts_ns <= arm.end_ns)
                .cloned()
                .collect();
            (arm.name.clone(), (arm.start_ns, arm.end_ns), slice)
        })
        .collect()
}

fn thread_name(threads: &[(u64, String)], tid: u64) -> String {
    threads
        .iter()
        .find(|(t, _)| *t == tid)
        .map(|(_, n)| n.clone())
        .unwrap_or_else(|| format!("thread-{tid}"))
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn analyze_arm(
    name: String,
    bounds: (u64, u64),
    events: &[Event],
    threads: &[(u64, String)],
) -> ArmAnalysis {
    let spans = build_spans(events);
    let wall_ns = bounds.1.saturating_sub(bounds.0);
    let wall_s = ns_to_s(wall_ns);

    // Per-thread busy: union of root spans (roots on one thread are disjoint
    // by stack construction, but a union keeps clamped streams safe too).
    let mut per_tid: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.depth == 0) {
        per_tid
            .entry(s.tid)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let thread_rows: Vec<ThreadUtil> = per_tid
        .into_iter()
        .map(|(tid, iv)| {
            let busy_ns = union_len(&merge_intervals(iv));
            let utilization = if wall_ns == 0 {
                0.0
            } else {
                (busy_ns as f64 / wall_ns as f64).clamp(0.0, 1.0)
            };
            ThreadUtil {
                tid,
                name: thread_name(threads, tid),
                busy_s: ns_to_s(busy_ns),
                utilization,
            }
        })
        .collect();

    ArmAnalysis {
        overlap: overlap_stats(&spans),
        critical_path: critical_path(&spans),
        fleet: fleet_balance(&spans, threads),
        name,
        wall_s,
        threads: thread_rows,
    }
}

fn overlap_stats(spans: &[SpanRec]) -> OverlapStats {
    let chunk_union = merge_intervals(
        spans
            .iter()
            .filter(|s| CHUNK_CATS.contains(&s.cat))
            .map(|s| (s.start_ns, s.end_ns))
            .collect(),
    );
    let (mut pack_total, mut pack_hidden) = (0u64, 0u64);
    for s in spans.iter().filter(|s| PACK_CATS.contains(&s.cat)) {
        pack_total += s.dur_ns();
        pack_hidden += intersect_len(s.start_ns, s.end_ns, &chunk_union);
    }
    let xfers: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.cat == XFER_CAT)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let (bus_busy, bus_contended) = occupancy(&xfers);
    OverlapStats {
        pack_total_s: ns_to_s(pack_total),
        pack_hidden_s: ns_to_s(pack_hidden.min(pack_total)),
        bus_busy_s: ns_to_s(bus_busy),
        bus_contended_s: ns_to_s(bus_contended),
    }
}

/// Longest path through the chunk/pack DAG. Nodes are chunk and pack spans
/// (falling back to root spans when a stream has neither); edges are
/// time-respecting only:
///
/// * consecutive nodes on the same thread, when the earlier one ends before
///   the later one begins (serial execution order);
/// * `pack(chunk=j)` → `chunk(index=j)`, when the pack ends before the
///   chunk begins (staging feeds execution).
fn critical_path(spans: &[SpanRec]) -> CriticalPath {
    let mut nodes: Vec<usize> = (0..spans.len())
        .filter(|&i| CHUNK_CATS.contains(&spans[i].cat) || PACK_CATS.contains(&spans[i].cat))
        .collect();
    if nodes.is_empty() {
        nodes = (0..spans.len()).filter(|&i| spans[i].depth == 0).collect();
    }
    if nodes.is_empty() {
        return CriticalPath::default();
    }
    nodes.sort_by_key(|&i| (spans[i].start_ns, spans[i].end_ns));

    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let push_edge = |preds: &mut Vec<Vec<usize>>, from: usize, to: usize| {
        // Keep the DP a forward pass: only edges that respect sorted order.
        if from < to && spans[nodes[from]].end_ns <= spans[nodes[to]].start_ns {
            preds[to].push(from);
        }
    };
    // Same-thread serial order.
    let mut by_tid: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (p, &i) in nodes.iter().enumerate() {
        by_tid.entry(spans[i].tid).or_default().push(p);
    }
    for list in by_tid.values() {
        for w in list.windows(2) {
            push_edge(&mut preds, w[0], w[1]);
        }
    }
    // Staging → execution: pack(chunk=j) feeds chunk(index=j).
    let mut chunk_by_index: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (p, &i) in nodes.iter().enumerate() {
        if CHUNK_CATS.contains(&spans[i].cat) {
            if let Some(j) = spans[i].arg_u64("index") {
                chunk_by_index.entry(j).or_default().push(p);
            }
        }
    }
    for (p, &i) in nodes.iter().enumerate() {
        if PACK_CATS.contains(&spans[i].cat) {
            if let Some(j) = spans[i].arg_u64("chunk") {
                for &c in chunk_by_index.get(&j).into_iter().flatten() {
                    push_edge(&mut preds, p, c);
                }
            }
        }
    }
    // Forward DP for the heaviest chain.
    let n = nodes.len();
    let mut dp = vec![0u64; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for p in 0..n {
        let mut best = 0u64;
        for &q in &preds[p] {
            if dp[q] > best {
                best = dp[q];
                parent[p] = Some(q);
            }
        }
        dp[p] = best + spans[nodes[p]].dur_ns();
    }
    let end = (0..n).max_by_key(|&p| dp[p]).unwrap_or(0);
    let mut path = vec![end];
    while let Some(q) = parent[*path.last().unwrap()] {
        path.push(q);
    }
    path.reverse();

    // Per-stage attribution along the path.
    let mut buckets: BTreeMap<String, u64> = BTreeMap::new();
    for &p in &path {
        let s = &spans[nodes[p]];
        if PACK_CATS.contains(&s.cat) {
            *buckets.entry("pack".to_owned()).or_default() += s.dur_ns();
        } else if s.cat == STAGE_CAT {
            *buckets.entry(s.name.clone()).or_default() += s.dur_ns();
        } else {
            let mut covered = 0u64;
            for st in spans.iter().filter(|st| {
                st.cat == STAGE_CAT
                    && st.tid == s.tid
                    && st.depth > s.depth
                    && st.start_ns >= s.start_ns
                    && st.end_ns <= s.end_ns
            }) {
                *buckets.entry(st.name.clone()).or_default() += st.dur_ns();
                covered += st.dur_ns();
            }
            *buckets.entry("other".to_owned()).or_default() += s.dur_ns().saturating_sub(covered);
        }
    }
    CriticalPath {
        total_s: ns_to_s(dp[end]),
        nodes: path.len(),
        stages: buckets.into_iter().map(|(k, v)| (k, ns_to_s(v))).collect(),
    }
}

fn fleet_balance(spans: &[SpanRec], threads: &[(u64, String)]) -> Option<FleetBalance> {
    let fchunks: Vec<&SpanRec> = spans.iter().filter(|s| s.cat == "fleet.chunk").collect();
    if fchunks.is_empty() {
        return None;
    }
    let lo = fchunks.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let hi = fchunks.iter().map(|s| s.end_ns).max().unwrap_or(0);
    let makespan_ns = hi.saturating_sub(lo);
    struct Acc {
        tid: u64,
        chunks: u64,
        stolen: u64,
        busy_ns: u64,
    }
    let mut per_dev: BTreeMap<u64, Acc> = BTreeMap::new();
    for s in &fchunks {
        let dev = s.arg_u64("device").unwrap_or(u64::MAX);
        let acc = per_dev.entry(dev).or_insert(Acc {
            tid: s.tid,
            chunks: 0,
            stolen: 0,
            busy_ns: 0,
        });
        acc.chunks += 1;
        acc.stolen += s.arg_u64("stolen").unwrap_or(0).min(1);
        acc.busy_ns += s.dur_ns();
    }
    let devices: Vec<DeviceLoad> = per_dev
        .into_iter()
        .map(|(device, acc)| DeviceLoad {
            device,
            label: thread_name(threads, acc.tid),
            chunks: acc.chunks,
            stolen: acc.stolen,
            busy_s: ns_to_s(acc.busy_ns),
            utilization: if makespan_ns == 0 {
                0.0
            } else {
                (acc.busy_ns as f64 / makespan_ns as f64).clamp(0.0, 1.0)
            },
        })
        .collect();
    Some(FleetBalance {
        makespan_s: ns_to_s(makespan_ns),
        steals: devices.iter().map(|d| d.stolen).sum(),
        devices,
    })
}

// ---------------------------------------------------------------------------
// Text rendering
// ---------------------------------------------------------------------------

fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Render an analysis as an aligned plain-text report (shared by
/// `tables -- analyze` and the `amc_profile` example).
pub fn render_text(analysis: &TraceAnalysis) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for arm in &analysis.arms {
        let _ = writeln!(out, "arm {:<24} wall {:>9.3}s", arm.name, arm.wall_s);
        let cp = &arm.critical_path;
        let share = if arm.wall_s > 0.0 {
            cp.total_s / arm.wall_s
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  critical path {:>9.3}s  ({} of wall, {} nodes)",
            cp.total_s,
            pct(share),
            cp.nodes
        );
        let mut stages = cp.stages.clone();
        stages.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (stage, s) in stages.iter().filter(|(_, s)| *s > 0.0) {
            let stage_share = if cp.total_s > 0.0 {
                s / cp.total_s
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "    {:<12} {:>9.3}s  {:>6}",
                stage,
                s,
                pct(stage_share)
            );
        }
        let ov = &arm.overlap;
        let _ = writeln!(
            out,
            "  pack overlap  {:>9.3}s hidden of {:>9.3}s  ({} efficient)",
            ov.pack_hidden_s,
            ov.pack_total_s,
            pct(ov.pack_overlap_efficiency())
        );
        let _ = writeln!(
            out,
            "  bus           {:>9.3}s busy, {:>9.3}s contended",
            ov.bus_busy_s, ov.bus_contended_s
        );
        for t in &arm.threads {
            let _ = writeln!(
                out,
                "  thread {:<20} busy {:>9.3}s  util {:>6}",
                t.name,
                t.busy_s,
                pct(t.utilization)
            );
        }
        if let Some(fleet) = &arm.fleet {
            let _ = writeln!(
                out,
                "  fleet makespan {:>9.3}s  balance {:.3}  steals {}",
                fleet.makespan_s,
                fleet.load_balance(),
                fleet.steals
            );
            for d in &fleet.devices {
                let _ = writeln!(
                    out,
                    "    {:<20} chunks {:>3} ({} stolen)  busy {:>9.3}s  util {:>6}",
                    d.label,
                    d.chunks,
                    d.stolen,
                    d.busy_s,
                    pct(d.utilization)
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Chrome trace-event import
// ---------------------------------------------------------------------------

/// Intern a category/argument key so imported events can share the
/// `&'static str` fields of [`Event`]. The pool is bounded by the set of
/// distinct category and key names in a trace (a small closed vocabulary).
fn intern(s: &str) -> &'static str {
    static POOL: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut pool = POOL.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&hit) = pool.iter().find(|x| **x == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.push(leaked);
    leaked
}

fn arg_from_json(v: &Value) -> ArgValue {
    match v {
        Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9.22e18 => ArgValue::U64(*n as u64),
        Value::Num(n) if n.fract() == 0.0 && *n < 0.0 && *n > -9.22e18 => ArgValue::I64(*n as i64),
        Value::Num(n) => ArgValue::F64(*n),
        Value::Str(s) => ArgValue::Str(s.clone()),
        Value::Bool(b) => ArgValue::U64(*b as u64),
        _ => ArgValue::Str(String::new()),
    }
}

/// Parse a Chrome trace-event JSON document (the [`crate::chrome_trace_json`]
/// format, or any `{"traceEvents": [...]}` / bare-array trace) back into a
/// [`TraceSnapshot`]. `X` (complete) events are split into begin/end pairs;
/// metadata `thread_name` events populate the thread table.
pub fn import_chrome_trace(text: &str) -> Result<TraceSnapshot, String> {
    let doc = json::parse(text).map_err(|e| format!("trace JSON: {e}"))?;
    let raw = match (&doc, doc.get("traceEvents")) {
        (_, Some(Value::Arr(evs))) => evs,
        (Value::Arr(evs), _) => evs,
        _ => return Err("no traceEvents array".to_owned()),
    };
    let mut events: Vec<Event> = Vec::with_capacity(raw.len());
    let mut threads: Vec<(u64, String)> = Vec::new();
    for ev in raw {
        let ph = ev.get("ph").and_then(Value::as_str).unwrap_or("");
        let tid = ev.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned();
        if ph == "M" {
            if name == "thread_name" {
                if let Some(n) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                {
                    if !threads.iter().any(|(t, _)| *t == tid) {
                        threads.push((tid, n.to_owned()));
                    }
                }
            }
            continue;
        }
        let ts_us = match ev.get("ts").and_then(Value::as_f64) {
            Some(ts) => ts,
            None => continue,
        };
        let ts_ns = (ts_us * 1e3).round().max(0.0) as u64;
        let cat = intern(ev.get("cat").and_then(Value::as_str).unwrap_or(""));
        let args: Vec<(&'static str, ArgValue)> = match ev.get("args") {
            Some(Value::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| (intern(k), arg_from_json(v)))
                .collect(),
            _ => Vec::new(),
        };
        let phase = match ph {
            "B" | "X" => Phase::Begin,
            "E" => Phase::End,
            "i" | "I" => Phase::Instant,
            "C" => Phase::Counter,
            _ => continue,
        };
        // A complete (`X`) event becomes a begin/end pair.
        let end = (ph == "X").then(|| {
            let dur_us = ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
            Event {
                ts_ns: ts_ns + (dur_us * 1e3).round().max(0.0) as u64,
                tid,
                phase: Phase::End,
                cat,
                name: name.clone(),
                args: Vec::new(),
            }
        });
        events.push(Event {
            ts_ns,
            tid,
            phase,
            cat,
            name,
            args,
        });
        events.extend(end);
    }
    // Restore global time order; the stable sort preserves per-thread
    // begin-before-end ordering at equal timestamps.
    events.sort_by_key(|e| e.ts_ns);
    Ok(TraceSnapshot { events, threads })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, tid: u64, phase: Phase, cat: &'static str, name: &str) -> Event {
        Event {
            ts_ns,
            tid,
            phase,
            cat,
            name: name.to_owned(),
            args: Vec::new(),
        }
    }

    fn ev_args(
        ts_ns: u64,
        tid: u64,
        phase: Phase,
        cat: &'static str,
        name: &str,
        args: &[(&'static str, u64)],
    ) -> Event {
        Event {
            args: args.iter().map(|&(k, v)| (k, ArgValue::U64(v))).collect(),
            ..ev(ts_ns, tid, phase, cat, name)
        }
    }

    #[test]
    fn spans_rebuild_with_depth_and_unclosed_tail() {
        let events = vec![
            ev(0, 1, Phase::Begin, "a", "outer"),
            ev(10, 1, Phase::Begin, "b", "inner"),
            ev(20, 1, Phase::End, "b", "inner"),
            ev(30, 1, Phase::Begin, "c", "dangling"),
            ev(40, 2, Phase::Begin, "a", "other-thread"),
            ev(50, 2, Phase::End, "a", "other-thread"),
        ];
        let spans = build_spans(&events);
        assert_eq!(spans.len(), 4);
        assert_eq!(
            (spans[0].depth, spans[0].start_ns, spans[0].end_ns),
            (0, 0, 50)
        );
        assert_eq!(
            (spans[1].depth, spans[1].start_ns, spans[1].end_ns),
            (1, 10, 20)
        );
        // Unclosed spans end at the stream max.
        assert_eq!(spans[2].end_ns, 50);
        assert_eq!(spans[3].tid, 2);
    }

    #[test]
    fn interval_union_and_intersection() {
        let u = merge_intervals(vec![(10, 20), (15, 30), (40, 50), (50, 50)]);
        assert_eq!(u, vec![(10, 30), (40, 50)]);
        assert_eq!(union_len(&u), 30);
        assert_eq!(intersect_len(0, 100, &u), 30);
        assert_eq!(intersect_len(25, 45, &u), 10);
        assert_eq!(intersect_len(30, 40, &u), 0);
    }

    #[test]
    fn occupancy_counts_concurrency() {
        // [0,10) and [5,20) overlap on [5,10); [30,30) is empty.
        let (busy, contended) = occupancy(&[(0, 10), (5, 20), (30, 30)]);
        assert_eq!(busy, 20);
        assert_eq!(contended, 5);
    }

    #[test]
    fn pack_fully_hidden_under_chunks_scores_one() {
        let events = vec![
            ev_args(
                0,
                1,
                Phase::Begin,
                "pipeline.chunk",
                "chunk",
                &[("index", 0)],
            ),
            ev_args(
                10,
                2,
                Phase::Begin,
                "pipeline.pack",
                "pack",
                &[("chunk", 1)],
            ),
            ev(60, 2, Phase::End, "pipeline.pack", "pack"),
            ev(100, 1, Phase::End, "pipeline.chunk", "chunk"),
            ev_args(
                100,
                1,
                Phase::Begin,
                "pipeline.chunk",
                "chunk",
                &[("index", 1)],
            ),
            ev(180, 1, Phase::End, "pipeline.chunk", "chunk"),
        ];
        let snap = TraceSnapshot {
            events,
            threads: vec![(1, "main".into()), (2, "packer".into())],
        };
        let analysis = analyze(&snap);
        assert_eq!(analysis.arms.len(), 1);
        let arm = &analysis.arms[0];
        assert_eq!(arm.name, "trace");
        assert!((arm.overlap.pack_total_s - 50e-9).abs() < 1e-15);
        assert!((arm.overlap.pack_overlap_efficiency() - 1.0).abs() < 1e-12);
        // Critical path: chunk0 (100) → chunk1 (80), not pack (50) → chunk1.
        assert_eq!(arm.critical_path.nodes, 2);
        assert!((arm.critical_path.total_s - 180e-9).abs() < 1e-15);
    }

    #[test]
    fn critical_path_routes_through_slow_packs() {
        // Packing dominates: chunk spans are short, packs are long, so the
        // heaviest chain is pack1 → pack2 → chunk2.
        let events = vec![
            ev_args(
                0,
                1,
                Phase::Begin,
                "pipeline.chunk",
                "chunk",
                &[("index", 0)],
            ),
            ev_args(5, 2, Phase::Begin, "pipeline.pack", "pack", &[("chunk", 1)]),
            ev(10, 1, Phase::End, "pipeline.chunk", "chunk"),
            ev(100, 2, Phase::End, "pipeline.pack", "pack"),
            ev_args(
                100,
                1,
                Phase::Begin,
                "pipeline.chunk",
                "chunk",
                &[("index", 1)],
            ),
            ev_args(
                105,
                2,
                Phase::Begin,
                "pipeline.pack",
                "pack",
                &[("chunk", 2)],
            ),
            ev(110, 1, Phase::End, "pipeline.chunk", "chunk"),
            ev(200, 2, Phase::End, "pipeline.pack", "pack"),
            ev_args(
                200,
                1,
                Phase::Begin,
                "pipeline.chunk",
                "chunk",
                &[("index", 2)],
            ),
            ev(210, 1, Phase::End, "pipeline.chunk", "chunk"),
        ];
        let snap = TraceSnapshot {
            events,
            threads: Vec::new(),
        };
        let arm = &analyze(&snap).arms[0];
        // pack1 (95) + pack2 (95) + chunk2 (10) = 200 beats chunks 10+10+10.
        assert_eq!(arm.critical_path.nodes, 3);
        assert!((arm.critical_path.total_s - 200e-9).abs() < 1e-15);
        let pack_s: f64 = arm
            .critical_path
            .stages
            .iter()
            .filter(|(k, _)| k == "pack")
            .map(|(_, v)| *v)
            .sum();
        assert!((pack_s - 190e-9).abs() < 1e-15);
    }

    #[test]
    fn arms_segment_the_stream() {
        let events = vec![
            ev(0, 1, Phase::Begin, "bench.arm", "headline"),
            ev(10, 1, Phase::Begin, "pipeline.chunk", "chunk"),
            ev(90, 1, Phase::End, "pipeline.chunk", "chunk"),
            ev(100, 1, Phase::End, "bench.arm", "headline"),
            ev(200, 1, Phase::Begin, "bench.arm", "fleet:dual"),
            ev_args(
                210,
                2,
                Phase::Begin,
                "fleet.chunk",
                "chunk",
                &[("device", 0), ("index", 0), ("stolen", 0)],
            ),
            ev(290, 2, Phase::End, "fleet.chunk", "chunk"),
            ev(300, 1, Phase::End, "bench.arm", "fleet:dual"),
        ];
        let snap = TraceSnapshot {
            events,
            threads: vec![(2, "device0.7800gtx".into())],
        };
        let analysis = analyze(&snap);
        let names: Vec<&str> = analysis.arms.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["headline", "fleet:dual"]);
        assert!(analysis.arms[0].fleet.is_none());
        let fleet = analysis.arms[1].fleet.as_ref().unwrap();
        assert_eq!(fleet.devices.len(), 1);
        assert_eq!(fleet.devices[0].label, "device0.7800gtx");
        assert!((analysis.arms[1].wall_s - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn import_round_trips_the_exporter_format() {
        let json = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"hyperspec"}},
            {"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"packer"}},
            {"name":"chunk","cat":"pipeline.chunk","ph":"B","pid":1,"tid":1,"ts":0.100,"args":{"index":0,"lines":64}},
            {"name":"pack","cat":"pipeline.pack","ph":"B","pid":1,"tid":3,"ts":0.200,"args":{"chunk":1}},
            {"name":"pack","cat":"pipeline.pack","ph":"E","pid":1,"tid":3,"ts":0.300},
            {"name":"chunk","cat":"pipeline.chunk","ph":"E","pid":1,"tid":1,"ts":0.500},
            {"name":"work","cat":"ext","ph":"X","pid":1,"tid":4,"ts":1.000,"dur":2.000}
        ],
        "displayTimeUnit":"ms"}"#;
        let snap = import_chrome_trace(json).unwrap();
        assert_eq!(snap.threads, vec![(3, "packer".to_owned())]);
        assert_eq!(snap.events.len(), 6, "X splits into B/E");
        let spans = build_spans(&snap.events);
        assert_eq!(spans.len(), 3);
        let chunk = spans.iter().find(|s| s.cat == "pipeline.chunk").unwrap();
        assert_eq!((chunk.start_ns, chunk.end_ns), (100, 500));
        assert_eq!(chunk.arg_u64("lines"), Some(64));
        let x = spans.iter().find(|s| s.cat == "ext").unwrap();
        assert_eq!((x.start_ns, x.end_ns), (1000, 3000));
    }

    #[test]
    fn import_rejects_garbage() {
        assert!(import_chrome_trace("not json").is_err());
        assert!(import_chrome_trace("{\"other\":1}").is_err());
        assert!(import_chrome_trace("{\"traceEvents\":[{]}").is_err());
    }

    #[test]
    fn render_text_mentions_every_section() {
        let events = vec![
            ev_args(
                0,
                1,
                Phase::Begin,
                "pipeline.chunk",
                "chunk",
                &[("index", 0)],
            ),
            ev(100, 1, Phase::End, "pipeline.chunk", "chunk"),
        ];
        let snap = TraceSnapshot {
            events,
            threads: vec![(1, "main".into())],
        };
        let text = render_text(&analyze(&snap));
        for needle in [
            "arm trace",
            "critical path",
            "pack overlap",
            "bus",
            "thread main",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
