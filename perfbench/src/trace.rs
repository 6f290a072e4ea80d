//! Outside-in tracing: spans recorded around the calls the benchmark makes
//! into each layer, plus a [`Policy`] wrapper that times every policy hook
//! and the microbatch former from outside the engine.
//!
//! Spans are kept in memory (name, start, end, parent, id) and written out
//! once, when the benchmark ends. Spans of one gateway request share its
//! handle as id; every other span carries the id of the simulation it
//! belongs to.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;

use cluster::{
    ClusterState, DeferredHooks, GroupId, HookPlan, MicroBatch, MicrobatchFormerSpec,
    OomResolution, Policy, RequestId, SeqChunk, SpecJob, TransferEvent,
};
use sim_core::SimTime;

use crate::clock::Stopwatch;

/// One closed span. `parent` is the index of the enclosing span plus one
/// (0 = a root span).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub id: u64,
}

/// In-memory span store and counters of one traced pass.
pub struct Tracer {
    origin: Stopwatch,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    counters: RefCell<BTreeMap<&'static str, f64>>,
    /// Id stamped on spans that do not name their own (the simulation).
    current_id: Cell<u64>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: u32,
}

impl SpanGuard<'_> {
    /// Re-stamps the span's id (a gateway handle known only once the call
    /// returns).
    pub fn set_id(&self, id: u64) {
        self.tracer.spans.borrow_mut()[self.index as usize].id = id;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.close(self.index);
    }
}

impl Tracer {
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            origin: Stopwatch::start(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counters: RefCell::new(BTreeMap::new()),
            current_id: Cell::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed_ns()
    }

    /// Sets the id stamped on spans opened with [`Tracer::span`].
    pub fn set_current_id(&self, id: u64) {
        self.current_id.set(id);
    }

    /// Opens a span carrying the current simulation id.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_with_id(name, self.current_id.get())
    }

    /// Opens a span with an explicit id (a gateway request handle).
    pub fn span_with_id(&self, name: &'static str, id: u64) -> SpanGuard<'_> {
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let index = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: open.last().map_or(0, |&p| p + 1),
            id,
        });
        open.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    fn close(&self, index: u32) {
        let end = self.now_ns();
        self.spans.borrow_mut()[index as usize].end_ns = end;
        let top = self.open.borrow_mut().pop();
        debug_assert_eq!(top, Some(index), "spans close in LIFO order");
    }

    /// Adds `v` to a named counter (counts, and time measured in bulk
    /// where one span per call would cost more than the call).
    pub fn add(&self, counter: &'static str, v: f64) {
        *self.counters.borrow_mut().entry(counter).or_insert(0.0) += v;
    }

    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.borrow().get(counter).copied().unwrap_or(0.0)
    }

    /// Durations in seconds of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    pub fn busy_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as CSV: `name,start_ns,end_ns,parent,id`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,id")?;
        for s in self.spans.borrow().iter() {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, s.parent, s.id
            )?;
        }
        out.flush()
    }
}

/// Wraps a paper-system policy and times each hook from outside. Every
/// call is forwarded unchanged, so the wrapped run reports exactly what
/// the bare policy reports.
pub struct TracedPolicy {
    inner: Box<dyn Policy>,
    tracer: Rc<Tracer>,
}

impl TracedPolicy {
    pub fn new(inner: Box<dyn Policy>, tracer: Rc<Tracer>) -> Self {
        TracedPolicy { inner, tracer }
    }
}

impl Policy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_tick(&mut self, state: &mut ClusterState, now: SimTime) {
        let _s = self.tracer.span("policy.on_tick");
        self.inner.on_tick(state, now)
    }

    fn on_admission_blocked(&mut self, state: &mut ClusterState, now: SimTime, group: GroupId) {
        let _s = self.tracer.span("policy.on_admission_blocked");
        self.inner.on_admission_blocked(state, now, group)
    }

    fn on_decode_oom(
        &mut self,
        state: &mut ClusterState,
        now: SimTime,
        group: GroupId,
        request: RequestId,
    ) -> OomResolution {
        let _s = self.tracer.span("policy.on_decode_oom");
        self.inner.on_decode_oom(state, now, group, request)
    }

    fn should_shed(&mut self, state: &ClusterState, now: SimTime, request: RequestId) -> bool {
        let _s = self.tracer.span("policy.should_shed");
        self.inner.should_shed(state, now, request)
    }

    fn microbatch_former(&self) -> MicrobatchFormerSpec {
        self.inner.microbatch_former()
    }

    fn form_microbatches(
        &self,
        state: &ClusterState,
        group: GroupId,
        work: &[SeqChunk],
    ) -> Vec<MicroBatch> {
        let mbs = {
            let _s = self.tracer.span("former.form_microbatches");
            self.inner.form_microbatches(state, group, work)
        };
        // The engine samples ground truth once per (microbatch, stage) and
        // sends activations across each of the `stages - 1` boundaries.
        let stages = state.group(group).stages() as f64;
        let n = mbs.len() as f64;
        self.tracer.add("former.chunks", work.len() as f64);
        self.tracer.add("costmodel.samples", n * stages);
        self.tracer.add("net.interactive_calls", n * (stages - 1.0));
        mbs
    }

    fn on_transfer_done(&mut self, state: &mut ClusterState, now: SimTime, event: &TransferEvent) {
        let _s = self.tracer.span("policy.on_transfer_done");
        self.inner.on_transfer_done(state, now, event)
    }

    fn plan_deferred(
        &mut self,
        state: &ClusterState,
        now: SimTime,
        hooks: &DeferredHooks,
    ) -> Option<SpecJob> {
        self.inner.plan_deferred(state, now, hooks)
    }

    fn commit_deferred(&mut self, state: &mut ClusterState, now: SimTime, plan: HookPlan) {
        self.inner.commit_deferred(state, now, plan)
    }
}
