//! Cluster-wide network: directed inter-instance links plus per-node host
//! (PCIe) links, with the coordinated-transfer chunking policy.

use std::collections::BTreeMap;

use sim_core::{SimDuration, SimTime};

use crate::link::{JobId, Link, Priority};
use crate::spec::LinkSpec;

/// Identifier of a network endpoint (one serving instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Where a background job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkKey {
    /// Directed inter-instance fabric link.
    Fabric {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// The PCIe path between a node's GPU and host DRAM.
    Host {
        /// The node.
        node: NodeId,
    },
}

/// The simulated cluster network.
///
/// Links are created lazily with the configured specs. The *coordination*
/// switch controls how bulk jobs are chunked: coordinated jobs use chunks
/// sized to `target_chunk_time` (≈ one pipeline stage, §4.2); uncoordinated
/// jobs are one atomic chunk.
#[derive(Debug)]
pub struct Network {
    fabric_spec: LinkSpec,
    host_spec: LinkSpec,
    coordinated: bool,
    target_chunk_time: SimDuration,
    links: BTreeMap<LinkKey, Link>,
    /// The id of the next bulk job; ids rise with submission.
    next_job: u64,
}

impl Network {
    /// Creates a network with the given fabric spec, PCIe host links, and
    /// coordination enabled with a 50 ms chunk target.
    pub fn new(fabric_spec: LinkSpec) -> Self {
        Network {
            fabric_spec,
            host_spec: LinkSpec::pcie_gen4(),
            coordinated: true,
            target_chunk_time: SimDuration::from_millis(50),
            links: BTreeMap::new(),
            next_job: 0,
        }
    }

    /// Enables or disables coordinated chunking (the Figure 14 ablation
    /// switch).
    pub fn set_coordinated(&mut self, on: bool) {
        self.coordinated = on;
    }

    /// Returns whether coordinated chunking is enabled.
    pub fn coordinated(&self) -> bool {
        self.coordinated
    }

    fn chunk_bytes_for(&self, spec: LinkSpec, bytes: u64) -> u64 {
        if self.coordinated {
            let chunk = (spec.bytes_per_sec * self.target_chunk_time.as_secs_f64()) as u64;
            chunk.clamp(1, bytes.max(1))
        } else {
            bytes.max(1)
        }
    }

    fn link_mut(&mut self, key: LinkKey) -> &mut Link {
        let spec = match key {
            LinkKey::Fabric { .. } => self.fabric_spec,
            LinkKey::Host { .. } => self.host_spec,
        };
        self.links.entry(key).or_insert_with(|| Link::new(spec))
    }

    /// Submits a bulk transfer from `src` to `dst`; returns a cluster-unique
    /// job id.
    pub fn submit_bulk(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        priority: Priority,
    ) -> JobId {
        debug_assert!(src != dst, "bulk transfers must cross instances");
        let key = LinkKey::Fabric { src, dst };
        self.submit_on(now, key, bytes, priority)
    }

    /// Submits a bulk transfer over a node's host PCIe path (KVCache swap).
    pub fn submit_host(
        &mut self,
        now: SimTime,
        node: NodeId,
        bytes: u64,
        priority: Priority,
    ) -> JobId {
        self.submit_on(now, LinkKey::Host { node }, bytes, priority)
    }

    fn submit_on(&mut self, now: SimTime, key: LinkKey, bytes: u64, priority: Priority) -> JobId {
        let spec = match key {
            LinkKey::Fabric { .. } => self.fabric_spec,
            LinkKey::Host { .. } => self.host_spec,
        };
        let chunk = self.chunk_bytes_for(spec, bytes);
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.link_mut(key).submit(now, id, bytes, chunk, priority);
        id
    }

    /// Performs an interactive (activation) transfer; returns completion.
    pub fn interactive(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> SimTime {
        let key = LinkKey::Fabric { src, dst };
        self.link_mut(key).interactive(now, bytes)
    }

    /// Earliest pending bulk completion across all links (lower bound).
    pub fn next_completion_estimate(&self) -> Option<SimTime> {
        self.links
            .values()
            .filter_map(|l| l.next_completion_estimate())
            .min()
    }

    /// Drains all bulk completions up to `now`, as `(time, job)` pairs
    /// ordered by time, then by submission.
    pub fn take_completions(&mut self, now: SimTime) -> Vec<(SimTime, JobId)> {
        let mut out = Vec::new();
        for link in self.links.values_mut() {
            out.extend(link.take_completions(now));
        }
        out.sort_by_key(|&(t, id)| (t, id));
        out
    }

    /// Returns `true` if no bulk transfers are pending anywhere.
    pub fn is_idle(&self) -> bool {
        self.links.values().all(|l| l.is_idle())
    }

    /// Total bytes carried across all links.
    pub fn carried_bytes(&self) -> u64 {
        self.links.values().map(|l| l.carried_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        let mut n = Network::new(LinkSpec {
            bytes_per_sec: 10e6,
            latency: SimDuration::ZERO,
        });
        n.host_spec = LinkSpec {
            bytes_per_sec: 20e6,
            latency: SimDuration::ZERO,
        };
        n
    }

    #[test]
    fn bulk_jobs_complete_per_link() {
        let mut n = net();
        let a = n.submit_bulk(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            10_000,
            Priority::KvExchange,
        );
        let b = n.submit_bulk(
            SimTime::ZERO,
            NodeId(1),
            NodeId(0),
            10_000,
            Priority::KvExchange,
        );
        // Opposite directions are independent links: both finish at 1 ms.
        let done = n.take_completions(SimTime::from_millis(1));
        let ids: Vec<JobId> = done.iter().map(|&(_, id)| id).collect();
        assert_eq!(done.len(), 2);
        assert!(ids.contains(&a) && ids.contains(&b));
        assert!(n.is_idle());
    }

    #[test]
    fn host_link_is_separate_from_fabric() {
        let mut n = net();
        n.submit_bulk(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            10_000,
            Priority::KvExchange,
        );
        let h = n.submit_host(SimTime::ZERO, NodeId(0), 20_000, Priority::KvExchange);
        // Host link runs at 20 MB/s: 20 KB in 1 ms, concurrent with fabric.
        let done = n.take_completions(SimTime::from_millis(1));
        assert_eq!(done.len(), 2);
        assert!(done.iter().any(|&(_, id)| id == h));
    }

    #[test]
    fn coordination_controls_chunking() {
        // Coordinated: an activation at 15 ms waits out only the current
        // chunk (50 ms at the default chunk-time target).
        let mut n = net();
        n.submit_bulk(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            1_000_000,
            Priority::KvExchange,
        );
        let done = n.interactive(SimTime::from_millis(15), NodeId(0), NodeId(1), 10_000);
        assert_eq!(done, SimTime::from_millis(51));

        // Uncoordinated: the same activation waits for the whole 100 ms job.
        let mut n2 = net();
        n2.set_coordinated(false);
        assert!(!n2.coordinated());
        n2.submit_bulk(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            1_000_000,
            Priority::KvExchange,
        );
        let done2 = n2.interactive(SimTime::from_millis(15), NodeId(0), NodeId(1), 10_000);
        assert_eq!(done2, SimTime::from_millis(101));
    }

    #[test]
    fn estimates_cover_all_links() {
        let mut n = net();
        assert_eq!(n.next_completion_estimate(), None);
        n.submit_bulk(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            50_000,
            Priority::KvExchange,
        );
        n.submit_host(SimTime::ZERO, NodeId(2), 10_000, Priority::ParamRestore);
        // Host: 10 KB at 20 MB/s = 0.5 ms — the earliest completion.
        assert_eq!(
            n.next_completion_estimate(),
            Some(SimTime::from_micros(500))
        );
    }

    #[test]
    fn ids_rise_with_submission_and_completions_keep_that_order() {
        let mut n = net();
        // Three links, submitted out of link-key order; each job takes
        // 1 ms (10 KB at 10 MB/s on the fabric, 20 KB at 20 MB/s on the
        // host link).
        let a = n.submit_bulk(
            SimTime::ZERO,
            NodeId(2),
            NodeId(3),
            10_000,
            Priority::KvExchange,
        );
        let b = n.submit_host(SimTime::ZERO, NodeId(0), 20_000, Priority::KvExchange);
        let c = n.submit_bulk(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            10_000,
            Priority::KvExchange,
        );
        assert!(
            a < b && b < c,
            "ids rise with submission: {a:?} {b:?} {c:?}"
        );
        // Equal-time completions come back in submission order; per-link
        // ids would tie and leave them in link-key order (c, a, b).
        let at = SimTime::from_millis(1);
        assert_eq!(n.take_completions(at), vec![(at, a), (at, b), (at, c)]);
        assert!(n.is_idle());
    }

    #[test]
    fn carried_bytes_accumulate() {
        let mut n = net();
        n.submit_bulk(
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            10_000,
            Priority::KvExchange,
        );
        n.interactive(SimTime::ZERO, NodeId(1), NodeId(0), 5_000);
        n.take_completions(SimTime::from_secs(1));
        assert_eq!(n.carried_bytes(), 15_000);
    }
}
