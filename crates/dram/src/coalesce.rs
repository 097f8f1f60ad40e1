//! The address coalescing unit (§3.4 of the paper).
//!
//! Sparse memory accesses arrive from address generators one element
//! (4 bytes) at a time. The coalescing unit maintains a *coalescing cache*
//! of outstanding line requests; element accesses falling in the same
//! 64-byte line are merged onto one DRAM request, so a gather of spatially
//! clustered indices costs far fewer DRAM bursts than elements. Sparse
//! loads become gathers, sparse stores become scatters.

use crate::channel::{Completion, MemRequest};
use crate::system::{DramSystem, QueueFull};
use plasticine_json::decode::{arr_of, bool_of, field, hex_of, u64_of, R};
use plasticine_json::Json;
use std::collections::{HashMap, VecDeque};

/// A 4-byte element request from an address generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElemRequest {
    /// Caller-chosen identifier.
    pub id: u64,
    /// Byte address of the element.
    pub byte_addr: u64,
    /// Write (scatter) or read (gather).
    pub is_write: bool,
}

/// A finished element request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElemCompletion {
    /// Identifier from the original element request.
    pub id: u64,
    /// Byte address of the element.
    pub byte_addr: u64,
    /// Whether it was a write.
    pub is_write: bool,
    /// Core cycle of completion.
    pub at: u64,
}

/// Coalescing statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Element requests accepted.
    pub elem_requests: u64,
    /// Line requests issued to DRAM.
    pub line_requests: u64,
    /// Element requests that merged into an existing outstanding line.
    pub merged: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    elems: Vec<ElemRequest>,
    issued: bool,
}

/// Merges element-granularity sparse accesses into line-granularity DRAM
/// requests using a bounded coalescing cache.
///
/// Reads and writes to the same line are tracked as separate entries (a
/// read burst and a write burst are distinct DRAM transactions).
#[derive(Debug, Clone)]
pub struct CoalescingUnit {
    line_bytes: u64,
    capacity: usize,
    namespace: u64,
    cache: HashMap<(u64, bool), Entry>,
    issue_queue: VecDeque<(u64, bool)>,
    /// Line of each issued request, by request id: slot `i` is id
    /// `namespace + req_base + i`, `None` once it completed. Line requests
    /// take consecutive ids, so the window spans only what is in flight.
    by_req: VecDeque<Option<(u64, bool)>>,
    /// Id offset (from `namespace`) of the window's first slot.
    req_base: u64,
    next_line_req: u64,
    /// Statistics.
    pub stats: CoalesceStats,
}

impl CoalescingUnit {
    /// Creates a unit with the given coalescing-cache capacity (outstanding
    /// lines) for a memory system with `line_bytes` lines.
    pub fn new(capacity: usize, line_bytes: u64) -> CoalescingUnit {
        CoalescingUnit::with_namespace(capacity, line_bytes, u64::MAX / 2)
    }

    /// Like [`CoalescingUnit::new`] but with an explicit request-id
    /// namespace base, so several units can share one [`DramSystem`]
    /// without id collisions. Reserve disjoint high ranges per unit; ids
    /// below any namespace stay available to direct (dense) requesters.
    pub fn with_namespace(capacity: usize, line_bytes: u64, namespace: u64) -> CoalescingUnit {
        CoalescingUnit {
            line_bytes,
            capacity,
            namespace,
            cache: HashMap::new(),
            issue_queue: VecDeque::new(),
            by_req: VecDeque::new(),
            req_base: 0,
            next_line_req: 0,
            stats: CoalesceStats::default(),
        }
    }

    /// Number of outstanding lines in the cache.
    pub fn outstanding(&self) -> usize {
        self.cache.len()
    }

    /// Whether line requests are still waiting to enter the memory system
    /// (accepted elements whose line [`issue`](Self::issue) could not push
    /// past a full channel queue yet).
    pub fn has_pending_issues(&self) -> bool {
        !self.issue_queue.is_empty()
    }

    /// Whether all merged element requests have completed.
    pub fn idle(&self) -> bool {
        self.cache.is_empty()
    }

    /// Attempts to accept an element request. Returns `false` (caller must
    /// retry later) when the request needs a new cache entry and the cache
    /// is full.
    pub fn try_push(&mut self, req: ElemRequest) -> bool {
        let line = req.byte_addr / self.line_bytes;
        let key = (line, req.is_write);
        if let Some(e) = self.cache.get_mut(&key) {
            // Merging into an already-issued read is fine (data returns for
            // the whole line); merging into an issued *write* is also safe
            // in this model because write data is captured at issue by the
            // simulator, so require a fresh entry for issued writes.
            if !(req.is_write && e.issued) {
                e.elems.push(req);
                self.stats.elem_requests += 1;
                self.stats.merged += 1;
                return true;
            }
        }
        if self.cache.len() >= self.capacity {
            return false;
        }
        match self.cache.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => {
                // Issued write to same line: queue a second transaction by
                // declining; caller retries after the first completes.
                false
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Entry {
                    elems: vec![req],
                    issued: false,
                });
                self.issue_queue.push_back(key);
                self.stats.elem_requests += 1;
                true
            }
        }
    }

    /// Issues pending line requests into the memory system (as many as the
    /// channel queues accept this cycle).
    pub fn issue(&mut self, mem: &mut DramSystem) {
        while let Some(&key) = self.issue_queue.front() {
            let (line, is_write) = key;
            let req_id = self.namespace + self.next_line_req;
            let push = mem.push(MemRequest {
                id: req_id, // namespaced; mapped back via by_req
                addr: line * self.line_bytes,
                is_write,
            });
            match push {
                Ok(()) => {
                    self.next_line_req += 1;
                    self.by_req.push_back(Some(key));
                    self.cache.get_mut(&key).expect("entry exists").issued = true;
                    self.issue_queue.pop_front();
                    self.stats.line_requests += 1;
                }
                Err(QueueFull) => break,
            }
        }
    }

    /// Serializes the mutable coalescing state. The `cache` map is emitted
    /// sorted by key so the snapshot bytes are canonical (its `HashMap`
    /// iteration order is per-process), and in-flight requests in id order;
    /// `issue_queue` order is preserved verbatim because issue order is
    /// behaviorally significant. Capacity, line size, and the id
    /// namespace come from the constructor and are not included.
    pub fn snapshot(&self) -> Json {
        let elem_json = |e: &ElemRequest| {
            Json::obj([
                ("id", Json::hex(e.id)),
                ("addr", Json::hex(e.byte_addr)),
                ("w", Json::from(e.is_write)),
            ])
        };
        let mut cache: Vec<_> = self.cache.iter().collect();
        cache.sort_by_key(|(k, _)| **k);
        let first = self.namespace + self.req_base;
        let by_req = self
            .by_req
            .iter()
            .enumerate()
            .filter_map(|(i, k)| k.map(|k| (first + i as u64, k)));
        Json::obj([
            (
                "cache",
                Json::Arr(
                    cache
                        .into_iter()
                        .map(|(&(line, w), e)| {
                            Json::obj([
                                ("line", Json::hex(line)),
                                ("w", Json::from(w)),
                                ("issued", Json::from(e.issued)),
                                ("elems", Json::Arr(e.elems.iter().map(elem_json).collect())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "issue_queue",
                Json::Arr(
                    self.issue_queue
                        .iter()
                        .map(|&(line, w)| {
                            Json::obj([("line", Json::hex(line)), ("w", Json::from(w))])
                        })
                        .collect(),
                ),
            ),
            (
                "by_req_id",
                Json::Arr(
                    by_req
                        .map(|(req, (line, w))| {
                            Json::obj([
                                ("req", Json::hex(req)),
                                ("line", Json::hex(line)),
                                ("w", Json::from(w)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("next_line_req", Json::from(self.next_line_req)),
            (
                "stats",
                Json::obj([
                    ("elem_requests", Json::from(self.stats.elem_requests)),
                    ("line_requests", Json::from(self.stats.line_requests)),
                    ("merged", Json::from(self.stats.merged)),
                ]),
            ),
        ])
    }

    /// Restores state captured by [`snapshot`](Self::snapshot) into a unit
    /// freshly built with the same constructor arguments.
    ///
    /// # Errors
    ///
    /// Fails with a message on a malformed snapshot.
    pub fn restore(&mut self, j: &Json) -> R<()> {
        self.cache.clear();
        for cj in arr_of(j, "cache")? {
            let mut elems = Vec::new();
            for ej in arr_of(cj, "elems")? {
                elems.push(ElemRequest {
                    id: hex_of(ej, "id")?,
                    byte_addr: hex_of(ej, "addr")?,
                    is_write: bool_of(ej, "w")?,
                });
            }
            self.cache.insert(
                (hex_of(cj, "line")?, bool_of(cj, "w")?),
                Entry {
                    elems,
                    issued: bool_of(cj, "issued")?,
                },
            );
        }
        self.issue_queue.clear();
        for qj in arr_of(j, "issue_queue")? {
            self.issue_queue
                .push_back((hex_of(qj, "line")?, bool_of(qj, "w")?));
        }
        self.next_line_req = u64_of(j, "next_line_req")?;
        let mut in_flight = Vec::new();
        for rj in arr_of(j, "by_req_id")? {
            let rel = hex_of(rj, "req")?
                .checked_sub(self.namespace)
                .filter(|&r| r < self.next_line_req)
                .ok_or_else(|| "coalesced request id outside this unit's window".to_string())?;
            in_flight.push((rel, (hex_of(rj, "line")?, bool_of(rj, "w")?)));
        }
        in_flight.sort_unstable_by_key(|&(rel, _)| rel);
        self.req_base = in_flight
            .first()
            .map_or(self.next_line_req, |&(rel, _)| rel);
        // The window is allocated densely; bound what a corrupt snapshot
        // can ask for.
        if self.next_line_req - self.req_base > 1 << 22 {
            return Err("coalesced requests in flight span too wide an id window".to_string());
        }
        self.by_req.clear();
        self.by_req
            .resize((self.next_line_req - self.req_base) as usize, None);
        for (rel, key) in in_flight {
            self.by_req[(rel - self.req_base) as usize] = Some(key);
        }
        let s = field(j, "stats")?;
        self.stats = CoalesceStats {
            elem_requests: u64_of(s, "elem_requests")?,
            line_requests: u64_of(s, "line_requests")?,
            merged: u64_of(s, "merged")?,
        };
        Ok(())
    }

    /// Processes DRAM completions, returning the element completions they
    /// unblock. Completions not owned by this unit are ignored.
    pub fn absorb(&mut self, completions: &[Completion]) -> Vec<ElemCompletion> {
        let mut out = Vec::new();
        for c in completions {
            for e in self.absorb_one(c.id).unwrap_or_default() {
                out.push(ElemCompletion {
                    id: e.id,
                    byte_addr: e.byte_addr,
                    is_write: e.is_write,
                    at: c.at,
                });
            }
        }
        out
    }

    /// Completes one line request by id, returning the element requests
    /// merged onto it, or `None` when this unit does not own the id (or it
    /// already completed). The id indexes the in-flight window directly,
    /// so a completion owned by another unit costs one subtraction.
    pub fn absorb_one(&mut self, id: u64) -> Option<Vec<ElemRequest>> {
        let rel = id.wrapping_sub(self.namespace).wrapping_sub(self.req_base);
        let key = self.by_req.get_mut(usize::try_from(rel).ok()?)?.take()?;
        while let Some(None) = self.by_req.front() {
            self.by_req.pop_front();
            self.req_base += 1;
        }
        let entry = self.cache.remove(&key).expect("cache entry for line");
        Some(entry.elems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn mem() -> DramSystem {
        DramSystem::new(DramConfig {
            refresh: false,
            ..DramConfig::default()
        })
    }

    fn drain(cu: &mut CoalescingUnit, mem: &mut DramSystem) -> Vec<ElemCompletion> {
        let mut out = Vec::new();
        for _ in 0..1_000_000 {
            cu.issue(mem);
            let done = mem.tick();
            out.extend(cu.absorb(&done));
            if cu.idle() && mem.idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn same_line_elements_coalesce_to_one_burst() {
        let mut cu = CoalescingUnit::new(64, 64);
        let mut m = mem();
        // 16 elements in one 64-byte line.
        for i in 0..16u64 {
            assert!(cu.try_push(ElemRequest {
                id: i,
                byte_addr: i * 4,
                is_write: false
            }));
        }
        let done = drain(&mut cu, &mut m);
        assert_eq!(done.len(), 16);
        assert_eq!(cu.stats.line_requests, 1);
        assert_eq!(cu.stats.merged, 15);
        assert_eq!(m.stats().reads, 1);
    }

    #[test]
    fn distinct_lines_issue_separately() {
        let mut cu = CoalescingUnit::new(64, 64);
        let mut m = mem();
        for i in 0..8u64 {
            assert!(cu.try_push(ElemRequest {
                id: i,
                byte_addr: i * 4096,
                is_write: false
            }));
        }
        let done = drain(&mut cu, &mut m);
        assert_eq!(done.len(), 8);
        assert_eq!(cu.stats.line_requests, 8);
        assert_eq!(cu.stats.merged, 0);
    }

    #[test]
    fn cache_capacity_backpressures() {
        let mut cu = CoalescingUnit::new(2, 64);
        assert!(cu.try_push(ElemRequest {
            id: 0,
            byte_addr: 0,
            is_write: false
        }));
        assert!(cu.try_push(ElemRequest {
            id: 1,
            byte_addr: 4096,
            is_write: false
        }));
        // Third distinct line: refused.
        assert!(!cu.try_push(ElemRequest {
            id: 2,
            byte_addr: 8192,
            is_write: false
        }));
        // Same line as an unissued entry: still merges.
        assert!(cu.try_push(ElemRequest {
            id: 3,
            byte_addr: 4,
            is_write: false
        }));
    }

    #[test]
    fn reads_and_writes_to_same_line_are_separate_transactions() {
        let mut cu = CoalescingUnit::new(8, 64);
        let mut m = mem();
        assert!(cu.try_push(ElemRequest {
            id: 0,
            byte_addr: 0,
            is_write: false
        }));
        assert!(cu.try_push(ElemRequest {
            id: 1,
            byte_addr: 0,
            is_write: true
        }));
        let done = drain(&mut cu, &mut m);
        assert_eq!(done.len(), 2);
        assert_eq!(cu.stats.line_requests, 2);
        let s = m.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
    }

    #[test]
    fn clustered_gather_uses_fewer_bursts_than_scattered() {
        let run = |addrs: &[u64]| {
            let mut cu = CoalescingUnit::new(64, 64);
            let mut m = mem();
            let mut pushed = 0usize;
            let mut done = Vec::new();
            for _ in 0..1_000_000 {
                while pushed < addrs.len()
                    && cu.try_push(ElemRequest {
                        id: pushed as u64,
                        byte_addr: addrs[pushed],
                        is_write: false,
                    })
                {
                    pushed += 1;
                }
                cu.issue(&mut m);
                let d = m.tick();
                done.extend(cu.absorb(&d));
                if pushed == addrs.len() && cu.idle() && m.idle() {
                    break;
                }
            }
            assert_eq!(done.len(), addrs.len());
            (cu.stats.line_requests, m.now())
        };
        let clustered: Vec<u64> = (0..256u64).map(|i| (i / 16) * 64 + (i % 16) * 4).collect();
        let scattered: Vec<u64> = (0..256u64).map(|i| i * 8192).collect();
        let (lines_c, t_c) = run(&clustered);
        let (lines_s, t_s) = run(&scattered);
        assert_eq!(lines_c, 16);
        assert_eq!(lines_s, 256);
        assert!(t_s > t_c, "scattered {t_s} <= clustered {t_c}");
    }
}
