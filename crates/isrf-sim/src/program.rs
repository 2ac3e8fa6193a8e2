//! Stream-level programs.
//!
//! At the stream level an application is a partial order of whole-stream
//! operations: memory loads/gathers into SRF ranges, kernel invocations
//! over SRF-resident streams, and stores/scatters back to memory. The
//! machine executes memory operations concurrently (overlapped with kernel
//! execution — the latency-tolerance mechanism of stream processors) while
//! kernels run one at a time, in program order, on the single kernel
//! sequencer.
//!
//! Dependences are explicit: each op lists the ops that must complete
//! first. Strip-mined applications chain `load(strip i+1)` in parallel with
//! `kernel(strip i)` and `store(strip i-1)` — classic double buffering.

use std::sync::Arc;

use isrf_kernel::ir::Kernel;
use isrf_kernel::sched::Schedule;
use isrf_mem::AddrPattern;

use crate::stream::StreamBinding;

/// Identifies an op within a [`StreamProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgOpId(pub(crate) usize);

impl ProgOpId {
    /// Index into the program's op list.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One stream-level operation.
#[derive(Debug, Clone)]
pub enum ProgOp {
    /// Load from memory into an SRF-resident stream.
    Load {
        /// Memory addresses, in stream order.
        pattern: AddrPattern,
        /// Destination stream (record-interleaved in the SRF).
        dst: StreamBinding,
        /// Route through the cache (Cache configuration only).
        cacheable: bool,
    },
    /// Store an SRF-resident stream to memory.
    Store {
        /// Source stream.
        src: StreamBinding,
        /// Memory addresses, in stream order.
        pattern: AddrPattern,
        /// Route through the cache.
        cacheable: bool,
    },
    /// Data-dependent gather: word addresses come from an SRF-resident
    /// index stream (computed by an earlier kernel), as in the indexed
    /// stream memory operations of Section 2. Address of element `k` is
    /// `base + index_stream[k]`.
    GatherDyn {
        /// SRF stream holding one word address (offset) per element.
        index_stream: StreamBinding,
        /// Added to every index.
        base: u32,
        /// Destination stream.
        dst: StreamBinding,
        /// Route through the cache.
        cacheable: bool,
    },
    /// Run a kernel over bound streams.
    Kernel {
        /// The kernel body.
        kernel: Arc<Kernel>,
        /// Its modulo schedule.
        schedule: Arc<Schedule>,
        /// One binding per kernel stream slot.
        bindings: Vec<StreamBinding>,
        /// Iterations per cluster.
        iters: u64,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct ProgNode {
    pub op: ProgOp,
    pub deps: Vec<ProgOpId>,
}

/// A stream-level program: ops plus explicit dependences.
#[derive(Debug, Clone, Default)]
pub struct StreamProgram {
    pub(crate) nodes: Vec<ProgNode>,
}

impl StreamProgram {
    /// An empty program.
    pub fn new() -> Self {
        StreamProgram::default()
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The op at index `i` together with its dependences.
    ///
    /// Ops are stored in a topological order — every dependence points to
    /// an earlier index — so executing ops in index order respects the
    /// program's partial order (the functional reference executor relies
    /// on this).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn node(&self, i: usize) -> (&ProgOp, &[ProgOpId]) {
        let n = &self.nodes[i];
        (&n.op, &n.deps)
    }

    fn push(&mut self, op: ProgOp, deps: &[ProgOpId]) -> ProgOpId {
        for d in deps {
            assert!(d.0 < self.nodes.len(), "dependence on future op {d:?}");
        }
        self.nodes.push(ProgNode {
            op,
            deps: deps.to_vec(),
        });
        ProgOpId(self.nodes.len() - 1)
    }

    /// Append a memory→SRF load.
    ///
    /// # Panics
    ///
    /// Panics if the pattern length differs from the destination stream's
    /// word count, or a dependence references a later op.
    pub fn load(
        &mut self,
        pattern: AddrPattern,
        dst: StreamBinding,
        cacheable: bool,
        deps: &[ProgOpId],
    ) -> ProgOpId {
        assert_eq!(
            pattern.len() as u32,
            dst.words(),
            "load pattern covers {} words but the stream holds {}",
            pattern.len(),
            dst.words()
        );
        self.push(
            ProgOp::Load {
                pattern,
                dst,
                cacheable,
            },
            deps,
        )
    }

    /// Append an SRF→memory store.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch or a forward dependence.
    pub fn store(
        &mut self,
        src: StreamBinding,
        pattern: AddrPattern,
        cacheable: bool,
        deps: &[ProgOpId],
    ) -> ProgOpId {
        assert_eq!(
            pattern.len() as u32,
            src.words(),
            "store pattern covers {} words but the stream holds {}",
            pattern.len(),
            src.words()
        );
        self.push(
            ProgOp::Store {
                src,
                pattern,
                cacheable,
            },
            deps,
        )
    }

    /// Append a data-dependent gather (indices read from the SRF at issue).
    ///
    /// # Panics
    ///
    /// Panics if the index stream and destination differ in word count, or
    /// a dependence references a later op.
    pub fn gather_dyn(
        &mut self,
        index_stream: StreamBinding,
        base: u32,
        dst: StreamBinding,
        cacheable: bool,
        deps: &[ProgOpId],
    ) -> ProgOpId {
        assert_eq!(
            index_stream.words(),
            dst.words(),
            "gather needs one index per destination word"
        );
        self.push(
            ProgOp::GatherDyn {
                index_stream,
                base,
                dst,
                cacheable,
            },
            deps,
        )
    }

    /// Append a kernel invocation.
    ///
    /// # Panics
    ///
    /// Panics if the binding count differs from the kernel's stream count
    /// or a dependence references a later op.
    pub fn kernel(
        &mut self,
        kernel: Arc<Kernel>,
        schedule: impl Into<Arc<Schedule>>,
        bindings: Vec<StreamBinding>,
        iters: u64,
        deps: &[ProgOpId],
    ) -> ProgOpId {
        assert_eq!(
            bindings.len(),
            kernel.streams.len(),
            "kernel `{}` needs {} bindings",
            kernel.name,
            kernel.streams.len()
        );
        self.push(
            ProgOp::Kernel {
                kernel,
                schedule: schedule.into(),
                bindings,
                iters,
            },
            deps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srf::SrfRange;

    fn binding(words: u32) -> StreamBinding {
        StreamBinding::whole(
            SrfRange {
                base: 0,
                words_per_bank: words.div_ceil(8),
            },
            1,
            words,
        )
    }

    #[test]
    fn build_simple_pipeline() {
        let mut p = StreamProgram::new();
        let b = binding(64);
        let l = p.load(AddrPattern::contiguous(0, 64), b, false, &[]);
        let s = p.store(b, AddrPattern::contiguous(100, 64), false, &[l]);
        assert_eq!(p.len(), 2);
        assert_eq!(s.0, 1);
        assert_eq!(p.nodes[1].deps, vec![l]);
    }

    #[test]
    #[should_panic(expected = "covers 32 words")]
    fn load_length_mismatch_panics() {
        let mut p = StreamProgram::new();
        p.load(AddrPattern::contiguous(0, 32), binding(64), false, &[]);
    }

    #[test]
    #[should_panic(expected = "dependence on future op")]
    fn forward_dependence_panics() {
        let mut p = StreamProgram::new();
        let b = binding(8);
        p.load(AddrPattern::contiguous(0, 8), b, false, &[ProgOpId(3)]);
    }
}
