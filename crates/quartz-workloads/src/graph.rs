//! Graph generation and CSR layout in simulated memory.
//!
//! The paper's PageRank case study uses a 4.8M-vertex / 69M-edge web
//! graph (soc-LiveJournal shaped). Simulating that at per-access fidelity
//! is unnecessary for the sensitivity *shapes*, so the generator produces
//! a scaled-down power-law graph with the same average degree (~14) —
//! the scaling is recorded in EXPERIMENTS.md.

use quartz_memsim::Addr;
use quartz_platform::seed::Rng;
use quartz_platform::NodeId;
use quartz_threadsim::ThreadCtx;

use crate::error::WorkloadError;

/// A host-side directed graph in CSR form.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Vertex count.
    pub n: usize,
    /// CSR row offsets (`n + 1` entries).
    pub row_ptr: Vec<u32>,
    /// CSR column indices (`m` entries).
    pub col_idx: Vec<u32>,
}

impl Graph {
    /// Generates a random power-law-ish directed graph with `n` vertices
    /// and ~`m` edges (RMAT-flavoured endpoint skew), deterministic in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero. Use [`Graph::try_random`] to handle bad
    /// configurations as typed errors.
    pub fn random(n: usize, m: usize, seed: u64) -> Self {
        Self::try_random(n, m, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible generator.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::EmptyDomain`] when `n` is zero.
    pub fn try_random(n: usize, m: usize, seed: u64) -> Result<Self, WorkloadError> {
        if n == 0 {
            return Err(WorkloadError::EmptyDomain {
                what: "graph vertex set",
            });
        }
        let mut rng = Rng::new(seed);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let skewed = |rng: &mut Rng| -> usize {
            // Multiplying two uniforms skews mass toward low ids,
            // giving a heavy-tailed in/out-degree distribution.
            let a = rng.below(n as u64);
            let b = rng.below(n as u64);
            ((a as u128 * b as u128) / n as u128) as usize
        };
        for _ in 0..m {
            let src = skewed(&mut rng);
            let dst = rng.below(n as u64) as usize;
            if src != dst {
                adj[src].push(dst as u32);
            }
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0u32);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            col_idx.extend_from_slice(list);
            row_ptr.push(col_idx.len() as u32);
        }
        Ok(Graph {
            n,
            row_ptr,
            col_idx,
        })
    }

    /// Edge count.
    pub fn edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.row_ptr[v + 1] - self.row_ptr[v]) as usize
    }

    /// Neighbours of `v`.
    pub fn neighbours(&self, v: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[v] as usize..self.row_ptr[v + 1] as usize]
    }
}

/// The CSR arrays placed in simulated memory.
///
/// `row_ptr`/`col_idx` are 4-byte elements (16 per cache line); rank
/// vectors are 8-byte (8 per line). Sequential sweeps over the structure
/// arrays only touch memory once per line; random gathers touch a line
/// per access.
#[derive(Clone, Copy, Debug)]
pub struct SimGraph {
    /// Base of the row-pointer array.
    pub row_ptr: Addr,
    /// Base of the column-index array.
    pub col_idx: Addr,
    /// Base of the source rank vector.
    pub rank_src: Addr,
    /// Base of the destination rank vector.
    pub rank_dst: Addr,
    /// Vertices.
    pub n: u64,
    /// Edges.
    pub m: u64,
}

impl SimGraph {
    /// Allocates the CSR arrays: graph structure on `structure_node`,
    /// rank vectors on `rank_node` (the §3.3 data-placement knob).
    ///
    /// # Panics
    ///
    /// Panics if allocation fails.
    pub fn load(
        ctx: &mut ThreadCtx,
        graph: &Graph,
        structure_node: NodeId,
        rank_node: NodeId,
    ) -> Self {
        let n = graph.n as u64;
        let m = graph.edges() as u64;
        SimGraph {
            row_ptr: ctx.alloc_on(structure_node, (n + 1) * 4),
            col_idx: ctx.alloc_on(structure_node, m.max(1) * 4),
            rank_src: ctx.alloc_on(rank_node, n * 8),
            rank_dst: ctx.alloc_on(rank_node, n * 8),
            n,
            m,
        }
    }

    /// Address of `row_ptr[v]`.
    pub fn row_ptr_addr(&self, v: u64) -> Addr {
        self.row_ptr.offset_by(v * 4)
    }

    /// Address of `col_idx[e]`.
    pub fn col_idx_addr(&self, e: u64) -> Addr {
        self.col_idx.offset_by(e * 4)
    }

    /// Address of `rank_src[v]`.
    pub fn rank_src_addr(&self, v: u64) -> Addr {
        self.rank_src.offset_by(v * 8)
    }

    /// Address of `rank_dst[v]`.
    pub fn rank_dst_addr(&self, v: u64) -> Addr {
        self.rank_dst.offset_by(v * 8)
    }

    /// Swaps the rank vectors (between power iterations).
    pub fn swap_ranks(&mut self) {
        std::mem::swap(&mut self.rank_src, &mut self.rank_dst);
    }

    /// Frees all arrays.
    pub fn free(self, ctx: &mut ThreadCtx) {
        for a in [self.row_ptr, self.col_idx, self.rank_src, self.rank_dst] {
            ctx.free(a).expect("graph array");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_random_reports_empty_vertex_set() {
        assert!(matches!(
            Graph::try_random(0, 10, 1),
            Err(WorkloadError::EmptyDomain {
                what: "graph vertex set"
            })
        ));
    }

    #[test]
    fn generator_is_deterministic() {
        let a = Graph::random(100, 1000, 5);
        let b = Graph::random(100, 1000, 5);
        assert_eq!(a.row_ptr, b.row_ptr);
        assert_eq!(a.col_idx, b.col_idx);
    }

    #[test]
    fn csr_is_well_formed() {
        let g = Graph::random(500, 5000, 11);
        assert_eq!(g.row_ptr.len(), 501);
        assert_eq!(*g.row_ptr.last().unwrap() as usize, g.edges());
        for v in 0..g.n {
            assert!(g.row_ptr[v] <= g.row_ptr[v + 1]);
            for &u in g.neighbours(v) {
                assert!((u as usize) < g.n);
                assert_ne!(u as usize, v, "no self loops");
            }
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = Graph::random(2000, 30_000, 3);
        let mut degrees: Vec<usize> = (0..g.n).map(|v| g.degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top_sum: usize = degrees[..g.n / 20].iter().sum();
        let total: usize = degrees.iter().sum();
        assert!(
            top_sum as f64 / total as f64 > 0.15,
            "top 5% of vertices should hold a large share of edges"
        );
    }

    #[test]
    fn edges_roughly_match_request() {
        let g = Graph::random(1000, 10_000, 1);
        let m = g.edges();
        assert!(m > 8_000 && m <= 10_000, "edges after dedup: {m}");
    }
}
