//! The attention/KV decode family: the multi-launch stress case for
//! cross-kernel placement memory.
//!
//! One decode step of single-query attention runs four kernels back to
//! back over a shared KV cache:
//!
//! 1. `kv_append` — streams the new token's key/value rows into the
//!    cache (token-interleaved writes, no block locality);
//! 2. `attn_qk` — `scoresᵀ[S×H] = K[S×D] · Qᵀ[D×H]`, a GEMM whose
//!    row-shared A operand **is the key cache** (LASP row-bands it);
//! 3. `attn_softmax` — elementwise normalization of the score matrix;
//! 4. `attn_pv` — `out[H×D] = P[H×S] · V[S×D]`, whose column-shared B
//!    operand is the value cache (interleaved — the benign control).
//!
//! The locality hazard is structural: the append kernel's no-locality
//! writes make per-launch LASP interleave the cache pages, while the
//! GEMM consumers want them banded — the exact producer/consumer
//! conflict lint L009 flags, and the reason the cache must be planned
//! once per *session* (dominant-consumer layout) rather than once per
//! launch. See "Optimizing Attention on GPUs by Exploiting GPU
//! Architectural NUMA Effects" (PAPERS.md) for the hardware motivation.
//!
//! Shapes follow a decode step of a Llama-style head configuration
//! (`D = 128`, `H = 16` query heads), scaled down at [`Scale::Test`].

use crate::spec::dsl::*;
use crate::spec::{AffineKernel, Scale};
use crate::suite::{Workload, WorkloadKind, SUITE_LEN, TABLE};
use ladm_core::analysis::GridShape;
use ladm_core::expr::Expr;
use ladm_core::launch::{ArgStatic, KernelStatic, LaunchInfo};

/// Decode-step geometry: `S` cached tokens, head dimension `D`, `H`
/// query heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeShape {
    /// Sequence length (rows of the KV cache).
    pub s: u32,
    /// Head dimension (columns of the KV cache).
    pub d: u32,
    /// Query heads (rows of the score matrix).
    pub h: u32,
}

impl DecodeShape {
    /// The family's geometry at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Test => DecodeShape {
                s: 512,
                d: 128,
                h: 16,
            },
            Scale::Bench => DecodeShape {
                s: 4096,
                d: 128,
                h: 16,
            },
        }
    }

    /// KV cache elements per tensor (`S × D`).
    pub fn kv_elems(self) -> u64 {
        u64::from(self.s) * u64::from(self.d)
    }
}

/// GEMM-shaped attention kernel with named operands: `C[M×N] = A[M×K] ×
/// B[K×N]` over `(32, 4)` thread tiles — the same Fig. 6 walk as the
/// suite's `gemm_kernel`, with `N = bdx·gdx`, `M = bdy·gdy`,
/// `K = trips·bdy`, and A padded to `lda = K + bdx − bdy`.
fn attn_gemm(
    name: &'static str,
    names: (&'static str, &'static str, &'static str),
    grid: (u32, u32),
    block: (u32, u32),
    trips: u32,
    k_dim: u32,
) -> AffineKernel {
    let (a_name, b_name, c_name) = names;
    let lda_val = i64::from(k_dim) + i64::from(block.0) - i64::from(block.1);
    let lda = Expr::param("lda");
    let a = ((by() * bdy() + ty()) * lda + m() * bdy() + tx()).to_poly();
    let b = ((m() * bdy() + ty()) * width() + bx() * bdx() + tx()).to_poly();
    let c = ((by() * bdy() + ty()) * width() + bx() * bdx() + tx()).to_poly();
    let m_dim = u64::from(grid.1) * u64::from(block.1);
    let n_dim = u64::from(grid.0) * u64::from(block.0);
    let kernel = KernelStatic {
        name,
        grid_shape: GridShape::TwoD,
        args: vec![
            ArgStatic::read(a_name, 4, a),
            ArgStatic::read(b_name, 4, b),
            ArgStatic::write(c_name, 4, c),
        ],
    };
    let lens = vec![
        m_dim * lda_val as u64,
        u64::from(k_dim) * n_dim,
        m_dim * n_dim,
    ];
    let launch = LaunchInfo::new(kernel, grid, block, lens).with_param("lda", lda_val);
    AffineKernel::new(launch, trips, 2).with_epilogue(2)
}

/// `kv_append`: the decode step's cache writer — `kv_k[i] = …`,
/// `kv_v[i] = …` at `i = bx·bdx + tx`. Streaming, no block locality:
/// exactly the access pattern that makes a per-launch planner interleave
/// the cache.
fn kv_append_kernel(shape: DecodeShape) -> AffineKernel {
    let idx = tid().to_poly();
    let n = shape.kv_elems();
    let blocks = u32::try_from(n / 256).expect("kv cache fits u32 blocks");
    let kernel = KernelStatic {
        name: "kv_append",
        grid_shape: GridShape::OneD,
        args: vec![
            ArgStatic::write("kv_k", 4, idx.clone()),
            ArgStatic::write("kv_v", 4, idx),
        ],
    };
    let launch = LaunchInfo::new(kernel, (blocks, 1), (256, 1), vec![n, n]);
    AffineKernel::new(launch, 1, 1)
}

/// `attn_qk`: `scoresᵀ[S×H] = kv_k[S×D] · qᵀ[D×H]` — the score matrix
/// is computed token-major, which makes the key cache the **row-shared
/// A operand**: every threadblock row re-reads one band of `S` cached
/// tokens, so LASP row-bands `kv_k` across nodes (the placement the
/// streaming writer contradicts). Square `(16, 16)` tiles keep
/// `lda = D` exact, so the GEMM walks precisely the `S×D` cache the
/// append kernel writes.
fn attn_qk_kernel(shape: DecodeShape) -> AffineKernel {
    let grid = (shape.h / 16, shape.s / 16);
    attn_gemm(
        "attn_qk",
        ("kv_k", "q", "scores"),
        grid,
        (16, 16),
        shape.d / 16,
        shape.d,
    )
}

/// `attn_softmax`: elementwise pass over the score matrix,
/// `probs[i] = f(scores[i])` at `i = bx·bdx + tx`.
fn attn_softmax_kernel(shape: DecodeShape) -> AffineKernel {
    let idx = tid().to_poly();
    let n = u64::from(shape.h) * u64::from(shape.s);
    let blocks = u32::try_from(n / 256).expect("score matrix fits u32 blocks");
    let kernel = KernelStatic {
        name: "attn_softmax",
        grid_shape: GridShape::OneD,
        args: vec![
            ArgStatic::read("scores", 4, idx.clone()),
            ArgStatic::write("probs", 4, idx),
        ],
    };
    let launch = LaunchInfo::new(kernel, (blocks, 1), (256, 1), vec![n, n]);
    AffineKernel::new(launch, 1, 1)
}

/// `attn_pv`: `out[H×D] = probs[H×S] · kv_v[S×D]` — the value cache is
/// the column-shared B operand. Its row pitch (`D` elements) is under a
/// page, so LASP interleaves it — agreeing with the append kernel's
/// layout. The value cache is the *control*: the decode hazard lives on
/// the row-banded key cache and on `probs` (row-banded here, streamed
/// by softmax), not here.
fn attn_pv_kernel(shape: DecodeShape) -> AffineKernel {
    let grid = (shape.d / 32, shape.h / 4);
    attn_gemm(
        "attn_pv",
        ("probs", "kv_v", "out"),
        grid,
        (32, 4),
        shape.s / 4,
        shape.s,
    )
}

/// `AttnQK` as a standalone single-kernel workload.
pub fn attn_qk(scale: Scale) -> Workload {
    let shape = DecodeShape::at(scale);
    Workload::new(
        "AttnQK",
        WorkloadKind::RowCol,
        vec![Box::new(attn_qk_kernel(shape))],
    )
    .expect_rows("attn_qk", &[&[2], &[5], &[1]]) // kv_k, q, scores
}

/// `AttnSoftmax` as a standalone single-kernel workload.
pub fn attn_softmax(scale: Scale) -> Workload {
    let shape = DecodeShape::at(scale);
    Workload::new(
        "AttnSoftmax",
        WorkloadKind::NoLocality,
        vec![Box::new(attn_softmax_kernel(shape))],
    )
    .expect_rows("attn_softmax", &[&[1], &[1]])
}

/// `AttnPV` as a standalone single-kernel workload.
pub fn attn_pv(scale: Scale) -> Workload {
    let shape = DecodeShape::at(scale);
    Workload::new(
        "AttnPV",
        WorkloadKind::RowCol,
        vec![Box::new(attn_pv_kernel(shape))],
    )
    .expect_rows("attn_pv", &[&[2], &[5], &[1]])
}

/// `KVAppend` as a standalone single-kernel workload.
pub fn kv_append(scale: Scale) -> Workload {
    let shape = DecodeShape::at(scale);
    Workload::new(
        "KVAppend",
        WorkloadKind::NoLocality,
        vec![Box::new(kv_append_kernel(shape))],
    )
    .expect_rows("kv_append", &[&[1], &[1]])
}

/// `AttnDecode`: the multi-launch decode-step descriptor — append, QKᵀ,
/// softmax, PV in execution order, sharing `kv_k`/`kv_v`/`scores`/
/// `probs` by name. This is the sequence the cross-kernel pass, the
/// session planner, and the decode bench mode all consume.
pub fn attn_decode(scale: Scale) -> Workload {
    let shape = DecodeShape::at(scale);
    Workload::new(
        "AttnDecode",
        WorkloadKind::RowCol,
        vec![
            Box::new(kv_append_kernel(shape)),
            Box::new(attn_qk_kernel(shape)),
            Box::new(attn_softmax_kernel(shape)),
            Box::new(attn_pv_kernel(shape)),
        ],
    )
    .expect_rows("kv_append", &[&[1], &[1]])
    .expect_rows("attn_qk", &[&[2], &[5], &[1]])
    .expect_rows("attn_softmax", &[&[1], &[1]])
    .expect_rows("attn_pv", &[&[2], &[5], &[1]])
}

/// The whole attention family (the four standalone kernels plus the
/// decode sequence), looked up by `ladm_workloads::by_name` alongside
/// the Table IV suite but **not** counted in it.
pub fn attention(scale: Scale) -> Vec<Workload> {
    TABLE[SUITE_LEN..].iter().map(|(_, f)| f(scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladm_core::analysis::{classify, AccessClass};
    use ladm_sim::KernelExec;

    fn classes(k: &dyn KernelExec) -> Vec<u8> {
        let launch = k.launch();
        launch
            .kernel
            .args
            .iter()
            .map(|arg| {
                let cs: Vec<AccessClass> = arg
                    .accesses
                    .iter()
                    .map(|p| classify(p, launch.kernel.grid_shape, 0))
                    .collect();
                cs[0].table_row()
            })
            .collect()
    }

    #[test]
    fn decode_kernels_classify_as_annotated() {
        let w = attn_decode(Scale::Test);
        assert_eq!(classes(&*w.kernels[0]), vec![1, 1], "kv_append");
        assert_eq!(classes(&*w.kernels[1]), vec![2, 5, 1], "attn_qk");
        assert_eq!(classes(&*w.kernels[2]), vec![1, 1], "attn_softmax");
        assert_eq!(classes(&*w.kernels[3]), vec![2, 5, 1], "attn_pv");
    }

    #[test]
    fn decode_sequence_shares_the_kv_cache_by_name() {
        let w = attn_decode(Scale::Test);
        let launches: Vec<_> = w.kernels.iter().map(|k| k.launch().clone()).collect();
        let seq = ladm_core::sequence::LaunchSequence::new(launches);
        let shared: Vec<&str> = seq
            .allocs()
            .iter()
            .filter(|a| a.uses.len() > 1)
            .map(|a| a.name)
            .collect();
        for name in ["kv_k", "kv_v", "scores", "probs"] {
            assert!(
                shared.contains(&name),
                "{name} must be shared, got {shared:?}"
            );
        }
    }

    #[test]
    fn cache_dwarfs_the_query_so_no_tie_break() {
        let shape = DecodeShape::at(Scale::Test);
        let qk = attn_qk_kernel(shape);
        let l = qk.launch();
        // kv_k (arg 0) must strictly out-weigh q (arg 1) and scores
        // (arg 2): the tie-break waiver machinery stays unused.
        assert!(l.arg_bytes(0) > l.arg_bytes(1));
        assert!(l.arg_bytes(0) > l.arg_bytes(2));

        let pv = attn_pv_kernel(shape);
        let l = pv.launch();
        // kv_v (arg 1) likewise wins outright in attn_pv.
        assert!(l.arg_bytes(1) > l.arg_bytes(0));
        assert!(l.arg_bytes(1) > l.arg_bytes(2));
    }

    #[test]
    fn family_scales() {
        for w in attention(Scale::Test) {
            assert!(w.launched_tbs() > 0, "{}", w.name);
        }
        assert!(
            attn_decode(Scale::Bench).kernels[1].launch().total_tbs()
                > attn_decode(Scale::Test).kernels[1].launch().total_tbs()
        );
    }
}
