//! ε-truncated sparse interference ratios with a certified error interval.
//!
//! The dense [`InterferenceRatios`](crate::ratio::InterferenceRatios) cache
//! stores all n² Theorem 1 ratios `ρ(j → i)`; at n = 10⁵ that is ~160 GB
//! and O(n²) to build, which caps every consumer near n ≈ 10³. Under
//! power-law path loss the ratio of a far sender decays like `d^{−α}`, so
//! almost all of the per-receiver *log-mass* `Σ_j −ln(1 − ρ(j→i))` is
//! concentrated on a few nearby senders. [`SparseInterferenceRatios`]
//! exploits this: per receiver it keeps only the ratios whose combined
//! dropped log-mass stays below a budget `τ = −ln(1 − δ)` derived from a
//! caller-chosen bound `δ` on the Theorem 1 success probability, and it
//! carries the *exact* dropped mass `τᵢ ≤ τ` per receiver.
//!
//! # The certificate
//!
//! Every Theorem 1 factor satisfies `1 ≥ 1 − ρ·q ≥ 1 − ρ` for `q ∈ [0, 1]`,
//! so dropping the factor of sender `j` at receiver `i` *overestimates*
//! `Q_i` by at most the factor `1/(1 − ρ(j→i))`. Summing over all dropped
//! senders, the sparse evaluation `p` and the exact dense value `p*` obey
//!
//! ```text
//! p · e^{−τᵢ} ≤ p* ≤ p,     τᵢ = Σ_{j dropped} −ln(1 − ρ(j→i))
//! ```
//!
//! for **every** probability vector, not just the one the truncation was
//! tuned for. With `τᵢ ≤ τ = −ln(1−δ)` the relative error is at most `δ`.
//! `δ = 0` keeps every nonzero ratio and the sparse path reproduces the
//! dense one bit-for-bit.
//!
//! # Layout
//!
//! CSR by receiver (row `i` holds the retained senders of receiver `i`,
//! column-sorted), plus a transpose (CSC) with duplicated values so that
//! changing one sender's probability touches only its O(deg) receivers.
//! The own signal `S̄_{i,i}` is carried per receiver, which lets the
//! affectance row-sums ([`affectance_row_sums`]) and the spectral-radius
//! path ([`sparse_spectral_report`]) recover their matrices from the
//! stored ratios without the dense gains.
//!
//! # Builders
//!
//! Every builder runs on one row-parallel driver,
//! [`SparseInterferenceRatios::from_row_kernel`]: a per-receiver kernel
//! pushes candidate ratios, and the driver truncates them, column-sorts
//! the survivors and assembles the CSR.
//! [`SparseInterferenceRatios::from_gain`] reads the rows of a dense
//! [`GainMatrix`]: the dense reference, and the constructor of every
//! gain-based replay. The ring-sweep builders in the `rayfade-spatial`
//! crate push only the senders near each receiver and reserve a bound
//! for the rest. Their certified stop rule yields a different, equally
//! certified truncation; their dense-equivalent stop rule sweeps on until
//! [`truncation_decided`] proves that the whole row would keep the same
//! entries, so its rows, noise and signal equal `from_gain`'s bit for bit
//! and only the certificates `τᵢ` differ (each between the exact dropped
//! mass and `τ`).

use crate::gain::GainMatrix;
use crate::params::SinrParams;
use crate::ratio::kahan_sum;
use crate::spectral::SpectralReport;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Truncation budget `τ = −ln(1 − δ)` for a relative error bound `δ`.
///
/// # Panics
/// If `delta` is outside `[0, 1)`.
pub fn truncation_budget(delta: f64) -> f64 {
    assert!(
        delta.is_finite() && (0.0..1.0).contains(&delta),
        "delta must lie in [0, 1)"
    );
    -(-delta).ln_1p()
}

/// Greedily drops the smallest-`ρ` entries of one receiver row while the
/// exact dropped log-mass `Σ −ln(1 − ρ)` stays within `budget`, with a
/// caller-owned sort buffer `bits` reused across the rows of a build.
///
/// `entries` are `(sender, ρ)` pairs with distinct senders and `ρ > 0`,
/// in any order; retained entries keep their relative order, and which
/// entries go does not depend on that order. Returns the exact dropped
/// log-mass (0 when `budget ≤ 0`, which keeps every entry).
///
/// The drop order is `(ρ, sender)` ascending, so the result is
/// deterministic. Since `ρ > 0`, the IEEE bit patterns of the ratios
/// order exactly like `total_cmp`, and tied ratios carry equal masses, so
/// sorting the bare bits already fixes the dropped mass; the sender
/// tie-break only decides which of the ratios tied with the first kept
/// one go. Sorting bare `u64` bits rather than packed `(ρ bits, sender)`
/// `u128` keys halves the sort, the largest cost of a sparse build after
/// the gains themselves.
fn truncate_smallest(entries: &mut Vec<(u32, f64)>, budget: f64, bits: &mut Vec<u64>) -> f64 {
    if budget <= 0.0 || entries.is_empty() {
        return 0.0;
    }
    debug_assert!(entries.iter().all(|e| e.1 > 0.0), "ratios must be positive");
    bits.clear();
    bits.extend(entries.iter().map(|e| e.1.to_bits()));
    bits.sort_unstable();
    let mut dropped_mass = 0.0f64;
    for (k, &cut) in bits.iter().enumerate() {
        // −ln(1 − ρ); +∞ when ρ rounds to 1 (such a factor is never
        // droppable).
        let mass = -(-f64::from_bits(cut)).ln_1p();
        let tentative = dropped_mass + mass;
        if tentative > budget {
            // Entries are visited smallest-first: nothing later fits. Of
            // the ratios equal to `cut`, the `tied` lowest senders went.
            let tied = bits[..k].iter().rev().take_while(|&&b| b == cut).count();
            let mut senders: Vec<u32> = entries
                .iter()
                .filter(|e| e.1.to_bits() == cut)
                .map(|e| e.0)
                .collect();
            senders.sort_unstable();
            let first_kept = (cut, senders[tied]);
            entries.retain(|&(j, rho)| (rho.to_bits(), j) >= first_kept);
            return dropped_mass;
        }
        dropped_mass = tentative;
    }
    entries.clear();
    dropped_mass
}

/// Decides, from the examined part of a row alone, what the truncation
/// of the *whole* row keeps, when the unexamined senders carry log-mass
/// at most `exterior` and each of their ratios is at most
/// `exterior_rho`.
///
/// `entries` are the examined candidates (as for the row driver),
/// `budget` is `τ` and `terms` bounds the whole row's length. Returns
/// `Some(reserved)` when dropping the smallest examined entries within
/// `budget − reserved` keeps exactly the entries that dropping the
/// smallest of the whole row within `budget` keeps, and
/// `dropped + reserved` lies between the whole row's dropped mass and
/// `budget`; `None` when the examined entries do not decide that yet.
///
/// With `M = (terms + 4)·2⁻⁵²·τ` (a bound on the rounding of any prefix
/// sum of the whole row), `reserved = exterior + M`, `F_k` the float
/// prefix sums of the sorted examined masses and `d` the number of them
/// within `τ − reserved`, the row is decided when `F_d + reserved ≤ τ`
/// and either every examined entry goes or `F_{d+1} > τ + M`. The kept
/// set then does not change whether the unexamined mass is 0 or
/// `exterior`, and the first kept mass exceeds `exterior`, so every
/// unexamined entry (each of mass at most `exterior`) sorts before it.
/// DESIGN §4b has the proof. `exterior_rho` only speeds up rejection
/// (see the pre-check below). `bits` is a sort buffer reused across
/// calls.
pub fn truncation_decided(
    entries: &[(u32, f64)],
    budget: f64,
    exterior: f64,
    exterior_rho: f64,
    terms: usize,
    bits: &mut Vec<u64>,
) -> Option<f64> {
    // The margin's proof needs terms²·2⁻⁵³ ≪ 1.
    if budget <= 0.0 || terms > 1 << 24 {
        return None;
    }
    let margin = (terms + 4) as f64 * f64::EPSILON * budget;
    let reserved = exterior + margin;
    // The row driver's budget, bit for bit.
    let lo = budget - reserved;
    if lo.is_nan() || lo < 0.0 {
        return None;
    }
    // A pre-check without the sort: in a decided row the first kept
    // entry's mass exceeds `exterior`, so every entry of mass within
    // `exterior` (any ρ ≤ exterior/(1 + exterior)) goes, and their
    // ratios (each at most its mass) must fit within `lo` up to
    // rounding. Requiring the same of the entries up to `exterior_rho`
    // is implied when an unexamined ratio attains that bound and merely
    // conservative otherwise; rejecting only delays a row's stop. Rows
    // that end in a full scan mostly fail here, at O(1) per entry.
    let small = exterior_rho.max(exterior / (1.0 + exterior));
    let small_sum: f64 = entries.iter().map(|e| e.1).filter(|&r| r <= small).sum();
    if small_sum > lo + margin {
        return None;
    }
    bits.clear();
    bits.extend(entries.iter().map(|e| e.1.to_bits()));
    bits.sort_unstable();
    let mut dropped = 0.0f64;
    for &cut in bits.iter() {
        let mass = -(-f64::from_bits(cut)).ln_1p();
        let tentative = dropped + mass;
        if tentative > lo {
            let decided = tentative > budget + margin;
            return (decided && dropped + reserved <= budget).then_some(reserved);
        }
        dropped = tentative;
    }
    (dropped + reserved <= budget).then_some(reserved)
}

/// Rows handed to one pool task by the row-parallel driver
/// ([`SparseInterferenceRatios::from_row_kernel`]): enough to amortize
/// the task's scratch buffers, few enough to balance the load.
pub const ROWS_PER_TASK: usize = 64;

/// What a row kernel reports about its receiver besides the candidate
/// ratios it pushed (see [`SparseInterferenceRatios::from_row_kernel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowHead {
    /// Noise factor `exp(−β·ν/S̄_{i,i})`, 0 for a dead receiver.
    pub noise: f64,
    /// Own signal `S̄_{i,i}`.
    pub signal: f64,
    /// Log-mass already certified for the senders the kernel did not
    /// push (the ring sweep's exterior bound; 0 for a full row). The
    /// driver truncates within the remaining budget `τ − reserved` and
    /// certifies `τᵢ = dropped + reserved`.
    pub reserved: f64,
    /// Sender–receiver pairs the kernel examined.
    pub examined: u64,
}

/// Pair totals of one [`SparseInterferenceRatios::from_row_kernel`]
/// build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowCounts {
    /// Sum of the kernels' [`RowHead::examined`].
    pub examined: u64,
    /// Candidate pairs dropped by the truncation.
    pub truncated: u64,
}

/// The finished rows of one pool task, packed back to back.
#[derive(Default)]
struct Chunk {
    /// Retained `(sender, ρ)` pairs of every row, each row column-sorted.
    entries: Vec<(u32, f64)>,
    /// Per row: its end offset in `entries`, noise, signal and `τᵢ`.
    rows: Vec<(usize, f64, f64, f64)>,
    counts: RowCounts,
}

/// The dense row kernel: pushes receiver `i`'s ratios from its dense
/// gains `gains[j] = S̄_{j,i}`, with the exact arithmetic of the dense
/// cache.
fn dense_row(
    gains: &[f64],
    i: usize,
    params: &SinrParams,
    entries: &mut Vec<(u32, f64)>,
) -> RowHead {
    let beta = params.beta;
    let s_ii = gains[i];
    if s_ii == 0.0 {
        // Dead receiver: empty row, zero noise factor — mirrors the
        // dense cache's all-zero row.
        return RowHead {
            noise: 0.0,
            signal: s_ii,
            reserved: 0.0,
            examined: 0,
        };
    }
    for (j, &s_ji) in gains.iter().enumerate() {
        if j == i || s_ji == 0.0 {
            continue;
        }
        // Same guarded form as the dense cache: s_ii/s_ji may overflow
        // to +inf for tiny s_ji, giving ratio 0.
        let r = beta / (beta + s_ii / s_ji);
        if r > 0.0 {
            entries.push((j as u32, r));
        }
    }
    RowHead {
        noise: (-beta * params.noise / s_ii).exp(),
        signal: s_ii,
        reserved: 0.0,
        examined: gains.len().saturating_sub(1) as u64,
    }
}

/// ε-truncated sparse mirror of
/// [`InterferenceRatios`](crate::ratio::InterferenceRatios): per receiver,
/// only the senders whose dropped log-mass would exceed the `δ`-derived
/// budget are retained, and the exact dropped mass `τᵢ` is carried as a
/// certificate (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseInterferenceRatios {
    n: usize,
    beta: f64,
    delta: f64,
    /// CSR row offsets: row `i` is `col[row_ptr[i]..row_ptr[i+1]]`.
    row_ptr: Vec<usize>,
    /// Retained sender indices per receiver, strictly ascending per row.
    col: Vec<u32>,
    /// `rho[k] = ρ(col[k] → i)` for `k` in row `i`; bit-equal to the dense
    /// cache for retained pairs.
    rho: Vec<f64>,
    /// `noise[i] = exp(−β·ν/S̄_{i,i})`, or 0 when `S̄_{i,i} = 0`.
    noise: Vec<f64>,
    /// Own signal `S̄_{i,i}` per receiver (0 for a dead receiver).
    signal: Vec<f64>,
    /// Certified per-receiver truncated log-mass `τᵢ` (0 when nothing was
    /// dropped).
    tau: Vec<f64>,
    /// CSC transpose offsets: column `j` (sender `j`'s receivers) is
    /// `t_receiver[t_row_ptr[j]..t_row_ptr[j+1]]`.
    t_row_ptr: Vec<usize>,
    /// Receivers affected by each sender, ascending per column.
    t_receiver: Vec<u32>,
    /// Ratio values duplicated in transpose order.
    t_rho: Vec<f64>,
}

impl SparseInterferenceRatios {
    /// Assembles a sparse ratio cache from raw CSR parts, validating the
    /// layout and building the transpose.
    ///
    /// Every builder assembles through here (via
    /// [`from_row_kernel`](Self::from_row_kernel)). Rows must be
    /// column-sorted with no diagonal entries, every `ρ` in `(0, 1]`, and
    /// every `τᵢ ≥ 0`.
    ///
    /// # Panics
    /// If any of the layout invariants above is violated, or the vector
    /// lengths are inconsistent.
    #[allow(clippy::too_many_arguments)]
    fn from_raw_parts(
        beta: f64,
        delta: f64,
        row_ptr: Vec<usize>,
        col: Vec<u32>,
        #[allow(unused_mut)] mut rho: Vec<f64>,
        noise: Vec<f64>,
        signal: Vec<f64>,
        tau: Vec<f64>,
    ) -> Self {
        assert!(beta.is_finite() && beta > 0.0, "beta must be > 0");
        assert!(
            delta.is_finite() && (0.0..1.0).contains(&delta),
            "delta must lie in [0, 1)"
        );
        let n = noise.len();
        assert_eq!(signal.len(), n, "one signal per link");
        assert_eq!(tau.len(), n, "one tau per link");
        assert_eq!(row_ptr.len(), n + 1, "row_ptr must have n + 1 offsets");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(*row_ptr.last().unwrap(), col.len(), "row_ptr end mismatch");
        assert_eq!(col.len(), rho.len(), "one rho per stored pair");
        for i in 0..n {
            assert!(row_ptr[i] <= row_ptr[i + 1], "row_ptr must be monotone");
            assert!(
                tau[i].is_finite() && tau[i] >= 0.0,
                "tau must be finite and >= 0"
            );
            assert!(
                signal[i].is_finite() && signal[i] >= 0.0,
                "signal must be finite and >= 0"
            );
            let row = &col[row_ptr[i]..row_ptr[i + 1]];
            for (k, &j) in row.iter().enumerate() {
                assert!((j as usize) < n, "sender {j} out of range");
                assert!(j as usize != i, "diagonal entries must not be stored");
                if k > 0 {
                    assert!(row[k - 1] < j, "row {i} senders must be ascending");
                }
            }
        }
        for &r in &rho {
            assert!(
                r > 0.0 && r <= 1.0,
                "stored ratios must lie in (0, 1], got {r}"
            );
        }
        // Same deliberate corruption as the dense cache (see
        // `InterferenceRatios::new` and TESTING.md): scaling the stored
        // ratios here keeps the sparse path bit-consistent with the dense
        // one under the `inject-bug` validation feature.
        #[cfg(feature = "inject-bug")]
        for r in rho.iter_mut() {
            *r *= 0.999;
        }
        // Transpose via counting sort over sender index: deterministic,
        // receivers ascending per column because rows are visited in
        // ascending receiver order.
        let nnz = col.len();
        let mut t_row_ptr = vec![0usize; n + 1];
        for &j in &col {
            t_row_ptr[j as usize + 1] += 1;
        }
        for j in 0..n {
            t_row_ptr[j + 1] += t_row_ptr[j];
        }
        let mut cursor = t_row_ptr.clone();
        let mut t_receiver = vec![0u32; nnz];
        let mut t_rho = vec![0.0f64; nnz];
        for i in 0..n {
            for k in row_ptr[i]..row_ptr[i + 1] {
                let j = col[k] as usize;
                let slot = cursor[j];
                t_receiver[slot] = i as u32;
                t_rho[slot] = rho[k];
                cursor[j] += 1;
            }
        }
        SparseInterferenceRatios {
            n,
            beta,
            delta,
            row_ptr,
            col,
            rho,
            noise,
            signal,
            tau,
            t_row_ptr,
            t_receiver,
            t_rho,
        }
    }

    /// Builds the truncated cache from a dense gain matrix: per receiver
    /// the full ratio row is computed with the exact dense arithmetic,
    /// then the smallest entries are greedily dropped while the exact
    /// dropped log-mass stays within `τ = −ln(1 − δ)`. Rows run in
    /// parallel on the pool; the result does not depend on its size.
    ///
    /// `delta = 0` retains every nonzero ratio (bit-equal to the dense
    /// cache). O(n² log n) — the point of this entry is the downstream
    /// O(nnz) evaluation, plus validation against the dense path.
    ///
    /// # Panics
    /// If `delta` is outside `[0, 1)`.
    pub fn from_gain(gain: &GainMatrix, params: &SinrParams, delta: f64) -> Self {
        Self::from_row_kernel(
            gain.len(),
            params.beta,
            delta,
            || (),
            |i, (), entries| dense_row(gain.at_receiver(i), i, params, entries),
        )
        .0
    }

    /// The row-parallel driver behind every builder.
    ///
    /// Rows run on the pool in tasks of [`ROWS_PER_TASK`] consecutive
    /// receivers, each task with one `scratch()` state and one candidate
    /// buffer. For receiver `i`, `kernel(i, state, entries)` pushes its
    /// candidate `(sender, ρ)` pairs into the empty `entries` — distinct
    /// senders other than `i`, every `ρ` in `(0, 1]`, in any order — and
    /// returns the row's [`RowHead`]. The driver then drops the smallest
    /// candidates within the budget `τ − reserved` (the result does not
    /// depend on the push order), column-sorts the survivors, and copies
    /// them into the task's packed output at their exact length; the CSR
    /// is assembled from the tasks in receiver order. The cache does not
    /// depend on the pool size.
    ///
    /// # Panics
    /// If `delta` is outside `[0, 1)`, `beta ≤ 0`, a retained sender is
    /// out of range, repeated or `i` itself, a `ρ` lies outside `(0, 1]`,
    /// or a row's signal or `τᵢ` is negative or not finite.
    pub fn from_row_kernel<S>(
        n: usize,
        beta: f64,
        delta: f64,
        scratch: impl Fn() -> S + Sync,
        kernel: impl Fn(usize, &mut S, &mut Vec<(u32, f64)>) -> RowHead + Sync,
    ) -> (Self, RowCounts) {
        let budget = truncation_budget(delta);
        // Each task's output is allocated here, on the calling thread,
        // which also frees it after assembly. A small block allocated by a
        // pool thread and freed here would enter this thread's allocator
        // cache, and a `Vec` later grown from it stays in the pool
        // thread's heap (glibc arenas); the dynamic engine's slot loop,
        // which runs on the calling thread, then spread over two heaps
        // (measured: up to +3 MB peak RSS on `maxweight_10k`). Growth
        // reallocates within the block's own heap, so one reserved entry
        // suffices.
        let tasks: Vec<(usize, Chunk)> = (0..n)
            .step_by(ROWS_PER_TASK)
            .map(|start| {
                let chunk = Chunk {
                    rows: Vec::with_capacity(ROWS_PER_TASK.min(n - start)),
                    entries: Vec::with_capacity(1),
                    ..Chunk::default()
                };
                (start, chunk)
            })
            .collect();
        let chunks: Vec<Chunk> = tasks
            .into_par_iter()
            .map(|(start, mut chunk)| {
                let mut state = scratch();
                let (mut entries, mut bits) = (Vec::new(), Vec::new());
                let rows = start..n.min(start + ROWS_PER_TASK);
                for i in rows {
                    entries.clear();
                    let head = kernel(i, &mut state, &mut entries);
                    let candidates = entries.len();
                    let dropped =
                        truncate_smallest(&mut entries, budget - head.reserved, &mut bits);
                    entries.sort_unstable_by_key(|e| e.0);
                    chunk.counts.examined += head.examined;
                    chunk.counts.truncated += (candidates - entries.len()) as u64;
                    chunk.entries.extend_from_slice(&entries);
                    chunk.rows.push((
                        chunk.entries.len(),
                        head.noise,
                        head.signal,
                        dropped + head.reserved,
                    ));
                }
                chunk
            })
            .collect();
        let nnz = chunks.iter().map(|c| c.entries.len()).sum();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let (mut col, mut rho) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        let mut noise = Vec::with_capacity(n);
        let mut signal = Vec::with_capacity(n);
        let mut tau = Vec::with_capacity(n);
        let mut counts = RowCounts::default();
        for chunk in chunks {
            let base = col.len();
            for (j, r) in chunk.entries {
                col.push(j);
                rho.push(r);
            }
            for (end, nf, s, t) in chunk.rows {
                row_ptr.push(base + end);
                noise.push(nf);
                signal.push(s);
                tau.push(t);
            }
            counts.examined += chunk.counts.examined;
            counts.truncated += chunk.counts.truncated;
        }
        let ratios = Self::from_raw_parts(beta, delta, row_ptr, col, rho, noise, signal, tau);
        (ratios, counts)
    }

    /// Heap bytes the cache holds, from the capacities of its vectors:
    /// the row and transpose CSR plus the per-link noise, signal and `τᵢ`.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.row_ptr.capacity() + self.t_row_ptr.capacity()) * size_of::<usize>()
            + (self.col.capacity() + self.t_receiver.capacity()) * size_of::<u32>()
            + (self.rho.capacity()
                + self.t_rho.capacity()
                + self.noise.capacity()
                + self.signal.capacity()
                + self.tau.capacity())
                * size_of::<f64>()
    }

    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the instance has no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The SINR threshold `β` the ratios were built with.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The truncation bound `δ` the cache was built for.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of retained (nonzero) sender→receiver pairs.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col.len()
    }

    /// Retained senders at receiver `i` as parallel `(senders, ratios)`
    /// slices, column-sorted.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let r = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col[r.clone()], &self.rho[r])
    }

    /// Receivers affected by sender `j` as parallel `(receivers, ratios)`
    /// slices, receiver-sorted.
    #[inline]
    pub fn column(&self, j: usize) -> (&[u32], &[f64]) {
        let r = self.t_row_ptr[j]..self.t_row_ptr[j + 1];
        (&self.t_receiver[r.clone()], &self.t_rho[r])
    }

    /// Retained ratio `ρ(j → i)`, or 0 when the pair was truncated (or
    /// was zero to begin with) — O(log deg) binary search.
    pub fn rho(&self, j: usize, i: usize) -> f64 {
        let (cols, rhos) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(k) => rhos[k],
            Err(_) => 0.0,
        }
    }

    /// Noise factor `exp(−β·ν/S̄_{i,i})` of link `i` (0 for a dead link).
    #[inline]
    pub fn noise_factor(&self, i: usize) -> f64 {
        self.noise[i]
    }

    /// Own signal `S̄_{i,i}` of link `i`.
    #[inline]
    pub fn signal(&self, i: usize) -> f64 {
        self.signal[i]
    }

    /// Certified truncated log-mass `τᵢ` at receiver `i`: the dense
    /// Theorem 1 probability lies in `[p·e^{−τᵢ}, p]` around any sparse
    /// evaluation `p`.
    #[inline]
    pub fn tau(&self, i: usize) -> f64 {
        self.tau[i]
    }

    /// Largest per-receiver certificate `max_i τᵢ` (0 for an empty
    /// instance).
    pub fn tau_max(&self) -> f64 {
        self.tau.iter().copied().fold(0.0, f64::max)
    }

    /// Checks that `self` is dense-equivalent to `dense` (a cache built
    /// by [`from_gain`](Self::from_gain)): the same `β`, `δ`, retained
    /// pairs, `ρ`, noise factors and signals bit for bit, and every
    /// certificate `τᵢ` between `dense`'s exact dropped mass and
    /// `τ = −ln(1−δ)`. The error names the first differing field.
    pub fn check_dense_equivalent(&self, dense: &Self) -> Result<(), String> {
        if self.n != dense.n
            || self.beta.to_bits() != dense.beta.to_bits()
            || self.delta.to_bits() != dense.delta.to_bits()
        {
            return Err("link count, beta or delta differ".to_string());
        }
        let budget = truncation_budget(self.delta);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for i in 0..self.n {
            let ((cols, rhos), (want_cols, want_rhos)) = (self.row(i), dense.row(i));
            if cols != want_cols || bits(rhos) != bits(want_rhos) {
                return Err(format!("row {i} differs"));
            }
            if self.noise[i].to_bits() != dense.noise[i].to_bits()
                || self.signal[i].to_bits() != dense.signal[i].to_bits()
            {
                return Err(format!("noise or signal of link {i} differs"));
            }
            if !(dense.tau[i] <= self.tau[i] && self.tau[i] <= budget) {
                return Err(format!(
                    "tau({i}) = {:e} outside [{:e}, {budget:e}]",
                    self.tau[i], dense.tau[i]
                ));
            }
        }
        Ok(())
    }
}

/// Incrementally maintained per-receiver interference products over a
/// [`SparseInterferenceRatios`] cache.
///
/// The sparse mirror of
/// [`SuccessAccumulator`](crate::ratio::SuccessAccumulator), restricted to
/// log-domain accumulation (the underflow-proof default): changing one
/// `q_j` walks sender `j`'s transpose column and touches only the O(deg j)
/// receivers that retained it, instead of O(n).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseSuccessAccumulator {
    /// Current transmission probabilities.
    q: Vec<f64>,
    /// Per-receiver `Σ ln(factor)` over nonzero factors.
    acc: Vec<f64>,
    /// Number of exactly-zero factors at each receiver.
    zeros: Vec<u32>,
}

impl SparseSuccessAccumulator {
    /// Empty accumulator (all probabilities 0) for `n` links.
    pub fn new(n: usize) -> Self {
        SparseSuccessAccumulator {
            q: vec![0.0; n],
            acc: vec![0.0; n],
            zeros: vec![0; n],
        }
    }

    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the accumulator tracks no links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Current transmission probability of link `j`.
    #[inline]
    pub fn prob(&self, j: usize) -> f64 {
        self.q[j]
    }

    /// Current transmission probabilities.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.q
    }

    /// Resets every probability to 0 — O(n), no reallocation.
    pub fn reset(&mut self) {
        for ((q, acc), z) in self.q.iter_mut().zip(&mut self.acc).zip(&mut self.zeros) {
            *q = 0.0;
            *acc = 0.0;
            *z = 0;
        }
    }

    /// Sets the whole probability vector — O(nnz) rebuild.
    ///
    /// # Panics
    /// If lengths mismatch or any probability is outside `[0, 1]`.
    pub fn set_probs(&mut self, ratios: &SparseInterferenceRatios, probs: &[f64]) {
        assert_eq!(probs.len(), self.q.len(), "one probability per link");
        self.reset();
        for (j, &p) in probs.iter().enumerate() {
            if p != 0.0 {
                self.set_prob(ratios, j, p);
            }
        }
    }

    /// Sets every probability to the same value `q` — O(nnz).
    pub fn set_uniform(&mut self, ratios: &SparseInterferenceRatios, q: f64) {
        self.reset();
        if q != 0.0 {
            for j in 0..self.q.len() {
                self.set_prob(ratios, j, q);
            }
        }
    }

    /// Changes `q_j`, updating the O(deg j) receivers that retained
    /// sender `j`.
    ///
    /// # Panics
    /// If `q` is outside `[0, 1]` or `j` is out of range.
    pub fn set_prob(&mut self, ratios: &SparseInterferenceRatios, j: usize, q_new: f64) {
        assert!(
            (0.0..=1.0).contains(&q_new),
            "probabilities must lie in [0, 1]"
        );
        assert_eq!(ratios.len(), self.q.len(), "ratio cache size mismatch");
        let q_old = self.q[j];
        if q_old == q_new {
            return;
        }
        self.q[j] = q_new;
        let (receivers, rhos) = ratios.column(j);
        for (&i, &rho) in receivers.iter().zip(rhos) {
            let i = i as usize;
            let old = if q_old == 0.0 { 1.0 } else { 1.0 - rho * q_old };
            let new = if q_new == 0.0 { 1.0 } else { 1.0 - rho * q_new };
            if old == new {
                continue;
            }
            if old == 0.0 {
                self.zeros[i] -= 1;
            } else if old != 1.0 {
                self.acc[i] -= old.ln();
            }
            if new == 0.0 {
                self.zeros[i] += 1;
            } else if new != 1.0 {
                self.acc[i] += new.ln();
            }
        }
    }

    /// Sets `q_j = 1` (link joins the transmit set).
    #[inline]
    pub fn insert(&mut self, ratios: &SparseInterferenceRatios, j: usize) {
        self.set_prob(ratios, j, 1.0);
    }

    /// Sets `q_j = 0` (link leaves the transmit set).
    #[inline]
    pub fn remove(&mut self, ratios: &SparseInterferenceRatios, j: usize) {
        self.set_prob(ratios, j, 0.0);
    }

    /// The retained interference product at receiver `i` — O(1), one
    /// `exp`.
    #[inline]
    pub fn interference_product(&self, i: usize) -> f64 {
        if self.zeros[i] > 0 {
            return 0.0;
        }
        self.acc[i].exp()
    }

    /// Sparse Theorem 1 success probability of link `i` — the **upper**
    /// end of the certified interval (truncated factors are ≤ 1).
    #[inline]
    pub fn success_probability(&self, ratios: &SparseInterferenceRatios, i: usize) -> f64 {
        let q_i = self.q[i];
        if q_i == 0.0 {
            return 0.0;
        }
        q_i * ratios.noise_factor(i) * self.interference_product(i)
    }

    /// Success probability of link `i` conditioned on transmitting
    /// (`q_i` overridden to 1; interference unchanged) — O(1).
    #[inline]
    pub fn conditional_success_probability(
        &self,
        ratios: &SparseInterferenceRatios,
        i: usize,
    ) -> f64 {
        ratios.noise_factor(i) * self.interference_product(i)
    }

    /// Certified interval `[p·e^{−τᵢ}, p]` containing the dense Theorem 1
    /// probability of link `i`, where `p` is the sparse evaluation.
    #[inline]
    pub fn success_interval(&self, ratios: &SparseInterferenceRatios, i: usize) -> (f64, f64) {
        let hi = self.success_probability(ratios, i);
        (hi * (-ratios.tau(i)).exp(), hi)
    }

    /// All sparse success probabilities — O(n).
    pub fn success_probabilities(&self, ratios: &SparseInterferenceRatios) -> Vec<f64> {
        (0..self.q.len())
            .map(|i| self.success_probability(ratios, i))
            .collect()
    }

    /// Expected number of successes `Σ_i Q_i` (upper end of the certified
    /// interval) — O(n), compensated summation.
    pub fn expected_successes(&self, ratios: &SparseInterferenceRatios) -> f64 {
        kahan_sum((0..self.q.len()).map(|i| self.success_probability(ratios, i)))
    }

    /// Certified interval containing the dense expected number of
    /// successes: lower and upper compensated sums of the per-link
    /// intervals.
    pub fn expected_successes_interval(&self, ratios: &SparseInterferenceRatios) -> (f64, f64) {
        let lo = kahan_sum((0..self.q.len()).map(|i| self.success_interval(ratios, i).0));
        let hi = kahan_sum((0..self.q.len()).map(|i| self.success_probability(ratios, i)));
        (lo, hi)
    }

    /// Change in *weighted* expected successes if the currently-silent
    /// link `j` were activated (`q_j: 0 → 1`) — O(deg j), without mutating
    /// the accumulator. Mirrors the dense
    /// [`activation_gain`](crate::ratio::SuccessAccumulator::activation_gain),
    /// evaluated on the retained pairs.
    ///
    /// # Panics
    /// If link `j` is not currently silent (`q_j ≠ 0`).
    pub fn activation_gain(
        &self,
        ratios: &SparseInterferenceRatios,
        weights: Option<&[f64]>,
        j: usize,
    ) -> f64 {
        assert_eq!(self.q[j], 0.0, "activation_gain requires a silent link");
        let w = |i: usize| weights.map_or(1.0, |w| w[i]);
        let own = w(j) * self.conditional_success_probability(ratios, j);
        let mut lost = 0.0;
        let (receivers, rhos) = ratios.column(j);
        for (&i, &rho) in receivers.iter().zip(rhos) {
            let i = i as usize;
            if self.q[i] != 0.0 {
                lost += w(i) * self.success_probability(ratios, i) * rho;
            }
        }
        own - lost
    }
}

/// Clipped affectance row-sums `Σ_j min{1, a(j, i)}` recovered from the
/// retained ratios.
///
/// `a(j,i) = β·S̄_{j,i}/(S̄_{i,i} − β·ν)` and
/// `β·S̄_{j,i} = S̄_{i,i}·ρ/(1 − ρ)`, so each retained pair contributes
/// `min{1, (S̄_{i,i}/(S̄_{i,i} − β·ν))·ρ/(1 − ρ)}`. A link with
/// non-positive margin (`S̄_{i,i} ≤ β·ν`) receives affectance 1 from every
/// other link, mirroring the dense [`Affectance`](crate::Affectance).
/// Truncated pairs are non-negative, so each sum is a **lower bound** on
/// the dense row-sum; at `δ = 0` it is exact up to recovery rounding.
pub fn affectance_row_sums(ratios: &SparseInterferenceRatios, params: &SinrParams) -> Vec<f64> {
    let n = ratios.len();
    (0..n)
        .map(|i| {
            let margin = ratios.signal(i) - params.beta * params.noise;
            if margin <= 0.0 {
                return (n - 1) as f64;
            }
            let scale = ratios.signal(i) / margin;
            let (_, rhos) = ratios.row(i);
            kahan_sum(rhos.iter().map(|&rho| {
                if rho >= 1.0 {
                    1.0
                } else {
                    (scale * (rho / (1.0 - rho))).min(1.0)
                }
            }))
        })
        .collect()
}

/// `F` saturates here when a retained ratio rounds to exactly 1 (the
/// dense gain ratio is no longer recoverable, only known to be huge).
const F_SATURATION: f64 = 1e300;

/// Spectral radius of the normalized interference matrix of `set`,
/// restricted to the retained pairs — the sparse mirror of
/// [`spectral_report`](crate::spectral::spectral_report).
///
/// The normalized interference `F(j→i) = S̄_{j,i}/S̄_{i,i}` is recovered
/// from each retained ratio as `ρ/(β·(1 − ρ))`; truncated pairs are
/// treated as 0, so the reported radius is a lower bound on the dense one
/// (exact at `δ = 0` up to recovery rounding). The power iteration, the
/// Collatz–Wielandt bracket, and every edge case mirror the dense
/// implementation.
///
/// # Panics
/// If `set` contains an out-of-range index or a link with zero
/// `S̄_{i,i}`.
pub fn sparse_spectral_report(ratios: &SparseInterferenceRatios, set: &[usize]) -> SpectralReport {
    let m = set.len();
    for &i in set {
        assert!(i < ratios.len(), "link {i} out of range");
        assert!(
            ratios.signal(i) > 0.0,
            "link {i} has zero own-gain; normalization undefined"
        );
    }
    if m <= 1 {
        return SpectralReport {
            rho: 0.0,
            rho_lower: 0.0,
            rho_upper: 0.0,
            max_threshold: f64::INFINITY,
            iterations: 0,
        };
    }
    // Sparse sub-rows of F over the set: position-mapped, retained pairs
    // only.
    let mut pos = vec![usize::MAX; ratios.len()];
    for (a, &i) in set.iter().enumerate() {
        pos[i] = a;
    }
    let beta = ratios.beta();
    let mut f_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
    let mut all_zero = true;
    for &i in set {
        let (cols, rhos) = ratios.row(i);
        let mut row = Vec::new();
        for (&j, &rho) in cols.iter().zip(rhos) {
            let b = pos[j as usize];
            if b == usize::MAX {
                continue;
            }
            let v = if rho >= 1.0 {
                F_SATURATION
            } else {
                rho / (beta * (1.0 - rho))
            };
            if v > 0.0 {
                row.push((b, v));
                all_zero = false;
            }
        }
        f_rows.push(row);
    }
    if all_zero {
        return SpectralReport {
            rho: 0.0,
            rho_lower: 0.0,
            rho_upper: 0.0,
            max_threshold: f64::INFINITY,
            iterations: 0,
        };
    }
    // Power iteration on the shifted matrix I + F with intersected
    // Collatz–Wielandt brackets — identical to the dense path (see
    // `crate::spectral` for why the shift and the bracket are needed).
    let mut x = vec![1.0 / m as f64; m];
    let mut y = vec![0.0; m];
    let mut lo = 1.0_f64;
    let mut hi = f64::INFINITY;
    let mut iterations = 0;
    for it in 0..10_000 {
        iterations = it + 1;
        for (a, row) in f_rows.iter().enumerate() {
            let fx: f64 = row.iter().map(|&(b, fab)| fab * x[b]).sum();
            y[a] = x[a] + fx;
        }
        if x.iter().all(|&v| v > 0.0) {
            let (mut l, mut h) = (f64::INFINITY, 0.0_f64);
            for a in 0..m {
                let r = y[a] / x[a];
                l = l.min(r);
                h = h.max(r);
            }
            lo = lo.max(l);
            hi = hi.min(h);
        }
        let norm: f64 = y.iter().sum();
        debug_assert!(
            norm >= 1.0 - 1e-12,
            "I + F cannot shrink an L1-normalized vector"
        );
        y.iter_mut().for_each(|v| *v /= norm);
        std::mem::swap(&mut x, &mut y);
        if hi - lo <= 1e-13 * hi {
            break;
        }
    }
    let shifted_rho = if hi.is_finite() { 0.5 * (lo + hi) } else { lo };
    let rho = (shifted_rho - 1.0).max(0.0);
    SpectralReport {
        rho,
        rho_lower: (lo - 1.0).max(0.0),
        rho_upper: if hi.is_finite() {
            hi - 1.0
        } else {
            f64::INFINITY
        },
        max_threshold: if rho > 0.0 { 1.0 / rho } else { f64::INFINITY },
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::{AccumMode, InterferenceRatios, SuccessAccumulator};
    use crate::spectral::spectral_report;
    use crate::Affectance;

    fn gain4() -> GainMatrix {
        GainMatrix::from_raw(
            4,
            vec![
                10.0, 2.0, 0.3, 0.01, //
                2.0, 8.0, 0.5, 0.02, //
                0.3, 0.5, 12.0, 1.0, //
                0.01, 0.02, 1.0, 9.0,
            ],
        )
    }

    fn params() -> SinrParams {
        SinrParams::new(2.0, 1.5, 0.2)
    }

    #[test]
    fn delta_zero_is_bit_equal_to_dense() {
        let gm = gain4();
        let p = params();
        let dense = InterferenceRatios::new(&gm, &p);
        let sparse = SparseInterferenceRatios::from_gain(&gm, &p, 0.0);
        assert_eq!(sparse.nnz(), 12, "all off-diagonal pairs retained");
        for i in 0..4 {
            assert_eq!(sparse.noise_factor(i), dense.noise_factor(i));
            assert_eq!(sparse.tau(i), 0.0);
            for j in 0..4 {
                assert_eq!(sparse.rho(j, i), dense.rho(j, i), "rho({j},{i})");
            }
        }
        assert_eq!(sparse.tau_max(), 0.0);
    }

    #[test]
    fn truncation_drops_small_ratios_and_certifies_the_mass() {
        let gm = gain4();
        let p = params();
        let dense = InterferenceRatios::new(&gm, &p);
        let delta = 0.05;
        let sparse = SparseInterferenceRatios::from_gain(&gm, &p, delta);
        let budget = truncation_budget(delta);
        assert!(sparse.nnz() < 12, "weak pairs must be dropped");
        for i in 0..4 {
            // Certified mass equals the exact dropped mass and respects
            // the budget.
            let dropped: f64 = (0..4)
                .filter(|&j| dense.rho(j, i) > 0.0 && sparse.rho(j, i) == 0.0)
                .map(|j| -(-dense.rho(j, i)).ln_1p())
                .sum();
            assert!((sparse.tau(i) - dropped).abs() < 1e-15, "link {i}");
            assert!(sparse.tau(i) <= budget + 1e-15);
            // Retained values are bit-equal to the dense cache.
            for j in 0..4 {
                let r = sparse.rho(j, i);
                if r != 0.0 {
                    assert_eq!(r, dense.rho(j, i));
                }
            }
        }
    }

    #[test]
    fn accumulator_matches_dense_at_delta_zero() {
        let gm = gain4();
        let p = params();
        let dense_r = InterferenceRatios::new(&gm, &p);
        let sparse_r = SparseInterferenceRatios::from_gain(&gm, &p, 0.0);
        let mut dense = SuccessAccumulator::new(4, AccumMode::LogDomain);
        let mut sparse = SparseSuccessAccumulator::new(4);
        dense.set_probs(&dense_r, &[0.8, 0.0, 0.3, 1.0]);
        sparse.set_probs(&sparse_r, &[0.8, 0.0, 0.3, 1.0]);
        dense.set_prob(&dense_r, 1, 0.5);
        sparse.set_prob(&sparse_r, 1, 0.5);
        dense.remove(&dense_r, 3);
        sparse.remove(&sparse_r, 3);
        for i in 0..4 {
            let d = dense.success_probability(&dense_r, i);
            let s = sparse.success_probability(&sparse_r, i);
            assert!((d - s).abs() <= 1e-15 * d.abs().max(1.0), "link {i}");
            let (lo, hi) = sparse.success_interval(&sparse_r, i);
            assert_eq!(lo, hi, "tau = 0 collapses the interval");
        }
        assert!(
            (dense.expected_successes(&dense_r) - sparse.expected_successes(&sparse_r)).abs()
                < 1e-14
        );
    }

    #[test]
    fn certified_interval_contains_dense_value() {
        let gm = gain4();
        let p = params();
        let dense_r = InterferenceRatios::new(&gm, &p);
        for delta in [1e-6, 0.05, 0.5, 0.99] {
            let sparse_r = SparseInterferenceRatios::from_gain(&gm, &p, delta);
            let probs = [0.9, 0.4, 1.0, 0.7];
            let mut dense = SuccessAccumulator::new(4, AccumMode::LogDomain);
            let mut sparse = SparseSuccessAccumulator::new(4);
            dense.set_probs(&dense_r, &probs);
            sparse.set_probs(&sparse_r, &probs);
            for i in 0..4 {
                let d = dense.success_probability(&dense_r, i);
                let (lo, hi) = sparse.success_interval(&sparse_r, i);
                assert!(
                    lo - 1e-12 <= d && d <= hi + 1e-12,
                    "delta={delta} link {i}: {d} not in [{lo}, {hi}]"
                );
            }
            let (lo, hi) = sparse.expected_successes_interval(&sparse_r);
            let d = dense.expected_successes(&dense_r);
            assert!(lo - 1e-12 <= d && d <= hi + 1e-12, "delta={delta}");
        }
    }

    #[test]
    fn activation_gain_matches_dense_at_delta_zero() {
        let gm = gain4();
        let p = params();
        let dense_r = InterferenceRatios::new(&gm, &p);
        let sparse_r = SparseInterferenceRatios::from_gain(&gm, &p, 0.0);
        let mut dense = SuccessAccumulator::new(4, AccumMode::LogDomain);
        let mut sparse = SparseSuccessAccumulator::new(4);
        for j in [0, 2] {
            dense.insert(&dense_r, j);
            sparse.insert(&sparse_r, j);
        }
        let w = [2.0, 1.0, 3.0, 0.5];
        for j in [1, 3] {
            let d = dense.activation_gain(&dense_r, Some(&w), j);
            let s = sparse.activation_gain(&sparse_r, Some(&w), j);
            assert!((d - s).abs() < 1e-14, "candidate {j}: {d} vs {s}");
        }
    }

    #[test]
    fn resident_bytes_counts_exact_capacities() {
        let (gain, p) = (gain4(), params());
        for delta in [0.0, 0.3] {
            let r = SparseInterferenceRatios::from_gain(&gain, &p, delta);
            let (n, nnz) = (r.len(), r.nnz());
            let word = std::mem::size_of::<usize>();
            // Row and transpose pointers, two index and two ratio arrays,
            // noise/signal/τ — every vector at its exact length.
            let want = 2 * (n + 1) * word + 2 * nnz * 4 + (2 * nnz + 3 * n) * 8;
            assert_eq!(r.resident_bytes(), want, "delta {delta}");
        }
    }

    #[test]
    fn transpose_round_trips_every_stored_pair() {
        let gm = gain4();
        let sparse = SparseInterferenceRatios::from_gain(&gm, &params(), 0.05);
        let mut via_rows = Vec::new();
        for i in 0..sparse.len() {
            let (cols, rhos) = sparse.row(i);
            for (&j, &r) in cols.iter().zip(rhos) {
                via_rows.push((i as u32, j, r.to_bits()));
            }
        }
        let mut via_cols = Vec::new();
        for j in 0..sparse.len() {
            let (recvs, rhos) = sparse.column(j);
            for (&i, &r) in recvs.iter().zip(rhos) {
                via_cols.push((i, j as u32, r.to_bits()));
            }
        }
        via_rows.sort_unstable();
        via_cols.sort_unstable();
        assert_eq!(via_rows, via_cols);
    }

    #[test]
    fn dead_receiver_gets_empty_row_and_zero_noise() {
        let gm = GainMatrix::from_raw(2, vec![0.0, 5.0, 0.0, 10.0]);
        let p = SinrParams::new(2.0, 2.0, 0.5);
        let sparse = SparseInterferenceRatios::from_gain(&gm, &p, 0.1);
        assert_eq!(sparse.noise_factor(0), 0.0);
        assert_eq!(sparse.row(0).0.len(), 0);
        assert_eq!(sparse.signal(0), 0.0);
        let mut acc = SparseSuccessAccumulator::new(2);
        acc.set_uniform(&sparse, 1.0);
        assert_eq!(acc.success_probability(&sparse, 0), 0.0);
    }

    #[test]
    fn empty_and_singleton_instances_work() {
        let p = params();
        for n in [0usize, 1] {
            let gm = GainMatrix::from_raw(n, vec![2.0; n * n]);
            let sparse = SparseInterferenceRatios::from_gain(&gm, &p, 0.3);
            assert_eq!(sparse.len(), n);
            assert_eq!(sparse.nnz(), 0);
            let mut acc = SparseSuccessAccumulator::new(n);
            acc.set_uniform(&sparse, 0.5);
            let (lo, hi) = acc.expected_successes_interval(&sparse);
            assert!(lo <= hi);
        }
    }

    #[test]
    fn affectance_row_sums_match_dense_at_delta_zero() {
        let gm = gain4();
        let p = params();
        let sparse = SparseInterferenceRatios::from_gain(&gm, &p, 0.0);
        let dense = Affectance::new(&gm, &p);
        let all: Vec<usize> = (0..4).collect();
        let sums = affectance_row_sums(&sparse, &p);
        for (i, &sum) in sums.iter().enumerate() {
            let want = dense.in_affectance(&all, i);
            assert!(
                (sum - want).abs() <= 1e-12 * want.max(1.0),
                "link {i}: {sum} vs {want}"
            );
        }
    }

    #[test]
    fn affectance_row_sums_handle_hopeless_links() {
        let gm = GainMatrix::from_raw(2, vec![0.5, 0.0, 0.0, 10.0]);
        let p = SinrParams::new(2.0, 1.0, 1.0); // beta*nu = 1 > 0.5
        let sparse = SparseInterferenceRatios::from_gain(&gm, &p, 0.0);
        let sums = affectance_row_sums(&sparse, &p);
        assert_eq!(sums[0], 1.0, "hopeless link: unit affectance from peer");
    }

    #[test]
    fn sparse_spectral_matches_dense_at_delta_zero() {
        let gm = gain4();
        let p = params();
        let sparse = SparseInterferenceRatios::from_gain(&gm, &p, 0.0);
        for set in [vec![0usize, 1], vec![0, 1, 2, 3], vec![1, 3]] {
            let d = spectral_report(&gm, &set);
            let s = sparse_spectral_report(&sparse, &set);
            assert!(
                (d.rho - s.rho).abs() <= 1e-10 * d.rho.max(1.0),
                "set {set:?}: {} vs {}",
                s.rho,
                d.rho
            );
            assert!(s.rho_lower <= s.rho + 1e-12 && s.rho <= s.rho_upper + 1e-12);
        }
        // Singleton and empty sets are unbounded, like the dense path.
        assert_eq!(
            sparse_spectral_report(&sparse, &[0]).max_threshold,
            f64::INFINITY
        );
        assert_eq!(
            sparse_spectral_report(&sparse, &[]).max_threshold,
            f64::INFINITY
        );
    }

    #[test]
    fn truncate_smallest_prefers_small_ratios_and_breaks_ties_by_index() {
        let mut entries = vec![(0u32, 0.5), (1, 0.01), (2, 0.01), (3, 0.3)];
        // Budget fits only one of the two tied 0.01 entries: index 1 goes.
        let budget = 0.015;
        let dropped = truncate_smallest(&mut entries, budget, &mut Vec::new());
        assert_eq!(
            entries.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        assert!((dropped - (-(-0.01f64).ln_1p())).abs() < 1e-15);
    }

    /// The index-permutation implementation `truncate_smallest` replaced,
    /// kept as the reference its bit sort must reproduce.
    fn truncate_smallest_reference(entries: &mut Vec<(u32, f64)>, budget: f64) -> f64 {
        if budget <= 0.0 || entries.is_empty() {
            return 0.0;
        }
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            entries[a]
                .1
                .total_cmp(&entries[b].1)
                .then(entries[a].0.cmp(&entries[b].0))
        });
        let mut dropped_mass = 0.0f64;
        let mut drop = vec![false; entries.len()];
        for &k in &order {
            let mass = -(-entries[k].1).ln_1p();
            let tentative = dropped_mass + mass;
            if tentative <= budget {
                dropped_mass = tentative;
                drop[k] = true;
            } else {
                break;
            }
        }
        let mut k = 0;
        entries.retain(|_| {
            let keep = !drop[k];
            k += 1;
            keep
        });
        dropped_mass
    }

    proptest::proptest! {
        /// The bit sort keeps the same entries in the same order
        /// and returns the same dropped mass, bit for bit, as the
        /// reference — ties on ρ (drawn from a small palette), ρ = 1 and
        /// shuffled sender orders included — and drops the same entries
        /// from the reversed row.
        #[test]
        fn truncate_smallest_matches_reference(
            picks in proptest::collection::vec((0u32..6, 0.0f64..1.0, 0u32..1000), 0..60),
            budget_exp in -8.0f64..1.0,
        ) {
            let palette = [1e-9, 1e-3, 0.01, 0.25, 1.0];
            let mut seen = std::collections::BTreeSet::new();
            let entries: Vec<(u32, f64)> = picks
                .iter()
                .filter(|p| seen.insert(p.2))
                .map(|&(k, u, j)| {
                    let rho = palette.get(k as usize).copied().unwrap_or(u.max(1e-300));
                    (j, rho)
                })
                .collect();
            let budget = 10f64.powf(budget_exp);
            let mut reversed: Vec<(u32, f64)> = entries.iter().rev().copied().collect();
            let (mut fast, mut slow) = (entries.clone(), entries);
            let fast_mass = truncate_smallest(&mut fast, budget, &mut Vec::new());
            let slow_mass = truncate_smallest_reference(&mut slow, budget);
            proptest::prop_assert_eq!(fast_mass.to_bits(), slow_mass.to_bits());
            proptest::prop_assert_eq!(&fast, &slow);
            let reversed_mass = truncate_smallest(&mut reversed, budget, &mut Vec::new());
            reversed.reverse();
            proptest::prop_assert_eq!(reversed_mass.to_bits(), fast_mass.to_bits());
            proptest::prop_assert_eq!(reversed, fast);
        }

        /// Some of a row's smaller entries held back as the unexamined
        /// part, their mass bounded either tightly (the float sum widened
        /// by its rounding bound) or loosely: whenever `truncation_decided` decides on the rest,
        /// truncating the rest within `budget − reserved` keeps exactly
        /// what truncating the whole row within `budget` keeps, and the
        /// certificate lies between the whole row's dropped mass and
        /// `budget`.
        #[test]
        fn truncation_decided_agrees_with_the_whole_row(
            picks in proptest::collection::vec((0u32..8, 0.0f64..1.0, proptest::arbitrary::any::<bool>()), 1..80),
            window in 0usize..80,
            budget_exp in -6.0f64..0.0,
            slack in 0.0f64..1.0,
        ) {
            let palette = [1e-7, 1e-4, 1e-3, 0.25];
            let mut whole: Vec<(u32, f64, bool)> = picks
                .iter()
                .enumerate()
                .map(|(j, &(k, u, held))| {
                    let rho = palette.get(k as usize).copied().unwrap_or(10f64.powf(-8.0 * u));
                    (j as u32, rho, held)
                })
                .collect();
            whole.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let (held, examined): (Vec<_>, Vec<_>) =
                whole.iter().enumerate().partition(|(rank, e)| *rank < window && e.2);
            let strip = |v: Vec<(usize, &(u32, f64, bool))>| -> Vec<(u32, f64)> {
                v.into_iter().map(|(_, e)| (e.0, e.1)).collect()
            };
            let (held, examined) = (strip(held), strip(examined));
            let mut whole: Vec<(u32, f64)> = whole.iter().map(|e| (e.0, e.1)).collect();
            let n = whole.len();
            let held_mass: f64 = held.iter().map(|e| -(-e.1).ln_1p()).sum();
            let exterior = if slack < 0.5 {
                held_mass * (1.0 + (n + 1) as f64 * f64::EPSILON)
            } else {
                held_mass * (1.0 + slack)
            };
            let budget = 10f64.powf(budget_exp);
            let bits = &mut Vec::new();
            let rho_hat = held.iter().map(|e| e.1).fold(0.0, f64::max);
            let decided = truncation_decided(&examined, budget, exterior, rho_hat, n, bits);
            if let Some(reserved) = decided {
                let whole_dropped = truncate_smallest(&mut whole, budget, bits);
                let mut kept = examined;
                let dropped = truncate_smallest(&mut kept, budget - reserved, bits);
                kept.sort_unstable_by_key(|e| e.0);
                whole.sort_unstable_by_key(|e| e.0);
                proptest::prop_assert_eq!(kept, whole);
                let tau = dropped + reserved;
                proptest::prop_assert!(
                    whole_dropped <= tau && tau <= budget,
                    "tau {:e} outside [{:e}, {:e}]", tau, whole_dropped, budget
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "senders must be ascending")]
    fn from_raw_parts_rejects_unsorted_rows() {
        let _ = SparseInterferenceRatios::from_raw_parts(
            1.0,
            0.0,
            vec![0, 2, 2, 2],
            vec![2, 1],
            vec![0.5, 0.5],
            vec![1.0; 3],
            vec![1.0; 3],
            vec![0.0; 3],
        );
    }

    #[test]
    #[should_panic(expected = "diagonal entries must not be stored")]
    fn from_raw_parts_rejects_diagonal_entries() {
        let _ = SparseInterferenceRatios::from_raw_parts(
            1.0,
            0.0,
            vec![0, 1],
            vec![0],
            vec![0.5],
            vec![1.0],
            vec![1.0],
            vec![0.0],
        );
    }

    #[test]
    #[should_panic(expected = "activation_gain requires a silent link")]
    fn activation_gain_rejects_active_link() {
        let gm = gain4();
        let sparse = SparseInterferenceRatios::from_gain(&gm, &params(), 0.0);
        let mut acc = SparseSuccessAccumulator::new(4);
        acc.insert(&sparse, 0);
        let _ = acc.activation_gain(&sparse, None, 0);
    }

    #[test]
    fn zero_factor_round_trips_through_removal() {
        // Mirror of the dense test: a ratio that rounds to exactly 1
        // yields a zero factor that must be tracked by count, not stored.
        let gm = GainMatrix::from_raw(2, vec![1e-300, 1e300, 0.0, 10.0]);
        let p = SinrParams::new(2.0, 2.0, 0.0);
        let sparse = SparseInterferenceRatios::from_gain(&gm, &p, 0.0);
        let mut acc = SparseSuccessAccumulator::new(2);
        acc.insert(&sparse, 0);
        acc.insert(&sparse, 1);
        assert_eq!(acc.success_probability(&sparse, 0), 0.0);
        acc.remove(&sparse, 1);
        assert!(acc.success_probability(&sparse, 0) > 0.0);
    }
}
