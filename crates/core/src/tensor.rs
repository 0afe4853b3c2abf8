//! A dense `(t, n, m, k)` tensor shared by load plans and multipliers.
//!
//! Both the load-balancing variables `y_{m_n,k}^t` and the Lagrange
//! multipliers `μ_{n,m_n,k}^t` are indexed by timeslot, SBS, MU class and
//! content. [`Tensor4`] provides the flat storage and bounds-checked
//! accessors; [`crate::plan::LoadPlan`] wraps it with domain semantics
//! and the primal-dual solver uses it directly for the multipliers.

use jocal_sim::demand::DemandTrace;
use jocal_sim::topology::{ClassId, ContentId, Network, SbsId};
use serde::{Deserialize, Serialize};

/// Dense 4-D tensor over `(timeslot, sbs, class, content)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor4 {
    horizon: usize,
    num_contents: usize,
    classes_per_sbs: Vec<usize>,
    class_offsets: Vec<usize>,
    data: Vec<f64>,
}

impl Tensor4 {
    /// Creates an all-zero tensor shaped for `network` over `horizon`
    /// slots.
    #[must_use]
    pub fn zeros(network: &Network, horizon: usize) -> Self {
        let classes_per_sbs: Vec<usize> = network.sbss().iter().map(|s| s.num_classes()).collect();
        Self::zeros_from_shape(horizon, network.num_contents(), classes_per_sbs)
    }

    /// Creates an all-zero tensor with the same `(n, m, k)` shape as a
    /// demand trace, over `horizon` slots.
    #[must_use]
    pub fn zeros_like_demand(demand: &DemandTrace, horizon: usize) -> Self {
        let classes_per_sbs: Vec<usize> = (0..demand.num_sbs())
            .map(|n| demand.num_classes(SbsId(n)))
            .collect();
        Self::zeros_from_shape(horizon, demand.num_contents(), classes_per_sbs)
    }

    fn zeros_from_shape(horizon: usize, num_contents: usize, classes_per_sbs: Vec<usize>) -> Self {
        let mut class_offsets = Vec::with_capacity(classes_per_sbs.len());
        let mut acc = 0usize;
        for &c in &classes_per_sbs {
            class_offsets.push(acc);
            acc += c;
        }
        Tensor4 {
            horizon,
            num_contents,
            classes_per_sbs,
            class_offsets,
            data: vec![0.0; horizon * acc * num_contents],
        }
    }

    /// Number of timeslots.
    #[inline]
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Catalog size `K`.
    #[inline]
    #[must_use]
    pub fn num_contents(&self) -> usize {
        self.num_contents
    }

    /// Number of SBSs.
    #[inline]
    #[must_use]
    pub fn num_sbs(&self) -> usize {
        self.classes_per_sbs.len()
    }

    /// MU classes at SBS `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[inline]
    #[must_use]
    pub fn num_classes(&self, n: SbsId) -> usize {
        self.classes_per_sbs[n.0]
    }

    /// Total classes across SBSs.
    #[inline]
    #[must_use]
    pub fn total_classes(&self) -> usize {
        self.class_offsets
            .last()
            .map_or(0, |o| o + self.classes_per_sbs.last().unwrap())
    }

    /// Total number of scalar entries.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no entries.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn index(&self, t: usize, n: SbsId, m: ClassId, k: ContentId) -> usize {
        debug_assert!(t < self.horizon, "timeslot out of range");
        debug_assert!(n.0 < self.num_sbs(), "sbs out of range");
        debug_assert!(m.0 < self.classes_per_sbs[n.0], "class out of range");
        debug_assert!(k.0 < self.num_contents, "content out of range");
        ((t * self.total_classes()) + self.class_offsets[n.0] + m.0) * self.num_contents + k.0
    }

    /// Reads one entry.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any index is out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, t: usize, n: SbsId, m: ClassId, k: ContentId) -> f64 {
        self.data[self.index(t, n, m, k)]
    }

    /// Writes one entry.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any index is out of range.
    #[inline]
    pub fn set(&mut self, t: usize, n: SbsId, m: ClassId, k: ContentId, value: f64) {
        let i = self.index(t, n, m, k);
        self.data[i] = value;
    }

    /// Flat read-only view of the underlying data, laid out as
    /// `[t][n·m][k]`.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Whether another tensor has the identical shape.
    #[must_use]
    pub fn same_shape(&self, other: &Tensor4) -> bool {
        self.horizon == other.horizon
            && self.num_contents == other.num_contents
            && self.classes_per_sbs == other.classes_per_sbs
    }

    /// The `(m, k)` block of slot `t`, SBS `n`, flattened row-major with
    /// `k` fastest, returned as a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `n` is out of range.
    #[must_use]
    pub fn sbs_slot(&self, t: usize, n: SbsId) -> Vec<f64> {
        assert!(t < self.horizon && n.0 < self.num_sbs());
        let start = self.index(t, n, ClassId(0), ContentId(0));
        let len = self.classes_per_sbs[n.0] * self.num_contents;
        self.data[start..start + len].to_vec()
    }

    /// Length of one `(m, k)` block at SBS `n` (`M_n · K`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[inline]
    #[must_use]
    pub fn sbs_block_len(&self, n: SbsId) -> usize {
        self.classes_per_sbs[n.0] * self.num_contents
    }

    /// Offset of the `(m, k)` block of slot `t`, SBS `n` in
    /// [`Tensor4::as_slice`]; the block spans
    /// [`Tensor4::sbs_block_len`] entries from there.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `n` is out of range.
    #[inline]
    #[must_use]
    pub fn sbs_slot_offset(&self, t: usize, n: SbsId) -> usize {
        assert!(t < self.horizon && n.0 < self.num_sbs());
        (t * self.total_classes() + self.class_offsets[n.0]) * self.num_contents
    }

    /// Zero-copy view of the `(m, k)` block of slot `t`, SBS `n` —
    /// the borrow-based counterpart of [`Tensor4::sbs_slot`], used on
    /// the solver hot paths.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `n` is out of range.
    #[inline]
    #[must_use]
    pub fn sbs_slot_slice(&self, t: usize, n: SbsId) -> &[f64] {
        assert!(t < self.horizon && n.0 < self.num_sbs());
        let start = self.index(t, n, ClassId(0), ContentId(0));
        let len = self.classes_per_sbs[n.0] * self.num_contents;
        &self.data[start..start + len]
    }

    /// Mutable zero-copy view of the `(m, k)` block of slot `t`, SBS
    /// `n`.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `n` is out of range.
    #[inline]
    pub fn sbs_slot_slice_mut(&mut self, t: usize, n: SbsId) -> &mut [f64] {
        assert!(t < self.horizon && n.0 < self.num_sbs());
        let start = self.index(t, n, ClassId(0), ContentId(0));
        let len = self.classes_per_sbs[n.0] * self.num_contents;
        &mut self.data[start..start + len]
    }

    /// Shifts the tensor `by` slots toward the past: slot `t` of the
    /// result is slot `t + by` of `self`, and the final `by` slots are
    /// zero. Used to warm-start receding-horizon solves from the previous
    /// window's multipliers.
    #[must_use]
    pub fn shift_time(&self, by: usize) -> Tensor4 {
        let mut out = Tensor4 {
            horizon: self.horizon,
            num_contents: self.num_contents,
            classes_per_sbs: self.classes_per_sbs.clone(),
            class_offsets: self.class_offsets.clone(),
            data: vec![0.0; self.data.len()],
        };
        let width = self.total_classes() * self.num_contents;
        for t in 0..self.horizon.saturating_sub(by) {
            let src = (t + by) * width;
            out.data[t * width..(t + 1) * width].copy_from_slice(&self.data[src..src + width]);
        }
        out
    }

    /// Overwrites the `(m, k)` block of slot `t`, SBS `n`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or `block` has the wrong length.
    pub fn set_sbs_slot(&mut self, t: usize, n: SbsId, block: &[f64]) {
        assert!(t < self.horizon && n.0 < self.num_sbs());
        let start = self.index(t, n, ClassId(0), ContentId(0));
        let len = self.classes_per_sbs[n.0] * self.num_contents;
        assert_eq!(block.len(), len, "block length mismatch");
        self.data[start..start + len].copy_from_slice(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jocal_sim::topology::MuClass;

    fn net() -> Network {
        Network::builder(3)
            .sbs(
                1,
                5.0,
                1.0,
                vec![
                    MuClass::new(0.1, 0.0, 1.0).unwrap(),
                    MuClass::new(0.2, 0.0, 2.0).unwrap(),
                ],
            )
            .unwrap()
            .sbs(1, 5.0, 1.0, vec![MuClass::new(0.3, 0.0, 3.0).unwrap()])
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn shape_and_len() {
        let t = Tensor4::zeros(&net(), 4);
        assert_eq!(t.horizon(), 4);
        assert_eq!(t.num_contents(), 3);
        assert_eq!(t.num_sbs(), 2);
        assert_eq!(t.total_classes(), 3);
        assert_eq!(t.len(), 4 * 3 * 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn get_set_roundtrip_and_isolation() {
        let mut t = Tensor4::zeros(&net(), 2);
        t.set(1, SbsId(1), ClassId(0), ContentId(2), 9.0);
        assert_eq!(t.get(1, SbsId(1), ClassId(0), ContentId(2)), 9.0);
        assert_eq!(t.get(1, SbsId(0), ClassId(1), ContentId(2)), 0.0);
        assert_eq!(t.get(0, SbsId(1), ClassId(0), ContentId(2)), 0.0);
    }

    #[test]
    fn sbs_slot_block_roundtrip() {
        let mut t = Tensor4::zeros(&net(), 2);
        let block = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2 classes × 3 contents
        t.set_sbs_slot(1, SbsId(0), &block);
        assert_eq!(t.sbs_slot(1, SbsId(0)), block);
        assert_eq!(t.get(1, SbsId(0), ClassId(1), ContentId(0)), 4.0);
        // SBS 1 untouched.
        assert_eq!(t.sbs_slot(1, SbsId(1)), vec![0.0; 3]);
    }

    #[test]
    fn zeros_like_demand_matches_shape() {
        let n = net();
        let d = DemandTrace::zeros(&n, 7);
        let t = Tensor4::zeros_like_demand(&d, 5);
        assert_eq!(t.horizon(), 5);
        assert_eq!(t.num_sbs(), 2);
        assert_eq!(t.num_classes(SbsId(0)), 2);
        assert!(t.same_shape(&Tensor4::zeros(&n, 5)));
        assert!(!t.same_shape(&Tensor4::zeros(&n, 6)));
    }

    #[test]
    #[should_panic(expected = "block length mismatch")]
    fn set_sbs_slot_checks_length() {
        let mut t = Tensor4::zeros(&net(), 1);
        t.set_sbs_slot(0, SbsId(0), &[1.0]);
    }
}
