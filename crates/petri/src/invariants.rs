//! Place and transition semiflows (invariants) via the Farkas
//! algorithm.
//!
//! A *P-semiflow* is a non-negative integer weighting `w` of places
//! with `wᵀ·I = 0`: the weighted token count `w·M` is constant under
//! firing. A *T-semiflow* is a non-negative `x` with `I·x = 0`: a
//! firing count vector that reproduces the marking. Semiflows are the
//! standard structural sanity checks for handshake models — every
//! signal's low/high place pair in an STG is a P-semiflow of weight
//! one, and every complete cycle is a T-semiflow.
//!
//! The elimination is the minimal-support Farkas algorithm (Martínez
//! & Silva, 1982): it cancels one constraint column at a time and
//! combines a positive row with a negative one only when no third row
//! has a support inside theirs. Every row of the working matrix is
//! then a minimal-support semiflow of the columns cancelled so far,
//! and the result is exactly the minimal-support semiflows — every
//! semiflow is a non-negative combination of them — each normalised
//! to gcd 1, sorted. Their number can still grow exponentially with
//! the net (a ring of `k` stages of two parallel places has `2^k`), so
//! [`FarkasLimits::max_rows`] caps the working matrix and the
//! functions return `None` when it outgrows the cap. They also return
//! `None` when a weight overflows `i64`, which ordinary arcs can cause:
//! a place that forks into two places joined again doubles its weight
//! per stage. [`p_semiflows_guarded`] also returns `None` when its
//! [`StopGuard`] fires, polled once per eliminated column.

use crate::{Net, PlaceId, StopGuard, TransitionId};

/// Limits for the Farkas iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarkasLimits {
    /// Maximum number of intermediate rows before giving up.
    pub max_rows: usize,
}

impl Default for FarkasLimits {
    fn default() -> Self {
        FarkasLimits { max_rows: 20_000 }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// `fa·x + fb·y`, or `None` when it overflows. `i64::MIN` counts as
/// an overflow, so every matrix entry can be negated.
fn combine(fa: i64, x: i64, fb: i64, y: i64) -> Option<i64> {
    let v = fa.checked_mul(x)?.checked_add(fb.checked_mul(y)?)?;
    v.checked_neg().map(|_| v)
}

/// The Farkas matrix, row-major: each row holds the constraint part
/// still to cancel followed by the weight part (the semiflow being
/// built), and the weight part's support as a bitset of `words` words.
struct Matrix {
    num_cols: usize,
    stride: usize,
    words: usize,
    values: Vec<i64>,
    supports: Vec<u64>,
}

impl Matrix {
    /// One unit row per weighted item, with `constraint(i, col)` as its
    /// constraint part.
    fn units(items: usize, num_cols: usize, constraint: impl Fn(usize, usize) -> i64) -> Matrix {
        let stride = num_cols + items;
        let words = items.div_ceil(64);
        let mut values = vec![0; items * stride];
        let mut supports = vec![0; items * words];
        for i in 0..items {
            let row = &mut values[i * stride..(i + 1) * stride];
            for (col, v) in row[..num_cols].iter_mut().enumerate() {
                *v = constraint(i, col);
            }
            row[num_cols + i] = 1;
            supports[i * words + i / 64] |= 1 << (i % 64);
        }
        Matrix {
            num_cols,
            stride,
            words,
            values,
            supports,
        }
    }

    fn rows(&self) -> usize {
        self.supports.len() / self.words.max(1)
    }

    fn row(&self, i: usize) -> &[i64] {
        &self.values[i * self.stride..(i + 1) * self.stride]
    }

    fn support(&self, i: usize) -> &[u64] {
        &self.supports[i * self.words..(i + 1) * self.words]
    }

    /// Removes row `i`, moving the last row into its place.
    fn swap_remove(&mut self, i: usize) {
        let last = self.rows() - 1;
        if i != last {
            self.values.copy_within(
                last * self.stride..(last + 1) * self.stride,
                i * self.stride,
            );
            self.supports
                .copy_within(last * self.words..(last + 1) * self.words, i * self.words);
        }
        self.values.truncate(last * self.stride);
        self.supports.truncate(last * self.words);
    }
}

/// Runs the minimal-support Farkas algorithm on `m`. Returns the
/// minimal-support non-negative integer row combinations annihilating
/// all columns (their weight parts), or `None` once a column's matrix
/// outgrows `limits.max_rows`, an entry overflows `i64` or `guard`
/// fires before a column.
fn farkas(mut m: Matrix, limits: FarkasLimits, guard: &StopGuard) -> Option<Vec<Vec<i64>>> {
    let mut union = vec![0u64; m.words];
    let (mut pos, mut neg) = (Vec::new(), Vec::new());
    for col in 0..m.num_cols {
        guard.poll_now().ok()?;
        pos.clear();
        neg.clear();
        for i in 0..m.rows() {
            match m.row(i)[col].signum() {
                1 => pos.push(i),
                -1 => neg.push(i),
                _ => {}
            }
        }
        let kept = m.rows() - pos.len() - neg.len();
        let (mut values, mut supports) = (Vec::new(), Vec::new());
        for &i in &pos {
            for &j in &neg {
                for (u, (a, b)) in union.iter_mut().zip(m.support(i).iter().zip(m.support(j))) {
                    *u = a | b;
                }
                // Adjacency test: a third row whose support lies inside
                // the union makes the combination non-minimal.
                let dominated = (0..m.rows()).any(|k| {
                    k != i && k != j && m.support(k).iter().zip(&union).all(|(s, u)| s & !u == 0)
                });
                if dominated {
                    continue;
                }
                let (p, n) = (m.row(i), m.row(j));
                let (a, b) = (p[col], -n[col]);
                let g = gcd(a, b);
                let (fa, fb) = (b / g, a / g);
                let start = values.len();
                values.reserve(m.stride);
                for (&x, &y) in p.iter().zip(n) {
                    values.push(combine(fa, x, fb, y)?);
                }
                let row = &mut values[start..];
                let mut g = 0;
                for &v in row.iter() {
                    g = gcd(g, v);
                    if g == 1 {
                        break;
                    }
                }
                if g > 1 {
                    row.iter_mut().for_each(|v| *v /= g);
                }
                supports.extend_from_slice(&union);
                if kept + supports.len() / m.words > limits.max_rows {
                    return None;
                }
            }
        }
        // Drop the rows nonzero in this column, filling each hole with
        // the last row so the rows already zero move at most once.
        pos.append(&mut neg);
        pos.sort_unstable();
        for &i in pos.iter().rev() {
            m.swap_remove(i);
        }
        m.values.append(&mut values);
        m.supports.append(&mut supports);
    }
    let mut result: Vec<Vec<i64>> = (0..m.rows())
        .map(|i| m.row(i)[m.num_cols..].to_vec())
        .collect();
    result.sort();
    Some(result)
}

/// Computes the minimal-support P-semiflows of `net` (weights per
/// place, in place order), gcd-normalised and sorted. Every
/// P-semiflow is a non-negative combination of them. Returns `None`
/// if the Farkas matrix outgrows `limits` or a weight overflows `i64`.
///
/// # Examples
///
/// ```
/// use petri::{invariants, NetBuilder};
///
/// # fn main() -> Result<(), petri::NetError> {
/// // p0 -> t -> p1 -> u -> p0: tokens are conserved (p0 + p1).
/// let mut b = NetBuilder::new();
/// let p0 = b.add_place("p0");
/// let p1 = b.add_place("p1");
/// let t = b.add_transition("t");
/// let u = b.add_transition("u");
/// b.arc_pt(p0, t)?;
/// b.arc_tp(t, p1)?;
/// b.arc_pt(p1, u)?;
/// b.arc_tp(u, p0)?;
/// let net = b.build()?;
/// let flows = invariants::p_semiflows(&net, Default::default()).unwrap();
/// assert_eq!(flows, vec![vec![1, 1]]);
/// # Ok(())
/// # }
/// ```
pub fn p_semiflows(net: &Net, limits: FarkasLimits) -> Option<Vec<Vec<i64>>> {
    p_semiflows_guarded(net, limits, &StopGuard::unlimited())
}

/// Like [`p_semiflows`], but also returns `None` once `guard` fires;
/// it is polled before each eliminated column, so a cancellation or a
/// deadline interrupts a long elimination between columns.
pub fn p_semiflows_guarded(
    net: &Net,
    limits: FarkasLimits,
    guard: &StopGuard,
) -> Option<Vec<Vec<i64>>> {
    let (np, nt) = (net.num_places(), net.num_transitions());
    let inc = crate::IncidenceMatrix::of(net);
    let m = Matrix::units(np, nt, |p, t| {
        inc.entry(PlaceId::new(p), TransitionId::new(t)) as i64
    });
    farkas(m, limits, guard)
}

/// Computes the minimal-support T-semiflows of `net` (firing counts
/// per transition, in transition order), gcd-normalised and sorted.
/// Returns `None` if the Farkas matrix outgrows `limits` or a count
/// overflows `i64`.
pub fn t_semiflows(net: &Net, limits: FarkasLimits) -> Option<Vec<Vec<i64>>> {
    let (np, nt) = (net.num_places(), net.num_transitions());
    let inc = crate::IncidenceMatrix::of(net);
    let m = Matrix::units(nt, np, |t, p| {
        inc.entry(PlaceId::new(p), TransitionId::new(t)) as i64
    });
    farkas(m, limits, &StopGuard::unlimited())
}

/// Checks that `weights` is a P-invariant: `Σ w(p)·I[p][t] = 0` for
/// every transition.
pub fn is_p_invariant(net: &Net, weights: &[i64]) -> bool {
    assert_eq!(weights.len(), net.num_places(), "weight vector size");
    let inc = crate::IncidenceMatrix::of(net);
    net.transitions().all(|t| {
        (0..net.num_places())
            .map(|p| weights[p] * inc.entry(PlaceId::new(p), t) as i64)
            .sum::<i64>()
            == 0
    })
}

/// The conserved quantity `Σ w(p)·M(p)` of a P-invariant at `m`.
pub fn invariant_value(m: &crate::Marking, weights: &[i64]) -> i64 {
    m.as_slice()
        .iter()
        .zip(weights)
        .map(|(&k, &w)| k as i64 * w)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Marking, NetBuilder};

    fn two_cycles() -> Net {
        let mut b = NetBuilder::new();
        for i in 0..2 {
            let p0 = b.add_place(format!("p{i}0"));
            let p1 = b.add_place(format!("p{i}1"));
            let up = b.add_transition(format!("u{i}"));
            let down = b.add_transition(format!("d{i}"));
            b.arc_pt(p0, up).unwrap();
            b.arc_tp(up, p1).unwrap();
            b.arc_pt(p1, down).unwrap();
            b.arc_tp(down, p0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn independent_cycles_have_independent_p_semiflows() {
        let net = two_cycles();
        let flows = p_semiflows(&net, Default::default()).unwrap();
        assert!(flows.contains(&vec![1, 1, 0, 0]));
        assert!(flows.contains(&vec![0, 0, 1, 1]));
        for f in &flows {
            assert!(is_p_invariant(&net, f));
        }
    }

    #[test]
    fn t_semiflows_are_cycles() {
        let net = two_cycles();
        let flows = t_semiflows(&net, Default::default()).unwrap();
        assert!(flows.contains(&vec![1, 1, 0, 0]));
        assert!(flows.contains(&vec![0, 0, 1, 1]));
    }

    #[test]
    fn invariant_values_are_conserved_under_firing() {
        let net = two_cycles();
        let flows = p_semiflows(&net, Default::default()).unwrap();
        let m0 = Marking::with_tokens(4, &[(PlaceId::new(0), 1), (PlaceId::new(2), 1)]);
        for f in &flows {
            let v0 = invariant_value(&m0, f);
            for t in net.transitions() {
                if let Some(m1) = net.fire(&m0, t) {
                    assert_eq!(invariant_value(&m1, f), v0);
                }
            }
        }
    }

    #[test]
    fn acyclic_net_has_no_t_semiflow() {
        let mut b = NetBuilder::new();
        let p = b.add_place("p");
        let q = b.add_place("q");
        let t = b.add_transition("t");
        b.arc_pt(p, t).unwrap();
        b.arc_tp(t, q).unwrap();
        let net = b.build().unwrap();
        assert_eq!(
            t_semiflows(&net, Default::default()).unwrap(),
            Vec::<Vec<i64>>::new()
        );
        // But p + q is conserved.
        let flows = p_semiflows(&net, Default::default()).unwrap();
        assert_eq!(flows, vec![vec![1, 1]]);
    }

    /// A ring of `k` transitions with two parallel places between
    /// each consecutive pair: every minimal P-semiflow picks one place
    /// per stage, so there are `2^k` of them.
    fn parallel_stages(k: usize) -> Net {
        let mut b = NetBuilder::new();
        let ts: Vec<TransitionId> = (0..k).map(|i| b.add_transition(format!("t{i}"))).collect();
        for i in 0..k {
            for side in ["a", "b"] {
                let p = b.add_place(format!("p{i}{side}"));
                b.arc_tp(ts[i], p).unwrap();
                b.arc_pt(p, ts[(i + 1) % k]).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn choices_in_series_give_exponentially_many_minimal_flows() {
        let net = parallel_stages(6);
        let flows = p_semiflows(&net, Default::default()).unwrap();
        assert_eq!(flows.len(), 64);
        for f in &flows {
            assert!(is_p_invariant(&net, f));
            for stage in f.chunks(2) {
                assert_eq!(stage[0] + stage[1], 1, "{f:?}");
            }
        }
        // The cap still bounds the output itself.
        let net = parallel_stages(10);
        assert!(p_semiflows(&net, FarkasLimits { max_rows: 500 }).is_none());
        assert_eq!(
            p_semiflows(&net, Default::default()).map(|f| f.len()),
            Some(1024)
        );
    }

    /// `k` stages that fork `p{i}` into two places and join them into
    /// `p{i+1}`: the only minimal P-semiflow weighs `p0` at `2^k`.
    fn doubling_stages(k: usize) -> Net {
        let mut b = NetBuilder::new();
        let mut p = b.add_place("p0");
        for i in 0..k {
            let fork = b.add_transition(format!("t{i}"));
            let next = b.add_place(format!("p{}", i + 1));
            b.arc_pt(p, fork).unwrap();
            for side in ["a", "b"] {
                let q = b.add_place(format!("q{i}{side}"));
                let join = b.add_transition(format!("u{i}{side}"));
                b.arc_tp(fork, q).unwrap();
                b.arc_pt(q, join).unwrap();
                b.arc_tp(join, next).unwrap();
            }
            p = next;
        }
        b.build().unwrap()
    }

    #[test]
    fn weight_overflow_returns_none() {
        let flows = p_semiflows(&doubling_stages(20), Default::default()).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].iter().max(), Some(&(1 << 20)));
        assert!(p_semiflows(&doubling_stages(70), Default::default()).is_none());
    }

    #[test]
    fn limits_guard_explosion() {
        let net = two_cycles();
        let limits = FarkasLimits { max_rows: 0 };
        // With a zero budget the combination step must bail out as
        // soon as any pair combination is attempted.
        assert!(p_semiflows(&net, limits).is_none());
    }
}
