//! Decide-first comparisons against a costly function.
//!
//! Several draws compare one uniform `v` with a value `f(x)` that is
//! costly to compute: a thinning test rejects when `v > f(x)`, a
//! Bernoulli trial succeeds when `v < f(x)`. Most of the time `v` lands
//! far from `f(x)`, and a coarse bound on `f` near `x` settles the
//! comparison. [`Bracket`] tabulates that bound once: for each cell of a
//! uniform grid over `x`, an interval `[lo, hi]` holding every value `f`
//! takes in the cell. [`Bracket::compare`] decides from the interval when
//! `v` falls outside it and evaluates `f` exactly only when `v` falls
//! inside, so it always returns the exact comparison's answer.

use std::cmp::Ordering;

/// Per-cell bounds of a function on a uniform grid (see the module docs).
#[derive(Debug, Clone)]
pub struct Bracket {
    x0: f64,
    inv_step: f64,
    /// Number of cells, as the float the cell position is checked against.
    span: f64,
    /// `[lo, hi]` per cell, margin included.
    cells: Vec<[f64; 2]>,
}

impl Bracket {
    /// Tabulates `f` at the `cells + 1` grid points `x0 + i·(x1 − x0)/cells`.
    /// Cell `i` lies between grid points `i` and `i + 1` and bounds `f` by
    /// the smaller of its two end values minus `margin` and the larger
    /// plus `margin`.
    ///
    /// `margin` must cover how far `f` strays beyond its end values
    /// inside a cell (nothing for a monotone `f`; `a·(ω·step)²/8` for a
    /// sine of amplitude `a` and angular frequency `ω`), plus the
    /// rounding of `f` itself and the change of `f` over a few ulps of
    /// `x` at a cell edge, where the cell a query lands in is rounded.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero, `x1 <= x0`, or `margin` is negative.
    pub fn tabulate(
        x0: f64,
        x1: f64,
        cells: usize,
        margin: f64,
        f: impl Fn(f64) -> f64,
    ) -> Bracket {
        assert!(cells > 0, "a bracket needs at least one cell");
        assert!(x1 > x0, "bracket grid must be increasing");
        assert!(margin >= 0.0, "bracket margin must be non-negative");
        let step = (x1 - x0) / cells as f64;
        let mut left = f(x0);
        let cells: Vec<[f64; 2]> = (1..=cells)
            .map(|i| {
                let right = f(x0 + i as f64 * step);
                let cell = [left.min(right) - margin, left.max(right) + margin];
                left = right;
                cell
            })
            .collect();
        Bracket {
            x0,
            inv_step: 1.0 / step,
            span: cells.len() as f64,
            cells,
        }
    }

    /// `v.partial_cmp(&f(x))`, where `exact` returns `f(x)` and runs only
    /// when `v` falls inside the bracket of `x`'s cell, or when `x` lies
    /// off the grid (NaN included).
    #[inline]
    pub fn compare(&self, x: f64, v: f64, exact: impl FnOnce() -> f64) -> Option<Ordering> {
        let pos = (x - self.x0) * self.inv_step;
        if pos >= 0.0 && pos <= self.span {
            let [lo, hi] = self.cells[(pos as usize).min(self.cells.len() - 1)];
            if v < lo {
                return Some(Ordering::Less);
            }
            if v > hi {
                return Some(Ordering::Greater);
            }
        }
        v.partial_cmp(&exact())
    }

    /// The `[lo, hi]` bounds per cell, margin included, in grid order.
    pub fn cells(&self) -> &[[f64; 2]] {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn sine(x: f64) -> f64 {
        1.0 + 0.45 * (std::f64::consts::TAU * x / 1440.0).sin()
    }

    fn sine_bracket() -> Bracket {
        Bracket::tabulate(0.0, 1440.0, 1440, 1e-5, sine)
    }

    #[test]
    fn decisions_match_the_exact_comparison() {
        let b = sine_bracket();
        let mut rng = Prng::seed_from(1);
        let mut evaluated = 0u32;
        for i in 0..200_000 {
            // Every 50th query is a value at (or an ulp from) f(x), so
            // the exact path is exercised too.
            let x = rng.next_f64() * 1440.0;
            let v = match i % 50 {
                0 => sine(x),
                1 => sine(x).next_up(),
                2 => sine(x).next_down(),
                _ => rng.next_f64() * 1.45,
            };
            let got = b.compare(x, v, || {
                evaluated += 1;
                sine(x)
            });
            assert_eq!(got, v.partial_cmp(&sine(x)), "x {x}, v {v}");
        }
        assert!(evaluated < 200_000 / 10, "{evaluated} exact evaluations");
    }

    #[test]
    fn off_grid_and_nan_queries_take_the_exact_path() {
        let b = Bracket::tabulate(0.0, 1.0, 4, 0.0, |x| x);
        for x in [-0.5, 1.5, f64::NAN] {
            let mut ran = false;
            let got = b.compare(x, 0.25, || {
                ran = true;
                x
            });
            assert!(ran, "x {x}");
            assert_eq!(got, 0.25f64.partial_cmp(&x));
        }
        // The grid's right end belongs to the last cell.
        assert_eq!(b.compare(1.0, 0.5, || unreachable!()), Some(Ordering::Less));
    }

    #[test]
    fn cells_contain_the_function() {
        let b = sine_bracket();
        assert_eq!(b.cells().len(), 1440);
        for (i, &[lo, hi]) in b.cells().iter().enumerate() {
            for j in 0..=64 {
                let y = sine(i as f64 + j as f64 / 64.0);
                assert!(lo < y && y < hi, "cell {i}: {y} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_panics() {
        let _ = Bracket::tabulate(0.0, 1.0, 0, 0.0, |x| x);
    }
}
