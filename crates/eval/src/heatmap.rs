//! Prediction-profile heatmaps (Fig. 4a).
//!
//! Each heatmap bins the evaluation blocks by their *native* IPC (x axis)
//! and by the ratio *predicted / native* (y axis); the cell intensity is the
//! (weight-) share of blocks falling in the cell.  A perfect predictor puts
//! all the mass on the `ratio = 1` line; over-estimating tools place mass
//! above it, under-estimating tools below.

/// A 2-D histogram of prediction quality.
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    /// Number of bins on the native-IPC axis.
    pub x_bins: usize,
    /// Number of bins on the ratio axis.
    pub y_bins: usize,
    /// Native IPC covered by the x axis: `[0, x_max]`.
    pub x_max: f64,
    /// Ratio covered by the y axis: `[0, y_max]`.
    pub y_max: f64,
    /// Row-major cell mass, `cells[y * x_bins + x]`, normalised to sum to 1.
    pub cells: Vec<f64>,
    /// Number of samples accumulated.
    pub samples: usize,
}

impl Heatmap {
    /// Creates an empty heatmap with the paper's axes: native IPC up to 6,
    /// prediction ratio up to 2.
    pub fn new(x_bins: usize, y_bins: usize) -> Self {
        Heatmap {
            x_bins,
            y_bins,
            x_max: 6.0,
            y_max: 2.0,
            cells: vec![0.0; x_bins * y_bins],
            samples: 0,
        }
    }

    /// Accumulates one (native, predicted, weight) observation.
    pub fn add(&mut self, native_ipc: f64, predicted_ipc: f64, weight: f64) {
        if native_ipc <= 0.0 || !predicted_ipc.is_finite() || weight <= 0.0 {
            return;
        }
        let ratio = predicted_ipc / native_ipc;
        let x = ((native_ipc / self.x_max) * self.x_bins as f64)
            .floor()
            .clamp(0.0, self.x_bins as f64 - 1.0) as usize;
        let y = ((ratio / self.y_max) * self.y_bins as f64)
            .floor()
            .clamp(0.0, self.y_bins as f64 - 1.0) as usize;
        self.cells[y * self.x_bins + x] += weight;
        self.samples += 1;
    }

    /// Normalises the cell mass to sum to one (no-op when empty).
    pub fn normalise(&mut self) {
        let total: f64 = self.cells.iter().sum();
        if total > 0.0 {
            for c in &mut self.cells {
                *c /= total;
            }
        }
    }

    /// Mass of one cell.
    pub fn cell(&self, x: usize, y: usize) -> f64 {
        self.cells[y * self.x_bins + x]
    }

    /// Share of the mass lying above the `ratio = 1` row (over-estimation).
    pub fn overestimation_mass(&self) -> f64 {
        let split = ((1.0 / self.y_max) * self.y_bins as f64).floor() as usize;
        let total: f64 = self.cells.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let above: f64 = (split..self.y_bins)
            .flat_map(|y| (0..self.x_bins).map(move |x| (x, y)))
            .map(|(x, y)| self.cell(x, y))
            .sum();
        above / total
    }

    /// ASCII rendering (densest cell = '#'), highest ratio row first.
    pub fn render_ascii(&self) -> String {
        let max = self.cells.iter().copied().fold(0.0f64, f64::max);
        let shades = [' ', '.', ':', '-', '=', '+', '*', '#'];
        let mut out = String::new();
        for y in (0..self.y_bins).rev() {
            let ratio_hi = (y + 1) as f64 / self.y_bins as f64 * self.y_max;
            out.push_str(&format!("{ratio_hi:>5.2} |"));
            for x in 0..self.x_bins {
                let v = self.cell(x, y);
                let idx = if max == 0.0 {
                    0
                } else {
                    ((v / max) * (shades.len() - 1) as f64).round() as usize
                };
                out.push(shades[idx.min(shades.len() - 1)]);
            }
            out.push('\n');
        }
        out.push_str("      +");
        out.push_str(&"-".repeat(self.x_bins));
        out.push('\n');
        out.push_str(&format!(
            "       native IPC 0 .. {:.0}  (ratio axis up to {:.1})\n",
            self.x_max, self.y_max
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_sit_on_the_unit_ratio_row() {
        let mut h = Heatmap::new(12, 8);
        for ipc in [0.5, 1.0, 2.0, 3.5] {
            h.add(ipc, ipc, 1.0);
        }
        h.normalise();
        let unit_row = ((1.0 / h.y_max) * h.y_bins as f64).floor() as usize;
        let mass_on_unit: f64 = (0..h.x_bins).map(|x| h.cell(x, unit_row)).sum();
        assert!((mass_on_unit - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overestimation_mass_reflects_bias() {
        let mut over = Heatmap::new(6, 6);
        let mut under = Heatmap::new(6, 6);
        for ipc in [1.0, 2.0, 3.0] {
            over.add(ipc, ipc * 1.8, 1.0);
            under.add(ipc, ipc * 0.4, 1.0);
        }
        assert!(over.overestimation_mass() > 0.9);
        assert!(under.overestimation_mass() < 0.1);
    }

    #[test]
    fn invalid_samples_are_ignored() {
        let mut h = Heatmap::new(4, 4);
        h.add(0.0, 1.0, 1.0);
        h.add(1.0, f64::NAN, 1.0);
        h.add(1.0, 1.0, 0.0);
        assert_eq!(h.samples, 0);
        assert!(h.cells.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn ascii_rendering_has_one_line_per_ratio_bin() {
        let mut h = Heatmap::new(10, 5);
        h.add(2.0, 2.0, 1.0);
        h.normalise();
        let text = h.render_ascii();
        assert_eq!(text.lines().count(), 5 + 2);
        assert!(text.contains('#'));
    }

    #[test]
    fn out_of_range_values_clamp_to_border_bins() {
        let mut h = Heatmap::new(4, 4);
        h.add(100.0, 1000.0, 1.0); // way beyond both axes
        assert_eq!(h.samples, 1);
        assert!(h.cell(3, 3) > 0.0);
    }
}
