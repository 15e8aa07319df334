//! Poisoning-attack robustness deltas and the Table-IV-style grid.
//!
//! A robustness sweep trains one clean model and one model per (attack
//! family, strength) cell, always evaluating on the *clean* held-out test
//! set: [`PoisoningDelta`] is a cell's before/after pair, [`RobustnessGrid`]
//! the whole sweep with deterministic CSV emission (fixed float precision,
//! so the artifact is bit-identical per seed).

/// Clean-vs-poisoned metric pair for one attack cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoisoningDelta {
    /// Reliability-head average precision of the clean-trained model.
    pub ap_clean: f64,
    /// Reliability-head average precision of the poison-trained model.
    pub ap_poisoned: f64,
    /// Rating-head RMSE of the clean-trained model.
    pub rmse_clean: f64,
    /// Rating-head RMSE of the poison-trained model.
    pub rmse_poisoned: f64,
}

impl PoisoningDelta {
    /// How much average precision the attack cost (positive = damage).
    pub fn ap_degradation(&self) -> f64 {
        self.ap_clean - self.ap_poisoned
    }

    /// How much rating RMSE the attack added (positive = damage).
    pub fn rmse_inflation(&self) -> f64 {
        self.rmse_poisoned - self.rmse_clean
    }
}

/// One row of the robustness grid: an attack cell plus its deltas and the
/// detectability of the injected reviews themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct GridRow {
    /// Attack family name (stable CSV value).
    pub family: String,
    /// Attack strength (injected fakes / base corpus size).
    pub strength: f64,
    /// Number of injected fake reviews.
    pub n_injected: usize,
    /// Clean-vs-poisoned metric pair.
    pub delta: PoisoningDelta,
    /// ROC-AUC of the poisoned model separating the injected fakes from the
    /// benign test reviews — how visible the campaign still is.
    pub attack_auc: f64,
}

/// A full family × strength robustness sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RobustnessGrid {
    rows: Vec<GridRow>,
}

impl RobustnessGrid {
    /// The grid's CSV header. `tests/adversarial_robustness.rs` compares
    /// the emitted grid byte for byte against the committed
    /// `results/adversarial_grid.csv`, so changing this is a schema break.
    pub const CSV_HEADER: &'static str = "family,strength,n_injected,ap_clean,ap_poisoned,ap_degradation,rmse_clean,rmse_poisoned,rmse_inflation,attack_auc";

    /// An empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row (rows keep insertion order in the CSV).
    pub fn push(&mut self, row: GridRow) {
        self.rows.push(row);
    }

    /// The rows, in insertion order.
    pub fn rows(&self) -> &[GridRow] {
        &self.rows
    }

    /// Deterministic CSV rendering: fixed six-decimal floats, `\n` line
    /// endings, trailing newline.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "{},{:.4},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
                r.family,
                r.strength,
                r.n_injected,
                r.delta.ap_clean,
                r.delta.ap_poisoned,
                r.delta.ap_degradation(),
                r.delta.rmse_clean,
                r.delta.rmse_poisoned,
                r.delta.rmse_inflation(),
                r.attack_auc,
            ));
        }
        out
    }

    /// Families whose AP degradation is monotonically non-decreasing in
    /// attack strength (rows are grouped by family and sorted by strength
    /// before the check). The acceptance oracle requires at least one.
    pub fn monotone_degradation_families(&self) -> Vec<String> {
        let mut families: Vec<String> = Vec::new();
        for r in &self.rows {
            if !families.contains(&r.family) {
                families.push(r.family.clone());
            }
        }
        families
            .into_iter()
            .filter(|fam| {
                let mut cells: Vec<(f64, f64)> = self
                    .rows
                    .iter()
                    .filter(|r| &r.family == fam)
                    .map(|r| (r.strength, r.delta.ap_degradation()))
                    .collect();
                cells.sort_by(|a, b| a.0.total_cmp(&b.0));
                cells.len() >= 2
                    && cells.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(family: &str, strength: f64, ap_poisoned: f64) -> GridRow {
        GridRow {
            family: family.into(),
            strength,
            n_injected: (strength * 100.0) as usize,
            delta: PoisoningDelta {
                ap_clean: 0.9,
                ap_poisoned,
                rmse_clean: 1.0,
                rmse_poisoned: 1.1,
            },
            attack_auc: 0.8,
        }
    }

    #[test]
    fn deltas_have_damage_sign_convention() {
        let d = PoisoningDelta { ap_clean: 0.9, ap_poisoned: 0.7, rmse_clean: 1.0, rmse_poisoned: 1.3 };
        assert!((d.ap_degradation() - 0.2).abs() < 1e-12);
        assert!((d.rmse_inflation() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn csv_is_deterministic_and_schema_stable() {
        let mut g = RobustnessGrid::new();
        g.push(row("burst", 0.1, 0.85));
        g.push(row("burst", 0.2, 0.80));
        let csv = g.to_csv();
        assert_eq!(csv, g.to_csv());
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(RobustnessGrid::CSV_HEADER));
        let first = lines.next().unwrap();
        assert_eq!(first.split(',').count(), RobustnessGrid::CSV_HEADER.split(',').count());
        assert!(first.starts_with("burst,0.1000,10,0.900000,0.850000,0.050000,"));
        assert!(csv.ends_with('\n'));
    }

    #[test]
    fn monotone_check_finds_the_degrading_family() {
        let mut g = RobustnessGrid::new();
        // Degradation grows with strength for burst, shrinks for mimicry.
        g.push(row("burst", 0.1, 0.85));
        g.push(row("burst", 0.2, 0.75));
        g.push(row("mimicry", 0.1, 0.70));
        g.push(row("mimicry", 0.2, 0.88));
        assert_eq!(g.monotone_degradation_families(), vec!["burst".to_string()]);
    }

    #[test]
    fn single_cell_families_do_not_count_as_monotone() {
        let mut g = RobustnessGrid::new();
        g.push(row("burst", 0.1, 0.5));
        assert!(g.monotone_degradation_families().is_empty());
    }
}
