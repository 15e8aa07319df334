//! Reproduction of the paper's §IV-F case study (Tables VII and VIII):
//! recommend an item to one user with rating + reliability scores, then
//! surface the reliable explanation reviews for the recommended item,
//! filtering the low-reliability one.

use crate::cells::{Cell, CellCache};
use crate::methods::rrre_config;
use crate::report::TextTable;
use crate::scale::Scale;
use rrre_core::{explain, recommend, Rrre};
use rrre_data::synth::SynthConfig;
use rrre_data::UserId;

/// The rendered case study.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// The showcased user.
    pub user: UserId,
    /// Table VII: top candidates with predicted scores.
    pub recommendations: TextTable,
    /// Table VIII: explanation reviews of the chosen item.
    pub explanations: TextTable,
}

fn truncate_text(text: &str, max: usize) -> String {
    if text.len() <= max {
        text.to_string()
    } else {
        let mut cut = max;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &text[..cut])
    }
}

/// Runs the case study on the YelpChi-shaped dataset: trains RRRE on all
/// reviews, picks an active benign user, produces Table VII (top-3
/// candidates, re-ranked by reliability) and Table VIII (top-2 explanation
/// reviews for the winning item).
pub fn run_case_study(cells: &mut CellCache, scale: Scale) -> CaseStudy {
    let run = cells.run(Cell { preset: &SynthConfig::yelp_chi(), scale, trial: 0 });
    let model = Rrre::fit(&run.ds, &run.corpus, &run.split.train, rrre_config(scale, 0));

    // Pick the most active user whose reviews are all benign, mirroring the
    // paper's showcased customer.
    let index = run.ds.index();
    let user = (0..run.ds.n_users)
        .map(|u| UserId(u as u32))
        .filter(|&u| {
            index
                .user_reviews(u)
                .iter()
                .all(|&ri| run.ds.reviews[ri].label.is_benign())
        })
        .max_by_key(|&u| index.user_degree(u))
        .unwrap_or(UserId(0));

    let recs = recommend(&model, &run.ds, &run.corpus, user, 3);
    let mut rec_table = TextTable::new(
        format!("Table VII — recommendation candidates for {}", run.ds.user_name(user)),
        &["item", "predicted rating", "predicted reliability"],
    );
    for r in &recs {
        rec_table.row(vec![
            r.item_name.clone(),
            format!("{:.3}", r.rating),
            format!("{:.3}", r.reliability),
        ]);
    }

    // The recommended item is the reliability-top candidate.
    let chosen = recs.first().expect("at least one recommendation");
    let exps = explain(&model, &run.ds, &run.corpus, chosen.item, 2);
    let mut exp_table = TextTable::new(
        format!("Table VIII — reliable explanations for '{}'", chosen.item_name),
        &["author", "text", "pred rating (real)", "pred reliability (real)", "filtered"],
    );
    for e in &exps {
        let review = &run.ds.reviews[e.review_idx];
        exp_table.row(vec![
            e.user_name.clone(),
            truncate_text(&e.text, 60),
            format!("{:.3} ({})", e.rating, review.rating),
            format!("{:.3} ({})", e.reliability, review.label.as_f32()),
            if e.filtered { "yes".into() } else { "no".into() },
        ]);
    }

    CaseStudy { user, recommendations: rec_table, explanations: exp_table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_is_char_safe() {
        assert_eq!(truncate_text("short", 10), "short");
        let t = truncate_text("aaaaaaaaaaaa", 4);
        assert_eq!(t, "aaaa…");
        // Multi-byte boundary must not panic.
        let t = truncate_text("ééééé", 3);
        assert!(t.ends_with('…'));
    }
}
