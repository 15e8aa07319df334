//! Vocabulary with frequency-based pruning and reserved special tokens.

use std::collections::HashMap;

/// Id of the padding token (always 0).
pub const PAD: usize = 0;
/// Id of the unknown-word token (always 1).
pub const UNK: usize = 1;

/// Bidirectional word ↔ id mapping. Ids `0` and `1` are reserved for
/// [`PAD`] and [`UNK`].
#[derive(Debug, Clone)]
pub struct Vocab {
    word_to_id: HashMap<String, usize>,
    id_to_word: Vec<String>,
    counts: Vec<u64>,
}

impl Vocab {
    /// Builds a vocabulary from token streams, keeping words that occur at
    /// least `min_count` times, in descending frequency order (ties broken
    /// lexicographically for determinism).
    pub fn build<'a>(docs: impl IntoIterator<Item = &'a [String]>, min_count: u64) -> Self {
        let mut freq: HashMap<&str, u64> = HashMap::new();
        for doc in docs {
            for tok in doc {
                *freq.entry(tok.as_str()).or_default() += 1;
            }
        }
        let mut entries: Vec<(&str, u64)> = freq.into_iter().filter(|&(_, c)| c >= min_count).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));

        let mut vocab = Self {
            word_to_id: HashMap::with_capacity(entries.len() + 2),
            id_to_word: Vec::with_capacity(entries.len() + 2),
            counts: Vec::with_capacity(entries.len() + 2),
        };
        vocab.push("<pad>", 0);
        vocab.push("<unk>", 0);
        for (word, count) in entries {
            vocab.push(word, count);
        }
        vocab
    }

    fn push(&mut self, word: &str, count: u64) {
        let id = self.id_to_word.len();
        self.word_to_id.insert(word.to_string(), id);
        self.id_to_word.push(word.to_string());
        self.counts.push(count);
    }

    /// Vocabulary size including the two special tokens.
    pub fn len(&self) -> usize {
        self.id_to_word.len()
    }

    /// Whether only the special tokens are present.
    pub fn is_empty(&self) -> bool {
        self.id_to_word.len() <= 2
    }

    /// Id for `word`, or [`UNK`] if absent.
    pub fn id(&self, word: &str) -> usize {
        self.word_to_id.get(word).copied().unwrap_or(UNK)
    }

    /// Word for `id`.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn word(&self, id: usize) -> &str {
        &self.id_to_word[id]
    }

    /// Corpus frequency of the word with `id` (0 for the specials).
    pub fn count(&self, id: usize) -> u64 {
        self.counts[id]
    }

    /// Maps a token stream to ids, replacing unknown words by [`UNK`].
    pub fn encode(&self, tokens: &[String]) -> Vec<usize> {
        tokens.iter().map(|t| self.id(t)).collect()
    }

    /// Total corpus tokens covered by the vocabulary (sum of counts).
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(texts: &[&str]) -> Vec<Vec<String>> {
        texts.iter().map(|t| crate::tokenize(t)).collect()
    }

    #[test]
    fn specials_are_reserved() {
        let d = docs(&["a b c"]);
        let refs: Vec<&[String]> = d.iter().map(Vec::as_slice).collect();
        let v = Vocab::build(refs, 1);
        assert_eq!(v.word(PAD), "<pad>");
        assert_eq!(v.word(UNK), "<unk>");
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn min_count_drops_rare_words() {
        let d = docs(&["rare common common", "common"]);
        let refs: Vec<&[String]> = d.iter().map(Vec::as_slice).collect();
        let v = Vocab::build(refs, 2);
        assert_eq!(v.id("rare"), UNK);
        assert_ne!(v.id("common"), UNK);
        assert_eq!(v.count(v.id("common")), 3);
    }

    #[test]
    fn frequency_ordering_is_deterministic() {
        let d = docs(&["b b a a c"]);
        let refs: Vec<&[String]> = d.iter().map(Vec::as_slice).collect();
        let v = Vocab::build(refs, 1);
        // a and b tie at 2, lexicographic tiebreak puts a first.
        assert_eq!(v.word(2), "a");
        assert_eq!(v.word(3), "b");
        assert_eq!(v.word(4), "c");
    }

    #[test]
    fn encode_roundtrip_with_unknowns() {
        let d = docs(&["seen words here"]);
        let refs: Vec<&[String]> = d.iter().map(Vec::as_slice).collect();
        let v = Vocab::build(refs, 1);
        let ids = v.encode(&crate::tokenize("seen unseen"));
        assert_eq!(ids[0], v.id("seen"));
        assert_eq!(ids[1], UNK);
    }
}
