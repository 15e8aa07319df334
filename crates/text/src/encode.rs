//! Fixed-length document encoding: tokenize → ids → pad/truncate.

use crate::vocab::{Vocab, PAD};

/// A document encoded to exactly `max_len` ids, padded with [`PAD`] at the
/// end if shorter, truncated if longer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedDoc {
    /// Word ids, exactly `max_len` of them.
    pub ids: Vec<usize>,
    /// Number of real (non-pad) tokens, at most `max_len`.
    pub len: usize,
}

impl EncodedDoc {
    /// `true` at positions holding real tokens.
    pub fn mask(&self) -> Vec<bool> {
        (0..self.ids.len()).map(|i| i < self.len).collect()
    }
}

/// Encodes raw text to a fixed-length id sequence.
///
/// A fully empty document still yields `max_len` pads with `len == 0`;
/// callers that feed sequence models should treat such documents specially
/// (the dataset layer guarantees non-empty review text).
pub fn encode_document(text: &str, vocab: &Vocab, max_len: usize) -> EncodedDoc {
    assert!(max_len > 0, "encode_document: max_len must be positive");
    let tokens = crate::tokenize(text);
    let mut ids = vocab.encode(&tokens);
    ids.truncate(max_len);
    let len = ids.len();
    ids.resize(max_len, PAD);
    EncodedDoc { ids, len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vocab;

    fn vocab_for(text: &str) -> Vocab {
        let doc = crate::tokenize(text);
        Vocab::build([doc.as_slice()], 1)
    }

    #[test]
    fn pads_short_documents() {
        let v = vocab_for("alpha beta");
        let e = encode_document("alpha", &v, 4);
        assert_eq!(e.len, 1);
        assert_eq!(e.ids.len(), 4);
        assert_eq!(e.ids[1..], [PAD, PAD, PAD]);
        assert_eq!(e.mask(), vec![true, false, false, false]);
    }

    #[test]
    fn truncates_long_documents() {
        let v = vocab_for("a b c d e");
        let e = encode_document("a b c d e", &v, 3);
        assert_eq!(e.len, 3);
        assert_eq!(e.ids.len(), 3);
    }

    #[test]
    fn unknown_words_become_unk_not_pad() {
        let v = vocab_for("known");
        let e = encode_document("mystery", &v, 2);
        assert_eq!(e.ids[0], crate::vocab::UNK);
        assert_eq!(e.len, 1);
    }

    #[test]
    fn empty_document_is_blank() {
        let v = vocab_for("word");
        let e = encode_document("", &v, 3);
        assert_eq!(e.len, 0);
        assert_eq!(e.ids, vec![PAD, PAD, PAD]);
    }
}
