//! A suffix-array substring index.
//!
//! Substring wildcard filters (`commonName=*jag*`) need "suffix tree
//! indices \[23\]" per Section 4.1; a suffix array over the concatenation of
//! all indexed values gives the same query capability — all values
//! containing a pattern — in `O(p · log n)` probe time, with far simpler
//! construction (the McCreight → suffix-array substitution is recorded in
//! DESIGN.md §5).
//!
//! Layout: all canonical values are concatenated with `\x01` sentinels
//! (which cannot appear in canonical strings); each suffix remembers the
//! document (value occurrence) it starts in; suffixes are sorted once.

use crate::Posting;

/// Substring index over a set of (value, posting) occurrences.
#[derive(Debug)]
pub struct SuffixIndex {
    /// Concatenated text with sentinels.
    text: Vec<u8>,
    /// Sorted suffix start positions.
    suffixes: Vec<u32>,
    /// `doc_of[i]` = document index for text position `i`.
    doc_of: Vec<u32>,
    /// Document → posting.
    doc_ids: Vec<Posting>,
}

const SENTINEL: u8 = 0x01;

impl SuffixIndex {
    /// Build from `(canonical value, posting)` occurrences.
    pub fn build<'a, I>(occurrences: I) -> SuffixIndex
    where
        I: IntoIterator<Item = (&'a str, Posting)>,
    {
        let mut text = Vec::new();
        let mut doc_of = Vec::new();
        let mut doc_ids = Vec::new();
        let mut doc_ends = Vec::new();
        for (value, id) in occurrences {
            let doc = doc_ids.len() as u32;
            doc_ids.push(id);
            for &b in value.as_bytes() {
                text.push(b);
                doc_of.push(doc);
            }
            text.push(SENTINEL);
            doc_of.push(doc);
            doc_ends.push(text.len());
        }
        // Order suffixes by their text up to and including their own
        // document's sentinel. A pattern holds no sentinel, so that is
        // all a probe ever compares — and it bounds each comparison by
        // one value's length, where whole-text suffixes of a thousand
        // equal values (`objectClass=leaf`) compare a thousand values deep.
        let within_doc = |s: u32| &text[s as usize..doc_ends[doc_of[s as usize] as usize]];
        let mut suffixes: Vec<u32> = (0..text.len() as u32).collect();
        suffixes.sort_unstable_by(|&a, &b| within_doc(a).cmp(within_doc(b)));
        SuffixIndex {
            text,
            suffixes,
            doc_of,
            doc_ids,
        }
    }

    /// Number of indexed occurrences.
    pub fn num_docs(&self) -> usize {
        self.doc_ids.len()
    }

    /// The interval of the sorted suffixes having `pat` (non-empty,
    /// sentinel-free) as a prefix.
    fn interval(&self, pat: &[u8]) -> std::ops::Range<usize> {
        use std::cmp::Ordering;
        let cmp_prefix = |s: u32| -> Ordering {
            let suf = &self.text[s as usize..];
            let n = pat.len().min(suf.len());
            match suf[..n].cmp(&pat[..n]) {
                Ordering::Equal if suf.len() >= pat.len() => Ordering::Equal,
                Ordering::Equal => Ordering::Less, // suffix is a proper prefix of pat
                o => o,
            }
        };
        let lo = self
            .suffixes
            .partition_point(|&s| cmp_prefix(s) == Ordering::Less);
        let hi = lo
            + self.suffixes[lo..].partition_point(|&s| cmp_prefix(s) == Ordering::Equal);
        lo..hi
    }

    /// The number of *occurrences* of `pattern` (a posting with several
    /// counts once per occurrence), from two binary searches and no
    /// materialization: how many postings [`SuffixIndex::postings`]
    /// yields, and so an upper bound on the postings holding it.
    pub fn occurrences(&self, pattern: &str) -> usize {
        let pat = pattern.as_bytes();
        if pat.is_empty() {
            self.doc_ids.len()
        } else if pat.contains(&SENTINEL) {
            0
        } else {
            self.interval(pat).len()
        }
    }

    /// The posting of every occurrence of `pattern` in an indexed value,
    /// in suffix order: unsorted, a posting repeated once per occurrence.
    /// The empty pattern occurs once in every value.
    pub fn postings(&self, pattern: &str) -> impl Iterator<Item = Posting> + '_ {
        let pat = pattern.as_bytes();
        let suffixes: &[u32] = if pat.is_empty() || pat.contains(&SENTINEL) {
            &[]
        } else {
            &self.suffixes[self.interval(pat)]
        };
        let every_doc = if pat.is_empty() { &self.doc_ids[..] } else { &[] };
        let by_suffix = suffixes.iter().map(|&s| self.doc_ids[self.doc_of[s as usize] as usize]);
        by_suffix.chain(every_doc.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The distinct postings holding `pattern`, ascending.
    fn contains(s: &SuffixIndex, pattern: &str) -> Vec<Posting> {
        let mut out: Vec<Posting> = s.postings(pattern).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn sample() -> SuffixIndex {
        SuffixIndex::build([
            ("h jagadish", 1),
            ("laks lakshmanan", 2),
            ("divesh srivastava", 3),
            ("tova milo", 4),
            ("jag", 5),
        ])
    }

    #[test]
    fn substring_hits() {
        let s = sample();
        assert_eq!(contains(&s, "jag"), vec![1, 5]);
        assert_eq!(contains(&s, "iva"), vec![3]);
        assert_eq!(contains(&s, "laks"), vec![2]);
        assert_eq!(contains(&s, "a"), vec![1, 2, 3, 4, 5]);
        assert_eq!(contains(&s, "zz"), Vec::<u64>::new());
    }

    #[test]
    fn occurrences_bound_the_hits() {
        let s = sample();
        for pat in ["jag", "a", "zz", "", "laks", "h jagadish"] {
            assert_eq!(s.occurrences(pat), s.postings(pat).count(), "pattern {pat:?}");
            assert!(s.occurrences(pat) >= contains(&s, pat).len(), "pattern {pat:?}");
        }
        assert_eq!(s.occurrences("jag"), 2);
        assert_eq!(s.occurrences("laks"), 2); // twice in one value
        assert_eq!(s.occurrences("zz"), 0);
    }

    #[test]
    fn a_posting_repeats_per_occurrence() {
        let s = sample();
        assert_eq!(s.postings("laks").collect::<Vec<_>>(), vec![2, 2]);
        let mut a: Vec<Posting> = s.postings("a").collect();
        a.sort_unstable();
        // "h jagadish" holds two, "laks lakshmanan" four, "divesh
        // srivastava" three, "tova milo" one, "jag" one.
        assert_eq!(a, [1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 5]);
    }

    #[test]
    fn no_cross_document_matches() {
        // "sh" ends doc 1 and "la" starts doc 2; "shla" must not match.
        let s = SuffixIndex::build([("jagadish", 1), ("laks", 2)]);
        assert_eq!(contains(&s, "shla"), Vec::<u64>::new());
        assert_eq!(contains(&s, "sh"), vec![1]);
    }

    #[test]
    fn whole_value_and_empty_pattern() {
        let s = sample();
        assert_eq!(contains(&s, "h jagadish"), vec![1]);
        assert_eq!(contains(&s, ""), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn duplicate_ids_dedup() {
        let s = SuffixIndex::build([("aaa", 9), ("aab", 9)]);
        assert_eq!(contains(&s, "aa"), vec![9]);
    }

    #[test]
    fn many_equal_values() {
        // Equal values tie in the within-document order; every probe
        // still finds all of them, and a neighbour in between.
        let values: Vec<(&str, Posting)> = (0..300)
            .map(|i| (if i == 150 { "leap" } else { "leaf" }, i))
            .collect();
        let s = SuffixIndex::build(values);
        assert_eq!(contains(&s, "leaf").len(), 299);
        assert_eq!(contains(&s, "ea").len(), 300);
        assert_eq!(contains(&s, "eap"), vec![150]);
        assert_eq!(s.occurrences("lea"), 300);
        assert_eq!(contains(&s, "fl"), Vec::<u64>::new());
    }

    #[test]
    fn empty_index() {
        let s = SuffixIndex::build(std::iter::empty::<(&str, Posting)>());
        assert_eq!(s.num_docs(), 0);
        assert_eq!(contains(&s, "x"), Vec::<u64>::new());
        assert_eq!(contains(&s, ""), Vec::<u64>::new());
    }

    #[test]
    fn pattern_longer_than_any_value() {
        let s = SuffixIndex::build([("ab", 1)]);
        assert_eq!(contains(&s, "abc"), Vec::<u64>::new());
    }
}
