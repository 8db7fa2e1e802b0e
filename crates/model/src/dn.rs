//! Distinguished names and the reverse-DN sort key.
//!
//! A DN is a sequence of RDNs written **leaf-first** (Definition 3.2(d)):
//! `uid=jag, ou=userProfiles, dc=research, dc=att, dc=com`. An RDN is a
//! *set* of `(attribute, value)` pairs (written `a=1+b=2` when there are
//! several, as in LDAP); the model generalizes UNIX file names by allowing
//! this arbitrary set.
//!
//! Entry `r` is a **parent** of `r'` iff `dn(r') = rdn(r'); dn(r)`, and an
//! **ancestor** iff `dn(r') = s1; …; sm; dn(r)` for some RDNs `s1..sm`.
//!
//! ## The sort key
//!
//! Every evaluation algorithm in the paper assumes lists sorted "based on
//! the lexicographic ordering of the **reverse** of the string
//! representation of the distinguished names" (Section 4.2, citing the
//! RFC 2253 rendering \[31\]), chosen so that *"the reverse dn of a parent
//! entry is a prefix of the reverse dn of a child entry"* (Figures 2–6).
//!
//! [`SortKey`] realizes this with a byte encoding that makes the prefix
//! property exact rather than approximate: the DN's RDNs are emitted
//! root-first, each canonical RDN string followed by a `0x00` separator.
//! Because `0x00` is forbidden inside RDNs and sorts below every content
//! byte:
//!
//! * ancestor(x, y) ⇔ `key(x)` is a proper byte-prefix of `key(y)`;
//! * a subtree is exactly the contiguous key range with prefix `key(root)`;
//! * a parent sorts immediately at the head of its subtree.
//!
//! (A naive reversal of the display string lacks the first property:
//! `dc=a` would look like an ancestor of `dc=ab`.)

use crate::attr::AttrName;
use crate::error::{ModelError, ModelResult};
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Byte that terminates each DN component inside a [`SortKey`].
pub const KEY_SEPARATOR: u8 = 0x00;

/// A relative distinguished name: a non-empty set of `(attribute, value)`
/// pairs. Stored sorted by canonical form; equality, ordering and hashing
/// all use the canonical rendering, so `CN=Jag` ≡ `cn=jag`.
#[derive(Clone)]
pub struct Rdn {
    pairs: Vec<(AttrName, Value)>,
    canonical: String,
}

impl Rdn {
    /// Build an RDN from pairs. Duplicate pairs (by canonical form) are
    /// collapsed — an RDN is a set.
    pub fn new(pairs: impl IntoIterator<Item = (AttrName, Value)>) -> ModelResult<Rdn> {
        let mut pairs: Vec<(AttrName, Value)> = pairs.into_iter().collect();
        if pairs.is_empty() {
            return Err(ModelError::EmptyRdn);
        }
        pairs.sort_by(|a, b| {
            (a.0.canonical(), a.1.canonical()).cmp(&(b.0.canonical(), b.1.canonical()))
        });
        pairs.dedup_by(|a, b| {
            a.0.canonical() == b.0.canonical() && a.1.canonical() == b.1.canonical()
        });
        let canonical = render_pairs(&pairs);
        if canonical.as_bytes().contains(&KEY_SEPARATOR) {
            return Err(ModelError::NulInRdn { rdn: canonical });
        }
        Ok(Rdn { pairs, canonical })
    }

    /// The common single-pair RDN, e.g. `dc=att`.
    pub fn single(attr: impl Into<AttrName>, value: impl Into<Value>) -> ModelResult<Rdn> {
        Rdn::new([(attr.into(), value.into())])
    }

    /// The pairs, sorted canonically.
    pub fn pairs(&self) -> &[(AttrName, Value)] {
        &self.pairs
    }

    /// Canonical rendering: `attr=value` pairs (case-folded) joined by `+`,
    /// with `\ , + = NUL` escaped.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }
}

fn escape_component(s: &str, out: &mut String) {
    for c in s.chars() {
        if matches!(c, '\\' | ',' | '+' | '=') {
            out.push('\\');
        }
        out.push(c);
    }
}

fn render_pairs(pairs: &[(AttrName, Value)]) -> String {
    let mut out = String::new();
    for (i, (a, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push('+');
        }
        escape_component(a.canonical(), &mut out);
        out.push('=');
        escape_component(&v.canonical(), &mut out);
    }
    out
}

impl PartialEq for Rdn {
    fn eq(&self, other: &Self) -> bool {
        self.canonical == other.canonical
    }
}
impl Eq for Rdn {}
impl PartialOrd for Rdn {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Rdn {
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical.cmp(&other.canonical)
    }
}
impl Hash for Rdn {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical.hash(state)
    }
}

impl fmt::Display for Rdn {
    /// Original spellings with `\ , + =` escaped, pairs joined by `+`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (a, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            let mut s = String::new();
            escape_component(a.as_str(), &mut s);
            s.push('=');
            escape_component(&v.to_string(), &mut s);
            f.write_str(&s)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Rdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rdn({})", self.canonical)
    }
}

/// A distinguished name: a sequence of RDNs, leaf-first. The empty
/// sequence is the conceptual **forest root** (`Dn::root()`), used as a
/// base DN meaning "the whole directory" (the paper's `null-dn`,
/// Section 8.1); real entries always have non-empty DNs.
#[derive(Clone)]
pub struct Dn {
    /// Leaf-first, as written: `rdns[0]` is the entry's own RDN.
    rdns: Vec<Rdn>,
    key: SortKey,
}

impl Dn {
    /// Build from leaf-first RDNs.
    pub fn from_rdns(rdns: Vec<Rdn>) -> Dn {
        let key = SortKey::from_rdns(&rdns);
        Dn { rdns, key }
    }

    /// The forest root (empty DN).
    pub fn root() -> Dn {
        Dn::from_rdns(Vec::new())
    }

    /// Parse an LDAP-style DN string: components separated by `,`,
    /// multi-pair RDNs by `+`, attribute and value by the first `=`;
    /// `\` escapes any of `\ , + =`. Whitespace around separators is
    /// trimmed. The empty string parses to [`Dn::root()`].
    ///
    /// Values parse as strings; integer-typed construction is available
    /// programmatically via [`Rdn::new`]. (Canonical forms coincide, so a
    /// parsed `priority=2` still names the entry built with `Value::int(2)`.)
    ///
    /// ```
    /// use netdir_model::Dn;
    /// let child = Dn::parse("dc=research, dc=att, dc=com").unwrap();
    /// let parent = Dn::parse("DC=ATT, dc=com").unwrap(); // case-folded
    /// assert!(parent.is_parent_of(&child));
    /// assert_eq!(child.parent().unwrap(), parent);
    /// // Sorting follows the reverse-DN order of §4.2: parents first.
    /// assert!(parent < child);
    /// ```
    pub fn parse(input: &str) -> ModelResult<Dn> {
        let trimmed = input.trim();
        if trimmed.is_empty() {
            return Ok(Dn::root());
        }
        let mut rdns = Vec::new();
        for comp in split_unescaped(trimmed, ',') {
            let comp = comp.trim();
            if comp.is_empty() {
                return Err(ModelError::DnParse {
                    input: input.to_string(),
                    detail: "empty DN component".into(),
                });
            }
            let mut pairs = Vec::new();
            for pair in split_unescaped(comp, '+') {
                let pair = pair.trim();
                let Some(eq) = find_unescaped(pair, '=') else {
                    return Err(ModelError::DnParse {
                        input: input.to_string(),
                        detail: format!("component {pair:?} has no '='"),
                    });
                };
                let attr = unescape(pair[..eq].trim());
                let value = unescape(pair[eq + 1..].trim());
                if attr.is_empty() {
                    return Err(ModelError::DnParse {
                        input: input.to_string(),
                        detail: format!("component {pair:?} has empty attribute"),
                    });
                }
                pairs.push((AttrName::new(attr), Value::Str(value)));
            }
            rdns.push(Rdn::new(pairs)?);
        }
        Ok(Dn::from_rdns(rdns))
    }

    /// Would [`Dn::parse`] accept `input`? The same walk, building
    /// nothing and allocating nothing — for checking DN renderings inside
    /// bytes received from elsewhere before anything is decoded.
    pub fn is_valid(input: &str) -> bool {
        let trimmed = input.trim();
        if trimmed.is_empty() {
            return true;
        }
        // A NUL anywhere ends up in some pair's canonical rendering
        // (trimming and unescaping never remove one), which `Rdn::new`
        // rejects.
        if trimmed.contains('\0') {
            return false;
        }
        split_unescaped(trimmed, ',').all(|comp| {
            let comp = comp.trim();
            !comp.is_empty()
                && split_unescaped(comp, '+').all(|pair| {
                    let pair = pair.trim();
                    // `unescape` leaves nothing of exactly "" and "\".
                    find_unescaped(pair, '=')
                        .is_some_and(|eq| !matches!(pair[..eq].trim(), "" | "\\"))
                })
        })
    }

    /// Number of RDNs. The forest root has depth 0.
    pub fn depth(&self) -> usize {
        self.rdns.len()
    }

    /// True iff this is the forest root.
    pub fn is_root(&self) -> bool {
        self.rdns.is_empty()
    }

    /// The entry's own RDN (`s1`), if any.
    pub fn rdn(&self) -> Option<&Rdn> {
        self.rdns.first()
    }

    /// Leaf-first RDNs.
    pub fn rdns(&self) -> &[Rdn] {
        &self.rdns
    }

    /// The parent DN. Depth-1 DNs have the forest root as parent; the
    /// forest root has none.
    pub fn parent(&self) -> Option<Dn> {
        if self.rdns.is_empty() {
            None
        } else {
            Some(Dn::from_rdns(self.rdns[1..].to_vec()))
        }
    }

    /// Extend downward: the DN whose parent is `self` and whose RDN is
    /// `rdn`.
    pub fn child(&self, rdn: Rdn) -> Dn {
        let mut rdns = Vec::with_capacity(self.rdns.len() + 1);
        rdns.push(rdn);
        rdns.extend_from_slice(&self.rdns);
        Dn::from_rdns(rdns)
    }

    /// `self` is a **proper** ancestor of `other` (Definition 3.2 text).
    /// The forest root is an ancestor of every non-root DN.
    pub fn is_ancestor_of(&self, other: &Dn) -> bool {
        self.key.is_ancestor_of(&other.key)
    }

    /// `self` is the parent of `other`.
    pub fn is_parent_of(&self, other: &Dn) -> bool {
        self.key.is_parent_of(&other.key)
    }

    /// `self` is a proper descendant of `other`.
    pub fn is_descendant_of(&self, other: &Dn) -> bool {
        other.is_ancestor_of(self)
    }

    /// The reverse-DN sort key.
    pub fn sort_key(&self) -> &SortKey {
        &self.key
    }

    /// Canonical rendering (leaf-first, case-folded, `", "`-joined).
    pub fn canonical(&self) -> String {
        self.rdns
            .iter()
            .map(|r| r.canonical().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// The pieces of `s` between unescaped `sep`s (at least one).
fn split_unescaped(s: &str, sep: char) -> impl Iterator<Item = &str> {
    let mut rest = Some(s);
    std::iter::from_fn(move || {
        let s = rest?;
        let mut escaped = false;
        for (i, c) in s.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == sep {
                rest = Some(&s[i + c.len_utf8()..]);
                return Some(&s[..i]);
            }
        }
        rest = None;
        Some(s)
    })
}

fn find_unescaped(s: &str, target: char) -> Option<usize> {
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == target {
            return Some(i);
        }
    }
    None
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut escaped = false;
    for c in s.chars() {
        if escaped {
            out.push(c);
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else {
            out.push(c);
        }
    }
    out
}

impl PartialEq for Dn {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Dn {}
impl PartialOrd for Dn {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Dn {
    /// DNs order by their reverse-DN sort key — the order of Section 4.2.
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}
impl Hash for Dn {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key.hash(state)
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rdn) in self.rdns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{rdn}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dn({self})")
    }
}

impl std::str::FromStr for Dn {
    type Err = ModelError;
    fn from_str(s: &str) -> ModelResult<Dn> {
        Dn::parse(s)
    }
}

/// The reverse-DN sort key (see module docs): root-first canonical RDN
/// strings, each followed by `0x00`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SortKey(Vec<u8>);

impl SortKey {
    fn from_rdns(leaf_first: &[Rdn]) -> SortKey {
        let mut bytes = Vec::new();
        for rdn in leaf_first.iter().rev() {
            bytes.extend_from_slice(rdn.canonical().as_bytes());
            bytes.push(KEY_SEPARATOR);
        }
        SortKey(bytes)
    }

    /// Construct from raw bytes (for deserialization; callers must supply
    /// bytes previously produced by [`SortKey::as_bytes`]).
    pub fn from_bytes(bytes: Vec<u8>) -> SortKey {
        SortKey(bytes)
    }

    /// The key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Number of DN components (count of separators).
    pub fn depth(&self) -> usize {
        self.0.iter().filter(|&&b| b == KEY_SEPARATOR).count()
    }

    /// Proper-prefix test: `self` names an ancestor of `other`'s entry.
    pub fn is_ancestor_of(&self, other: &SortKey) -> bool {
        self.0.len() < other.0.len() && other.0.starts_with(&self.0)
    }

    /// `self` names the parent of `other`'s entry: ancestor at exactly one
    /// component's remove.
    pub fn is_parent_of(&self, other: &SortKey) -> bool {
        self.is_ancestor_of(other) && self.depth() + 1 == other.depth()
    }

    /// Non-strict prefix test: `other` is `self` or in `self`'s subtree.
    pub fn subsumes(&self, other: &SortKey) -> bool {
        other.0.starts_with(&self.0)
    }
}

impl fmt::Debug for SortKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SortKey({})", String::from_utf8_lossy(&self.0).replace('\0', "␀"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let d = dn("uid=jag, ou=userProfiles, dc=research, dc=att, dc=com");
        assert_eq!(d.depth(), 5);
        assert_eq!(
            d.to_string(),
            "uid=jag, ou=userProfiles, dc=research, dc=att, dc=com"
        );
        assert_eq!(Dn::parse(&d.to_string()).unwrap(), d);
    }

    #[test]
    fn parse_is_whitespace_and_case_insensitive() {
        assert_eq!(dn("dc=att,dc=com"), dn("DC=ATT,  dc=com"));
    }

    #[test]
    fn multi_valued_rdn() {
        let d = dn("cn=jag+uid=42, dc=com");
        assert_eq!(d.rdn().unwrap().pairs().len(), 2);
        // RDN is a set: order and duplicates don't matter.
        assert_eq!(dn("uid=42+cn=jag, dc=com"), d);
        assert_eq!(dn("cn=jag+uid=42+cn=jag, dc=com"), d);
    }

    #[test]
    fn escapes_roundtrip() {
        let rdn = Rdn::single("cn", "a,b=c+d\\e").unwrap();
        let d = Dn::from_rdns(vec![rdn]);
        let rendered = d.to_string();
        assert_eq!(Dn::parse(&rendered).unwrap(), d);
    }

    #[test]
    fn parse_errors() {
        assert!(Dn::parse("dc=att,,dc=com").is_err());
        assert!(Dn::parse("noequals, dc=com").is_err());
        assert!(Dn::parse("=value, dc=com").is_err());
    }

    #[test]
    fn parent_child_relationships() {
        let child = dn("dc=att, dc=com");
        let parent = dn("dc=com");
        assert_eq!(child.parent().unwrap(), parent);
        assert!(parent.is_parent_of(&child));
        assert!(parent.is_ancestor_of(&child));
        assert!(child.is_descendant_of(&parent));
        assert!(!child.is_ancestor_of(&parent));
        assert!(!parent.is_ancestor_of(&parent), "ancestor is proper");

        let grand = dn("dc=research, dc=att, dc=com");
        assert!(parent.is_ancestor_of(&grand));
        assert!(!parent.is_parent_of(&grand));
        assert_eq!(parent.child(Rdn::single("dc", "att").unwrap()), child);
    }

    #[test]
    fn root_is_everyones_ancestor() {
        let root = Dn::root();
        assert!(root.is_root());
        assert_eq!(root.depth(), 0);
        assert!(root.is_ancestor_of(&dn("dc=com")));
        assert!(root.is_ancestor_of(&dn("dc=att, dc=com")));
        assert!(root.is_parent_of(&dn("dc=com")));
        assert!(!root.is_parent_of(&dn("dc=att, dc=com")));
        assert_eq!(dn("dc=com").parent().unwrap(), root);
        assert_eq!(root.parent(), None);
        assert_eq!(Dn::parse("").unwrap(), root);
    }

    #[test]
    fn sort_key_prefix_property() {
        // The false-prefix trap: dc=a vs dc=ab.
        let a = dn("dc=a");
        let ab = dn("dc=ab");
        assert!(!a.is_ancestor_of(&ab));
        assert!(!ab.is_ancestor_of(&a));

        let a_x = dn("dc=x, dc=a");
        assert!(a.is_ancestor_of(&a_x));
        assert!(!ab.is_ancestor_of(&a_x));
    }

    #[test]
    fn sort_order_puts_parents_before_descendants() {
        let mut dns = [dn("dc=org"),
            dn("dc=research, dc=att, dc=com"),
            dn("dc=com"),
            dn("dc=att, dc=com"),
            dn("dc=zebra, dc=att, dc=com"),
            dn("dc=corona, dc=research, dc=att, dc=com")];
        dns.sort();
        let rendered: Vec<String> = dns.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            rendered,
            vec![
                "dc=com",
                "dc=att, dc=com",
                "dc=research, dc=att, dc=com",
                "dc=corona, dc=research, dc=att, dc=com",
                "dc=zebra, dc=att, dc=com",
                "dc=org",
            ]
        );
        // Subtrees are contiguous: everything under dc=att,dc=com sits
        // between the entry and dc=org.
    }

    #[test]
    fn nul_in_rdn_is_rejected() {
        assert!(matches!(
            Rdn::single("cn", "a\0b"),
            Err(ModelError::NulInRdn { .. })
        ));
    }

    #[test]
    fn int_and_string_rdn_values_coincide_canonically() {
        let via_int = Dn::from_rdns(vec![Rdn::single("priority", Value::int(2)).unwrap()]);
        let via_str = dn("priority=2");
        assert_eq!(via_int, via_str);
        assert_eq!(via_int.sort_key(), via_str.sort_key());
    }

    #[test]
    fn depth_via_key_matches() {
        for s in ["", "dc=com", "dc=att, dc=com", "a=1+b=2, c=3"] {
            let d = dn(s);
            assert_eq!(d.sort_key().depth(), d.depth());
        }
    }
}
