//! Directory entries (Definition 3.2).
//!
//! An entry holds a *multiset* of `(attribute, value)` pairs — the same
//! attribute may appear with several values, the heterogeneity mechanism
//! Section 3.5 emphasizes (a policy's several `SLATPRef`s, a validity
//! period's several `PVDayOfWeek`s). Its class set is exactly the set of
//! values of its `objectClass` attribute (condition 2), and its RDN's pairs
//! must appear among its values (rdn ⊆ val).

use crate::attr::{AttrName, ClassName};
use crate::dn::Dn;
use crate::error::{ModelError, ModelResult};
use crate::schema::Schema;
use crate::value::Value;
use crate::OBJECT_CLASS;
use netdir_pager::record::{codec, PageCtx, Record};
use netdir_pager::{PagerError, PagerResult};

/// Rebuild a DN from a reverse-DN sort key: split on the `0x00`
/// separators (root-first canonical RDN strings), reverse to leaf-first,
/// join with `", "`, parse. Returns `None` for malformed keys. Used by
/// the v2 page format to avoid storing the DN twice (the page key *is*
/// the DN, canonically).
fn dn_from_page_key(key: &[u8]) -> Option<Dn> {
    if key.is_empty() {
        return None;
    }
    if *key.last()? != 0 {
        return None;
    }
    let mut display = String::new();
    for seg in key[..key.len() - 1].split(|&b| b == 0).rev() {
        if !display.is_empty() {
            display.push_str(", ");
        }
        display.push_str(std::str::from_utf8(seg).ok()?);
    }
    Dn::parse(&display).ok()
}

/// Identifier a [`crate::Directory`] assigns to an entry on insertion.
pub type EntryId = u64;

/// A directory entry: a DN plus a multiset of `(attribute, value)` pairs.
///
/// Pairs are kept sorted by `(attribute, value)` canonical order; identical
/// pairs are collapsed (val(r) is a *set* of pairs — multi-valuedness means
/// several pairs sharing an attribute, not repeated identical pairs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    id: EntryId,
    dn: Dn,
    attrs: Vec<(AttrName, Value)>,
}

impl Entry {
    /// Start building an entry with the given DN.
    pub fn builder(dn: Dn) -> EntryBuilder {
        EntryBuilder {
            dn,
            attrs: Vec::new(),
        }
    }

    /// The directory-assigned id (0 until inserted).
    pub fn id(&self) -> EntryId {
        self.id
    }

    pub(crate) fn set_id(&mut self, id: EntryId) {
        self.id = id;
    }

    /// The entry's distinguished name.
    pub fn dn(&self) -> &Dn {
        &self.dn
    }

    /// All `(attribute, value)` pairs, sorted.
    pub fn pairs(&self) -> &[(AttrName, Value)] {
        &self.attrs
    }

    /// The values of `attr` (possibly none; possibly several).
    pub fn values<'a>(&'a self, attr: &AttrName) -> impl Iterator<Item = &'a Value> + 'a {
        let attr = attr.clone();
        self.attrs
            .iter()
            .filter(move |(a, _)| *a == attr)
            .map(|(_, v)| v)
    }

    /// True iff the entry has at least one value for `attr` — the
    /// presence filter `attr=*`.
    pub fn has_attr(&self, attr: &AttrName) -> bool {
        self.values(attr).next().is_some()
    }

    /// First integer value of `attr`, if any.
    pub fn first_int(&self, attr: &AttrName) -> Option<i64> {
        self.values(attr).find_map(|v| v.as_int())
    }

    /// First string value of `attr`, if any.
    pub fn first_str(&self, attr: &AttrName) -> Option<&str> {
        self.values(attr).find_map(|v| v.as_str())
    }

    /// First DN value of `attr`, if any.
    pub fn first_dn(&self, attr: &AttrName) -> Option<&Dn> {
        self.values(attr).find_map(|v| v.as_dn())
    }

    /// class(r): the values of `objectClass` (Definition 3.2, condition 2).
    pub fn classes(&self) -> Vec<ClassName> {
        let oc = AttrName::new(OBJECT_CLASS);
        self.values(&oc)
            .filter_map(|v| v.as_str())
            .map(ClassName::new)
            .collect()
    }

    /// True iff the entry belongs to `class`.
    pub fn has_class(&self, class: &ClassName) -> bool {
        self.classes().iter().any(|c| c == class)
    }

    /// Check this entry against `schema` (Definition 3.2 conditions):
    /// non-empty class set; every class declared; every pair's attribute
    /// declared, allowed by some class, and of the right type; rdn ⊆ val.
    pub fn validate(&self, schema: &Schema) -> ModelResult<()> {
        let classes = self.classes();
        if classes.is_empty() {
            return Err(ModelError::NoClasses);
        }
        for c in &classes {
            if !schema.has_class(c) {
                return Err(ModelError::UnknownClass {
                    class: c.to_string(),
                });
            }
        }
        for (a, v) in &self.attrs {
            let Some(ty) = schema.attr_type(a) else {
                return Err(ModelError::UnknownAttribute {
                    attr: a.to_string(),
                });
            };
            if v.type_name() != ty {
                return Err(ModelError::TypeMismatch {
                    attr: a.to_string(),
                    expected: ty.to_string(),
                    got: v.type_name().to_string(),
                });
            }
            if !schema.attr_allowed(a, &classes) {
                return Err(ModelError::AttributeNotAllowed {
                    attr: a.to_string(),
                    classes: classes.iter().map(|c| c.to_string()).collect(),
                });
            }
        }
        self.check_rdn_in_values()
    }

    /// rdn(r) ⊆ val(r) (Definition 3.2(d)(ii)). Comparison is canonical, so
    /// a string-valued rdn pair matches an int-valued entry pair.
    pub fn check_rdn_in_values(&self) -> ModelResult<()> {
        let Some(rdn) = self.dn.rdn() else {
            return Err(ModelError::EmptyDn);
        };
        for (a, v) in rdn.pairs() {
            let found = self
                .attrs
                .iter()
                .any(|(ea, ev)| ea == a && ev.canonical() == v.canonical());
            if !found {
                return Err(ModelError::RdnNotInValues {
                    pair: format!("{a}={v}"),
                });
            }
        }
        Ok(())
    }

    /// Approximate in-memory/encoded size; used to pick blocking factors.
    pub fn approx_size(&self) -> usize {
        self.encoded_len()
    }

    /// Walk a frozen [`Record::encode`] image without building the
    /// entry: `Ok` with its DN rendering exactly when [`Entry::decode`]
    /// accepts `bytes`, otherwise the first rule broken.
    ///
    /// Total and allocation-free — every length is checked against the
    /// bytes that remain before it is used — so images received from
    /// another server can be vetted and forwarded as they are.
    pub fn validate_encoded(bytes: &[u8]) -> Result<&str, &'static str> {
        fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], &'static str> {
            if rest.len() < n {
                return Err("truncated image");
            }
            let (head, tail) = rest.split_at(n);
            *rest = tail;
            Ok(head)
        }
        fn u32_at(rest: &mut &[u8]) -> Result<usize, &'static str> {
            let b = take(rest, 4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
        }
        fn str_at<'a>(rest: &mut &'a [u8]) -> Result<&'a str, &'static str> {
            let n = u32_at(rest)?;
            std::str::from_utf8(take(rest, n)?).map_err(|_| "invalid utf-8")
        }
        fn dn_at<'a>(rest: &mut &'a [u8]) -> Result<&'a str, &'static str> {
            let s = str_at(rest)?;
            if Dn::is_valid(s) {
                Ok(s)
            } else {
                Err("bad DN")
            }
        }

        let mut rest = bytes;
        take(&mut rest, 8)?; // id
        let dn = dn_at(&mut rest)?;
        for _ in 0..u32_at(&mut rest)? {
            str_at(&mut rest)?;
            match take(&mut rest, 1)?[0] {
                0 => _ = str_at(&mut rest)?,
                1 => _ = take(&mut rest, 8)?,
                2 => _ = dn_at(&mut rest)?,
                _ => return Err("unknown value tag"),
            }
        }
        if rest.is_empty() {
            Ok(dn)
        } else {
            Err("trailing bytes")
        }
    }
}

/// Builder for [`Entry`].
///
/// `build()` sorts and dedups the pair multiset and **auto-inserts the RDN
/// pairs** if absent, so the rdn ⊆ val invariant holds by construction
/// (the figures' entries always spell these out; the builder saves callers
/// the repetition).
#[derive(Debug, Clone)]
pub struct EntryBuilder {
    dn: Dn,
    attrs: Vec<(AttrName, Value)>,
}

impl EntryBuilder {
    /// Add one `(attribute, value)` pair.
    pub fn attr(mut self, name: impl Into<AttrName>, value: impl Into<Value>) -> Self {
        self.attrs.push((name.into(), value.into()));
        self
    }

    /// Add several values for one attribute.
    pub fn attr_values<I, V>(mut self, name: impl Into<AttrName>, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let name = name.into();
        for v in values {
            self.attrs.push((name.clone(), v.into()));
        }
        self
    }

    /// Declare membership in `class` — adds an `objectClass` value.
    pub fn class(self, class: impl Into<ClassName>) -> Self {
        let class = class.into();
        self.attr(OBJECT_CLASS, class.as_str())
    }

    /// Finish the entry.
    pub fn build(self) -> ModelResult<Entry> {
        let EntryBuilder { dn, mut attrs } = self;
        if dn.is_root() {
            return Err(ModelError::EmptyDn);
        }
        // Auto-insert missing rdn pairs.
        let rdn = dn.rdn().expect("non-root dn has an rdn").clone();
        for (a, v) in rdn.pairs() {
            let present = attrs
                .iter()
                .any(|(ea, ev)| ea == a && ev.canonical() == v.canonical());
            if !present {
                attrs.push((a.clone(), v.clone()));
            }
        }
        attrs.sort_by(|x, y| {
            (x.0.canonical(), x.1.canonical()).cmp(&(y.0.canonical(), y.1.canonical()))
        });
        attrs.dedup_by(|x, y| x.0 == y.0 && x.1 == y.1);
        Ok(Entry { id: 0, dn, attrs })
    }
}

/// On-page encoding: id, DN rendering, then tagged pairs. DN-valued
/// attributes round-trip through the DN rendering (canonical equality is
/// preserved; see `Dn` docs).
impl Record for Entry {
    fn encode(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.id);
        codec::put_str(out, &self.dn.to_string());
        codec::put_u32(out, self.attrs.len() as u32);
        for (a, v) in &self.attrs {
            codec::put_str(out, a.as_str());
            match v {
                Value::Str(s) => {
                    out.push(0);
                    codec::put_str(out, s);
                }
                Value::Int(i) => {
                    out.push(1);
                    codec::put_i64(out, *i);
                }
                Value::Dn(d) => {
                    out.push(2);
                    codec::put_str(out, &d.to_string());
                }
            }
        }
    }

    fn decode(bytes: &[u8]) -> PagerResult<Self> {
        let mut r = codec::Reader::new(bytes);
        let id = r.get_u64()?;
        let dn_str = r.get_str()?.to_string();
        let dn = Dn::parse(&dn_str).map_err(|e| PagerError::CorruptRecord {
            detail: format!("bad DN in entry record: {e}"),
        })?;
        let n = r.get_u32()? as usize;
        // A pair takes at least 9 bytes; a corrupt count must not size
        // the allocation.
        let mut attrs = Vec::with_capacity(n.min(r.remaining() / 9));
        for _ in 0..n {
            let a = AttrName::new(r.get_str()?);
            let v = match r.get_u8()? {
                0 => Value::Str(r.get_str()?.to_string()),
                1 => Value::Int(r.get_i64()?),
                2 => {
                    let s = r.get_str()?;
                    Value::Dn(Dn::parse(s).map_err(|e| PagerError::CorruptRecord {
                        detail: format!("bad DN value: {e}"),
                    })?)
                }
                t => {
                    return Err(PagerError::CorruptRecord {
                        detail: format!("unknown value tag {t}"),
                    })
                }
            };
            attrs.push((a, v));
        }
        r.finish()?;
        Ok(Entry { id, dn, attrs })
    }

    // ---- v2 (compressed) page hooks -------------------------------------
    //
    // The frozen `encode`/`decode` pair above stays the wire format (WAL
    // records, network frames). On v2 pages the entry is split: the
    // reverse-DN sort key becomes the page key (prefix-compressed against
    // its on-page predecessor) and the body is slimmed — varint id, the
    // DN only when not reconstructible from the key, and attribute names
    // as fixed-width interned ids.
    //
    // The id width is deliberately fixed at 4 bytes: threads writing
    // through one pager may intern names in different orders, and only
    // encoded *sizes* must stay the same whatever the order for page
    // layouts, and so the page-I/O ledger, to be deterministic.

    fn page_key(&self) -> Option<Vec<u8>> {
        Some(self.dn.sort_key().as_bytes().to_vec())
    }

    fn page_key_of_encoded(bytes: &[u8]) -> PagerResult<Option<Vec<u8>>> {
        let mut r = codec::Reader::new(bytes);
        let _id = r.get_u64()?;
        let dn_str = r.get_str()?;
        let dn = Dn::parse(dn_str).map_err(|e| PagerError::CorruptRecord {
            detail: format!("bad DN in entry record: {e}"),
        })?;
        Ok(Some(dn.sort_key().as_bytes().to_vec()))
    }

    fn encode_body(&self, out: &mut Vec<u8>, ctx: &PageCtx) {
        codec::put_varint(&mut *out, self.id);
        let display = self.dn.to_string();
        let reconstructible = dn_from_page_key(self.dn.sort_key().as_bytes())
            .is_some_and(|d| d == self.dn && d.to_string() == display);
        if reconstructible {
            out.push(0);
        } else {
            out.push(1);
            codec::put_vstr(&mut *out, &display);
        }
        codec::put_varint(&mut *out, self.attrs.len() as u64);
        for (a, v) in &self.attrs {
            out.extend_from_slice(&ctx.interner.intern(a.as_str()).to_le_bytes());
            match v {
                Value::Str(s) => {
                    out.push(0);
                    codec::put_vstr(&mut *out, s);
                }
                Value::Int(i) => {
                    out.push(1);
                    codec::put_i64(out, *i);
                }
                Value::Dn(d) => {
                    out.push(2);
                    codec::put_vstr(&mut *out, &d.to_string());
                }
            }
        }
    }

    fn decode_body(key: &[u8], body: &[u8], ctx: &PageCtx) -> PagerResult<Self> {
        let mut r = codec::Reader::new(body);
        let id = r.get_varint()?;
        let dn = match r.get_u8()? {
            0 => dn_from_page_key(key).ok_or_else(|| PagerError::CorruptRecord {
                detail: "DN not reconstructible from page key".into(),
            })?,
            1 => {
                let s = r.get_vstr()?;
                Dn::parse(s).map_err(|e| PagerError::CorruptRecord {
                    detail: format!("bad DN in entry record: {e}"),
                })?
            }
            t => {
                return Err(PagerError::CorruptRecord {
                    detail: format!("unknown DN flag {t}"),
                })
            }
        };
        let n = r.get_varint()? as usize;
        if n > body.len() {
            return Err(PagerError::CorruptRecord {
                detail: format!("implausible attribute count {n}"),
            });
        }
        let mut attrs = Vec::with_capacity(n);
        for _ in 0..n {
            let attr_id = r.get_u32()?;
            let name = ctx
                .interner
                .resolve(attr_id)
                .ok_or_else(|| PagerError::CorruptRecord {
                    detail: format!("unknown interned attribute id {attr_id}"),
                })?;
            let v = match r.get_u8()? {
                0 => Value::Str(r.get_vstr()?.to_string()),
                1 => Value::Int(r.get_i64()?),
                2 => {
                    let s = r.get_vstr()?;
                    Value::Dn(Dn::parse(s).map_err(|e| PagerError::CorruptRecord {
                        detail: format!("bad DN value: {e}"),
                    })?)
                }
                t => {
                    return Err(PagerError::CorruptRecord {
                        detail: format!("unknown value tag {t}"),
                    })
                }
            };
            attrs.push((AttrName::new(name), v));
        }
        r.finish()?;
        Ok(Entry { id, dn, attrs })
    }
}

impl std::fmt::Display for Entry {
    /// Figure-style rendering: the DN, then one `attr: value` line per pair.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "dn: {}", self.dn)?;
        for (a, v) in &self.attrs {
            writeln!(f, "  {a}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Entry {
        Entry::builder(Dn::parse("uid=jag, ou=userProfiles, dc=att, dc=com").unwrap())
            .class("inetOrgPerson")
            .class("TOPSSubscriber")
            .attr("commonName", "h jagadish")
            .attr("surName", "jagadish")
            .attr("priority", 2i64)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_auto_inserts_rdn_pair_and_sorts() {
        let e = sample();
        assert!(e.has_attr(&"uid".into()));
        assert_eq!(e.first_str(&"uid".into()), Some("jag"));
        e.check_rdn_in_values().unwrap();
        let pairs = e.pairs();
        for w in pairs.windows(2) {
            assert!(
                (w[0].0.canonical(), w[0].1.canonical())
                    <= (w[1].0.canonical(), w[1].1.canonical())
            );
        }
    }

    #[test]
    fn classes_come_from_object_class_values() {
        let e = sample();
        let classes = e.classes();
        assert_eq!(classes.len(), 2);
        assert!(e.has_class(&"TOPSSubscriber".into()));
        assert!(e.has_class(&"inetorgperson".into()));
        assert!(!e.has_class(&"router".into()));
    }

    #[test]
    fn multivalued_attributes() {
        let e = Entry::builder(Dn::parse("cn=p, dc=com").unwrap())
            .class("policy")
            .attr_values("PVDayOfWeek", [6i64, 7i64])
            .build()
            .unwrap();
        let days: Vec<i64> = e
            .values(&"pvdayofweek".into())
            .filter_map(|v| v.as_int())
            .collect();
        assert_eq!(days, vec![6, 7]);
    }

    #[test]
    fn duplicate_pairs_collapse() {
        let e = Entry::builder(Dn::parse("cn=p, dc=com").unwrap())
            .class("c")
            .attr("x", "1")
            .attr("x", "1")
            .build()
            .unwrap();
        assert_eq!(e.values(&"x".into()).count(), 1);
    }

    #[test]
    fn record_roundtrip() {
        let mut e = sample();
        e.set_id(17);
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let back = Entry::decode(&buf).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.id(), 17);
    }

    #[test]
    fn record_roundtrip_with_dn_value() {
        let target = Dn::parse("DSActionName=denyAll, ou=SLADSAction, dc=com").unwrap();
        let e = Entry::builder(Dn::parse("SLAPolicyName=dso, dc=com").unwrap())
            .class("SLAPolicyRules")
            .attr("SLADSActRef", target.clone())
            .build()
            .unwrap();
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let back = Entry::decode(&buf).unwrap();
        assert_eq!(back.first_dn(&"sladsactref".into()), Some(&target));
    }

    #[test]
    fn root_dn_entry_rejected() {
        assert!(matches!(
            Entry::builder(Dn::root()).class("c").build(),
            Err(ModelError::EmptyDn)
        ));
    }

    #[test]
    fn validate_against_schema() {
        use crate::value::TypeName;
        let schema = Schema::builder()
            .attr("uid", TypeName::Str)
            .attr("ou", TypeName::Str)
            .attr("dc", TypeName::Str)
            .attr("commonName", TypeName::Str)
            .attr("surName", TypeName::Str)
            .attr("priority", TypeName::Int)
            .class("inetOrgPerson", ["uid", "commonName", "surName"])
            .class("TOPSSubscriber", ["uid", "priority"])
            .build()
            .unwrap();
        sample().validate(&schema).unwrap();

        // Attribute allowed by neither class.
        let bad = Entry::builder(Dn::parse("uid=x, dc=com").unwrap())
            .class("inetOrgPerson")
            .attr("priority", 1i64)
            .build()
            .unwrap();
        assert!(matches!(
            bad.validate(&schema),
            Err(ModelError::AttributeNotAllowed { .. })
        ));

        // Wrong type.
        let bad = Entry::builder(Dn::parse("uid=x, dc=com").unwrap())
            .class("TOPSSubscriber")
            .attr("priority", "high")
            .build()
            .unwrap();
        assert!(matches!(
            bad.validate(&schema),
            Err(ModelError::TypeMismatch { .. })
        ));

        // Unknown class.
        let bad = Entry::builder(Dn::parse("uid=x, dc=com").unwrap())
            .class("ghost")
            .build()
            .unwrap();
        assert!(matches!(
            bad.validate(&schema),
            Err(ModelError::UnknownClass { .. })
        ));

        // No classes at all.
        let bad = Entry::builder(Dn::parse("uid=x, dc=com").unwrap())
            .build()
            .unwrap();
        assert!(matches!(bad.validate(&schema), Err(ModelError::NoClasses)));
    }

    #[test]
    fn display_is_figure_style() {
        let s = sample().to_string();
        assert!(s.starts_with("dn: uid=jag"));
        assert!(s.contains("surName: jagadish"));
    }

    #[test]
    fn v2_body_roundtrips_through_page_key() {
        use netdir_pager::Interner;
        let interner = Interner::new();
        let ctx = PageCtx {
            interner: &interner,
        };
        let mut e = sample();
        e.set_id(99);
        let key = e.page_key().unwrap();
        assert_eq!(key, e.dn().sort_key().as_bytes());
        let mut body = Vec::new();
        e.encode_body(&mut body, &ctx);
        let back = Entry::decode_body(&key, &body, &ctx).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.id(), 99);
        assert_eq!(back.dn().to_string(), e.dn().to_string());
        // The slim body beats the full v1 image.
        assert!(body.len() < e.encoded_len());
    }

    #[test]
    fn v2_body_keeps_non_canonical_dn_rendering() {
        // Mixed-case DN: the sort key is case-folded, so the display
        // cannot be rebuilt from it — the body must carry it explicitly
        // and the rendering must survive byte-for-byte.
        use netdir_pager::Interner;
        let interner = Interner::new();
        let ctx = PageCtx {
            interner: &interner,
        };
        let e = Entry::builder(Dn::parse("uid=Jag, dc=ATT, dc=com").unwrap())
            .class("person")
            .build()
            .unwrap();
        let key = e.page_key().unwrap();
        let mut body = Vec::new();
        e.encode_body(&mut body, &ctx);
        let back = Entry::decode_body(&key, &body, &ctx).unwrap();
        assert_eq!(back.dn().to_string(), "uid=Jag, dc=ATT, dc=com");
        assert_eq!(back, e);
    }

    #[test]
    fn v2_body_roundtrips_dn_valued_attributes() {
        use netdir_pager::Interner;
        let interner = Interner::new();
        let ctx = PageCtx {
            interner: &interner,
        };
        let target = Dn::parse("DSActionName=denyAll, ou=SLADSAction, dc=com").unwrap();
        let e = Entry::builder(Dn::parse("SLAPolicyName=dso, dc=com").unwrap())
            .class("SLAPolicyRules")
            .attr("SLADSActRef", target.clone())
            .attr("priority", 3i64)
            .build()
            .unwrap();
        let key = e.page_key().unwrap();
        let mut body = Vec::new();
        e.encode_body(&mut body, &ctx);
        let back = Entry::decode_body(&key, &body, &ctx).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.first_dn(&"sladsactref".into()), Some(&target));
    }

    #[test]
    fn v1_raw_key_extraction_matches_sort_key() {
        let mut e = sample();
        e.set_id(5);
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let key = Entry::page_key_of_encoded(&buf).unwrap().unwrap();
        assert_eq!(key, e.dn().sort_key().as_bytes());
    }
}
