//! The entry-image walker is total and agrees with the decoder.
//!
//! `Entry::validate_encoded` vets images received from another server
//! before they are forwarded undecoded, so it must accept exactly the
//! images `Entry::decode` accepts — valid ones, and every truncation,
//! byte flip and inflated length field of them — without panicking and
//! without allocating at all. A counting global allocator (per thread,
//! so concurrently running tests do not interfere) checks the last part.

use netdir_model::{Dn, Entry, Rdn, Value};
use netdir_pager::record::Record;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// SplitMix64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }
}

/// Strings that exercise the DN grammar: escapes, separators, padding,
/// multi-byte characters.
const TEXTS: &[&str] = &[
    "a", "jag", "Jagadish", "h jagadish", "a,b", "x=y", "p+q", "back\\slash", " pad ",
    "é", "dc", "42", "",
];

fn dn(rng: &mut Rng) -> Dn {
    let rdns: Vec<Rdn> = (0..1 + rng.below(4))
        .map(|_| {
            let pairs: Vec<_> = (0..1 + rng.below(2))
                .map(|_| {
                    let attr = rng.pick(&["dc", "ou", "cn", "uid", "CN"]);
                    let value = match rng.pick(TEXTS) {
                        "" => "v",
                        v => v,
                    };
                    (attr.into(), Value::str(value.trim()))
                })
                .collect();
            Rdn::new(pairs).unwrap()
        })
        .collect();
    Dn::from_rdns(rdns)
}

fn entry(rng: &mut Rng) -> Entry {
    let mut b = Entry::builder(dn(rng)).class(rng.pick(&["thing", "person"]));
    for _ in 0..rng.below(5) {
        let attr = rng.pick(&["surName", "weight", "ref", "cn"]);
        b = match rng.below(3) {
            0 => b.attr(attr, rng.pick(TEXTS)),
            1 => b.attr(attr, rng.next() as i64),
            _ => b.attr(attr, dn(rng)),
        };
    }
    b.build().unwrap()
}

fn image(e: &Entry) -> Vec<u8> {
    let mut buf = Vec::new();
    e.encode(&mut buf);
    buf
}

/// Offsets of every `u32` length/count field in a valid image.
fn length_fields(img: &[u8]) -> Vec<usize> {
    let u32_at = |pos: usize| u32::from_le_bytes(img[pos..pos + 4].try_into().unwrap()) as usize;
    let mut fields = vec![8];
    let mut pos = 12 + u32_at(8);
    fields.push(pos);
    let pairs = u32_at(pos);
    pos += 4;
    for _ in 0..pairs {
        fields.push(pos);
        pos += 4 + u32_at(pos);
        let tag = img[pos];
        pos += 1;
        if tag == 1 {
            pos += 8;
        } else {
            fields.push(pos);
            pos += 4 + u32_at(pos);
        }
    }
    assert_eq!(pos, img.len());
    fields
}

/// The walker's verdict on `bytes` matches the decoder's, and the walk
/// allocated nothing.
fn agrees(bytes: &[u8], what: &str) -> bool {
    let (walked, allocated) = allocated_by(|| Entry::validate_encoded(bytes));
    assert_eq!(allocated, 0, "walker allocated on {what}");
    let decoded = Entry::decode(bytes);
    assert_eq!(
        walked.is_ok(),
        decoded.is_ok(),
        "walker {walked:?} vs decoder {:?} on {what}: {bytes:?}",
        decoded.as_ref().err()
    );
    if let (Ok(dn), Ok(e)) = (walked, &decoded) {
        assert_eq!(&Dn::parse(dn).unwrap(), e.dn(), "{what}");
    }
    decoded.is_ok()
}

#[test]
fn walker_accepts_exactly_what_decode_accepts() {
    let mut rng = Rng(0x5eed_0001);
    let (mut accepted, mut rejected) = (0, 0);
    let mut tally = |ok: bool| {
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    };
    for case in 0..400 {
        let img = image(&entry(&mut rng));
        tally(agrees(&img, &format!("valid image {case}")));
        for cut in 0..img.len() {
            tally(agrees(&img[..cut], &format!("case {case} cut at {cut}")));
        }
        for flip in 0..24 {
            let mut bad = img.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bad.len());
                bad[at] ^= 1 + rng.below(255) as u8;
            }
            tally(agrees(&bad, &format!("case {case} flip {flip}")));
        }
        for field in length_fields(&img) {
            let len = u32::from_le_bytes(img[field..field + 4].try_into().unwrap());
            for inflated in [len + 1, len + 1 + rng.next() as u32 % 64, 0x7fff_ffff, u32::MAX] {
                let mut bad = img.clone();
                bad[field..field + 4].copy_from_slice(&inflated.to_le_bytes());
                tally(agrees(&bad, &format!("case {case} field {field} = {inflated}")));
            }
        }
        let mut trailing = img.clone();
        trailing.push(0);
        tally(agrees(&trailing, &format!("case {case} trailing byte")));
    }
    assert!(accepted >= 400, "every valid image is accepted");
    assert!(rejected > 10 * accepted, "mutations mostly break images");
}

#[test]
fn dn_validity_matches_the_parser() {
    const PIECES: &[&str] = &[
        "a", "b", "=", ",", "+", "\\", " ", "\t", "\0", "é", "dc", "=x",
    ];
    let mut rng = Rng(0x5eed_0002);
    for _ in 0..20_000 {
        let s: String = (0..rng.below(10)).map(|_| rng.pick(PIECES)).collect();
        let (valid, allocated) = allocated_by(|| Dn::is_valid(&s));
        assert_eq!(allocated, 0, "is_valid allocated on {s:?}");
        assert_eq!(valid, Dn::parse(&s).is_ok(), "{s:?}");
    }
}
