//! The atomic-evaluation core of `netdir-index`, at a reduced case
//! count: `crates/index/tests/atomic_prop.rs`'s differential checks
//! over one seeded forest instead of four and v1 pages only (the
//! daemon's format), and its access-path check, so the root suite
//! covers the index every query's leaves come from.

#[path = "../crates/index/tests/atomic/mod.rs"]
mod atomic;

use netdir_pager::Pager;

#[test]
fn every_atomic_answer_is_byte_identical_to_the_oracle() {
    let (checked, nonempty) = atomic::answers_match_the_oracle(0..1, &[Pager::new]);
    assert!(checked > 1_500, "{checked} cells");
    assert!(nonempty * 5 > checked, "{nonempty} of {checked} non-empty");
}

#[test]
fn a_table_plus_its_delta_answers_like_the_written_directory() {
    let (checked, shadowed) = atomic::deltas_answer_like_the_written_directory(0..1, &[Pager::new]);
    assert!(checked > 1_500, "{checked} cells");
    assert!(shadowed > 0, "some delta deletes a table entry");
}

#[test]
fn an_integer_or_substring_leaf_takes_the_path_the_rule_prices() {
    let tally = atomic::priced_paths(5_000);
    assert!(tally.checked > 500, "{tally:?}");
    assert!(tally.scanned > 50 && tally.probed > 50, "{tally:?}");
}
