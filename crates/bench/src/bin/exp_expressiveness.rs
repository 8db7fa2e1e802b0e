//! E10 — Theorem 8.1 made operational: what each language level buys.
//!
//! For each strict inclusion the witness query runs, and for the
//! LDAP ⊂ L0 step the Example 4.1 workaround is *measured*: the baseline
//! needs two round trips and ships a superset for client-side
//! differencing; one L0 query ships only the answer.
//!
//! ```sh
//! cargo run --release -p netdir-bench --bin exp_expressiveness
//! ```

use netdir_bench::{cells, table};
use netdir_model::{Directory, Dn, Entry};
use netdir_pager::Pager;
use netdir_query::{classify, parse_query};
use netdir_server::node::{decode_entries, images};
use netdir_server::ClusterBuilder;
use netdir_filter::{parse_composite, Scope};

fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

fn build_directory(people: usize) -> Directory {
    let mut d = Directory::new();
    let mut add = |e: Entry| d.insert(e).unwrap();
    for s in ["dc=com", "dc=att, dc=com", "dc=research, dc=att, dc=com"] {
        add(Entry::builder(dn(s)).class("dcObject").build().unwrap());
    }
    for (ou, parent) in [
        ("people", "dc=att, dc=com"),
        ("people", "dc=research, dc=att, dc=com"),
    ] {
        add(Entry::builder(dn(&format!("ou={ou}, {parent}")))
            .class("organizationalUnit")
            .build()
            .unwrap());
    }
    for i in 0..people {
        let parent = if i % 3 == 0 {
            "ou=people, dc=research, dc=att, dc=com"
        } else {
            "ou=people, dc=att, dc=com"
        };
        add(Entry::builder(dn(&format!("uid=u{i:04}, {parent}")))
            .class("inetOrgPerson")
            .attr("surName", if i % 2 == 0 { "jagadish" } else { "srivastava" })
            .build()
            .unwrap());
    }
    d
}

fn main() {
    println!("E10 — Theorem 8.1: LDAP ⊂ L0 ⊂ L1 ⊂ L2 ⊂ L3\n");

    println!("the witness queries and their classification:");
    table::header(&["level", "nodes", "construct"]);
    for (lang, q, why) in netdir_query::lang::witnesses() {
        assert_eq!(classify(&q), lang);
        table::row(cells![lang, q.num_nodes(), why]);
    }

    println!("\nExample 4.1 measured: LDAP workaround vs one L0 query");
    table::header(&[
        "people", "ldap trips", "ldap entries", "l0 trips", "l0 entries", "answer",
    ]);
    for people in [300usize, 1_000, 3_000] {
        let dir = build_directory(people);
        let cluster = ClusterBuilder::new()
            .server("att", dn("dc=att, dc=com"))
            .server("research", dn("dc=research, dc=att, dc=com"))
            .build(&dir);

        // LDAP baseline: the application (client) runs two searches
        // against the servers and differences them itself.
        let filter = parse_composite("(surName=jagadish)").unwrap();
        let search = |base: &str| {
            // Answered by the server owning the base, from its zone alone.
            let owner = cluster.delegation().owner_group_of(&dn(base)).unwrap()[0];
            let hits = cluster.store(owner).ldap(&dn(base), Scope::Sub, &filter).unwrap();
            decode_entries(&images(hits)).unwrap()
        };
        let att = search("dc=att, dc=com");
        let research = search("dc=research, dc=att, dc=com");
        let ldap_shipped = att.len() + research.len();
        let answer: Vec<&Entry> = att
            .iter()
            .filter(|e| research.iter().all(|r| r.dn() != e.dn()))
            .collect();

        // One L0 query posed at the att server: research's sub-result
        // ships once; the difference runs server-side.
        let q = parse_query(
            "(- (dc=att, dc=com ? sub ? surName=jagadish) \
               (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
        )
        .unwrap();
        let pager = Pager::new(4096, 48);
        cluster.net().reset();
        let l0 = cluster.query_from("att", &pager, &q).unwrap();
        let net = cluster.net().snapshot();
        assert_eq!(l0.len(), answer.len());

        table::row(cells![
            people,
            2,
            ldap_shipped,
            net.requests,
            net.entries_shipped,
            l0.len(),
        ]);
    }
    println!(
        "\n   the baseline ships the full superset to the client every \
         time; L0 ships one operand once and answers at the server \
         (Example 4.1, §4.2)"
    );
}
