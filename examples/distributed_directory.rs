//! Distributed evaluation across delegated servers (Section 8.3).
//!
//! ```sh
//! cargo run --example distributed_directory
//! ```
//!
//! Splits one namespace across four servers DNS-style, then runs the same
//! queries from different home servers, printing what each evaluation
//! shipped over the simulated network — including the Example 4.1
//! comparison against the LDAP baseline (two round-trips plus client-side
//! difference).

use netdir::filter::{parse_composite, Scope};
use netdir::model::{Directory, Dn, Entry};
use netdir::pager::Pager;
use netdir::query::parse_query;
use netdir::server::node::{decode_entries, images};
use netdir::server::ClusterBuilder;

fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

fn build_directory() -> Directory {
    let mut d = Directory::new();
    let mut add = |s: &str, sn: Option<&str>| {
        let mut b = Entry::builder(dn(s)).class("thing");
        if let Some(sn) = sn {
            b = b.attr("surName", sn).class("person");
        }
        d.insert(b.build().unwrap()).unwrap();
    };
    add("dc=com", None);
    add("dc=att, dc=com", None);
    add("ou=people, dc=att, dc=com", None);
    add("dc=research, dc=att, dc=com", None);
    add("ou=people, dc=research, dc=att, dc=com", None);
    add("dc=org", None);
    for i in 0..12 {
        let (parent, sn) = if i % 3 == 0 {
            ("ou=people, dc=research, dc=att, dc=com", "jagadish")
        } else if i % 3 == 1 {
            ("ou=people, dc=att, dc=com", "jagadish")
        } else {
            ("ou=people, dc=att, dc=com", "srivastava")
        };
        add(&format!("uid=u{i}, {parent}"), Some(sn));
    }
    d
}

fn main() {
    let dir = build_directory();
    let cluster = ClusterBuilder::new()
        .server("root", dn("dc=com"))
        .server("att", dn("dc=att, dc=com"))
        .server("research", dn("dc=research, dc=att, dc=com"))
        .server("org", dn("dc=org"))
        .build(&dir);
    println!("cluster: {} servers, {} entries total", cluster.num_servers(), dir.len());
    for (ctx, id) in cluster.delegation().contexts() {
        println!(
            "   server {:<9} owns {:<35} ({} entries)",
            cluster.store(id).config.name,
            ctx.to_string(),
            cluster.store(id).num_entries
        );
    }

    let q41 = parse_query(
        "(- (dc=att, dc=com ? sub ? surName=jagadish) \
           (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
    )
    .unwrap();

    println!("\n── Example 4.1 posed to each server ──");
    for home in ["att", "research", "org"] {
        let pager = Pager::new(2048, 32);
        cluster.net().reset();
        let hits = cluster.query_from(home, &pager, &q41).expect("query");
        println!(
            "from {:<9}: {} answers, network: {}",
            home,
            hits.len(),
            cluster.net().snapshot()
        );
    }

    println!("\n── the LDAP workaround for Example 4.1 ──");
    // The baseline language has one base and one scope, so the
    // application must pose two queries — each answered by the server
    // owning its base — and difference them itself.
    let filter = parse_composite("(surName=jagadish)").unwrap();
    let search = |base: &str| {
        let owner = cluster.delegation().owner_group_of(&dn(base)).unwrap()[0];
        let hits = cluster.store(owner).ldap(&dn(base), Scope::Sub, &filter).unwrap();
        decode_entries(&images(hits)).unwrap()
    };
    let att_all = search("dc=att, dc=com");
    let research_all = search("dc=research, dc=att, dc=com");
    let client_side: Vec<_> = att_all
        .iter()
        .filter(|e| research_all.iter().all(|r| r.dn() != e.dn()))
        .collect();
    println!(
        "two LDAP searches returned {} + {} entries; client-side diff → {}",
        att_all.len(),
        research_all.len(),
        client_side.len()
    );
    println!(
        "(the L0 query shipped only what the operators needed and \
         computed the difference at the server)"
    );

    println!("\n── an L1 query crossing zone cuts ──");
    let q = parse_query(
        "(c (dc=com ? sub ? objectClass=thing) \
            (null-dn ? sub ? surName=jagadish))",
    )
    .unwrap();
    let pager = Pager::new(2048, 32);
    cluster.net().reset();
    let hits = cluster.query_from("root", &pager, &q).expect("query");
    println!("entries with a jagadish child: {}", hits.len());
    for e in &hits {
        println!("   {}", e.dn());
    }
    println!("network: {}", cluster.net().snapshot());
}
