//! The fixture the loopback and chaos suites share.

use netdir_model::{Directory, Dn, Entry};
use netdir_server::ClusterBuilder;

pub fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

/// The distributed-evaluation test directory (three zones under `dc=com`
/// plus a disjoint `dc=org`), extended with a traffic profile in the
/// `att` zone and an SLA policy in the `research` zone that references
/// it across the zone cut — so an L3 `vd` query must join entries owned
/// by different servers.
pub fn dir() -> Directory {
    let mut d = Directory::new();
    let mut add = |e: Entry| d.insert(e).unwrap();
    let plain = |s: &str| Entry::builder(dn(s)).class("thing").build().unwrap();
    let person = |s: &str, sn: &str| {
        Entry::builder(dn(s))
            .class("thing")
            .attr("surName", sn)
            .build()
            .unwrap()
    };
    add(plain("dc=com"));
    add(plain("dc=att, dc=com"));
    add(plain("ou=people, dc=att, dc=com"));
    add(person("uid=jag, ou=people, dc=att, dc=com", "jagadish"));
    add(plain("dc=research, dc=att, dc=com"));
    add(plain("ou=people, dc=research, dc=att, dc=com"));
    add(person(
        "uid=jag2, ou=people, dc=research, dc=att, dc=com",
        "jagadish",
    ));
    add(plain("dc=org"));
    add(plain("ou=tp, dc=att, dc=com"));
    add(
        Entry::builder(dn("TPName=mail, ou=tp, dc=att, dc=com"))
            .class("trafficProfile")
            .attr("sourcePort", 25i64)
            .build()
            .unwrap(),
    );
    add(
        Entry::builder(dn("SLAPolicyName=mail, dc=research, dc=att, dc=com"))
            .class("SLAPolicyRules")
            .attr("SLATPRef", dn("TPName=mail, ou=tp, dc=att, dc=com"))
            .build()
            .unwrap(),
    );
    d
}

pub fn builder() -> ClusterBuilder {
    ClusterBuilder::new()
        .server("root", dn("dc=com"))
        .server("att", dn("dc=att, dc=com"))
        .server("research", dn("dc=research, dc=att, dc=com"))
        .server("org", dn("dc=org"))
}
