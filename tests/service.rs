//! The frames every daemon answers, pinned in process on the one
//! service they all run: a one-context service owning the write path
//! (what `netdird` serves by default) and a three-zone fleet of
//! read-only services sharing one cluster (what each loopback daemon
//! serves). No socket is involved; `handle` is called directly.

use netdir::filter::{parse_atomic, parse_composite, Scope};
use netdir::model::{Directory, Dn, Entry};
use netdir::obs::MetricsRegistry;
use netdir::pager::{default_pager, Pager};
use netdir::server::node::images;
use netdir::server::{Cluster, ClusterBuilder};
use netdir::wire::{DirectoryService, WireRequest, WireResponse, WireService};
use netdir_journal::{JournalStore, Mutation, MutationBatch};
use std::sync::Arc;

/// Both operands need the research zone, the first also the att zone.
const SPANNING: &str = "(- (dc=att, dc=com ? sub ? surName=jagadish) \
                          (dc=research, dc=att, dc=com ? sub ? surName=jagadish))";

const ATT_PEOPLE: &str = "(dc=att, dc=com ? sub ? surName=jagadish)";

fn dn(s: &str) -> Dn {
    Dn::parse(s).unwrap()
}

fn person(uid: &str, ou: &str, sn: &str) -> Entry {
    let s = format!("uid={uid}, ou=people, {ou}");
    Entry::builder(dn(&s)).class("thing").attr("surName", sn).build().unwrap()
}

fn dir() -> Directory {
    let mut d = Directory::new();
    for s in ["dc=com", "dc=att, dc=com", "dc=research, dc=att, dc=com"] {
        d.insert(Entry::builder(dn(s)).class("thing").build().unwrap()).unwrap();
        let ou = format!("ou=people, {s}");
        d.insert(Entry::builder(dn(&ou)).class("thing").build().unwrap()).unwrap();
    }
    d.insert(person("jag", "dc=att, dc=com", "jagadish")).unwrap();
    d.insert(person("lak", "dc=att, dc=com", "lakshmanan")).unwrap();
    d.insert(person("jag2", "dc=research, dc=att, dc=com", "jagadish")).unwrap();
    d
}

/// `netdird`'s default shape: one server owning the whole namespace,
/// with a journal.
fn one_context() -> DirectoryService {
    let journal = JournalStore::create(&Pager::new(1024, 64), dir()).unwrap();
    let shape = ClusterBuilder::new().server("root", Dn::root());
    DirectoryService::journaled(journal, shape, None, MetricsRegistry::new())
}

/// Three zones, one read-only service per server over one shared
/// cluster, as a loopback fleet launches them.
fn fleet() -> (Arc<Cluster>, Vec<DirectoryService>) {
    let cluster = Arc::new(
        ClusterBuilder::new()
            .server("root", dn("dc=com"))
            .server("att", dn("dc=att, dc=com"))
            .server("research", dn("dc=research, dc=att, dc=com"))
            .build(&dir()),
    );
    let services = (0..cluster.num_servers())
        .map(|home| DirectoryService::new(cluster.clone(), home, MetricsRegistry::new()))
        .collect();
    (cluster, services)
}

fn query(home: &str, text: &str) -> WireRequest {
    WireRequest::Query { home: home.into(), text: text.into() }
}

fn entries(resp: WireResponse) -> Vec<Vec<u8>> {
    match resp {
        WireResponse::Entries(encoded) => encoded,
        other => panic!("expected entries, got {other:?}"),
    }
}

#[test]
fn an_empty_home_is_the_services_own_server() {
    let (cluster, services) = fleet();
    let mut shipped = Vec::new();
    for (id, service) in services.iter().enumerate() {
        let name = &cluster.store(id).config.name;
        cluster.net().reset();
        let unnamed = service.handle(query("", SPANNING));
        let unnamed_net = cluster.net().snapshot();
        cluster.net().reset();
        // Same answer and same shipping: the query was posed to `name`.
        assert_eq!(unnamed, service.handle(query(name, SPANNING)), "{name}");
        assert_eq!(unnamed_net, cluster.net().snapshot(), "{name}");
        assert_eq!(entries(unnamed).len(), 1);
        shipped.push(unnamed_net.requests);
    }
    // Posed to root, att and research, the query ships 3, 2 and 1
    // sub-queries: the home really differs between the services.
    assert_eq!(shipped, vec![3, 2, 1]);

    let one = one_context();
    let unnamed = one.handle(query("", SPANNING));
    assert_eq!(unnamed, one.handle(query("root", SPANNING)));
    assert_eq!(entries(unnamed).len(), 1);
}

#[test]
fn an_unknown_home_gets_one_error_text_from_every_service() {
    let (_cluster, services) = fleet();
    let one = one_context();
    let want = WireResponse::Error("no such server: nope".into());
    let (home, text) = (String::from("nope"), String::from(SPANNING));
    for service in services.iter().chain([&one]) {
        for req in [
            query(&home, &text),
            WireRequest::QueryPartial { home: home.clone(), text: text.clone() },
            WireRequest::QueryAnalyze { home: home.clone(), text: text.clone() },
        ] {
            assert_eq!(service.handle(req), want);
        }
    }
}

#[test]
fn mutate_needs_the_write_path() {
    let added = person("new", "dc=att, dc=com", "jagadish");
    let batch = MutationBatch::from_mutations(vec![Mutation::Add(added)]);

    let (_cluster, services) = fleet();
    let before = services[1].handle(query("", ATT_PEOPLE));
    assert_eq!(
        services[1].handle(WireRequest::Mutate { batch: batch.clone() }),
        WireResponse::Error("this node is read-only; mutate the primary daemon".into())
    );
    assert_eq!(services[1].handle(query("", ATT_PEOPLE)), before);

    let one = one_context();
    assert_eq!(entries(one.handle(query("", ATT_PEOPLE))).len(), 2);
    assert_eq!(
        one.handle(WireRequest::Mutate { batch }),
        WireResponse::Mutated { epoch: 1, mutations: 1 }
    );
    assert_eq!(entries(one.handle(query("", ATT_PEOPLE))).len(), 3);
}

/// A one-context service's `Atomic` frames are the routed atomic
/// answer, byte for byte, before and after a mutation publishes a new
/// generation.
#[test]
fn one_context_atomic_frames_match_the_routed_atomic() {
    let one = one_context();
    let mut bases: Vec<Dn> = dir().iter_sorted().map(|e| e.dn().clone()).collect();
    bases.extend([dn("uid=nobody, ou=people, dc=com"), dn("dc=org")]);
    let batch = MutationBatch::from_mutations(vec![
        Mutation::Add(person("new", "dc=att, dc=com", "jagadish")),
        Mutation::Delete(dn("uid=lak, ou=people, dc=att, dc=com")),
    ]);
    let mut nonempty = 0;
    for round in 0..2 {
        let cluster = one.cluster();
        for base in &bases {
            for scope in [Scope::Base, Scope::One, Scope::Sub] {
                for text in ["objectClass=*", "surName=jagadish", "surName=*a*", "uid=none"] {
                    let filter = parse_atomic(text).unwrap();
                    let routed =
                        cluster.router().atomic(0, &default_pager(), base, scope, &filter).unwrap();
                    nonempty += usize::from(!routed.is_empty());
                    let context = format!("{round}: {base} {scope:?} {text}");
                    let base = base.clone();
                    let frame = one.handle(WireRequest::Atomic { base, scope, filter });
                    assert_eq!(frame, WireResponse::Entries(routed), "{context}");
                }
            }
        }
        one.handle(WireRequest::Mutate { batch: batch.clone() });
    }
    assert!(nonempty > 20, "too few nonempty answers: {nonempty}");
}

/// In a fleet, `Atomic` and `Ldap` frames are the server side of a
/// shipped sub-query: a service answers them from its own zone alone,
/// and a routed answer is a `Query` frame.
#[test]
fn fleet_atomic_and_ldap_frames_answer_from_the_home_zone() {
    let (cluster, services) = fleet();
    let (att, base, scope) = (cluster.store(1), dn("dc=att, dc=com"), Scope::Sub);
    let filter = parse_atomic("surName=jagadish").unwrap();
    let want = images(att.atomic(&base, scope, &filter).unwrap());
    assert_eq!(want.len(), 1, "the att zone holds one of the two under dc=att");
    let frame = services[1].handle(WireRequest::Atomic { base: base.clone(), scope, filter });
    assert_eq!(frame, WireResponse::Entries(want));
    let filter = parse_composite("(&(objectClass=thing)(surName=jagadish))").unwrap();
    let want = images(att.ldap(&base, scope, &filter).unwrap());
    let frame = services[1].handle(WireRequest::Ldap { base, scope, filter });
    assert_eq!(frame, WireResponse::Entries(want));
    assert_eq!(entries(services[1].handle(query("", ATT_PEOPLE))).len(), 2);
}
