//! Topology JSON: one form, written and read. A topology is its link list
//! (CSR rows); `to_json` writes that list and `from_json` reads it back.
//!
//! Three layers of guarantee:
//!
//! * **Golden bytes** — every generator's JSON is pinned in
//!   `tests/golden/topology_*.json`; a changed link weight, reordered
//!   row, or float-formatting drift fails here before it can silently
//!   shift the run-level goldens.
//! * **Round trips** — parse → re-serialize is the identity, bit for bit,
//!   on every generator and on arbitrary link sets.
//! * **Hostile input** — proptest mutates valid documents (numeric
//!   extremes, fractional or huge `n`, floors, coordinates,
//!   probabilities, truncation); each is read or rejected, never a
//!   panic. A document in the dense `delivery`-matrix form older files
//!   carried is rejected the same way.
//!
//! Regenerate goldens (after an *intentional* change) with
//! `UPDATE_GOLDEN=1 cargo test --test sparse_equivalence`.

use more_repro::sim::channel::{probe_topology, ChannelSpec};
use more_repro::topology::estimator::LinkEstimator;
use more_repro::topology::{generate, Link, NodeId, Topology};
use proptest::prelude::*;

/// Every built-in generator, at sizes small enough to sweep pairwise,
/// with the stem of its golden file `tests/golden/topology_<stem>.json`.
fn generator_zoo() -> Vec<(&'static str, Topology)> {
    vec![
        ("motivating", generate::motivating()),
        ("motivating_symmetric", generate::motivating_symmetric()),
        ("line4", generate::line(4, 0.85, 0.2, 25.0)),
        ("diamond4", generate::diamond(4, 0.5)),
        (
            "diamond_symmetricized4",
            generate::diamond_symmetricized(4, 0.5),
        ),
        ("grid4x3", generate::grid(4, 3, 0.8, 0.5, 30.0)),
        ("testbed1", generate::testbed(1)),
        ("testbed12_s3", generate::testbed_sized(12, 3)),
        (
            "random_mesh24_s7",
            generate::random_mesh(24, 120.0, 80.0, 7),
        ),
        ("city200_s1", generate::city_mesh(200, 1)),
    ]
}

#[test]
fn delivery_accessors_agree_with_the_link_list() {
    for (_, topo) in generator_zoo() {
        let links: Vec<Link> = topo.links().collect();
        assert_eq!(links.len(), topo.link_count(), "{}", topo.name);
        for i in topo.nodes() {
            // The sorted out-row is exactly the links leaving i.
            let row: Vec<(NodeId, f64)> = topo.neighbors_out(i).collect();
            let expect: Vec<(NodeId, f64)> = links
                .iter()
                .filter(|l| l.from == i)
                .map(|l| (l.to, l.delivery))
                .collect();
            assert_eq!(row, expect, "{}: out-row {i}", topo.name);
            // Every other pair reads zero.
            for j in topo.nodes() {
                let p = expect.iter().find(|(to, _)| *to == j).map_or(0.0, |e| e.1);
                assert_eq!(
                    topo.delivery(i, j).to_bits(),
                    p.to_bits(),
                    "{}: delivery({i}, {j})",
                    topo.name
                );
            }
        }
    }
}

#[test]
fn sparse_json_round_trips_byte_identically() {
    for (_, topo) in generator_zoo() {
        let sparse = topo.to_json();
        let back =
            Topology::from_json(&sparse).unwrap_or_else(|e| panic!("{}: parse: {e:?}", topo.name));
        assert_eq!(back.to_json(), sparse, "{}", topo.name);
    }
}

/// Compares (or, under `UPDATE_GOLDEN=1`, rewrites) the golden file
/// `tests/golden/topology_<stem>.json`.
fn check_golden(stem: &str, actual: &str) {
    let path = format!(
        "{}/tests/golden/topology_{stem}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("write golden");
        eprintln!("updated {path}");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read golden");
    assert_eq!(
        actual, golden,
        "{path} diverged — if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test sparse_equivalence"
    );
}

/// Every generator's output, pinned byte for byte: a changed link weight,
/// a reordered row or float-formatting drift fails here before it can
/// shift the run-level goldens.
#[test]
fn every_generator_matches_its_golden_sparse_json() {
    for (stem, topo) in generator_zoo() {
        check_golden(stem, &topo.to_json());
    }
}

/// `topology_diamond4.json` as it stood in the dense `delivery` form.
const DENSE_DIAMOND4: &str = r#"{
  "name": "diamond4",
  "delivery": [
    [0, 0.5, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0.5, 0.5, 0.5, 0.5, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 0]
  ],
  "positions": null
}"#;

/// The dense form is no longer read: the diamond's old golden document
/// is a typed error naming the key it lacks, not a panic.
#[test]
fn dense_json_is_a_typed_error() {
    let read = std::panic::catch_unwind(|| Topology::from_json(DENSE_DIAMOND4));
    let err = read.expect("no panic").expect_err("dense form rejected");
    assert!(err.message.contains("\"n\""), "{err}");
}

/// The testbed as generated, and as `probe_routing` hands it to the
/// protocols: 600 probes at 1 s over the static channel and over a bursty
/// one. The probed files pin the probe path — which pairs are probed, in
/// which order, at which instants.
#[test]
fn testbed_sparse_json_matches_golden_bytes() {
    let truth = generate::testbed(1);
    check_golden("testbed1", &truth.to_json());
    let est = LinkEstimator {
        probes: 600,
        min_delivery: 0.05,
    };
    for (stem, spec) in [
        ("testbed1_probed_static", ChannelSpec::Static),
        (
            "testbed1_probed_bursty",
            ChannelSpec::bursty_matched(0.2, 0.05, 0.25, 10),
        ),
    ] {
        let probed = probe_topology(&est, &truth, &spec, 1, more_repro::sim::SEC);
        check_golden(stem, &probed.to_json());
    }
}

/// An arbitrary link set from raw proptest words, listed in reverse
/// `(from, to)` order: no self-loops, ~60% of pairs unlinked, the rest
/// uniform in `(0, 1]` with a full 53-bit mantissa (so formatting
/// shortcuts can't hide drift).
fn links_from_words(n: usize, words: &[u64]) -> Vec<Link> {
    let pairs = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).rev();
    pairs
        .filter_map(|(i, j)| {
            let w = words[i * n + j];
            (i != j && w % 5 >= 3).then(|| Link {
                from: NodeId(i),
                to: NodeId(j),
                delivery: ((w >> 11) as f64 + 1.0) / (1u64 << 53) as f64,
            })
        })
        .collect()
}

/// Every numeric token of `doc`, as byte ranges.
fn number_spans(doc: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = doc.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'-' || bytes[i].is_ascii_digit() {
            let start = i;
            i += 1;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                i += 1;
            }
            spans.push(start..i);
        } else {
            i += 1;
        }
    }
    spans
}

/// Values a hostile document puts where a number belongs. Every huge one
/// is past the `u32` index space, so a mutated `"n"` is rejected rather
/// than allocated.
const EXTREMES: &[&str] = &[
    "0",
    "-0",
    "1",
    "-1",
    "0.5",
    "2.5",
    "-2.5",
    "1.0000000000000002",
    "1e-320",
    "1e12",
    "-1e12",
    "1e400",
    "-1e400",
    "4294967295",
    "4294967296",
    "18446744073709551616",
];

/// Valid documents, with and without positions.
fn seed_documents() -> Vec<String> {
    vec![
        generate::grid(3, 2, 0.8, 0.5, 30.0).to_json(),
        generate::motivating().to_json(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Link list → CSR → link list is the identity, bit for bit, and every
    /// unlisted pair reads zero.
    #[test]
    fn csr_round_trip_is_exact_on_arbitrary_matrices(
        n in 1usize..8,
        words in collection::vec(any::<u64>(), 64),
    ) {
        let mut links = links_from_words(n, &words);
        let topo = Topology::from_links("prop", n, links.clone());
        links.reverse();
        prop_assert_eq!(topo.link_count(), links.len());
        prop_assert_eq!(topo.links().collect::<Vec<_>>(), links.clone());
        for i in topo.nodes() {
            for j in topo.nodes() {
                let p = links.iter().find(|l| (l.from, l.to) == (i, j)).map_or(0.0, |l| l.delivery);
                prop_assert_eq!(topo.delivery(i, j).to_bits(), p.to_bits(), "delivery({}, {})", i, j);
            }
        }
    }

    /// The JSON form survives a parse → re-serialize cycle on arbitrary
    /// link sets (float formatting included).
    #[test]
    fn json_forms_round_trip_on_arbitrary_matrices(
        n in 1usize..8,
        words in collection::vec(any::<u64>(), 64),
    ) {
        let topo = Topology::from_links("prop", n, links_from_words(n, &words));
        let sparse = topo.to_json();
        let back = Topology::from_json(&sparse).expect("parse");
        prop_assert_eq!(back.to_json(), sparse);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A mutated document is read or rejected with a `JsonError`, never a
    /// panic; one that is read re-serializes to a document that reads
    /// back the same. One case in four is also truncated.
    #[test]
    fn mutated_documents_are_read_or_rejected_never_a_panic(
        doc in 0usize..2,
        edits in collection::vec((any::<usize>(), 0..EXTREMES.len()), 1..4),
        cut in any::<usize>(),
    ) {
        let mut text = seed_documents().swap_remove(doc);
        for (at, value) in edits {
            let spans = number_spans(&text);
            text.replace_range(spans[at % spans.len()].clone(), EXTREMES[value]);
        }
        if cut.is_multiple_of(4) {
            text.truncate(cut / 4 % text.len());
        }
        let read = std::panic::catch_unwind(|| Topology::from_json(&text));
        prop_assert!(read.is_ok(), "from_json panicked on {text}");
        if let Ok(Ok(topo)) = read {
            let again = topo.to_json();
            let back = Topology::from_json(&again).expect("a document we wrote reads back");
            prop_assert_eq!(back.to_json(), again);
        }
    }
}
