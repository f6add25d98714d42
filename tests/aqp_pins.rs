//! Tier-1 guard for the AQP answers: every SSB and Flights query runs
//! through `execute_aqp` on a small seeded fixture, and each answer — every
//! group key, point value, confidence bound and count estimate — is folded
//! into one FNV-1a hash and pinned. A change to how GROUP BY fans out or
//! registers its probes must leave every hash as it is: the answers are
//! bitwise identical or the change is wrong.

use deepdb::data::{flights, ssb, NamedQuery, Scale};
use deepdb::prelude::*;
use deepdb::AqpResult;

const SMALL: Scale = Scale {
    factor: 0.02,
    seed: 42,
};

/// The pinned answer hashes, SSB then Flights, in each workload's order.
const PINS: [(&str, u64); 24] = [
    ("S1.1", 0x7e6cc0d73e3074fe),
    ("S1.2", 0xa51399fb2e29f1b6),
    ("S1.3", 0x796167310cba2d7a),
    ("S2.1", 0xa733e8e998d2a18a),
    ("S2.2", 0xdc59e7bcd292053f),
    ("S2.3", 0xd022969e5d941564),
    ("S3.1", 0x0c63b0def0fb6c73),
    ("S3.2", 0xa8c7f832281a39c5),
    ("S3.3", 0xa8c7f832281a39c5),
    ("S3.4", 0xa8c7f832281a39c5),
    ("S4.1", 0x8f693438cc0d6085),
    ("S4.2", 0x8da9653b6afdcd33),
    ("S4.3", 0xa8c7f832281a39c5),
    ("F1.1", 0x350d3e0b95a1ce35),
    ("F1.2", 0x3cda7afaa2d8e3fe),
    ("F2.1", 0x4145ede3cc7a0713),
    ("F2.2", 0xf9df92c373978ecd),
    ("F2.3", 0xbc453cc1a1fdb20f),
    ("F3.1", 0x701ff73809f5500c),
    ("F3.2", 0x73d84e201620aeca),
    ("F3.3", 0x5df19487712d63d4),
    ("F4.1", 0xc62e9ba1ff828023),
    ("F4.2", 0xa920a33fcdd1625c),
    ("F5.1", 0xa6f7f67215b22fde),
];

/// FNV-1a, 64-bit, folded into a running hash.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn answer_hash(out: &AqpOutput) -> u64 {
    let result = |h: u64, r: &AqpResult| {
        [r.value, r.ci_low, r.ci_high, r.count_estimate]
            .iter()
            .fold(h, |h, x| fnv1a64(h, &x.to_bits().to_le_bytes()))
    };
    let h = 0xcbf2_9ce4_8422_2325;
    match out {
        AqpOutput::Scalar(r) => result(h, r),
        AqpOutput::Grouped(groups) => groups.iter().fold(
            fnv1a64(h, &(groups.len() as u64).to_le_bytes()),
            |h, (key, r)| result(fnv1a64(h, format!("{key:?}").as_bytes()), r),
        ),
    }
}

/// (name, hash) of every query's answer on one learned fixture.
fn answers(db: &Database, queries: &[NamedQuery]) -> Vec<(String, u64)> {
    let params = EnsembleParams {
        seed: SMALL.seed,
        ..EnsembleParams::default()
    };
    let ens = EnsembleBuilder::new(db).params(params).build().unwrap();
    queries
        .iter()
        .map(|nq| {
            let out =
                execute_aqp(&ens, db, &nq.query).unwrap_or_else(|e| panic!("{}: {e}", nq.name));
            (nq.name.clone(), answer_hash(&out))
        })
        .collect()
}

#[test]
fn ssb_and_flights_answers_match_their_pins() {
    let ssb_db = ssb::generate(SMALL);
    let flights_db = flights::generate(SMALL);
    let got: Vec<(String, u64)> = answers(&ssb_db, &ssb::queries(&ssb_db))
        .into_iter()
        .chain(answers(&flights_db, &flights::queries(&flights_db)))
        .collect();
    let pinned: Vec<(String, u64)> = PINS.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    let report: String = got
        .iter()
        .map(|(n, h)| format!("    (\"{n}\", 0x{h:016x}),\n"))
        .collect();
    assert_eq!(
        got, pinned,
        "AQP answers changed; they now hash to:\n{report}"
    );
}
