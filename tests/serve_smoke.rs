//! Tier-1 smoke test of the serving front-end: concurrent clients through a
//! default `ServeFront` get the one-shot path's answers bit for bit, every
//! admission is released, and an uncontended front adds no batching wait.

use std::time::Instant;

use deepdb::data::{imdb, joblight, Scale};
use deepdb::prelude::*;

const CLIENTS: usize = 2;
const PER_CLIENT: usize = 200;

#[test]
fn served_answers_match_one_shot_and_nobody_waits_out_the_window() {
    let db = imdb::generate(Scale {
        factor: 0.08,
        seed: 17,
    });
    let params = EnsembleParams {
        sample_size: 20_000,
        correlation_sample: 1_500,
        seed: 17,
        ..EnsembleParams::default()
    };
    let ens = EnsembleBuilder::new(&db).params(params).build().unwrap();
    let queries: Vec<Query> = joblight::job_light(&db, 17)
        .into_iter()
        .map(|nq| nq.query)
        .collect();
    // Also warms the plan cache, so the timed rounds are all hits.
    let want: Vec<u64> = queries
        .iter()
        .map(|q| {
            compile::estimate_cardinality(&ens, &db, q)
                .unwrap()
                .to_bits()
        })
        .collect();

    let round = || {
        let front = ServeFront::new(&ens, &db);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let (front, queries, want) = (&front, &queries, &want);
                s.spawn(move || {
                    for r in 0..PER_CLIENT {
                        let i = (c + r * CLIENTS) % queries.len();
                        let got = front.serve(&queries[i], None).unwrap();
                        // `estimate_cardinality` is the COUNT estimate floored at 1.
                        let card = got.value.max(1.0).to_bits();
                        assert_eq!(card, want[i], "query {i} served wrong");
                    }
                });
            }
        });
        let wall = t0.elapsed();
        assert_eq!(front.stats().admitted, (CLIENTS * PER_CLIENT) as u64);
        assert_eq!(front.in_flight(), 0);
        wall
    };

    // A front that slept its 200 µs window once per batch would spend
    // PER_CLIENT windows on waiting alone, however the clients pair up.
    // Best of three rounds, so a scheduler hiccup on a shared host cannot
    // fail it.
    let bound = ServeConfig::default().window * PER_CLIENT as u32;
    let best = (0..3).map(|_| round()).min().unwrap();
    assert!(
        best < bound,
        "{CLIENTS}x{PER_CLIENT} served requests took {best:?}, bound {bound:?}"
    );
}
