//! Smoke tests: every experiment in the registry runs in quick mode and
//! produces well-formed, non-empty tables. The socket-equivalence
//! experiment (E10) asserts ledger equality internally — the single most
//! important cross-runtime invariant in the repository.

use topk_sim::experiments::{run, ExpCfg, ALL_IDS};

fn cfg() -> ExpCfg {
    ExpCfg {
        quick: true,
        seed: 0xc0ffee,
        threads: 0,
    }
}

#[test]
fn e10_socket_equivalence_holds() {
    // Run first: it asserts sequential ≡ socket ledgers internally.
    let tables = run("e10", &cfg());
    assert_eq!(tables.len(), 1);
    for row in &tables[0].rows {
        assert_eq!(row[4], "true", "equality column must hold: {row:?}");
    }
}

#[test]
fn e1_respects_theorem_bound() {
    let tables = run("e1", &cfg());
    let t = &tables[0];
    let mean_idx = t.columns.iter().position(|c| c == "mean ups").unwrap();
    let bound_idx = t
        .columns
        .iter()
        .position(|c| c.starts_with("bound"))
        .unwrap();
    for row in &t.rows {
        let mean: f64 = row[mean_idx].parse().unwrap();
        let bound: f64 = row[bound_idx].parse().unwrap();
        assert!(mean <= bound, "mean {mean} > bound {bound} in row {row:?}");
    }
}

#[test]
fn e12_structural_identities() {
    // e12 asserts handler_calls == violation_steps internally.
    let tables = run("e12", &cfg());
    assert!(!tables[0].rows.is_empty());
}

#[test]
fn full_registry_quick() {
    // Everything runs and renders (heavier ids already covered above are
    // included for registry completeness — quick mode keeps this bounded).
    for id in ALL_IDS {
        let tables = run(id, &cfg());
        assert!(!tables.is_empty(), "{id} produced no tables");
        for t in &tables {
            assert!(!t.rows.is_empty(), "{id}/{} is empty", t.id);
            assert!(t.to_markdown().contains(&t.id));
            assert!(!t.to_csv().is_empty());
            for row in &t.rows {
                assert_eq!(row.len(), t.columns.len());
            }
        }
    }
}
